"""The run record: what an ``--out`` file carries besides the numbers.

Enough of the system description to reproduce a run and to read the
ROADMAP's deletion trend from the same ledger: commit, seed, machine,
pinned knobs, every metric's unit/direction/bound/sample count, every
raw repetition, and ``src/`` lines of code per package.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from .calibration import KERNEL_CALLS, KERNEL_TREE, REFERENCE_S
from .runner import RunResult
from .spec import (
    CLIENTS, DECLARATION, DEFAULT_KNOBS, END_TO_END, HOT_FRACTION, PER_LAYER, ROOT,
    TABLE1_SIX, WIRE_CODEC, WORKERS, Scale,
)


def commit() -> str:
    """HEAD of the checkout, or ``unknown`` outside a git repository."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def src_loc() -> dict:
    """Lines of ``*.py`` per package under ``src/repro`` (top-level
    modules under ``repro``), plus the total."""
    base = ROOT / "src" / "repro"
    loc: dict[str, int] = {}
    for path in sorted(base.rglob("*.py")):
        parts = path.relative_to(base).parts
        package = f"repro.{parts[0]}" if len(parts) > 1 else "repro"
        with path.open("rb") as fh:
            loc[package] = loc.get(package, 0) + sum(1 for _ in fh)
    loc["total"] = sum(loc.values())
    return loc


def metric_rows(result: RunResult) -> list:
    """Every metric of one run with its declaration and sample count."""
    rows = []
    for group, values in (("end_to_end", result.end_to_end), ("per_layer", result.per_layer)):
        declared = END_TO_END if group == "end_to_end" else PER_LAYER
        for name, value in (values or {}).items():
            rows.append({
                "name": name,
                "group": group,
                "value": value,
                "unit": declared[name]["unit"],
                "better": declared[name]["better"],
                "bound": declared[name].get("bound"),
                "samples": result.samples.get(name),
            })
    return rows


def run_entry(result: RunResult) -> dict:
    entry = {
        "workload": result.workload,
        "seed": result.seed,
        "seconds": result.seconds,
        "trace": result.trace,
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "failed_frac": result.failed / max(1, result.attempted),
        "failures": result.failures,
        "metrics": metric_rows(result),
        "raw": result.raw,
        "info": result.info,
    }
    if result.trace:
        entry["span_summary"] = result.span_summary
        entry["spans"] = result.spans
    return entry


def write_record(path: Path, runs: list, scale: Scale) -> None:
    """Write the record of ``runs`` (``run_entry`` dicts)."""
    record = {
        "schema": 1,
        "commit": commit(),
        "python": sys.version,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "scale": scale.name,
        "pinned": {
            "workers": WORKERS,
            "clients": CLIENTS,
            "default_knobs": DEFAULT_KNOBS,
            "wire_codec": WIRE_CODEC,
            "gateway_instances": list(TABLE1_SIX),
            "hot_fraction": HOT_FRACTION,
            "run_seconds": DECLARATION["run_seconds"],
            "calibration": {
                "kernel": f"{KERNEL_CALLS} x handwritten_uts_count{KERNEL_TREE}",
                "reference_s": REFERENCE_S,
            },
        },
        "src_loc": src_loc(),
        "runs": runs,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

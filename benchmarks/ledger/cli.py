"""Command line of the ledger.

    python3 benchmarks/ledger/run.py --workload W --seed N --seconds S --trace 0|1
    PYTHONPATH=src python -m benchmarks.ledger [--workload W] [--seed N] [--trace] [--out F]
    PYTHONPATH=src python -m benchmarks.ledger --self-check [--seeds K]

Every run prints its metrics by name with their units and, as the last
line of standard output, one JSON object ``{correct, attempted, failed,
metrics}`` — the end-to-end metrics for ``--trace 0``, the per-layer
metrics for ``--trace 1``.  The exit code is non-zero when any answer
was wrong or any operation failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from multiprocessing import resource_tracker
from pathlib import Path

from .record import run_entry, write_record
from .runner import RunResult, run_workload
from .spec import END_TO_END, FULL, HERE, PER_LAYER, RUN_SECONDS, SMOKE, WORKLOADS


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int) or float(value).is_integer() and abs(value) >= 1000:
        return f"{value:,.0f}"
    return f"{value:.6g}"


def print_result(result: RunResult, show_end_to_end: bool, show_per_layer: bool) -> None:
    print(f"== {result.workload}  seed={result.seed}  seconds={result.seconds:g}  "
          f"trace={int(result.trace)}  target={result.info['target']}")
    if show_end_to_end:
        for name, value in result.end_to_end.items():
            d = END_TO_END[name]
            print(f"  {name:<28} {_fmt(value):>14} {d['unit']:<6} "
                  f"[{d['better']} is better, bound {d['bound']:.0%}, "
                  f"n={result.samples.get(name)}]")
    if show_per_layer and result.per_layer is not None:
        for name, value in result.per_layer.items():
            print(f"  {name:<46} {_fmt(value):>14} {PER_LAYER[name]['unit']}")
    print(f"  failed_frac {result.failed}/{result.attempted}")
    for failure in result.failures[:20]:
        print(f"  FAILED: {failure}")


def contract_line(result: RunResult, per_layer: bool) -> str:
    """The driver's last line: one JSON object, exactly four keys."""
    values = result.per_layer if per_layer else result.end_to_end
    declared = PER_LAYER if per_layer else END_TO_END
    return json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            name: {"value": values.get(name), "unit": declared[name]["unit"]}
            for name in declared
        },
    })


def _spread(values: list) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_child(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> tuple:
    """One run in a process of its own, as the driver does it:
    ``peak_rss_mb`` is a per-process high-water mark and the process
    cells fork the driver, so runs must not share one.  Returns
    ``(exit code, human-readable output, contract line, run entries)``."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "record.json"
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(int(trace)), "--out", str(out)]
        proc = subprocess.run(argv + ["--smoke"] * smoke, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines or not out.exists():
            raise RuntimeError(f"run of {name} died:\n{proc.stdout}{proc.stderr}")
        return proc.returncode, lines[:-2], lines[-1], json.loads(out.read_text())["runs"]


def self_check(names: list, seed: int, seeds: int, seconds: float, smoke: bool) -> int:
    """Two sets of runs of the same code, interleaved; per metric and
    workload print both medians, their relative gap and (with at least
    two seeds) each set's spread, against the metric's bound."""
    sets: dict = {label: {name: [] for name in names} for label in "AB"}
    failed_ops = 0
    for s in range(seed, seed + seeds):
        for name in names:
            for label in ("AB" if s % 2 == 0 else "BA"):
                _, _, line, _ = run_child(name, s, seconds, False, smoke)
                result = json.loads(line)
                failed_ops += result["failed"]
                sets[label][name].append(
                    {metric: m["value"] for metric, m in result["metrics"].items()}
                )
                print(f"# set {label} {name} seed {s}: "
                      f"{result['failed']}/{result['attempted']} failed", flush=True)
    bad = 0
    print(f"{'workload':<16} {'metric':<26} {'median A':>12} {'median B':>12} "
          f"{'gap':>7} {'spread A':>9} {'spread B':>9} {'bound':>6}")
    for name in names:
        for metric, d in END_TO_END.items():
            a = [run[metric] for run in sets["A"][name]]
            b = [run[metric] for run in sets["B"][name]]
            if None in a or None in b:
                print(f"{name:<16} {metric:<26} missing")
                bad += 1
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            gap = abs(med_b - med_a) / med_a
            spreads = [_spread(v) if len(v) >= 2 else None for v in (a, b)]
            over = gap > d["bound"] or (
                metric != "setup_s"
                and any(sp is not None and sp > d["bound"] for sp in spreads)
            )
            bad += over
            print(f"{name:<16} {metric:<26} {med_a:>12.5g} {med_b:>12.5g} {gap:>7.2%} "
                  + " ".join(f"{sp:>9.2%}" if sp is not None else f"{'-':>9}" for sp in spreads)
                  + f" {d['bound']:>6.0%}{'  OVER' if over else ''}")
    print(f"self-check: {bad} metric x workload pairs over their bound, "
          f"{failed_ops} failed operations")
    return 1 if bad or failed_ops else 0


def _reap_resource_tracker() -> None:
    """The fleet's *spawn* context starts multiprocessing's resource
    tracker, which normally outlives its parent by a moment.  Stop it and
    wait for it, so that every process this run started has ended when
    the run returns (private stdlib hook; skipped where it is missing)."""
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="benchmarks.ledger", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured seconds per run (default {RUN_SECONDS}; 3 with --smoke)")
    parser.add_argument("--trace", nargs="?", const="both", default="0",
                        choices=("0", "1", "both"),
                        help="1: the traced run (per-layer metrics); bare --trace: "
                        "an untraced run, then the traced one")
    parser.add_argument("--out", type=Path, help="write the run record (JSON) here")
    parser.add_argument("--self-check", action="store_true",
                        help="run everything twice and compare against the bounds")
    parser.add_argument("--seeds", type=int, default=1,
                        help="with --self-check: seeds per set (seed, seed+1, ...)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances, one pass, a 2 s gateway loop")
    args = parser.parse_args(argv)

    scale = SMOKE if args.smoke else FULL
    seconds = args.seconds if args.seconds is not None else (3.0 if args.smoke else RUN_SECONDS)
    names = args.workload or list(WORKLOADS)
    if args.self_check:
        return self_check(names, args.seed, args.seeds, seconds, args.smoke)

    plan = [(name, trace) for name in names for trace in (False, True)
            if args.trace in (str(int(trace)), "both")]
    entries = []
    if len(plan) == 1:
        (name, trace), = plan
        result = run_workload(WORKLOADS[name], args.seed, seconds, trace, scale)
        print_result(result, True, trace)
        entries.append(run_entry(result))
        line, code = contract_line(result, per_layer=trace), 0 if result.correct else 1
    else:
        code = 0
        for name, trace in plan:
            child_code, text, line, runs = run_child(name, args.seed, seconds, trace, args.smoke)
            print("\n".join(text), flush=True)
            entries += runs
            code = max(code, child_code)
    out = args.out
    if out is None and args.trace != "0":
        out = HERE / "out" / f"{'-'.join(names)}-seed{args.seed}-trace.json"
    if out is not None:
        write_record(out, entries, scale)
        print(f"run record: {out}")
    _reap_resource_tracker()
    print(line)
    sys.stdout.flush()
    return code

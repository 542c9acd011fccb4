"""Repetition oracle: the same cell, N times — the answers must agree.

The differential harness (:mod:`repro.verify.differential`) checks each
backend *against the sequential oracle*; this module checks each
backend *against itself*.  ``run_repetition`` executes every
(instance, worker-count) cell ``repeat`` times and demands:

- **every coordination**: the objective value and decision flag are
  identical across repetitions and across worker counts (a racy
  incumbent merge shows up here as run-to-run wobble);
- **ordered on the replicable runtimes** (processes, cluster): the
  *full fingerprint* — value, witness, node/prune/backtrack counts and
  max depth — is bit-identical across repetitions, across worker
  counts, and equal to :func:`repro.core.ordered.ordered_reference_search`.
  That is the Replicable BnB guarantee (Archibald et al.): same seed,
  any parallelism, same search — enforced, not hoped for;
- **ordered under chaos** (cluster): a ``kill_worker`` fault plan must
  not change the fingerprint either — re-leased ordered tasks are pure
  functions of (root, bound), so a worker death is invisible in the
  final counts;
- **depthbounded enumeration under chaos** (cluster): nor the count —
  a lost run is re-run whole.

``metrics.reassigned`` is deliberately *outside* the fingerprint: it
counts speculative re-runs and fault re-leases, which depend on arrival
timing by design.  Everything the paper calls "the search performed"
(nodes, prunes, the answer) is inside.

Entry point: ``repro verify --repeat N [--coordination C]``.
"""

from __future__ import annotations

import json
import os
from typing import Callable, Optional

from repro.core.ordered import ordered_reference_search
from repro.core.results import SearchResult, _encode_node
from repro.core.searchtypes import make_search_type
from repro.core.sequential import sequential_search_stepped
from repro.runtime.worker import RUNS
from repro.util.rng import SplitMix64
from repro.verify.chaos import FaultPlan
from repro.verify.differential import TARGETS, BackendConfig, run_config
from repro.verify.generators import (
    FAMILIES,
    Instance,
    sample_instance,
    search_setup,
)

__all__ = [
    "REPLICABLE_BACKENDS",
    "result_fingerprint",
    "run_repetition",
]

# Runtimes whose ordered coordination implements the fixed-bound ledger
# (bit-identical node counts); the simulator's ordered pool is
# deterministic per seed but its counts legitimately vary with the
# worker count, so it is held to the value-stability bar only.
REPLICABLE_BACKENDS = ("processes", "cluster")

_WORKER_COUNTS = (1, 2, 4)

# The validated chaos round: kill the second worker after its third
# task, leaving two survivors to finish the job.  Pinned (not drawn)
# so "the chaos cell failed" is re-runnable verbatim.
_CHAOS_WORKERS = 3
_CHAOS_PLAN = {
    "events": [{"kind": "kill_worker", "worker": "local-1", "at_task": 3}]
}


def _canon(value) -> str:
    """Canonical JSON form of a value/witness for exact comparison."""
    return json.dumps(_encode_node(value), sort_keys=True)


def result_fingerprint(result: SearchResult, *, counts: bool = False) -> dict:
    """The comparable identity of a search result.

    With ``counts=False`` this is the *answer* (value and decision
    flag — the witness is excluded, because non-ordered coordinations
    may legitimately return a different equal-value witness depending
    on arrival order); with ``counts=True`` it is the *search* — the
    answer, the witness (ordered pins the tie-break, so it is part of
    the promise), and the node/prune/backtrack/max-depth counters that
    the ordered coordination reproduces bit-identically.
    """
    fp = {
        "value": _canon(result.value),
        "found": result.found,
    }
    if counts:
        m = result.metrics
        fp["node"] = _canon(result.node)
        fp["nodes"] = m.nodes
        fp["prunes"] = m.prunes
        fp["backtracks"] = m.backtracks
        fp["max_depth"] = m.max_depth
    return fp


def _cell_config(
    backend: str,
    coordination: str,
    workers: int,
    knobs: dict,
    *,
    fault_plan: Optional[FaultPlan] = None,
) -> BackendConfig:
    """One repetition cell: shared per-round knobs + a worker count."""
    if backend == "sequential":
        return BackendConfig("sequential", "sequential")
    merged = dict(knobs)
    if backend == "sim":
        merged.update(localities=1, workers_per_locality=max(1, workers))
    elif backend == "processes":
        merged["n_processes"] = workers
    elif backend == "cluster":
        merged["cluster_workers"] = workers
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return BackendConfig(backend, coordination, merged, fault_plan=fault_plan)


def _diff(label_a: str, a: dict, label_b: str, b: dict) -> list[str]:
    """Field-by-field fingerprint mismatches, one issue line each."""
    issues = []
    for key in a:
        if a[key] != b[key]:
            issues.append(
                f"{key} differs: {label_a} -> {a[key]!r}, "
                f"{label_b} -> {b[key]!r}"
            )
    return issues


def run_repetition(
    *,
    backend: str = "cluster",
    coordination: str = "ordered",
    seed: int = 0,
    rounds: int = 3,
    repeat: int = 5,
    worker_counts: tuple = _WORKER_COUNTS,
    chaos: Optional[bool] = None,
    artifact_dir: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
    cluster_timeout: float = 60.0,
) -> int:
    """The ``repro verify --repeat`` driver.  Returns an exit code.

    Each round draws one seeded instance and runs it ``repeat`` times
    at every worker count (plus, for the cluster backend, one
    ``kill_worker`` chaos cell) under one shared knob draw.  ``chaos``
    defaults to on for the cluster backend — fault tolerance that
    changes the answer is not fault tolerance — and is unavailable
    elsewhere.
    """
    emit = log if log is not None else (lambda line: None)
    if backend not in TARGETS:
        raise ValueError(f"unknown backend {backend!r}")
    if chaos is None:
        chaos = backend == "cluster"
    if chaos and backend != "cluster":
        raise ValueError("chaos repetition applies to the cluster backend")
    if repeat < 1:
        raise ValueError("repeat must be >= 1")

    replicable = (
        coordination == "ordered" and backend in REPLICABLE_BACKENDS
    )
    rng = SplitMix64((seed << 4) ^ 0x0DD5EED5)
    failures = 0
    for round_no in range(rounds):
        inst = sample_instance(FAMILIES[round_no % len(FAMILIES)], rng)
        spec, kind, stype_kwargs = search_setup(inst)
        stype = make_search_type(kind, **stype_kwargs)
        knobs = {
            "seed": rng.randrange(1 << 16),
            "d_cutoff": 1 + rng.randrange(3),
            "budget": (1, 2, 5, 20)[rng.randrange(4)],
            "share_poll": (4, 16, 64)[rng.randrange(3)],
        }
        if backend == "cluster":
            knobs["wire_codec"] = ("json", "binary")[rng.randrange(2)]

        # The cross-cell truth this round's cells are held to.
        if replicable:
            reference = result_fingerprint(
                ordered_reference_search(
                    spec, stype, d_cutoff=knobs["d_cutoff"]
                ),
                counts=True,
            )
        else:
            reference = result_fingerprint(sequential_search_stepped(spec, stype))

        cells = [
            (f"w={w}", _cell_config(backend, coordination, w, knobs))
            for w in (worker_counts if backend != "sequential" else (1,))
        ]
        if chaos and (coordination in RUNS or kind != "enumeration"):
            # Enumeration only survives worker death in runs (re-run
            # whole); elsewhere it fails loudly by design, so the chaos
            # cell would test the wrong thing.
            cells.append((
                f"w={_CHAOS_WORKERS} chaos[kill_worker local-1]",
                _cell_config(
                    backend, coordination, _CHAOS_WORKERS, knobs,
                    fault_plan=FaultPlan(seed, list(_CHAOS_PLAN["events"])),
                ),
            ))

        issues: list[str] = []
        cell_prints: dict[str, list] = {}
        for cell_label, cfg in cells:
            prints = []
            for rep in range(repeat):
                try:
                    result = run_config(
                        inst, cfg, cluster_timeout=cluster_timeout
                    )
                except Exception as exc:  # noqa: BLE001 — crash = finding
                    issues.append(
                        f"{cell_label} rep {rep}: raised "
                        f"{type(exc).__name__}: {exc}"
                    )
                    prints.append(None)
                    continue
                prints.append(result_fingerprint(result, counts=replicable))
            cell_prints[cell_label] = prints
            good = [p for p in prints if p is not None]
            for rep, fp in enumerate(prints):
                if fp is not None and good and fp != good[0]:
                    issues += _diff(
                        f"{cell_label} rep {prints.index(good[0])}",
                        good[0], f"{cell_label} rep {rep}", fp,
                    )
        # Across cells (worker counts and the chaos round) every
        # surviving fingerprint must match the reference.
        for cell_label, prints in cell_prints.items():
            for fp in prints:
                if fp is not None and fp != reference:
                    issues += _diff("reference", reference, cell_label, fp)
                    break  # one line set per cell is enough signal

        issues = list(dict.fromkeys(issues))  # dedupe, keep order
        label = f"{backend} {coordination} x{repeat}"
        if not issues:
            emit(
                f"round {round_no}: {inst.describe()} | {label}: "
                f"{len(cells)} cell(s) stable"
            )
            continue
        failures += 1
        emit(f"round {round_no}: {inst.describe()} | {label}: FAIL")
        for issue in issues:
            emit(f"  {issue}")
        _write_artifact(
            artifact_dir, round_no, backend, coordination, inst,
            knobs, repeat, cell_prints, reference, issues,
        )
    if failures:
        emit(
            f"repetition: {failures} unstable round(s) over {rounds} "
            f"round(s)"
        )
        return 1
    emit(f"repetition: all {rounds} round(s) stable under x{repeat}")
    return 0


def _write_artifact(
    artifact_dir: Optional[str],
    round_no: int,
    backend: str,
    coordination: str,
    inst: Instance,
    knobs: dict,
    repeat: int,
    cell_prints: dict,
    reference: dict,
    issues: list,
) -> None:
    if not artifact_dir:
        return
    os.makedirs(artifact_dir, exist_ok=True)
    path = os.path.join(
        artifact_dir, f"repeat-r{round_no}-{backend}-{coordination}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "round": round_no,
                "backend": backend,
                "coordination": coordination,
                "instance": inst.to_dict(),
                "knobs": dict(knobs),
                "repeat": repeat,
                "reference": reference,
                "fingerprints": cell_prints,
                "issues": list(issues),
            },
            fh,
            indent=2,
        )

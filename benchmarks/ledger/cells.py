"""The search cells: one timed, oracle-checked call per backend.

A *cell* is one way of running the workload's search instance — the
Sequential skeleton, the hand-written solver, or one coordination on
the process or cluster backend.  A *pass* runs every cell once,
sequential and hand-written twice; passes repeat for the measured
seconds, so cells are interleaved in time and each metric is a median
over passes.  Every repetition sits between two calibration readings
(``calibration.Clock``) and its seconds are normalised by them; a cell
shorter than ``MIN_REP_S`` is called several times per repetition.

Every call is checked against the sequential oracle and a failure is
recorded, never raised: one broken backend must not hide the others.
"""

from __future__ import annotations

import math
import resource
import time
from typing import Optional

from repro.cluster.local import job_payload
from repro.core.results import validate_result
from repro.core.sequential import sequential_search
from repro.runtime.processes import (
    make_stype,
    multiprocessing_budget_search,
    multiprocessing_ordered_search,
    multiprocessing_stacksteal_search,
)

from .calibration import Clock
from .spec import WORKERS
from .tracing import Recorder

CELL_TIMEOUT_S = 60.0
MIN_REP_S = 0.03  # a repetition calls its cell until it has run this long...
MAX_CALLS = 16  # ...but at most this often

# A pass, in order.  Sequential and hand-written run twice per pass:
# they are the cheap cells and the denominators of every ratio.
PASS_ORDER = (
    ("seq", None), ("handwritten", None),
    ("procs", "budget"), ("procs", "stacksteal"), ("procs", "ordered"),
    ("seq", None), ("handwritten", None),
    ("cluster", "budget"), ("cluster", "stacksteal"), ("cluster", "ordered"),
)


def cell_name(runtime: str, coordination: Optional[str]) -> str:
    return runtime if coordination is None else f"{runtime}.{coordination}"


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Oracle:
    """The sequential reference of one target: exact value and node
    counters, fixed by the first sequential run (which must match the
    pinned count) and checked against every later run of every backend."""

    def __init__(self, target) -> None:
        self.target = target
        self.reference = None  # (value, nodes, prunes, backtracks)

    def check_sequential(self, result) -> Optional[str]:
        m = result.metrics
        observed = (result.value, m.nodes, m.prunes, m.backtracks)
        if self.reference is None:
            expected = self.target.expected_nodes
            if expected is not None and m.nodes != expected:
                return f"sequential visited {m.nodes} nodes, the pin says {expected}"
            self.reference = observed
        elif observed != self.reference:
            return f"sequential run {observed} differs from reference {self.reference}"
        return self._check_witness(result)

    def check_handwritten(self, value, nodes) -> Optional[str]:
        if self.reference is None:
            return "no sequential reference to check against"
        if (value, nodes) != self.reference[:2]:
            return f"hand-written (value, nodes)={(value, nodes)}, skeleton {self.reference[:2]}"
        return None

    def check_parallel(self, result) -> Optional[str]:
        if self.reference is None:
            return "no sequential reference to check against"
        value, nodes = self.reference[:2]
        if result.value != value:
            return f"value {result.value}, sequential {value}"
        if self.target.kind == "enumeration" and result.metrics.nodes != nodes:
            return f"visited {result.metrics.nodes} nodes, sequential {nodes}"
        return self._check_witness(result)

    def _check_witness(self, result) -> Optional[str]:
        if not validate_result(self.target.spec, result):
            return "witness rejected by validate_result"
        return None


class SearchCells:
    """Runs cells on the workload's target and keeps every raw rep."""

    def __init__(self, target, knobs: dict, fleet, recorder: Recorder, clock: Clock) -> None:
        self.target = target
        self.knobs = knobs
        self.fleet = fleet
        self.recorder = recorder
        self.clock = clock
        self.oracle = Oracle(target)
        self.reps: dict[str, list[dict]] = {}  # cell -> one dict per pass rep
        self._calls: dict[str, int] = {}  # cell -> calls per repetition
        self.attempted = 0
        self.failures: list[str] = []

    def _call(self, runtime: str, coordination: Optional[str]) -> dict:
        """One timed call; returns its wall and counters.  The timed
        region is the whole public call, as a user would pay for it."""
        target, oracle = self.target, self.oracle
        stype = make_stype(target.kind, {})
        k = self.knobs
        if runtime == "seq":
            t0 = time.perf_counter()
            result = sequential_search(target.spec, stype)
            wall = time.perf_counter() - t0
            error = oracle.check_sequential(result)
            return {"wall": wall, "error": error}
        if runtime == "handwritten":
            t0 = time.perf_counter()
            value, nodes = target.handwritten()
            wall = time.perf_counter() - t0
            return {"wall": wall, "error": oracle.check_handwritten(value, nodes)}
        if runtime == "procs":
            call = {
                "budget": lambda: multiprocessing_budget_search(
                    target.factory, target.factory_args, make_stype, (target.kind, {}),
                    n_processes=WORKERS, budget=k["budget"], share_poll=k["share_poll"],
                ),
                "stacksteal": lambda: multiprocessing_stacksteal_search(
                    target.factory, target.factory_args, make_stype, (target.kind, {}),
                    n_processes=WORKERS, chunked=k["chunked"], share_poll=k["share_poll"],
                ),
                "ordered": lambda: multiprocessing_ordered_search(
                    target.factory, target.factory_args, make_stype, (target.kind, {}),
                    n_processes=WORKERS, d_cutoff=k["d_cutoff"], share_poll=k["share_poll"],
                ),
            }[coordination]
            cpu0 = _children_cpu()
            t0 = time.perf_counter()
            result = call()
            wall = time.perf_counter() - t0
            cpu = _children_cpu() - cpu0
        else:
            payload = job_payload(
                target.factory, target.factory_args, stype,
                coordination=coordination, **k,
            )
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            result = self.fleet.run_job(payload, timeout=CELL_TIMEOUT_S)
            wall = time.perf_counter() - t0
            # The calling thread is blocked in run_job, so the driver's
            # CPU over this window is the coordinator loop's.
            cpu = time.process_time() - cpu0
        return {
            "wall": wall,
            "error": oracle.check_parallel(result),
            "nodes": result.metrics.nodes,
            "tasks": result.metrics.spawns,
            "cpu": cpu,
        }

    def run_cell(self, runtime: str, coordination: Optional[str]) -> None:
        """One repetition of one cell between two calibration readings;
        a cell that dies is a failed operation."""
        name = cell_name(runtime, coordination)
        calls = self._calls.get(name, 1)
        self.attempted += calls
        done = []
        with self.recorder.span(f"cell.{name}"):
            with self.clock.around("solo" if coordination is None else "pair") as timed:
                try:
                    for _ in range(calls):
                        done.append(self._call(runtime, coordination))
                except Exception as exc:
                    done.append({"wall": 0.0, "error": f"{type(exc).__name__}: {exc}"})
        errors = [call["error"] for call in done if call["error"] is not None]
        self.failures += [f"{name} on {self.target.label}: {error}" for error in errors]
        rep = dict(done[-1])  # the counters of the last call
        rep.update(
            error=errors[0] if errors else None,
            raw_wall=sum(call["wall"] for call in done) / len(done),
            calls=calls,
            timed=timed,
            traced=self.recorder.enabled,
        )
        if "cpu" in rep:
            rep["raw_cpu"] = sum(call["cpu"] for call in done) / len(done)
        if not errors:
            self._calls[name] = min(MAX_CALLS, max(1, math.ceil(MIN_REP_S / rep["raw_wall"])))
        self.reps.setdefault(name, []).append(rep)

    def normalise(self) -> None:
        """Once the run's calibration readings are all in: ``wall`` and
        ``cpu`` of every repetition become normalised seconds."""
        for reps in self.reps.values():
            for rep in reps:
                timed = rep.pop("timed")
                rep.update(start=timed.start, end=timed.end, speed=self.clock.speed(timed))
                rep["wall"] = rep["raw_wall"] / rep["speed"]
                if "raw_cpu" in rep:
                    rep["cpu"] = rep["raw_cpu"] / rep["speed"]

    def run_pass(self) -> None:
        with self.recorder.span("rep"):
            for runtime, coordination in PASS_ORDER:
                self.run_cell(runtime, coordination)

    # -- read-outs -----------------------------------------------------------

    def values(self, cell: str, key: str = "wall", traced: Optional[bool] = None) -> list:
        """The raw per-rep values of one cell (failed reps excluded)."""
        return [
            rep[key] for rep in self.reps.get(cell, ())
            if rep["error"] is None and (traced is None or rep["traced"] == traced)
        ]

    def sequential_counters(self) -> tuple:
        """(nodes, prunes, backtracks) of the sequential oracle."""
        return (self.oracle.reference or (None, 0, 0, 0))[1:]

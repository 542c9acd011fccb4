"""Skeleton and parameter selection by simulated sweep (§5.5 tooling).

The paper's §5.5 shows that no skeleton wins everywhere and that bad
parameters are catastrophic (0.89x vs 91.7x for the same skeleton), and
concludes that a skeleton library's value is making alternatives cheap
to try.  This module operationalises that: :func:`tune` runs a
configurable sweep of (skeleton, parameter) combinations on the
deterministic simulator and reports the ranking, so a user can pick a
coordination for *their* workload before committing to a long run.

Because the simulator is deterministic and virtual-time-based, a tuning
sweep is itself reproducible — the knob landscape, not measurement
noise, is what the report shows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.core.params import SkeletonParams
from repro.core.searchtypes import SearchType
from repro.core.skeletons import COORDINATIONS, make_skeleton
from repro.core.space import SearchSpec
from repro.runtime.costmodel import CostModel
from repro.runtime.executor import SimulatedCluster, virtual_sequential_time
from repro.runtime.topology import Topology

__all__ = ["TuningResult", "TuningReport", "tune"]

@dataclass(frozen=True)
class TuningResult:
    """One sweep point: a skeleton, its knob setting, and the outcome."""

    skeleton: str
    knob: str  # human-readable, e.g. "d_cutoff=2"
    params: SkeletonParams
    speedup: float
    nodes: int
    efficiency: Optional[float]


@dataclass
class TuningReport:
    """Ranked outcomes of a tuning sweep."""

    instance: str
    workers: int
    sequential_time: float
    results: list[TuningResult] = field(default_factory=list)

    @property
    def best(self) -> TuningResult:
        if not self.results:
            raise ValueError("empty tuning report")
        return max(self.results, key=lambda r: r.speedup)

    def best_for(self, skeleton: str) -> TuningResult:
        """The best sweep point of one skeleton."""
        candidates = [r for r in self.results if r.skeleton == skeleton]
        if not candidates:
            raise ValueError(f"no sweep points for skeleton {skeleton!r}")
        return max(candidates, key=lambda r: r.speedup)

    def ranked(self) -> list[TuningResult]:
        """All sweep points, best speedup first."""
        return sorted(self.results, key=lambda r: -r.speedup)

    def render(self) -> str:
        """Human-readable ranking table with a recommendation line."""
        lines = [
            f"tuning report for {self.instance!r} on {self.workers} workers "
            f"(sequential vtime {self.sequential_time:.0f})",
            f"{'skeleton':>14}  {'knob':>22}  {'speedup':>8}  {'nodes':>9}  {'eff':>5}",
        ]
        for r in self.ranked():
            eff = f"{r.efficiency:.0%}" if r.efficiency is not None else "-"
            lines.append(
                f"{r.skeleton:>14}  {r.knob:>22}  {r.speedup:>7.1f}x  {r.nodes:>9}  {eff:>5}"
            )
        b = self.best
        lines.append(f"recommendation: {b.skeleton} ({b.knob}), {b.speedup:.1f}x")
        return "\n".join(lines)


def _sweep_points(
    skeletons: Sequence[str],
    d_cutoffs: Sequence[int],
    budgets: Sequence[int],
):
    for skeleton in skeletons:
        if skeleton in ("depthbounded", "ordered"):
            for d in d_cutoffs:
                yield skeleton, f"d_cutoff={d}", {"d_cutoff": d}
        elif skeleton == "budget":
            for b in budgets:
                yield skeleton, f"budget={b}", {"budget": b}
        elif skeleton == "stacksteal":
            for chunked in (True, False):
                yield skeleton, f"chunked={chunked}", {"chunked": chunked}
        else:
            raise ValueError(f"cannot tune skeleton {skeleton!r}")


def tune(
    spec: SearchSpec,
    stype: SearchType,
    *,
    localities: int = 1,
    workers_per_locality: int = 15,
    skeletons: Sequence[str] = ("depthbounded", "stacksteal", "budget"),
    d_cutoffs: Sequence[int] = (1, 2, 3, 4),
    budgets: Sequence[int] = (20, 100, 500, 2000),
    cost: Optional[CostModel] = None,
    seed: int = 0,
) -> TuningReport:
    """Sweep (skeleton, knob) combinations; return the ranked report.

    The baseline is the Sequential skeleton's virtual time under the
    same cost model, so ``speedup`` matches the paper's Table 2 metric.
    """
    for skeleton in skeletons:
        if skeleton not in COORDINATIONS or skeleton == "sequential":
            raise ValueError(f"cannot tune skeleton {skeleton!r}")
    seq_time, _ = virtual_sequential_time(spec, stype, cost)
    report = TuningReport(
        instance=spec.name,
        workers=localities * workers_per_locality,
        sequential_time=seq_time,
    )
    topology = Topology(localities, workers_per_locality)
    for skeleton, knob, overrides in _sweep_points(
        skeletons, d_cutoffs, budgets
    ):
        params = SkeletonParams(
            localities=localities,
            workers_per_locality=workers_per_locality,
            seed=seed,
        ).with_(**overrides)
        cluster = SimulatedCluster(topology, cost)
        res = make_skeleton(skeleton, stype.kind).search(
            spec, params, stype=stype, cluster=cluster
        )
        report.results.append(
            TuningResult(
                skeleton=skeleton,
                knob=knob,
                params=params,
                speedup=seq_time / res.virtual_time,
                nodes=res.metrics.nodes,
                efficiency=res.efficiency(),
            )
        )
    return report

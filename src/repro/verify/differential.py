"""Differential execution: every backend over the same instances.

One verify *round* draws a seeded instance, builds the oracle report
once, then runs each backend under a seeded knob sweep and checks the
result against the report's invariants.  A failing round is shrunk to
a minimal instance that still fails under the *same* backend
configuration, and the whole repro (instance, config, issues, shrunk
instance) is written as a JSON artifact.

Everything is a pure function of ``seed``: the instance stream, the
knob draws, and any chaos plans — so ``repro verify --seed N`` is a
complete bug report id.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.backends import BACKENDS
from repro.core.params import SkeletonParams
from repro.core.results import SearchResult
from repro.core.searchtypes import make_search_type
from repro.core.sequential import sequential_search
from repro.core.skeletons import Skeleton
from repro.util.rng import SplitMix64
from repro.verify.chaos import FaultPlan, make_plan
from repro.verify.generators import (
    FAMILIES,
    Instance,
    instance_spec,
    sample_instance,
    search_setup,
    shrink_instance,
)
from repro.verify.oracle import build_report, check_result, oracle_self_check

__all__ = [
    "TARGETS",
    "BackendConfig",
    "sample_config",
    "run_config",
    "check_config",
    "run_verify",
]

# Differential targets: every runtime in the table, behind
# "sequential" — the search kernel on one worker, judged against the
# stepped machine the oracle runs (the kernel-vs-machine differential,
# kept cheap and first).
TARGETS = ("sequential", *BACKENDS)

# Families whose search type tolerates losing a worker under every
# coordination a draw may pick (Budget and Stack-Stealing enumeration is
# defined to fail loudly instead — exercised by a dedicated test).
_CHAOS_FAMILIES = tuple(f for f in FAMILIES if f != "uts")


@dataclass
class BackendConfig:
    """One point in a backend's knob space."""

    backend: str
    coordination: str = "budget"
    knobs: dict = field(default_factory=dict)
    fault_plan: Optional[FaultPlan] = None

    def to_dict(self) -> dict:
        """JSON-ready form for the repro artifact."""
        return {
            "backend": self.backend,
            "coordination": self.coordination,
            "knobs": dict(self.knobs),
            "fault_plan": self.fault_plan.to_dict() if self.fault_plan else None,
        }

    def describe(self) -> str:
        """One-line cell label: backend, coordination, knobs, chaos."""
        bits = [self.backend]
        if self.backend != "sequential":
            bits.append(self.coordination)
        bits += [f"{k}={v}" for k, v in sorted(self.knobs.items())]
        if self.fault_plan is not None:
            bits.append(f"chaos[{self.fault_plan.describe()}]")
        return " ".join(bits)


def _choice(rng: SplitMix64, seq):
    return seq[rng.randrange(len(seq))]


def sample_config(
    backend: str,
    rng: SplitMix64,
    *,
    chaos: bool = False,
    coordination: Optional[str] = None,
) -> BackendConfig:
    """Draw one seeded knob setting for ``backend``.

    The sweeps deliberately include degenerate values (budget=1,
    single-worker topologies): those are where split/merge edge cases
    live, not in the comfortable defaults.  ``coordination`` pins the
    coordination instead of drawing it (the knobs are still drawn), so
    a targeted sweep — ``repro verify --coordination ordered`` — walks
    the same seeded knob space as the mixed one.
    """
    if backend == "sequential":
        return BackendConfig("sequential", "sequential")
    if backend == "sim":
        coordination = coordination or _choice(rng, BACKENDS["sim"].coordinations)
        return BackendConfig(
            "sim",
            coordination,
            {
                "seed": rng.randrange(1 << 16),
                "d_cutoff": 1 + rng.randrange(3),
                "budget": _choice(rng, (1, 2, 5, 20)),
                # >1 locality matters: remote broadcast latency is what
                # opens the stale-incumbent window (§4.3).
                "localities": 1 + rng.randrange(2),
                "workers_per_locality": 2 + rng.randrange(3),
            },
        )
    if backend == "processes":
        coordination = coordination or _choice(rng, BACKENDS["processes"].coordinations)
        return BackendConfig(
            "processes",
            coordination,
            {
                "n_processes": 1 + rng.randrange(3),
                "d_cutoff": 1 + rng.randrange(3),
                "budget": _choice(rng, (1, 2, 5, 20)),
                "share_poll": _choice(rng, (4, 16, 64)),
            },
        )
    if backend == "cluster":
        # Half the draws run the fixed-fleet topology, half the elastic
        # deployment (burst to max, drain back to min mid-job) — the
        # RETIRE/RELEASE handback path is part of the conformance
        # surface, not a separate test universe.
        if rng.randrange(2) == 1:
            workers = 2 + rng.randrange(2)
            fleet = {"elastic": True, "min_workers": 1, "max_workers": workers}
            names = {"worker_prefix": "deploy-", "elastic": True}
        else:
            # A kill plan needs a surviving worker, so chaos draws >= 2.
            workers = 2 + rng.randrange(2) if chaos else 1 + rng.randrange(3)
            fleet = {"cluster_workers": workers}
            names = {}
        plan = (
            make_plan(
                rng.next_u64() & 0x7FFFFFFF, workers, allow_kill=True, **names
            )
            if chaos
            else None
        )
        return BackendConfig(
            "cluster",
            coordination or _choice(rng, BACKENDS["cluster"].coordinations),
            {
                **fleet,
                "budget": _choice(rng, (1, 2, 5, 20)),
                "share_poll": _choice(rng, (4, 16, 64)),
                "wire_codec": _choice(rng, ("json", "binary")),
            },
            fault_plan=plan,
        )
    raise ValueError(f"unknown backend {backend!r}")


def run_config(
    inst: Instance, cfg: BackendConfig, *, cluster_timeout: float = 60.0
) -> SearchResult:
    """Execute one (instance, backend-config) cell."""
    spec, kind, stype_kwargs = search_setup(inst)
    stype = make_search_type(kind, **stype_kwargs)
    if cfg.backend == "sequential":
        return sequential_search(spec, stype)
    if cfg.backend == "cluster":
        # A cluster cell needs what SkeletonParams does not carry — a
        # job timeout, a fault plan, the watchdog cadence, an elastic
        # fleet — so it calls the one-job drivers directly.
        from repro.cluster.local import JOB_KNOBS, cluster_search

        if cfg.knobs.get("elastic"):
            from repro.deploy import elastic_budget_search as search

            fleet = {
                "minimum": cfg.knobs.get("min_workers", 1),
                "maximum": cfg.knobs.get("max_workers", 2),
            }
        else:
            search = cluster_search
            fleet = {"n_workers": cfg.knobs.get("cluster_workers", 2)}
        chaotic = cfg.fault_plan is not None and bool(cfg.fault_plan.events)
        return search(
            instance_spec,
            (inst.family, inst.args),
            stype,
            coordination=cfg.coordination,
            timeout=cluster_timeout,
            # Chaos leans on the watchdog: beat fast, declare death
            # fast, so injected partitions resolve within the timeout.
            heartbeat_interval=0.1 if chaotic else 0.5,
            heartbeat_timeout=1.0 if chaotic else 5.0,
            wire_codec=cfg.knobs.get("wire_codec", "binary"),
            fault_plan=cfg.fault_plan.to_dict() if chaotic else None,
            **fleet,
            **{k: cfg.knobs[k] for k in JOB_KNOBS if k in cfg.knobs},
        )
    # Every other cell is a SkeletonParams away from the table.
    return Skeleton(cfg.coordination, kind).search(
        spec,
        SkeletonParams(backend=cfg.backend, **cfg.knobs),
        stype=stype,
        spec_factory=instance_spec,
        factory_args=(inst.family, inst.args),
    )


def check_config(
    inst: Instance,
    cfg: BackendConfig,
    report=None,
    *,
    cluster_timeout: float = 60.0,
) -> list[str]:
    """Run one cell and return its invariant violations (run errors
    included as violations — a backend that crashes does not conform)."""
    if report is None:
        report = build_report(inst)
    label = cfg.describe()
    try:
        result = run_config(inst, cfg, cluster_timeout=cluster_timeout)
    except Exception as exc:  # noqa: BLE001 — any crash is a finding
        return [f"{label}: raised {type(exc).__name__}: {exc}"]
    return check_result(report, result, label=label)


def run_verify(
    *,
    backend: str = "all",
    seed: int = 0,
    rounds: int = 20,
    chaos: bool = False,
    coordination: Optional[str] = None,
    artifact_dir: Optional[str] = None,
    log: Optional[Callable[[str], None]] = None,
    cluster_timeout: float = 60.0,
    shrink_attempts: int = 25,
) -> int:
    """The ``repro verify`` driver.  Returns a process exit code.

    Rounds cycle through the instance families; every backend named by
    ``backend`` (or all of them) runs each round under a fresh seeded
    knob draw.  ``coordination`` pins every parallel cell to one
    coordination method instead of drawing it.  On a violation the
    instance is greedily shrunk under the same configuration and a
    JSON repro artifact is written to ``artifact_dir``.
    """
    emit = log if log is not None else (lambda line: None)
    if backend == "all":
        backends = list(TARGETS)
    elif backend in TARGETS:
        backends = [backend]
    else:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of "
            f"{TARGETS + ('all',)}"
        )
    if chaos and "cluster" not in backends:
        raise ValueError("--chaos only applies to the cluster backend")
    if coordination is not None:
        # sequential stays (the kernel-vs-machine differential);
        # parallel backends that don't implement the pin drop out.
        backends = [
            b for b in backends
            if b == "sequential" or coordination in BACKENDS[b].coordinations
        ]
        if all(b == "sequential" for b in backends):
            raise ValueError(
                f"no selected backend implements coordination "
                f"{coordination!r}"
            )

    families = _CHAOS_FAMILIES if chaos else FAMILIES
    rng = SplitMix64((seed << 4) ^ 0x5EED5EED)
    failures = 0
    for round_no in range(rounds):
        inst = sample_instance(families[round_no % len(families)], rng)
        report = build_report(inst)
        self_issues = oracle_self_check(report)
        if self_issues:
            failures += 1
            emit(f"round {round_no}: {inst.describe()}: ORACLE DISAGREEMENT")
            for issue in self_issues:
                emit(f"  {issue}")
            _write_artifact(
                artifact_dir, round_no, "oracle", inst, None, self_issues, None
            )
            continue
        for name in backends:
            cfg = sample_config(
                name,
                rng,
                chaos=chaos and name == "cluster",
                coordination=coordination if name != "sequential" else None,
            )
            issues = check_config(
                inst, cfg, report, cluster_timeout=cluster_timeout
            )
            if not issues:
                emit(f"round {round_no}: {inst.describe()} | {cfg.describe()}: ok")
                continue
            failures += 1
            emit(f"round {round_no}: {inst.describe()} | {cfg.describe()}: FAIL")
            for issue in issues:
                emit(f"  {issue}")
            shrunk = shrink_instance(
                inst,
                lambda cand: bool(
                    check_config(cand, cfg, cluster_timeout=cluster_timeout)
                ),
                max_attempts=shrink_attempts,
            )
            if shrunk != inst:
                emit(f"  shrunk to {shrunk.describe()}")
            _write_artifact(
                artifact_dir, round_no, name, inst, cfg, issues, shrunk
            )
    if failures:
        emit(f"verify: {failures} failing cell(s) over {rounds} round(s)")
        return 1
    emit(f"verify: all {rounds} round(s) conform")
    return 0


def _write_artifact(
    artifact_dir: Optional[str],
    round_no: int,
    backend: str,
    inst: Instance,
    cfg: Optional[BackendConfig],
    issues: list,
    shrunk: Optional[Instance],
) -> None:
    if not artifact_dir:
        return
    os.makedirs(artifact_dir, exist_ok=True)
    path = os.path.join(artifact_dir, f"fail-r{round_no}-{backend}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "round": round_no,
                "instance": inst.to_dict(),
                "config": cfg.to_dict() if cfg is not None else None,
                "issues": list(issues),
                "shrunk": shrunk.to_dict() if shrunk is not None else None,
            },
            fh,
            indent=2,
        )

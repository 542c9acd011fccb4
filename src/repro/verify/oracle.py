"""Dual oracles and the per-search-type result invariants.

Every backend result is judged against a single :class:`OracleReport`
built once per instance from two independent references:

- the **stepped sequential driver**
  (:func:`repro.core.sequential.sequential_search_stepped`) — the
  resumable :class:`~repro.core.tasks.SearchTask` machine run to
  completion by one worker, no parallel machinery at all.  Every real
  backend, ``sequential`` included, searches with the kernel
  (:mod:`repro.core.kernel`); the machine shares no code with it, and an
  oracle must not share code with what it judges; and
- the **semantics machine** (:func:`repro.semantics.bridge.machine_search`)
  — the paper's formal reduction system, run only when the full tree is
  small enough to materialise.

The two oracles are first cross-checked against each other
(:func:`oracle_self_check`); a disagreement there is an oracle bug, not
a backend bug, and fails the round loudly.

What a conforming backend result must satisfy (:func:`check_result`):

- **enumeration** — the accumulated value equals the sequential value
  *exactly* (the monoid is commutative, so any interleaving folds to
  the same sum), and the node count equals the unpruned tree size
  exactly, unless work was re-searched after a fault
  (``metrics.reassigned > 0``), in which case it may only exceed it.
- **optimisation** — the value equals the sequential optimum exactly;
  the witness must *re-verify* through
  :func:`repro.core.results.validate_result` (objective recomputed,
  feasibility predicate consulted) — a right value with a wrong witness
  is a failure.
- **decision** — ``found`` must agree with the sequential answer (the
  prune relation never discards a goal, so the answer is
  interleaving-independent); when found, the clipped value equals the
  sequential one and the witness re-verifies.

Node counts for optimisation/decision are deliberately NOT compared to
the sequential run's pruned count: a parallel worker holding a stale
incumbent prunes later (more nodes), while a lucky task order can find
the optimum sooner (fewer nodes) — both are correct behaviours (§4.3).
The honest invariant is ``nodes <= unpruned tree size`` (every node
visited at most once when no task was re-leased), which is what we
check, alongside ``nodes >= 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.results import SearchResult, validate_result
from repro.core.searchtypes import Enumeration, make_search_type
from repro.core.sequential import sequential_search_stepped
from repro.core.space import SearchSpec
from repro.semantics.bridge import machine_search
from repro.verify.generators import Instance, search_setup

__all__ = ["OracleReport", "build_report", "oracle_self_check", "check_result"]

# The machine materialises the whole tree; beyond this we rely on the
# sequential oracle alone.
MACHINE_MAX_NODES = 5_000


@dataclass
class OracleReport:
    """Reference answers for one instance (see module docstring)."""

    instance: Instance
    spec: SearchSpec
    kind: str
    stype_kwargs: dict
    sequential: SearchResult
    tree_nodes: int  # unpruned tree size (exact node-count ceiling)
    machine_value: Optional[int] = None  # None: machine oracle skipped
    machine_found: Optional[bool] = None


def build_report(
    inst: Instance, *, machine_max_nodes: int = MACHINE_MAX_NODES
) -> OracleReport:
    """Run both oracles on ``inst``.

    The unpruned tree size comes from a sequential *enumeration* of the
    same spec counting 1 per node — enumeration never prunes, so its
    node count is the full tree.
    """
    spec, kind, stype_kwargs = search_setup(inst)
    seq = sequential_search_stepped(spec, make_search_type(kind, **stype_kwargs))
    if kind == "enumeration":
        tree_nodes = seq.metrics.nodes
    else:
        census = sequential_search_stepped(
            spec, Enumeration(objective=lambda node: 1)
        )
        tree_nodes = census.metrics.nodes

    report = OracleReport(
        instance=inst,
        spec=spec,
        kind=kind,
        stype_kwargs=stype_kwargs,
        sequential=seq,
        tree_nodes=tree_nodes,
    )
    if tree_nodes <= machine_max_nodes:
        target = stype_kwargs.get("target")
        outcome = machine_search(
            spec, kind, target=target, max_nodes=machine_max_nodes
        )
        if kind == "enumeration":
            report.machine_value = outcome
        elif kind == "optimisation":
            report.machine_value = spec.objective(outcome)
        else:  # decision: outcome is the best witness node
            value = min(spec.objective(outcome), target)
            report.machine_value = value
            report.machine_found = value >= target
    return report


def oracle_self_check(report: OracleReport) -> list[str]:
    """Cross-check the two oracles (and the sequential witness)."""
    issues: list[str] = []
    seq = report.sequential
    if report.kind != "enumeration":
        try:
            if not validate_result(report.spec, seq):
                issues.append(
                    f"sequential witness failed re-verification "
                    f"(value={seq.value}, node={seq.node!r})"
                )
        except ValueError as exc:
            issues.append(f"sequential result malformed: {exc}")
    if report.machine_value is None:
        return issues
    if report.kind == "decision":
        if report.machine_found != seq.found:
            issues.append(
                f"oracle disagreement: machine found={report.machine_found}, "
                f"sequential found={seq.found}"
            )
        if seq.found and report.machine_value != seq.value:
            issues.append(
                f"oracle disagreement: machine value={report.machine_value}, "
                f"sequential value={seq.value}"
            )
    elif report.machine_value != seq.value:
        issues.append(
            f"oracle disagreement: machine value={report.machine_value}, "
            f"sequential value={seq.value}"
        )
    return issues


def check_result(
    report: OracleReport, result: SearchResult, *, label: str = "backend"
) -> list[str]:
    """All invariant violations of ``result`` against the oracles.

    Returns an empty list for a conforming result; each violation is a
    self-contained sentence naming the invariant.
    """
    issues: list[str] = []
    seq = report.sequential
    if result.kind != report.kind:
        issues.append(
            f"{label}: search kind {result.kind!r} != expected {report.kind!r}"
        )
        return issues

    nodes = result.metrics.nodes
    reassigned = result.metrics.reassigned
    if nodes < 1:
        issues.append(f"{label}: impossible node count {nodes} (searched nothing)")

    if report.kind == "enumeration":
        if result.value != seq.value:
            issues.append(
                f"{label}: enumeration value {result.value!r} != "
                f"sequential {seq.value!r}"
            )
        if reassigned == 0 and nodes != report.tree_nodes:
            issues.append(
                f"{label}: enumeration visited {nodes} nodes, expected exactly "
                f"{report.tree_nodes} (no pruning, no reassignment)"
            )
        elif reassigned > 0 and nodes < report.tree_nodes:
            issues.append(
                f"{label}: enumeration visited {nodes} < tree size "
                f"{report.tree_nodes} despite {reassigned} reassignment(s)"
            )
        return issues

    # optimisation / decision
    if report.kind == "optimisation":
        if result.value != seq.value:
            issues.append(
                f"{label}: optimum {result.value!r} != sequential {seq.value!r}"
            )
    else:  # decision
        if result.found is None:
            issues.append(f"{label}: decision result is missing 'found'")
        elif bool(result.found) != bool(seq.found):
            issues.append(
                f"{label}: decision found={result.found} != "
                f"sequential found={seq.found}"
            )
        elif result.found and result.value != seq.value:
            issues.append(
                f"{label}: decision value {result.value!r} != "
                f"sequential {seq.value!r}"
            )

    # Witness re-verification: feasibility, not just the number.
    check_witness = report.kind == "optimisation" or bool(result.found)
    if check_witness and not issues:
        try:
            if not validate_result(report.spec, result):
                issues.append(
                    f"{label}: witness {result.node!r} failed re-verification "
                    f"against the feasibility predicate"
                )
        except ValueError as exc:
            issues.append(f"{label}: malformed result: {exc}")

    if reassigned == 0 and nodes > report.tree_nodes:
        issues.append(
            f"{label}: visited {nodes} nodes > unpruned tree size "
            f"{report.tree_nodes} with no reassignment (double-processing)"
        )
    return issues

"""Reduction-sequence checking: is a run a legal derivation?

The machine in :mod:`repro.semantics.machine` *generates* reductions;
this module *validates* them.  Given two configurations, `judge`
decides whether ``cfg -> cfg'`` holds under the paper's rules — i.e.
whether some thread could have made that step — and names the rule.
`check_run` validates a whole configuration sequence and, along the
way, re-verifies the invariants the correctness proofs rest on:

- node conservation: only (terminate) and (prune) remove nodes, and
  (shortcircuit) may clear everything;
- the termination measure never increases (Theorem 3.3's multiset
  argument, summarised as a total count);
- knowledge monotonicity for optimisation/decision searches.

This is the executable analogue of checking a pencil-and-paper
derivation, and it is used in tests to certify that the machine's own
`step` only ever takes legal reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.semantics.machine import (
    DECISION,
    ENUMERATION,
    Configuration,
    SearchProblem,
)

__all__ = ["Judgement", "judge", "check_run"]


@dataclass(frozen=True)
class Judgement:
    """The verdict on one candidate reduction step."""

    legal: bool
    rule: Optional[str] = None  # e.g. "traverse+process@2", "spawn@0"
    reason: Optional[str] = None  # why it was rejected


def _changed_threads(a: Configuration, b: Configuration) -> list[int]:
    return [i for i in range(len(a.threads)) if a.threads[i] != b.threads[i]]


def judge(problem: SearchProblem, a: Configuration, b: Configuration) -> Judgement:
    """Decide whether ``a -> b`` is one legal reduction.

    Covers the composed step shapes the machine takes: a traversal
    reduction followed by node processing (possibly preceded by a
    schedule), a prune, a shortcircuit, or a spawn.  Exactly one thread
    may change (spawns also change the queue).
    """
    if len(a.threads) != len(b.threads):
        return Judgement(False, reason="thread count changed")

    changed = _changed_threads(a, b)
    tasks_a, tasks_b = list(a.tasks), list(b.tasks)

    # (shortcircuit): everything cleared, knowledge unchanged, and the
    # incumbent must sit at the monoid's greatest element.
    if not tasks_b and all(t is None for t in b.threads) and (
        tasks_a or any(t is not None for t in a.threads)
    ):
        if problem.kind == DECISION and a.knowledge == b.knowledge:
            if problem.objective(a.knowledge) == problem.monoid.greatest():
                return Judgement(True, rule="shortcircuit")

    if len(changed) > 1:
        return Judgement(False, reason=f"threads {changed} changed at once")

    # (spawn*): same thread node, subtree(s) moved from thread to queue tail.
    if len(tasks_b) > len(tasks_a):
        if tasks_b[: len(tasks_a)] != tasks_a:
            return Judgement(False, reason="spawn must append to the queue tail")
        if len(changed) != 1:
            return Judgement(False, reason="spawn must come from one thread")
        i = changed[0]
        th_a, th_b = a.threads[i], b.threads[i]
        if th_a is None or th_b is None:
            return Judgement(False, reason="spawning thread must stay active")
        if th_a.node != th_b.node:
            return Judgement(False, reason="spawn must not move the thread")
        new_tasks = tasks_b[len(tasks_a) :]
        moved = set()
        for t in new_tasks:
            if not t.nodes <= th_a.task.nodes:
                return Judgement(False, reason="spawned nodes not from the thread")
            for u in t.nodes:
                if not th_a.task.tree.before(th_a.node, u):
                    return Judgement(False, reason="spawned an explored node")
            moved |= set(t.nodes)
        if set(th_b.task.nodes) != set(th_a.task.nodes) - moved:
            return Judgement(False, reason="thread kept or lost wrong nodes")
        if a.knowledge != b.knowledge:
            return Judgement(False, reason="spawn must not change knowledge")
        return Judgement(True, rule=f"spawn@{changed[0]}")

    if len(tasks_b) < len(tasks_a):
        # (schedule)+process: head task moved onto an idle thread.
        if tasks_a[1:] != tasks_b:
            return Judgement(False, reason="schedule must pop the queue head")
        if len(changed) != 1:
            return Judgement(False, reason="schedule must fill one thread")
        i = changed[0]
        if a.threads[i] is not None:
            return Judgement(False, reason="scheduled onto a busy thread")
        th_b = b.threads[i]
        if th_b is None or th_b.task != tasks_a[0] or th_b.node != tasks_a[0].root:
            return Judgement(False, reason="scheduled thread malformed")
        return _judge_processing(problem, a, b, th_b.node, f"schedule+process@{i}")

    # queue unchanged: traversal, prune, or a no-move processing artifact.
    if not changed:
        return Judgement(False, reason="nothing changed")
    i = changed[0]
    th_a, th_b = a.threads[i], b.threads[i]
    if th_a is None:
        return Judgement(False, reason="idle thread cannot move")

    if th_b is None:  # (terminate) (+noop)
        if th_a.task.next(th_a.node) is not None:
            return Judgement(False, reason="terminated with work remaining")
        if a.knowledge != b.knowledge:
            return Judgement(False, reason="terminate must not change knowledge")
        return Judgement(True, rule=f"terminate@{i}")

    if th_b.task == th_a.task and th_b.node != th_a.node:
        # (expand)/(backtrack) + processing of the new node.
        expected = th_a.task.next(th_a.node)
        if th_b.node != expected:
            return Judgement(False, reason="moved to a non-successor node")
        prefix = th_b.node[: len(th_a.node)] == th_a.node and len(th_b.node) > len(
            th_a.node
        )
        if prefix and th_b.backtracks != th_a.backtracks:
            return Judgement(False, reason="expand must keep the backtrack count")
        if not prefix and th_b.backtracks not in (
            th_a.backtracks + 1,
            0,  # budget coordination resets after spawning
        ):
            return Judgement(False, reason="backtrack must increment the counter")
        kind = "expand" if prefix else "backtrack"
        return _judge_processing(problem, a, b, th_b.node, f"{kind}+process@{i}")

    if th_b.node == th_a.node and th_b.task != th_a.task:
        # (prune): subtree(S, v) \ {v} removed.
        if problem.prunes is None:
            return Judgement(False, reason="pruning without a |> relation")
        removed = set(th_a.task.nodes) - set(th_b.task.nodes)
        doomed = set(th_a.task.subtree(th_a.node).nodes) - {th_a.node}
        if not removed or removed != doomed:
            return Judgement(False, reason="prune removed the wrong nodes")
        if not problem.prunes(a.knowledge, th_a.node):
            return Judgement(False, reason="prune not justified by |>")
        if a.knowledge != b.knowledge:
            return Judgement(False, reason="prune must not change knowledge")
        return Judgement(True, rule=f"prune@{i}")

    return Judgement(False, reason="unrecognised step shape")


def _judge_processing(
    problem: SearchProblem, a: Configuration, b: Configuration, node, rule: str
) -> Judgement:
    """Validate the ->N half of a composed traversal step."""
    h, monoid = problem.objective, problem.monoid
    if problem.kind == ENUMERATION:
        expected = monoid.plus(a.knowledge, h(node))
        if b.knowledge != expected:
            return Judgement(False, reason="accumulate produced the wrong sum")
    else:
        if monoid.leq(h(node), h(a.knowledge)):
            if b.knowledge != a.knowledge:
                return Judgement(False, reason="skip must keep the incumbent")
        else:
            if b.knowledge != node:
                return Judgement(False, reason="strengthen must adopt the node")
    return Judgement(True, rule=rule)


def check_run(
    problem: SearchProblem, run: list[Configuration]
) -> list[Judgement]:
    """Validate a configuration sequence; raises on the first illegal
    step or broken invariant, returns the per-step judgements."""
    judgements = []
    for step, (a, b) in enumerate(zip(run, run[1:])):
        verdict = judge(problem, a, b)
        if not verdict.legal:
            raise AssertionError(f"illegal step {step}: {verdict.reason}")
        if b.live_nodes() > a.live_nodes():
            raise AssertionError(f"step {step} increased the termination measure")
        if problem.kind != ENUMERATION:
            if problem.monoid.leq(
                problem.objective(b.knowledge), problem.objective(a.knowledge)
            ) and problem.objective(b.knowledge) != problem.objective(a.knowledge):
                raise AssertionError(f"step {step} regressed the incumbent")
        judgements.append(verdict)
    return judgements

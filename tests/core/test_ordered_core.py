"""Unit tests for the Ordered coordination's deterministic core.

Everything here runs in-process with scripted arrival orders, so the
properties the parallel drivers rely on are pinned exactly: discovery-
order task numbering, the purity of ``run_task_fixed_bound``, the
ledger's in-order finalisation with bound enforcement, the job
driver's run policy (which seqs are leased next, what a batch of
records does) and the worker half that executes a run — and, with the
``ordered-tiebreak`` mutation active, the witness flip the repetition
oracle exists to catch, demonstrated deterministically.
"""

import dataclasses
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ordered import (
    ROOT_PRUNED,
    FrontierTasks,
    OrderedFrontier,
    OrderedLedger,
    execute_run,
    ordered_frontier,
    ordered_reference_search,
    run_task_fixed_bound,
)
import repro.core.ordered as ordered_module
from repro.core.params import SkeletonParams
from repro.core.results import SearchMetrics
from repro.core.searchtypes import (
    Decision,
    Enumeration,
    Incumbent,
    Optimisation,
    make_search_type,
)
from repro.core.sequential import sequential_search
from repro.core.tasks import ORDERED, SearchTask, SpawnedTask
from repro.runtime.driver import JobDriver, OrderedRun
from repro.runtime.worker import WorkerJob
from repro.verify.generators import Instance, search_setup

from tests.conftest import make_toy_spec

WIDE = {
    "root": ["a", "b", "c"],
    "a": ["aa", "ab"],
    "c": ["ca"],
    "ca": ["caa"],
}
WIDE_VALUES = {
    "root": 0, "a": 1, "b": 5, "c": 2, "aa": 3, "ab": 2, "ca": 7, "caa": 4,
}


def wide_spec():
    return make_toy_spec(dict(WIDE), dict(WIDE_VALUES))


def tied_spec():
    return make_toy_spec({"root": ["a", "b"]}, {"root": 0, "a": 5, "b": 5})


def rows_of(tasks):
    """Each task of a frontier table as ``(seq, node, depth, key)``: its
    row, its root built, its depth and its child-index path from the
    root (what a lease's stretch names)."""
    return [
        (seq, tasks.node(seq), tasks.depth, path + (index,))
        for seq in range(len(tasks))
        for _first, path, _children, index, _count in tasks.stretches([seq])
    ]


class TestOrderedFrontier:
    def test_tasks_numbered_in_discovery_order(self):
        f = ordered_frontier(wide_spec(), Optimisation(), d_cutoff=1)
        rows = rows_of(f.tasks)
        assert [node for _seq, node, _depth, _key in rows] == ["a", "b", "c"]
        assert [seq for seq, _node, _depth, _key in rows] == [0, 1, 2]
        assert [depth for _seq, _node, depth, _key in rows] == [1, 1, 1]
        # Sorting by key IS sorting by seq.
        assert sorted(rows, key=lambda row: row[3]) == rows

    def test_prefix_covers_exactly_the_region_above_cutoff(self):
        f = ordered_frontier(wide_spec(), Optimisation(), d_cutoff=1)
        assert f.metrics.nodes == 1  # just the root
        assert f.metrics.spawns == 3
        f2 = ordered_frontier(wide_spec(), Optimisation(), d_cutoff=2)
        assert f2.metrics.nodes == 4  # root, a, b, c
        assert [node for _seq, node, _depth, _key in rows_of(f2.tasks)] == ["aa", "ab", "ca"]

    def test_d_cutoff_zero_completes_inline(self):
        f = ordered_frontier(wide_spec(), Optimisation(), d_cutoff=0)
        assert len(f.tasks) == 0
        seq = sequential_search(wide_spec(), Optimisation())
        assert f.knowledge.value == seq.value

    def test_decision_goal_short_circuits_expansion(self):
        f = ordered_frontier(wide_spec(), Decision(target=0), d_cutoff=2)
        assert f.goal is True
        assert len(f.tasks) == 0


def stepped_frontier(spec, stype, d_cutoff):
    """The reference phase 1: one ``SearchTask`` state machine stepped
    for every node above the cutoff.  ``ordered_frontier`` is a direct
    loop over ``spec.generator`` and must agree with this bit for bit.
    """
    params = SkeletonParams(d_cutoff=d_cutoff)
    knowledge = stype.initial_knowledge(spec)
    metrics = SearchMetrics()
    frontier = []
    goal = False
    pending = [SpawnedTask(spec.root, 0, ())]
    while pending and not goal:
        sp = pending.pop()
        if sp.depth >= d_cutoff and sp.depth > 0:
            frontier.append(sp)
            continue
        sub = SearchTask(
            spec, stype, sp.root, policy=ORDERED, params=params,
            root_depth=sp.depth, key=sp.key,
        )
        spawned = []
        while not sub.finished:
            knowledge, out = sub.step(knowledge)
            metrics.nodes += int(out.processed)
            metrics.weighted_nodes += out.weight if out.processed else 0
            metrics.prunes += int(out.pruned)
            metrics.backtracks += int(out.backtracked)
            metrics.max_depth = max(metrics.max_depth, sp.depth + len(sub.stack))
            spawned.extend(out.spawned)
            if out.goal:
                goal = True
                break
        pending.extend(reversed(spawned))
    if goal:
        frontier = []
    frontier.sort(key=lambda sp: sp.key)
    metrics.spawns = len(frontier)
    return OrderedFrontier(
        tasks=[(i, sp.root, sp.depth, sp.key) for i, sp in enumerate(frontier)],
        knowledge=knowledge, goal=goal, metrics=metrics,
    )


class TestFrontierPinnedToSteppedWalk:
    """The direct phase-1 loop against the stepped walk it replaced, on
    the seeded generators of every verify family."""

    INSTANCES = [
        Instance("uts", (4, 5, 9)),
        Instance("maxclique", (16, 60, 7)),
        Instance("maxclique", (24, 75, 3)),
        Instance("kclique", (14, 60, 4, 5)),
        Instance("knapsack", (9, 5)),
        Instance("sip", (5, 12, 50, 1, 3)),
    ]

    @pytest.mark.parametrize("inst", INSTANCES, ids=lambda i: i.describe())
    @pytest.mark.parametrize("d_cutoff", [0, 1, 2, 3])
    def test_bit_identical(self, inst, d_cutoff):
        spec, kind, kwargs = search_setup(inst)
        stype = make_search_type(kind, **kwargs)
        got = ordered_frontier(spec, stype, d_cutoff=d_cutoff)
        want = stepped_frontier(spec, stype, d_cutoff)
        assert rows_of(got.tasks) == want.tasks  # seq, built node, depth, key
        assert got.knowledge == want.knowledge
        assert got.goal == want.goal
        assert got.metrics.to_dict() == want.metrics.to_dict()

    def test_goal_above_the_cutoff_empties_the_frontier(self):
        stype = Decision(target=5)  # 'b' at depth 1 reaches it
        got = ordered_frontier(wide_spec(), stype, d_cutoff=2)
        want = stepped_frontier(wide_spec(), stype, 2)
        assert got.goal and len(got.tasks) == 0
        assert got.knowledge == want.knowledge
        assert got.metrics.to_dict() == want.metrics.to_dict()

    def test_node_weights_are_carried(self):
        import dataclasses

        spec = dataclasses.replace(wide_spec(), node_size=lambda n: len(n))
        for d_cutoff in (0, 1, 2):
            got = ordered_frontier(spec, Optimisation(), d_cutoff=d_cutoff)
            want = stepped_frontier(spec, Optimisation(), d_cutoff)
            assert got.metrics.to_dict() == want.metrics.to_dict()


class TestRunTaskFixedBound:
    def test_pure_function_of_root_and_bound(self):
        spec = wide_spec()
        runs = [
            run_task_fixed_bound(spec, Optimisation(), "c", 1, 2)
            for _ in range(3)
        ]
        assert runs[0] == runs[1] == runs[2]
        assert runs[0]["value"] == 7
        assert runs[0]["node"] == "ca"
        assert runs[0]["nodes"] == 2  # c, ca; caa pruned under the new 7

    def test_bound_is_a_strict_floor(self):
        spec = wide_spec()
        # Nothing in c's subtree beats bound=7: value is None and the
        # subtree root itself is pruned (its admissible bound is 7).
        p = run_task_fixed_bound(spec, Optimisation(), "c", 1, 7)
        assert p["value"] is None
        assert p["node"] is None
        assert p["prunes"] >= 1
        # Lowering the bound re-opens it deterministically.
        assert run_task_fixed_bound(spec, Optimisation(), "c", 1, 6)["value"] == 7

    def test_shared_incumbent_never_consulted(self):
        # Two tasks with different bounds visit different node counts —
        # proof the payload depends only on (root, bound), nothing
        # global.
        spec = wide_spec()
        wide_open = run_task_fixed_bound(spec, Optimisation(), "a", 1, 0)
        clamped = run_task_fixed_bound(spec, Optimisation(), "a", 1, 5)
        assert wide_open["nodes"] > 1
        assert clamped["nodes"] == 1  # root visited, children pruned away
        assert clamped["value"] is None

    def test_enumeration_ignores_bound(self):
        spec = wide_spec()
        a = run_task_fixed_bound(spec, Enumeration(), "a", 1, None)
        b = run_task_fixed_bound(spec, Enumeration(), "a", 1, 999)
        assert a == b
        assert a["knowledge"] == 6  # objective sum over a, aa, ab
        assert a["nodes"] == 3

    def test_abort_is_clean(self):
        spec = wide_spec()
        p = run_task_fixed_bound(
            spec, Enumeration(), "root", 0, None,
            poll=1, should_abort=lambda: True,
        )
        assert p is None

    def test_decision_goal_short_circuits(self):
        p = run_task_fixed_bound(wide_spec(), Decision(target=3), "a", 1, 0)
        assert p["goal"] is True


COUNTERS = ("nodes", "prunes", "backtracks", "max_depth")


def _as_block(seq, payload):
    """One ``run_task_fixed_bound`` payload (plus the ``bound`` it ran
    from) as the one-task block a worker would report."""
    block = {"seqs": [seq], "bound": payload.get("bound")}
    for name in COUNTERS:
        block[name] = [payload[name]]
    if "knowledge" in payload:
        block["knowledge"] = [payload["knowledge"]]
    elif payload["value"] is not None:
        block.update(
            value=payload["value"], node=payload["node"], goal=payload["goal"]
        )
    return block


def _frontier_and_payloads(spec, stype, *, d_cutoff=1, bound=0):
    """Phase 1 plus honest speculative one-task blocks for every task."""
    f = ordered_frontier(spec, stype, d_cutoff=d_cutoff)
    blocks = {}
    for seq, node, depth, _key in rows_of(f.tasks):
        p = run_task_fixed_bound(spec, stype, node, depth, bound)
        if stype.kind != "enumeration":
            p["bound"] = bound
        blocks[seq] = _as_block(seq, p)
    return f, blocks


def _rerun(ledger, spec, stype, seq, node):
    """Task ``seq`` run again from the bound the ledger now requires."""
    bound = ledger.required_bound()
    p = run_task_fixed_bound(spec, stype, node, 1, bound)
    p["bound"] = bound
    ledger.record(_as_block(seq, p))


class TestOrderedLedger:
    def test_finalises_only_in_sequence_order(self):
        spec = wide_spec()
        f, blocks = _frontier_and_payloads(spec, Optimisation())
        ledger = OrderedLedger(Optimisation(), f)
        # Arrivals out of order: seq 2 and 1 park, nothing finalises.
        ledger.record(blocks[2])
        ledger.record(blocks[1])
        assert ledger.advance() == []
        assert ledger.next_seq == 0
        # seq 0 lands: it finalises (best becomes 3) and nothing after
        # it does.  Both parked results were searched under the
        # now-stale bound 0, so one call hands back both — the head
        # first — rather than one re-run per call.
        ledger.record(blocks[0])
        assert ledger.advance() == [1, 2]
        assert ledger.next_seq == 1
        assert ledger.required_bound() == 3
        assert ledger.metrics.reassigned == 2
        # The re-runs finalise in order, each from the bound required
        # at its turn (3, then 5 once b has been merged).
        for seq, node in ((1, "b"), (2, "c")):
            _rerun(ledger, spec, Optimisation(), seq, node)
            assert ledger.advance() == []
            assert ledger.next_seq == seq + 1
        assert ledger.finished
        assert ledger.journal[1][:2] == (1, 3)
        assert ledger.journal[2][:2] == (2, 5)

    def test_stale_bound_rejected_and_reissued_pinned(self):
        spec = wide_spec()
        f, blocks = _frontier_and_payloads(spec, Optimisation())
        ledger = OrderedLedger(Optimisation(), f)
        ledger.record(blocks[0])  # a: value 3 under bound 0 -> best 3
        assert ledger.advance() == []
        assert ledger.required_bound() == 3
        # b ran speculatively under bound 0; by its turn the required
        # bound is 3, so it must be discarded and demanded again.
        ledger.record(blocks[1])
        assert ledger.advance() == [1]
        assert ledger.metrics.reassigned == 1
        # The pinned re-run finalises.
        _rerun(ledger, spec, Optimisation(), 1, "b")
        assert ledger.advance() == []
        assert ledger.next_seq == 2
        assert ledger.required_bound() == 5

    def test_journal_records_finalisation_bounds(self):
        spec = wide_spec()
        f, blocks = _frontier_and_payloads(spec, Optimisation())
        ledger = OrderedLedger(Optimisation(), f)
        ledger.record(blocks[0])
        ledger.advance()
        assert ledger.journal == [(0, 0, blocks[0]["nodes"][0])]

    def test_stale_and_out_of_range_arrivals_ignored(self):
        spec = wide_spec()
        f, blocks = _frontier_and_payloads(spec, Optimisation())
        ledger = OrderedLedger(Optimisation(), f)
        ledger.record(blocks[0])
        ledger.advance()
        before = ledger.knowledge
        ledger.record(_record(0, 3, value=99, node="bogus"))  # already final
        ledger.record(_record(99, 3, value=99, node="bogus"))  # no such task
        assert ledger.advance() == []
        assert ledger.knowledge == before

    def test_enumeration_accumulates_on_prefix(self):
        spec = wide_spec()
        f, blocks = _frontier_and_payloads(spec, Enumeration(), bound=None)
        ledger = OrderedLedger(Enumeration(), f)
        for seq in (0, 1, 2):
            ledger.record(blocks[seq])
        assert ledger.advance() == []
        assert ledger.finished
        seq_res = sequential_search(spec, Enumeration())
        assert ledger.knowledge == seq_res.value
        assert ledger.metrics.nodes == seq_res.metrics.nodes

    def test_decision_goal_finishes_early(self):
        spec = wide_spec()
        stype = Decision(target=5)
        f, blocks = _frontier_and_payloads(spec, stype)
        ledger = OrderedLedger(stype, f)
        ledger.record(blocks[0])
        ledger.advance()
        _rerun(ledger, spec, stype, 1, "b")  # b hits the target
        ledger.advance()
        assert ledger.goal is True
        assert ledger.finished

    def test_a_block_is_parked_task_by_task(self):
        # Three tasks from one bound in one block, the last improving:
        # they finalise one by one, and the value belongs to the last.
        ledger = _flat_ledger(4)
        ledger.record({
            "seqs": range(0, 3), "bound": 0, "nodes": [4, 1, 9],
            "prunes": [2, 1, 3], "backtracks": [1, 0, 5], "max_depth": [3, 0, 4],
            "value": 6, "node": "w", "goal": False,
        })
        assert ledger.advance() == []
        assert ledger.next_seq == 3
        assert ledger.required_bound() == 6
        assert ledger.knowledge == Incumbent(6, "w")
        assert ledger.journal == [(0, 0, 4), (1, 0, 1), (2, 0, 9)]
        m = ledger.metrics
        assert (m.nodes, m.prunes, m.backtracks, m.max_depth) == (14, 6, 6, 4)


class TestRootPrunedRule:
    """A task pruned at its root from ``b`` is pruned at its root from
    every ``B* >= b``: its record is final from any *lower* bound."""

    def test_root_pruned_from_a_lower_bound_is_final_under_the_required_one(self):
        ledger = _flat_ledger(4)
        ledger.record(_pruned(1, 0))
        ledger.record(_pruned(2, 2))
        ledger.record(_record(0, 0, value=4, node="w"))
        assert ledger.advance() == []  # nothing to run again
        assert ledger.next_seq == 3
        assert ledger.metrics.reassigned == 0
        # Journalled under the bound that was required, not the one run from.
        assert ledger.journal == [(0, 0, 1), (1, 4, 1), (2, 4, 1)]

    def test_root_pruned_from_a_higher_bound_is_still_reissued(self):
        ledger = _flat_ledger(3)
        ledger.record(_pruned(1, 9))  # might not be pruned under 4
        ledger.record(_record(0, 0, value=4, node="w"))
        assert ledger.advance() == [1]
        assert ledger.next_seq == 1

    def test_unpruned_from_a_lower_bound_is_still_reissued(self):
        ledger = _flat_ledger(3)
        ledger.record(_record(1, 0, nodes=1))  # one node, not pruned: a leaf
        ledger.record(_record(2, 0, nodes=7))
        ledger.record(_record(0, 0, value=4, node="w"))
        assert ledger.advance() == [1, 2]

    def test_an_improving_root_is_not_root_pruned(self):
        ledger = _flat_ledger(3)
        improving = _pruned(1, 0)
        improving.update(value=3, node="x", goal=False)
        ledger.record(improving)
        ledger.record(_record(0, 0, value=4, node="w"))
        assert ledger.advance() == [1]

    def test_late_arrival_from_a_lower_bound(self):
        # Arriving after the best has moved: the pruned one parks, the
        # other is handed back without waiting for its turn.
        ledger = _flat_ledger(5)
        ledger.record(_record(0, 0, value=4, node="w"))
        assert ledger.advance() == []
        ledger.record(_pruned(2, 0))
        ledger.record(_record(3, 0))
        assert ledger.advance() == [3]
        ledger.record(_record(1, 4))
        assert ledger.advance() == []
        assert ledger.next_seq == 3


class TestPrunedAtRootIsTheKernelsRootCheck:
    """``FrontierTasks.pruned_at_root`` reads a task's column row; the
    kernel runs the task.  From any bound they must agree on whether the
    task stops at its root, pruned, improving nothing — the record the
    driver parks and a worker reports without building the node."""

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["maxclique", "kclique", "uts"]),
        n=st.integers(6, 16),
        p_pct=st.integers(30, 90),
        k=st.integers(2, 7),
        seed=st.integers(0, 2**16),
        d_cutoff=st.integers(1, 3),
        data=st.data(),
    )
    def test_condemned_iff_the_kernel_stops_at_the_root(
        self, family, n, p_pct, k, seed, d_cutoff, data
    ):
        args = {
            "maxclique": (n, p_pct, seed),
            "kclique": (n, p_pct, k, seed),
            "uts": (2 + n % 3, 3 + n % 3, seed),
        }[family]
        spec, kind, kwargs = search_setup(Instance(family, args))
        stype = make_search_type(kind, **kwargs)
        tasks = ordered_frontier(spec, stype, d_cutoff=d_cutoff).tasks
        target = kwargs.get("target")
        for seq in range(len(tasks)):
            node = tasks.node(seq)
            # Bounds around the row (objective, admissible bound) and
            # around a Decision target, which prunes a bound below it
            # whatever the incumbent.
            marks = [spec.objective(node), kwargs.get("target", 0)]
            if spec.can_prune:
                marks.append(spec.bound(node))
            bound = data.draw(st.sampled_from(sorted(
                {max(0, mark + step) for mark in marks for step in (-1, 0, 1)}
            )))
            payload = run_task_fixed_bound(spec, stype, node, tasks.depth, bound)
            stopped = {name: payload.get(name) for name in ROOT_PRUNED} == ROOT_PRUNED
            assert tasks.pruned_at_root(seq, bound) == stopped, (seq, bound, target)
            assert tasks.split([seq], bound)[1] == ([seq] if stopped else [])


def _record(seq, bound, value=None, node=None, nodes=1):
    """A scripted one-task block, as a worker would report it (the task
    was not pruned at its root)."""
    block = {
        "seqs": [seq], "bound": bound, "nodes": [nodes], "prunes": [0],
        "backtracks": [0], "max_depth": [1],
    }
    if value is not None:
        block.update(value=value, node=node, goal=False)
    return block


def _pruned(seq, bound):
    """A scripted task that stopped at its root, pruned, from ``bound``."""
    return {
        "seqs": [seq], "bound": bound, "nodes": [1], "prunes": [1],
        "backtracks": [0], "max_depth": [0],
    }


def _ordered_driver(spec, stype, d_cutoff, poll=1):
    """A started Ordered job driver (no workers to engage)."""
    driver = JobDriver(WorkerJob(0, spec, stype, "ordered", d_cutoff=d_cutoff, share_poll=poll))
    driver.start(lambda: None)
    return driver


def _flat_ledger(n, best=0):
    """A ledger over ``n`` placeholder tasks whose phase-1 best is
    ``best`` — arrivals are scripted, nothing is ever searched."""
    frontier = OrderedFrontier(
        tasks=range(n),  # the ledger reads only their number
        knowledge=Incumbent(best, "root"),
    )
    return OrderedLedger(Optimisation(), frontier)


def _flat_driver(n, best=0, poll=1):
    """A driver over ``n`` placeholder tasks whose phase-1 best is
    ``best`` — the root's, met by no child — with arrivals scripted and
    nothing ever searched."""
    kids = [f"t{i}" for i in range(n)]
    values = {"root": best, **dict.fromkeys(kids, 0)}
    spec = make_toy_spec({"root": kids}, values, with_bound=False)
    driver = _ordered_driver(spec, Optimisation(), 1, poll)
    return driver, driver.ledger


def _seqs(run):
    return list(run.seqs)


class TestBulkReissue:
    def test_late_improvement_reissues_every_stale_result_at_once(self):
        ledger = _flat_ledger(10)
        # seqs 1..6 arrive first, all searched from bound 0.
        for seq in range(1, 7):
            ledger.record(_record(seq, 0))
        assert ledger.advance() == []
        # The late one: seq 0 improves the bound to 4.  Everything
        # parked is now provably stale and comes back in ONE call.
        ledger.record(_record(0, 0, value=4, node="w"))
        assert ledger.advance() == [1, 2, 3, 4, 5, 6]
        assert ledger.next_seq == 1
        assert ledger.advance() == []  # nothing left to hand back

    def test_stale_arrival_after_the_improvement_is_handed_back_too(self):
        ledger = _flat_ledger(6)
        ledger.record(_record(0, 0, value=4, node="w"))
        assert ledger.advance() == []
        # Out of turn (seq 1 is the head) and from the old bound: no
        # need to wait for its turn to know it cannot finalise.
        ledger.record(_record(3, 0))
        assert ledger.advance() == [3]

    def test_results_from_the_new_bound_stay_parked(self):
        ledger = _flat_ledger(6)
        ledger.record(_record(2, 4))  # a worker that threaded 4 locally
        ledger.record(_record(3, 0))
        ledger.record(_record(0, 0, value=4, node="w"))
        assert ledger.advance() == [3]
        ledger.record(_record(1, 4))
        assert ledger.advance() == []
        assert ledger.next_seq == 3  # 1 and the parked 2 both finalised

    def test_overshoot_is_rejected_at_finalisation_not_in_bulk(self):
        ledger = _flat_ledger(4)
        # Bound 9 is above anything finalised: the bulk rule (strictly
        # below the best) must leave it alone...
        ledger.record(_record(2, 9))
        ledger.record(_record(0, 0, value=4, node="w"))
        assert ledger.advance() == []
        assert ledger.metrics.reassigned == 0
        # ...and its turn rejects it, because 9 != the required 4.
        ledger.record(_record(1, 4))
        assert ledger.advance() == [2]
        assert ledger.next_seq == 2
        ledger.record(_record(2, 4))
        ledger.record(_record(3, 4))
        assert ledger.advance() == []
        assert ledger.finished
        assert [bound for _seq, bound, _n in ledger.journal] == [0, 4, 4, 4]


class TestRunPolicy:
    def test_leases_in_sequence_order_doubling_to_the_cap(self):
        driver, _ = _flat_driver(400)
        sizes, first = [], 0
        for _ in range(8):
            run = driver.lease(workers=4)
            assert isinstance(run.seqs, range)  # fresh work is a range
            assert run.seqs.start == first  # consecutive, nothing skipped
            assert run.bound == 0
            sizes.append(len(run.seqs))
            first += len(run.seqs)
        # 1, 2, 4, ... until a quarter of an even share of what is left
        # to hand out (backlog // (4 * workers)) takes over.
        assert sizes[:5] == [1, 2, 4, 8, 16]
        assert sizes[5] == (400 - 31) // 16
        assert sizes[6] == (400 - 31 - sizes[5]) // 16

    def test_run_ahead_never_exceeds_two_runs_per_worker(self):
        driver, _ = _flat_driver(400)
        held = [driver.lease(workers=3) for _ in range(6)]
        assert all(run is not None for run in held)
        assert driver.in_flight == 6
        assert driver.lease(workers=3) is None  # window full
        # A flush that is not the run's last message frees nothing.
        driver.accept([_record(0, 0)], done=False)
        assert driver.lease(workers=3) is None
        driver.accept([], done=True)
        assert driver.lease(workers=3) is not None
        assert driver.lease(workers=3) is None

    def test_small_frontier_leases_single_tasks(self):
        # 8 tasks on 2 workers: the cap is 8 // 8 = 1, so run sizing
        # never engages and every lease is one task, as before runs.
        driver, _ = _flat_driver(8)
        got = []
        while len(got) < 8:
            run = driver.lease(workers=2)
            if run is None:
                driver.accept([], done=True)
                continue
            got.append(len(run.seqs))
        assert got == [1] * 8

    def test_size_resets_when_the_best_moves(self):
        driver, ledger = _flat_driver(400)
        runs = [driver.lease(workers=2) for _ in range(4)]  # 1, 2, 4, 8
        assert [len(r.seqs) for r in runs] == [1, 2, 4, 8]
        moved = driver.accept([_record(0, 0, value=7, node="w")], done=True)
        assert moved and ledger.required_bound() == 7
        assert len(driver.lease(workers=2).seqs) == 1
        assert driver.lease(workers=2) is None  # 3 old + 1 new in flight
        # No movement, no reset: doubling carries on from 1.
        assert driver.accept(
            [_record(1, 7), _record(2, 7)], done=True
        ) is False
        assert len(driver.lease(workers=2).seqs) == 2

    def test_a_run_is_never_shorter_than_the_poll_interval(self):
        # 64 nodes between two of a worker's looks at the world, tasks
        # of 4 nodes so far: no lease under 16 tasks, doubling or not,
        # reset or not, tail or not.
        driver, ledger = _flat_driver(400, poll=64)
        assert len(driver.lease(workers=2).seqs) == 1  # nothing finalised yet
        driver.accept([_record(0, 0, nodes=4)], done=True)
        assert len(driver.lease(workers=2).seqs) == 16
        assert len(driver.lease(workers=2).seqs) == 32
        second = driver.lease(workers=2)
        driver.accept([_record(1, 0, value=7, node="w", nodes=4)], done=True)
        assert len(driver.lease(workers=2).seqs) == 16  # reset to 1, floored
        # Big tasks: the floor is below one task and never binds.
        coarse, ledger = _flat_driver(400, poll=64)
        coarse.lease(workers=2)
        coarse.accept([_record(0, 0, nodes=5000)], done=True)
        assert len(coarse.lease(workers=2).seqs) == 2

    def test_head_rerun_is_first_in_line_and_carries_the_required_bound(self):
        driver, ledger = _flat_driver(400)
        runs = [driver.lease(workers=2) for _ in range(4)]
        assert [_seqs(r) for r in runs[:2]] == [[0], [1, 2]]
        # [1, 2] and [3..6] come back first, searched from bound 0 ...
        driver.accept([_record(s, 0) for s in (1, 2)], done=True)
        driver.accept([_record(s, 0) for s in (3, 4, 5, 6)], done=True)
        # ... then seq 0 improves the bound: all six are stale.
        assert driver.accept([_record(0, 0, value=7, node="w")], done=True)
        assert ledger.next_seq == 1
        assert driver.backlog == 6 + 400 - 15
        # Re-runs beat fresh work, lowest seq (the blocked head) first,
        # cut under exactly the bound it must now run from: one lease
        # per worker, an even share each.
        first = driver.lease(workers=2)
        assert (_seqs(first), first.bound) == ([1, 2, 3], 7)
        again = driver.lease(workers=2)
        assert (_seqs(again), again.bound) == ([4, 5, 6], 7)
        # Window: [7..14] is still out, so one more and it is full.
        assert driver.lease(workers=2).seqs.start == 15
        assert driver.lease(workers=2) is None

    def test_rerun_leases_bridge_gaps(self):
        driver, _ = _flat_driver(400)
        for _ in range(4):
            driver.lease(workers=2)
        driver.accept([_record(s, 0) for s in (3, 5, 6)], done=True)
        driver.accept([], done=True)
        driver.accept([], done=True)
        driver.accept([_record(0, 0, value=7, node="w")], done=True)
        # Stale: 3, 5, 6.  A lease is any ascending list: two workers,
        # two leases, not one per consecutive stretch.
        assert _seqs(driver.lease(workers=2)) == [3, 5]
        assert _seqs(driver.lease(workers=2)) == [6]

    def test_lost_lease_is_queued_again_minus_what_finalised(self):
        driver, ledger = _flat_driver(400)
        runs = [driver.lease(workers=2) for _ in range(3)]  # [0] [1,2] [3..6]
        # The worker on [1, 2] flushed seq 1 early, then died.
        driver.accept([_record(0, 0)], done=True)
        driver.accept([_record(1, 0)], done=False)
        assert ledger.next_seq == 2
        assert driver.in_flight == 2
        assert driver.requeue(runs[1]) == 1  # only seq 2 is still owed
        assert driver.in_flight == 1
        assert _seqs(driver.lease(workers=2)) == [2]

    def test_nothing_is_leased_once_the_ledger_is_finished(self):
        driver, ledger = _flat_driver(2)
        driver.lease(workers=1)
        driver.lease(workers=1)
        driver.accept([_record(0, 0), _record(1, 0)], done=True)
        assert ledger.finished
        assert driver.lease(workers=1) is None

    def test_enumeration_has_no_bounds_and_never_reissues(self):
        spec = wide_spec()
        f, blocks = _frontier_and_payloads(spec, Enumeration(), bound=None)
        driver = _ordered_driver(spec, Enumeration(), 1)
        ledger = driver.ledger
        run = driver.lease(workers=1)
        # Task 0 is child 0 of the root (path ()), which has 3 children.
        assert run == OrderedRun(range(0, 1), None, [[0, (), 3, 0, 1]])
        for seq in (2, 1, 0):
            assert driver.accept([blocks[seq]], done=False) is False
        assert ledger.finished
        assert ledger.metrics.reassigned == 0
        assert ledger.knowledge == sequential_search(spec, Enumeration()).value


class TestExecuteRun:
    """The worker half: one leased run, no queues, scripted publisher."""

    def _run(self, seqs, bound, *, published=lambda: 0, **kw):
        walked = ordered_frontier(wide_spec(), Optimisation(), d_cutoff=1).tasks
        sent = []
        finished = execute_run(
            wide_spec(), Optimisation(), FrontierTasks(wide_spec(), Optimisation(), 1),
            walked.stretches(seqs), bound,
            lambda blocks, done: sent.append((list(blocks), done)),
            published=published, **kw,
        )
        return finished, sent

    def test_threads_the_bound_and_flushes_on_improvement(self):
        finished, sent = self._run(range(3), 0)
        assert finished
        # a improves 0 -> 3 and b improves 3 -> 5: each closes its block
        # and is flushed at once; c (the last task, 5 -> 7) rides the
        # final message.
        assert [(len(b), done) for b, done in sent] == [
            (1, False), (1, False), (1, True),
        ]
        blocks = [b for batch, _ in sent for b in batch]
        assert [list(b["seqs"]) for b in blocks] == [[0], [1], [2]]
        assert [b["bound"] for b in blocks] == [0, 3, 5]
        assert [b["value"] for b in blocks] == [3, 5, 7]
        # Exactly what the reference does task by task.
        for b, node in zip(blocks, "abc"):
            want = run_task_fixed_bound(
                wide_spec(), Optimisation(), node, 1, b["bound"]
            )
            assert _as_block(b["seqs"][0], dict(want, bound=b["bound"])) == dict(
                b, seqs=list(b["seqs"])
            )

    def test_records_ride_one_message_when_nothing_improves(self):
        finished, sent = self._run(range(3), 9)
        assert finished
        ((block,),) = [b for b, _ in sent]
        assert sent[0][1] is True
        # One block: three tasks from one bound, columns in step, and
        # no value / node / goal at all because nothing improved.
        assert block["seqs"] == range(3) and block["bound"] == 9
        assert all(len(block[name]) == 3 for name in COUNTERS)
        assert set(block) == {"seqs", "bound", *COUNTERS}

    def test_a_scattered_lease_reports_slices_of_its_own_seqs(self):
        finished, sent = self._run([0, 2], 9)
        ((block,),) = [b for b, _ in sent]
        assert block["seqs"] == [0, 2]
        finished, sent = self._run([0, 2], 0)  # a improves: two blocks
        assert [b["seqs"] for batch, _ in sent for b in batch] == [[0], [2]]

    def test_a_newly_published_bound_starts_a_new_block(self):
        heard = iter([0, 9])  # before a; before b: the best has moved

        def published():
            return next(heard, 9)

        finished, sent = self._run(range(3), 7, published=published)
        ((first, second),) = [b for b, _ in sent]  # one message, two blocks
        assert (first["seqs"], first["bound"]) == (range(0, 1), 7)
        assert (second["seqs"], second["bound"]) == (range(1, 3), 9)

    def test_starts_from_the_published_best_when_it_is_ahead(self):
        finished, sent = self._run([0], 0, published=lambda: 2)
        assert sent[0][0][0]["bound"] == 2

    def test_overtaken_task_restarts_from_the_new_bound(self):
        heard = iter([0, 6])  # at the start; at the first poll check

        def published():
            return next(heard, 6)

        # poll=1 makes the check fire after c's first child: the
        # published best (6) has overtaken the start bound (0).
        finished, sent = self._run([2], 0, published=published, poll=1)
        assert finished
        (block,) = sent[0][0]
        assert block["bound"] == 6
        want = run_task_fixed_bound(wide_spec(), Optimisation(), "c", 1, 6)
        assert block["nodes"] == [want["nodes"]]  # the aborted try left no trace

    def test_a_task_condemned_at_its_starting_bound_is_never_built(self, monkeypatch):
        # Leased under the phase-1 bound, heard the optimum before the
        # first task: every task starts from the optimum, and only the
        # ones it does not prune at their root are built and searched.
        spec, kind, kwargs = search_setup(Instance("maxclique", (24, 75, 3)))
        stype = make_search_type(kind, **kwargs)
        frontier = ordered_frontier(spec, stype, d_cutoff=2)
        tasks, n = frontier.tasks, len(frontier.tasks)
        best = ordered_reference_search(spec, stype, d_cutoff=2).value
        built, build = [], tasks.node
        monkeypatch.setattr(tasks, "node", lambda seq: built.append(seq) or build(seq))
        sent = []
        execute_run(
            spec, stype, tasks, tasks.stretches(range(n)), frontier.knowledge.value,
            lambda blocks, done: sent.extend(blocks), published=lambda: best,
        )
        survivors, condemned = tasks.split(range(n), best)
        assert built == survivors and condemned
        ((block,),) = [sent]  # nothing beat the optimum: one block
        assert block["bound"] == best
        for seq in condemned:
            assert [block[name][seq] for name in COUNTERS] == [ROOT_PRUNED[name] for name in COUNTERS]

    def test_abort_sends_nothing_more(self):
        finished, sent = self._run(
            [2, 0], 0, poll=1, should_abort=lambda: True,
        )
        assert finished is False
        assert sent == []

    @pytest.mark.parametrize("stretches, match", [
        # The root has 3 children, and "a" (path (0,)) has 2.
        ([(0, (), 3, 0, 1), (1, (), 4, 1, 1)], r"path \[\] has 3 children here; its lease says 4"),
        ([(0, (), 3, 2, 2)], r"path \[\] has 3 children here; its lease says 3 and names child 3"),
        ([(0, (0,), 3, 0, 1)], r"path \[0\] has 2 children here; its lease says 3"),
        ([(0, (3,), 1, 0, 1)], r"path \[3\] names child 3 of a node with 3 here"),
    ], ids=["child-count", "child", "child-count-below", "path"])
    def test_another_tree_is_refused_before_anything_runs(self, stretches, match):
        d_cutoff = len(stretches[0][1]) + 1
        tasks = FrontierTasks(wide_spec(), Optimisation(), d_cutoff)
        with pytest.raises(ValueError, match=match):
            execute_run(
                wide_spec(), Optimisation(), tasks, stretches, 0,
                lambda blocks, done: pytest.fail("ran"), published=lambda: 0,
            )

    def test_each_parent_is_built_once_by_replaying_its_path(self):
        # d_cutoff=2: the parents are a and c (b is a leaf), at paths
        # (0,) and (2,).  Three leases name them; each is built once,
        # and the root's frame once, for both of them.
        spec = wide_spec()
        walked = ordered_frontier(spec, Enumeration(), d_cutoff=2).tasks
        assert [key for _seq, _node, _depth, key in rows_of(walked)] == [(0, 0), (0, 1), (2, 0)]
        framed = []
        generator = spec.generator
        spec = dataclasses.replace(
            spec, generator=lambda space, node: framed.append(node) or generator(space, node),
        )
        tasks = FrontierTasks(spec, Enumeration(), 2)
        for seqs in ([0], [1, 2], [2]):
            execute_run(spec, Enumeration(), tasks, walked.stretches(seqs), None,
                        lambda blocks, done: None)
        assert framed.count("root") == 1
        assert framed.count("a") == framed.count("c") == 1  # c's re-run kept its frame
        assert len(tasks) == 3

    def test_enumeration_runs_without_bounds(self):
        tasks = FrontierTasks(wide_spec(), Enumeration(), 1)
        walked = ordered_frontier(wide_spec(), Enumeration(), d_cutoff=1).tasks
        sent = []
        assert execute_run(
            wide_spec(), Enumeration(), tasks, walked.stretches(range(2)), None,
            lambda blocks, done: sent.append((list(blocks), done)),
        )
        (((block,), done),) = sent
        assert done and block["seqs"] == range(2)
        assert block["knowledge"] == [6, 5]
        assert block["bound"] is None and "value" not in block

    def test_driving_the_policy_to_completion_matches_the_reference(self):
        # Driver + execute_run + ledger with no transport between them,
        # leases executed newest-first to force stale speculation.
        spec, kind, kwargs = search_setup(Instance("maxclique", (24, 75, 3)))
        stype = make_search_type(kind, **kwargs)
        worker = FrontierTasks(spec, stype, 2)  # filled by the runs it is leased
        driver = _ordered_driver(spec, stype, 2, 64)
        ledger = driver.ledger
        while not ledger.finished:
            held = []
            while (run := driver.lease(workers=2)) is not None:
                held.append(run)
            assert held, "window empty but the ledger is not finished"
            for run in reversed(held):
                inbox = []
                execute_run(
                    spec, stype, worker, run.stretches, run.bound,
                    lambda blocks, done: inbox.append((blocks, done)),
                    published=ledger.required_bound,
                )
                for blocks, done in inbox:
                    driver.accept(blocks, done)
        ref = ordered_reference_search(spec, stype, d_cutoff=2)
        assert ledger.knowledge == Incumbent(ref.value, ref.node)
        got, want = ledger.metrics, ref.metrics
        assert (got.nodes, got.prunes, got.backtracks, got.max_depth) == (
            want.nodes, want.prunes, want.backtracks, want.max_depth
        )
        assert ledger.metrics.reassigned > 0  # speculation did go stale


def _reference_journal(spec, stype, frontier):
    """``(seq, required bound, nodes)`` per task, as the reference runs them."""
    best, tasks = frontier.knowledge.value, frontier.tasks
    journal = []
    for seq in range(len(tasks)):
        p = run_task_fixed_bound(spec, stype, tasks.node(seq), tasks.depth, best)
        journal.append((seq, best, p["nodes"]))
        if p["value"] is not None and p["value"] > best:
            best = p["value"]
    return journal


def _speculate(spec, stype, tasks, seqs, bounds):
    """Honest blocks for ``seqs``, each task run from its drawn bound:
    neighbours that drew the same bound and did not improve it share a
    block, as a worker would cut them."""
    blocks = []
    block = None
    for seq in seqs:
        bound = bounds[seq]
        p = run_task_fixed_bound(spec, stype, tasks.node(seq), tasks.depth, bound)
        if block is None or block["bound"] != bound or block["seqs"][-1] != seq - 1:
            block = {"seqs": [], "bound": bound, **{name: [] for name in COUNTERS}}
            blocks.append(block)
        block["seqs"].append(seq)
        for name in COUNTERS:
            block[name].append(p[name])
        if p["value"] is not None:
            block.update(value=p["value"], node=p["node"], goal=p["goal"])
            block = None
    return blocks


class TestLedgerAgainstTheReference:
    """Whatever lower bounds tasks were speculated from and in whatever
    order their blocks arrive, the ledger ends where the reference does."""

    def _drive(self, seed, draws):
        rng = random.Random(draws)
        spec, kind, kwargs = search_setup(Instance("maxclique", (14, 65, seed)))
        stype = make_search_type(kind, **kwargs)
        frontier = ordered_frontier(spec, stype, d_cutoff=2)
        ref = ordered_reference_search(spec, stype, d_cutoff=2)
        tasks = frontier.tasks
        ledger = OrderedLedger(stype, frontier)
        low = frontier.knowledge.value
        pending = list(range(len(tasks)))
        rounds = 0
        while not ledger.finished:
            rounds += 1
            assert rounds <= len(tasks) + 1, "the ledger is not making progress"
            # Any bound between the prefix's and the optimum is one some
            # worker could have heard; the head gets the required one.
            bounds = {seq: rng.randint(low, ref.value) for seq in pending}
            bounds[ledger.next_seq] = ledger.required_bound()
            blocks = _speculate(spec, stype, tasks, pending, bounds)
            rng.shuffle(blocks)
            for block in blocks:
                ledger.record(block)
            pending = ledger.advance()
        return ledger, ref, _reference_journal(spec, stype, frontier)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 5), draws=st.integers(0, 2**32))
    def test_shuffled_blocks_from_arbitrary_bounds(self, seed, draws):
        ledger, ref, journal = self._drive(seed, draws)
        assert ledger.knowledge == Incumbent(ref.value, ref.node)
        got, want = ledger.metrics, ref.metrics
        assert (got.nodes, got.prunes, got.backtracks, got.max_depth) == (
            want.nodes, want.prunes, want.backtracks, want.max_depth
        )
        assert ledger.journal == journal

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 5), draws=st.integers(0, 2**32))
    def test_the_tiebreak_mutation_moves_the_witness_and_nothing_else(self, seed, draws):
        with mock.patch.dict("os.environ", REPRO_VERIFY_MUTATION="ordered-tiebreak"):
            ledger, ref, journal = self._drive(seed, draws)
        assert ledger.knowledge.value == ref.value
        assert ledger.metrics.nodes == ref.metrics.nodes
        assert ledger.journal == journal


class _CondemnedRow(tuple):
    """A condemned record as the full-scan ledger parks it."""


class _FullScanLedger(OrderedLedger):
    """The ledger as it was before condemned records left the parked
    results: one dict holds both, ``condemn`` parks a :data:`ROOT_PRUNED`
    row, and ``advance`` finalises every head through the merge path and
    rescans every parked row.  It keeps the one rule the split made
    explicit: a report never replaces a condemned record."""

    def record(self, block):
        if self.finished:
            return
        seqs, bound = block["seqs"], block.get("bound")
        if self._enum:
            founds = block["knowledge"]
        else:
            founds = [None] * len(seqs)
            if block.get("value") is not None:
                founds[-1] = (block["value"], block.get("node"), bool(block.get("goal")))
        if not self._enum and bound < self._best:
            self._rescan = True
        for i, seq in enumerate(seqs):
            if self._next <= seq < self._n and type(self._parked.get(seq)) is not _CondemnedRow:
                self._parked[seq] = (bound, *(block[name][i] for name in COUNTERS), founds[i])

    def condemn(self, seqs):
        row = _CondemnedRow((self._best, *(ROOT_PRUNED[name] for name in COUNTERS), None))
        for seq in seqs:
            if seq >= self._next:
                self._parked[seq] = row

    def advance(self):
        parked, reissue, before = self._parked, [], self._best
        while self._next in parked and not self.goal:
            row = parked.pop(self._next)
            if not self._enum and row[0] != self._best and not (
                row[0] < self._best and ordered_module._root_pruned(row)
            ):
                reissue.append(self._next)
                break
            self._finalise(row)
            self._next += 1
        if self.finished:
            parked.clear()
            return []
        if self._best != before or self._rescan:
            stale = sorted(
                seq for seq, row in parked.items()
                if row[0] < self._best and not ordered_module._root_pruned(row)
            )
            for seq in stale:
                del parked[seq]
            reissue += stale
        self._rescan = False
        self.metrics.reassigned += len(reissue)
        return reissue


def _ledger_state(ledger):
    return (
        ledger.journal, ledger.metrics.to_dict(), ledger.knowledge, ledger.goal,
        ledger.next_seq, ledger.required_bound(), ledger.finished,
    )


class TestLedgerAgainstTheFullScan:
    """Condemned records kept apart, finalised without the merge path
    and never rescanned: step for step, the ledger answers exactly what
    the full-scan ledger does."""

    TARGET = 12  # the Decision target

    def _block(self, data, ledger, stype, n):
        start = data.draw(st.integers(0, n - 1))
        seqs = range(start, start + data.draw(st.integers(1, min(4, n - start))))
        enum = stype.kind == "enumeration"
        bound = None if enum else max(0, ledger.required_bound() + data.draw(st.integers(-2, 2)))
        block = {"seqs": seqs, "bound": bound, **{name: [] for name in COUNTERS}}
        for _ in seqs:
            if data.draw(st.booleans()):
                row = [ROOT_PRUNED[name] for name in COUNTERS]
            else:
                row = [data.draw(st.integers(1, 9)), *data.draw(st.tuples(*[st.integers(0, 4)] * 3))]
            for name, value in zip(COUNTERS, row):
                block[name].append(value)
        if enum:
            block["knowledge"] = data.draw(st.lists(st.integers(0, 5), min_size=len(seqs), max_size=len(seqs)))
        elif data.draw(st.booleans()):
            value = bound + data.draw(st.integers(1, 3))
            block.update(value=value, node=f"w{start}", goal=type(stype) is Decision and value >= self.TARGET)
        return block

    @settings(max_examples=200, deadline=None)
    @given(
        kind=st.sampled_from(["optimisation", "decision", "enumeration"]),
        n=st.integers(1, 24),
        data=st.data(),
    )
    def test_same_answers_after_every_step(self, kind, n, data):
        stype = {
            "optimisation": Optimisation(), "decision": Decision(target=self.TARGET),
            "enumeration": Enumeration(),
        }[kind]
        enum = kind == "enumeration"
        frontier = OrderedFrontier(
            tasks=range(n),
            knowledge=0 if enum else Incumbent(data.draw(st.integers(0, 4)), "root"),
        )
        new, old = OrderedLedger(stype, frontier), _FullScanLedger(stype, frontier)
        # Enumeration prunes nothing, so nothing is ever condemned.
        ops = ["record", "advance"] if enum else ["record", "condemn", "advance"]
        for _ in range(data.draw(st.integers(1, 40))):
            op = data.draw(st.sampled_from(ops))
            if op == "record":
                block = self._block(data, new, stype, n)
                new.record(block)
                old.record(block)
            elif op == "condemn":
                seqs = data.draw(st.lists(st.integers(0, n - 1), max_size=8))
                new.condemn(seqs)
                old.condemn(seqs)
            else:
                assert new.advance() == old.advance()
            assert _ledger_state(new) == _ledger_state(old)


class TestCondemnedRecordsStayOutOfTheRescan:
    def test_a_rescan_reads_no_condemned_record(self, monkeypatch):
        seen = []
        real = ordered_module._root_pruned
        monkeypatch.setattr(ordered_module, "_root_pruned", lambda row: seen.append(row) or real(row))
        ledger = _flat_ledger(2003)
        ledger.condemn(range(2, 2002))
        stale = _record(2002, 0)
        ledger.record(stale)
        assert ledger.advance() == []
        # Seq 0 moves the best to 4; seq 1 has not arrived, so the
        # condemned 2..2001 wait behind it, and the one result that ran
        # from 0 is handed back.
        ledger.record(_record(0, 0, value=4, node="w"))
        assert ledger.advance() == [2002]
        assert ledger.next_seq == 1
        assert seen == [(0, *(stale[name][0] for name in COUNTERS), None)]
        ledger.record(_record(1, 4))
        ledger.record(_record(2002, 4))
        assert ledger.advance() == []
        assert ledger.finished
        assert ledger.journal[2:2002] == [(seq, 4, 1) for seq in range(2, 2002)]
        m = ledger.metrics
        assert (m.nodes, m.prunes, m.reassigned) == (1 + 2000 + 1 + 1, 2000, 1)

    def test_a_duplicate_report_for_a_condemned_seq_changes_nothing(self):
        def drive(duplicates):
            ledger = _flat_ledger(6)
            ledger.record(_record(0, 0, value=4, node="w"))
            assert ledger.advance() == []
            ledger.condemn([2, 3, 4])
            assert ledger.advance() == []
            # A lease presumed lost answers after all, from a lower
            # bound: a run, a root prune and an improvement.
            for block in duplicates:
                ledger.record(block)
            answers = [ledger.advance()]
            ledger.record(_record(1, 4))
            ledger.record(_record(5, 4))
            answers.append(ledger.advance())
            assert ledger.finished
            return answers, ledger.journal, ledger.metrics.to_dict()

        alone = drive([])
        late = [_record(2, 0, nodes=7), _pruned(3, 0), _record(4, 1, value=3, node="x")]
        assert drive(late) == alone
        answers, journal, _ = alone
        assert answers == [[], []]
        assert journal == [(0, 0, 1), (1, 4, 1), (2, 4, 1), (3, 4, 1), (4, 4, 1), (5, 4, 1)]


class TestReferenceEquivalence:
    @pytest.mark.parametrize("d_cutoff", [0, 1, 2, 5])
    def test_optimisation_value_matches_sequential(self, d_cutoff):
        spec = wide_spec()
        ref = ordered_reference_search(spec, Optimisation(), d_cutoff=d_cutoff)
        seq = sequential_search(spec, Optimisation())
        assert ref.value == seq.value == 7
        assert ref.node == "ca"

    @pytest.mark.parametrize("d_cutoff", [0, 1, 2, 5])
    def test_enumeration_counts_match_sequential(self, d_cutoff):
        spec = wide_spec()
        ref = ordered_reference_search(spec, Enumeration(), d_cutoff=d_cutoff)
        seq = sequential_search(spec, Enumeration())
        assert ref.value == seq.value
        assert ref.metrics.nodes == seq.metrics.nodes

    def test_reference_is_deterministic(self):
        spec = wide_spec()
        a = ordered_reference_search(spec, Optimisation(), d_cutoff=1)
        b = ordered_reference_search(spec, Optimisation(), d_cutoff=1)
        assert a.value == b.value
        assert a.node == b.node
        assert a.metrics.to_dict() == b.metrics.to_dict()


class TestOrderedTiebreakMutation:
    """The deterministic witness flip, with arrival order scripted.

    The exact anomaly the mutation plants: two optima tied at 5, task
    'b' executed speculatively under a stale bound.  Clean semantics
    discard the stale payload at finalisation and the tie keeps the
    lower-seq witness 'a'; the mutated ledger merges at arrival with
    ``>=``, so the late tied arrival 'b' takes the witness — while the
    bound machinery (and therefore every counter) is untouched.
    """

    def _drive(self):
        spec = tied_spec()
        stype = Optimisation()
        f, blocks = _frontier_and_payloads(spec, stype, bound=0)
        ledger = OrderedLedger(stype, f)
        ledger.record(blocks[0])             # a: value 5 under bound 0
        assert ledger.advance() == []
        ledger.record(blocks[1])             # b: tied 5, stale bound 0
        assert ledger.advance() == [1]       # rejected, to re-run from 5
        _rerun(ledger, spec, stype, 1, "b")  # nothing beats 5 under 5
        assert ledger.advance() == []
        assert ledger.finished
        return ledger

    def test_clean_tiebreak_is_priority_wins(self):
        ledger = self._drive()
        assert ledger.knowledge == Incumbent(5, "a")

    def test_mutated_tiebreak_is_arrival_wins(self, monkeypatch):
        clean = self._drive()
        monkeypatch.setenv("REPRO_VERIFY_MUTATION", "ordered-tiebreak")
        mutated = self._drive()
        # Witness flips to the late tied arrival...
        assert mutated.knowledge == Incumbent(5, "b")
        # ...and nothing else moves: same value, same required bound,
        # identical counters and journal — exactly the corruption only
        # a witness-aware repetition oracle can see.
        assert mutated.knowledge.value == clean.knowledge.value
        assert mutated.required_bound() == clean.required_bound()
        assert mutated.metrics.to_dict() == clean.metrics.to_dict()
        assert mutated.journal == clean.journal

    @staticmethod
    def _out_of_order():
        """Tasks 0 and 2 find tied optima 'a' and 'c' from bound 0 and
        report before task 1: out of sequence order."""
        ledger = _flat_ledger(3)
        for block in (_record(0, 0, 5, "a"), _record(2, 0, 5, "c"), _record(1, 0)):
            ledger.record(block)
        while not ledger.finished:
            for seq in ledger.advance():  # re-run from the finalised best
                ledger.record(_record(seq, ledger.required_bound()))
        return ledger

    def test_tied_witnesses_out_of_sequence_order(self, monkeypatch):
        clean = self._out_of_order()
        assert clean.knowledge == Incumbent(5, "a")
        monkeypatch.setenv("REPRO_VERIFY_MUTATION", "ordered-tiebreak")
        mutated = self._out_of_order()
        assert mutated.knowledge == Incumbent(5, "c")
        assert mutated.metrics.to_dict() == clean.metrics.to_dict()
        assert mutated.journal == clean.journal

    def test_reference_search_is_immune(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_MUTATION", "ordered-tiebreak")
        ref = ordered_reference_search(tied_spec(), Optimisation(), d_cutoff=1)
        assert ref.node == "a"  # the oracle stays sound under mutation

"""Tests for the multiprocessing Ordered (replicable) backend.

The contract under test is Replicable BnB: same instance, same
``d_cutoff`` — identical objective, witness AND node counters at any
process count, all equal to
:func:`~repro.core.ordered.ordered_reference_search`.  The suite pins
that with full-count fingerprints rather than value-only checks.

Also hosts the process-level half of the ``ordered-tiebreak`` mutation
test (satellite: mutation testing).  The deterministic witness-flip
lives at the ledger level in ``tests/core/test_ordered_core.py``; here
we assert the process backend's counters are immune to the mutation by
construction, and the repetition-oracle catch is in
``tests/verify/test_repetition.py``.
"""

import os
import signal
from contextlib import contextmanager
from multiprocessing.connection import Connection

import pytest

import repro.core.ordered as ordered_module
import repro.runtime.driver as driver_module
import repro.runtime.fleet as fleet
from repro.core.ordered import FrontierTasks, ordered_frontier, ordered_reference_search
from repro.core.results import validate_result
from repro.core.searchtypes import Decision, Enumeration, Optimisation
from repro.core.sequential import sequential_search
from repro.runtime.processes import multiprocessing_ordered_search
from repro.verify.generators import instance_spec
from repro.verify.repetition import result_fingerprint

from tests.runtime.test_processes import (
    clique_spec_factory,
    decision_factory,
    enumeration_factory,
    optimisation_factory,
    uts_spec_factory,
)

# Small enough that repeated runs stay cheap, big enough that the
# frontier has real ties and stale-bound speculation to get wrong.
CLIQUE_ARGS = (16, 0.6, 7)
UTS_ARGS = (2.0, 4, 11)


def tied_witness_factory():
    """Two leaves tied at the optimum: 'a' must win by discovery order."""
    from tests.conftest import make_toy_spec

    return make_toy_spec({"root": ["a", "b"]}, {"root": 0, "a": 5, "b": 5})


def wide_factory():
    """'b', at depth 1, is worth 5: a Decision for 5 is met in phase 1
    at d_cutoff=2."""
    from tests.core.test_ordered_core import wide_spec

    return wide_spec()


CONDEMNED_TAIL = 9


def condemned_tail_factory():
    """Task 0 is worth 5; each of the ``CONDEMNED_TAIL`` tasks after it
    is worth 1 over a child worth 3.  None of those is pruned at its
    root from the root's 0 and every one is from 5, so the report that
    finalises task 0 condemns the rest of the frontier (``d_cutoff=1``)."""
    from tests.conftest import make_toy_spec

    tail = [f"t{i}" for i in range(1, CONDEMNED_TAIL + 1)]
    children = {"root": ["t0", *tail], **{t: [t + "a"] for t in tail}}
    values = {"root": 0, "t0": 5, **dict.fromkeys(tail, 1), **{t + "a": 3 for t in tail}}
    return make_toy_spec(children, values, with_columns=True)


@contextmanager
def deadline(seconds):
    """Fail the block with TimeoutError after ``seconds``, not hang."""
    def expired(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _reference(spec_factory, args, stype, *, d_cutoff=2):
    return ordered_reference_search(
        spec_factory(*args), stype, d_cutoff=d_cutoff
    )


class TestReplicable:
    def test_fingerprint_identical_across_process_counts(self):
        want = result_fingerprint(
            _reference(clique_spec_factory, CLIQUE_ARGS, Optimisation()),
            counts=True,
        )
        for n in (1, 2, 3):
            res = multiprocessing_ordered_search(
                clique_spec_factory, CLIQUE_ARGS, optimisation_factory,
                n_processes=n, d_cutoff=2,
            )
            assert result_fingerprint(res, counts=True) == want, n
            assert validate_result(clique_spec_factory(*CLIQUE_ARGS), res)

    def test_repeated_runs_bit_identical(self):
        want = result_fingerprint(
            _reference(clique_spec_factory, CLIQUE_ARGS, Optimisation()),
            counts=True,
        )
        prints = [
            result_fingerprint(
                multiprocessing_ordered_search(
                    clique_spec_factory, CLIQUE_ARGS, optimisation_factory,
                    n_processes=2, d_cutoff=2,
                ),
                counts=True,
            )
            for _ in range(5)
        ]
        assert prints == [want] * 5

    def test_enumeration_counts_match_reference_and_sequential(self):
        seq = sequential_search(uts_spec_factory(*UTS_ARGS), Enumeration())
        ref = _reference(uts_spec_factory, UTS_ARGS, Enumeration())
        res = multiprocessing_ordered_search(
            uts_spec_factory, UTS_ARGS, enumeration_factory,
            n_processes=3, d_cutoff=2,
        )
        assert res.value == ref.value == seq.value
        assert res.metrics.nodes == ref.metrics.nodes == seq.metrics.nodes
        assert res.metrics.max_depth == ref.metrics.max_depth

    def test_decision_found_and_refuted(self):
        seq = sequential_search(
            clique_spec_factory(*CLIQUE_ARGS), Optimisation()
        )
        hit = multiprocessing_ordered_search(
            clique_spec_factory, CLIQUE_ARGS, decision_factory, (seq.value,),
            n_processes=2, d_cutoff=2,
        )
        assert hit.found is True
        assert hit.value >= seq.value
        miss = multiprocessing_ordered_search(
            clique_spec_factory, CLIQUE_ARGS, decision_factory,
            (seq.value + 1,),
            n_processes=2, d_cutoff=2,
        )
        assert miss.found is False


class TestFrontierIsPerJob:
    def test_one_warm_fleet_other_cutoff_other_search_type(self, fresh_fleet):
        # The workers keep the spec from job to job; the parents they
        # build from a lease's paths depend on the cutoff and the search
        # type too, and are built again for every job.
        spec = clique_spec_factory(*CLIQUE_ARGS)
        best = sequential_search(spec, Optimisation()).value
        jobs = [
            (optimisation_factory, (), Optimisation(), 1),
            (optimisation_factory, (), Optimisation(), 2),
            (decision_factory, (best,), Decision(best), 2),
            (optimisation_factory, (), Optimisation(), 2),
            (decision_factory, (best + 1,), Decision(best + 1), 1),
        ]
        pids = None
        for stype_factory, stype_args, stype, d_cutoff in jobs:
            ref = ordered_reference_search(spec, stype, d_cutoff=d_cutoff)
            res = multiprocessing_ordered_search(
                clique_spec_factory, CLIQUE_ARGS, stype_factory, stype_args,
                n_processes=2, d_cutoff=d_cutoff,
            )
            assert result_fingerprint(res, counts=True) == result_fingerprint(
                ref, counts=True
            ), (stype, d_cutoff)
            assert res.metrics.spawns == ref.metrics.spawns
            pids = pids or fresh_fleet.pids()
            assert fresh_fleet.pids() == pids  # the same warm workers


# G(75, 0.70) seed 1 at d_cutoff=2: 1972 tasks, and the bound moves at
# seq 0, 4, 99 and — late — seq 467, after hundreds of tasks have been
# speculated from the older bound.
LATE_ARGS = ("maxclique", (75, 70, 1))
LATE_TASKS = 1972


@pytest.fixture
def wire_counts(monkeypatch):
    """The parent's traffic on the fleet's wires: ``down``, items
    written to the task pipe; ``up``, messages read off the result
    pipes.  Forked workers count in their own copy, so the numbers read
    in the parent are the parent's."""
    counts = {"down": 0, "up": 0}
    put, recv = fleet.TaskPipe.put, Connection.recv

    def counting_put(self, item):
        counts["down"] += 1
        put(self, item)

    def counting_recv(self):
        message = recv(self)
        counts["up"] += 1
        return message

    monkeypatch.setattr(fleet.TaskPipe, "put", counting_put)
    monkeypatch.setattr(Connection, "recv", counting_recv)
    return counts


class TestLateImprovement:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_fingerprint_and_message_count(self, n, wire_counts, fresh_fleet):
        ref = _reference(instance_spec, LATE_ARGS, Optimisation())
        assert ref.metrics.spawns == LATE_TASKS
        res = multiprocessing_ordered_search(
            instance_spec, LATE_ARGS, optimisation_factory,
            n_processes=n, d_cutoff=2,
        )
        assert result_fingerprint(res, counts=True) == result_fingerprint(
            ref, counts=True
        )
        # Leases down (minus the end-of-job wake-ups) plus record
        # messages up (minus the idle reports): runs, not one round trip
        # per task each way.
        assert wire_counts["down"] - n + wire_counts["up"] - n < LATE_TASKS / 4


class TestCondemnedTail:
    @pytest.mark.parametrize("n", [1, 2])
    def test_the_report_that_condemns_the_tail_ends_the_job(self, n):
        # The parent condemns the unleased tail in the accept that moves
        # its best and finishes as soon as what was already out has
        # reported, never waiting for a report that cannot come.
        want = _reference(condemned_tail_factory, (), Optimisation(), d_cutoff=1)
        with deadline(60):
            res = multiprocessing_ordered_search(
                condemned_tail_factory, (), optimisation_factory,
                n_processes=n, d_cutoff=1,
            )
        assert result_fingerprint(res, counts=True) == result_fingerprint(want, counts=True)
        # The root, task 0 and each tail task's root: no tail child is searched.
        assert want.value == 5 and want.metrics.nodes == 2 + CONDEMNED_TAIL


class TestEdgeCases:
    def test_d_cutoff_deeper_than_tree_runs_inline(self):
        # The whole tree fits in the phase-1 prefix: no tasks, no
        # leases, and the answer still matches the reference.
        args = (2.0, 2, 5)
        ref = _reference(uts_spec_factory, args, Enumeration(), d_cutoff=6)
        res = multiprocessing_ordered_search(
            uts_spec_factory, args, enumeration_factory,
            n_processes=2, d_cutoff=6,
        )
        assert result_fingerprint(res, counts=True) == result_fingerprint(
            ref, counts=True
        )

    @pytest.mark.parametrize("d_cutoff", [0, -1])
    def test_d_cutoff_zero_finishes_in_the_parent_alone(self, d_cutoff, fresh_fleet):
        # With no cutoff phase 1 *is* the search: the parent finishes
        # alone and the fleet is never engaged.
        ref = _reference(clique_spec_factory, CLIQUE_ARGS, Optimisation(), d_cutoff=d_cutoff)
        res = multiprocessing_ordered_search(
            clique_spec_factory, CLIQUE_ARGS, optimisation_factory,
            n_processes=2, d_cutoff=d_cutoff,
        )
        assert result_fingerprint(res, counts=True) == result_fingerprint(
            ref, counts=True
        )
        assert fresh_fleet.status == "closed" and fresh_fleet.pids() == []

    def test_goal_in_phase_one_releases_the_workers_with_no_lease(
        self, wire_counts, fresh_fleet
    ):
        res = multiprocessing_ordered_search(
            wide_factory, (), decision_factory, (5,), n_processes=2, d_cutoff=2,
        )
        ref = ordered_reference_search(wide_factory(), Decision(5), d_cutoff=2)
        assert res.found and result_fingerprint(res, counts=True) == result_fingerprint(
            ref, counts=True
        )
        assert wire_counts["down"] == 2  # the end-of-job wake-ups, nothing else
        assert wire_counts["up"] == 2  # the idle reports

    @pytest.mark.parametrize("tamper, match", [
        (lambda seq, path, children, index, count: (seq, path, children + 1, index, count),
         r"ValueError: the parent at path \[\d+\] has \d+ children here"),
        (lambda seq, path, children, index, count: (seq, path, children, index + children, count),
         r"ValueError: the parent at path \[\d+\] has (\d+) children here; its lease "
         r"says \1 and names child \d+"),
    ], ids=["child-count", "child"])
    def test_a_lease_naming_what_the_tree_lacks_fails_the_search(
        self, monkeypatch, fresh_fleet, tamper, match
    ):
        # The parent's leases only: the workers never cut one.
        stretches = FrontierTasks.stretches
        monkeypatch.setattr(FrontierTasks, "stretches", lambda tasks, seqs: [
            tamper(*stretch) for stretch in stretches(tasks, seqs)
        ])
        with pytest.raises(RuntimeError, match=match):
            multiprocessing_ordered_search(
                clique_spec_factory, CLIQUE_ARGS, optimisation_factory,
                n_processes=2, d_cutoff=2,
            )

    def test_the_frontier_is_walked_once_by_the_parent(self, monkeypatch, fresh_fleet, tmp_path):
        log = tmp_path / "walks"

        def logged(*args, **kwargs):
            with open(log, "a") as out:
                out.write(f"{os.getpid()}\n")
            return ordered_frontier(*args, **kwargs)

        ref = _reference(clique_spec_factory, CLIQUE_ARGS, Optimisation(), d_cutoff=2)
        # Before the fleet forks, so every worker would log a walk too.
        for module in (ordered_module, driver_module):
            monkeypatch.setattr(module, "ordered_frontier", logged)
        res = multiprocessing_ordered_search(
            clique_spec_factory, CLIQUE_ARGS, optimisation_factory,
            n_processes=2, d_cutoff=2,
        )
        assert result_fingerprint(res, counts=True) == result_fingerprint(ref, counts=True)
        assert len(fresh_fleet.pids()) == 2
        assert log.read_text().split() == [str(os.getpid())]

    def test_singleton_tree(self):
        args = (1, 0.5, 0)
        res = multiprocessing_ordered_search(
            clique_spec_factory, args, optimisation_factory,
            n_processes=2, d_cutoff=2,
        )
        seq = sequential_search(clique_spec_factory(*args), Optimisation())
        assert res.value == seq.value
        assert res.metrics.nodes == seq.metrics.nodes

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            multiprocessing_ordered_search(
                clique_spec_factory, CLIQUE_ARGS, optimisation_factory,
                n_processes=0,
            )
        with pytest.raises(ValueError):
            multiprocessing_ordered_search(
                clique_spec_factory, CLIQUE_ARGS, optimisation_factory,
                n_processes=1, share_poll=0,
            )


class TestOrderedTiebreakMutation:
    """Process-level checks for the ``ordered-tiebreak`` mutation.

    The mutation corrupts witness tie-breaking only: node counters and
    the objective must be untouched no matter how speculation lands, so
    those are asserted exactly even with the mutation active.  (The
    deterministic witness-flip is pinned at the ledger level in
    tests/core/test_ordered_core.py, where arrival order is scripted.)
    """

    def test_clean_run_witness_is_discovery_order(self):
        res = multiprocessing_ordered_search(
            tied_witness_factory, (), optimisation_factory,
            n_processes=1, d_cutoff=1,
        )
        ref = ordered_reference_search(
            tied_witness_factory(), Optimisation(), d_cutoff=1
        )
        assert res.value == ref.value == 5
        assert res.node == ref.node == "a"  # priority wins the tie

    def test_mutation_cannot_perturb_counts_or_value(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_MUTATION", "ordered-tiebreak")
        ref = ordered_reference_search(
            tied_witness_factory(), Optimisation(), d_cutoff=1
        )
        res = multiprocessing_ordered_search(
            tied_witness_factory, (), optimisation_factory,
            n_processes=1, d_cutoff=1,
        )
        # Bounds are tracked apart from the witness: value and every
        # counter stay exact even under the mutation...
        assert res.value == ref.value
        assert res.metrics.nodes == ref.metrics.nodes
        assert res.metrics.prunes == ref.metrics.prunes
        assert res.metrics.backtracks == ref.metrics.backtracks
        # ...and the witness can only move between the tied optima.
        assert res.node in ("a", "b")

"""The coordinator's lease table, driven in memory.

:class:`~repro.cluster.leases.LeaseTable` knows no socket, so hypothesis
drives it through what the coordinator would feed it — hand-overs,
grant rounds, results, releases, steal answers (an Ordered or
Depth-Bounded holder's is a release of its queued lease), retirements
and worker deaths — and after every step checks the table against the
test's own books of which records the job still owes and which grants
are current.
"""

import ast
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

import repro
from repro.cluster.leases import LeaseTable
from repro.core.searchtypes import make_search_type
from repro.runtime.driver import JobDriver
from repro.runtime.worker import RUNS, WorkerJob
from repro.verify.generators import instance_spec
from tests.runtime.test_worker import _calls

SETTINGS = settings(
    max_examples=150, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def started_table(coordination, **knobs):
    """A table over a real driver of a small MaxClique job, with the
    driver's first leases queued as the coordinator queues them."""
    spec = instance_spec("maxclique", [6, 50, 1])
    driver = JobDriver(WorkerJob(1, spec, make_search_type("optimisation"), coordination, **knobs))
    table = LeaseTable(driver)
    for roots, depth in driver.start(lambda: None):
        table.offer(roots, depth)
    return table


class _Fleet(RuleBasedStateMachine):
    """Workers joining, retiring and dying, grant rounds, and the grants
    the test saw: ``current`` maps (worker, lease id) to the epoch it was
    granted at while the worker still holds it, in grant order; ``stale``
    is every grant that ended, whose frames the table must refuse from
    then on; ``given_by`` says whose hand-over each record came from;
    ``asked`` is the workers with a STEAL unanswered, and ``dry`` those
    whose last answer was empty."""

    coordination = "stacksteal"
    least = 1  # leases a holder must have to be asked for work

    def __init__(self):
        super().__init__()
        self.table = started_table(self.coordination, d_cutoff=1)
        self.slots: dict[int, int] = {}  # live workers
        self.retired: set[int] = set()
        self.current: dict[tuple, int] = {}
        self.stale: set[tuple] = set()
        self.given_by: dict[int, int] = {}
        self.asked: set[int] = set()
        self.dry: set[int] = set()
        self.joined = 0

    def _end(self, worker, task):
        self.stale.add((worker, task, self.current.pop((worker, task))))

    @rule(slots=st.integers(1, 3))
    def join(self, slots):
        self.joined += 1
        self.slots[self.joined] = slots
        self.table.join(self.joined, slots)

    @precondition(lambda self: self.slots)
    @rule(data=st.data())
    def retire(self, data):
        worker = data.draw(st.sampled_from(sorted(self.slots)))
        self.retired.add(worker)
        self.table.retire(worker)

    @precondition(lambda self: self.slots)
    @rule(data=st.data())
    def die(self, data):
        worker = data.draw(st.sampled_from(sorted(self.slots)))
        self.table.leave(worker)
        del self.slots[worker]
        self.asked.discard(worker)
        self.dry.discard(worker)
        for held in [key for key in self.current if key[0] == worker]:
            self._end(*held)

    @rule()
    def grant(self):
        before = {worker: len(self.table.holders[worker].leases) for worker in self.slots}
        prefetched_own, asked = [], []
        for worker, leases, steal in self.table.grant():
            assert worker in self.slots and worker not in self.retired
            for k, lease in enumerate(leases):
                self.current[(worker, lease.id)] = lease.epoch
                if self.given_by.get(lease.id) == worker and before[worker] + k:
                    prefetched_own.append(worker)
            if leases:
                self.dry.discard(worker)  # a fresh lease is fresh stack
            if steal:
                asked.append(worker)
        idle = [
            worker for worker in self.slots
            if worker not in self.retired and len(self.table.holders[worker].leases) == 0
        ]
        # A hand-over never goes back to a prefetch slot of the worker
        # that gave it while another holds nothing.
        assert not (prefetched_own and idle)
        # A STEAL goes out only when nothing is left to lease, one per
        # idle worker, to a holder with enough to give that was neither
        # asked already nor dry.
        if asked:
            assert self.nothing_left() and len(asked) <= len(idle)
        for worker in asked:
            assert len(self.table.holders[worker].leases) >= self.least
            assert worker not in self.asked | self.dry
        self.asked.update(asked)

    def nothing_left(self):
        return not self.table.queue

    @precondition(lambda self: self.current)
    @rule(data=st.data())
    def release(self, data):
        worker, task = data.draw(st.sampled_from(sorted(self.current)))
        assert self.table.release(worker, task, self.current[(worker, task)])
        self._end(worker, task)

    @invariant()
    def held_within_slots_by_live_workers(self):
        held = {
            (worker, task): lease.epoch
            for worker, holder in self.table.holders.items()
            for task, lease in holder.leases.items()
        }
        assert held == self.current
        for worker, holder in self.table.holders.items():
            assert worker in self.slots and len(holder.leases) <= self.slots[worker]

    @invariant()
    def an_old_epoch_is_refused(self):
        for worker, task, epoch in self.stale:
            assert self.table.held(worker, task, epoch) is None
        for (worker, task), epoch in self.current.items():
            assert self.table.held(worker, task, epoch) is not None
            assert self.table.held(worker, task, epoch - 1) is None


class _HandsBack(_Fleet):
    """Ordered and Depth-Bounded: a lease is never split, so a STEAL is
    answered with a RELEASE of the lease queued behind the one its
    holder runs — or an empty one, when the holder's own dequeue won."""

    least = 2

    @precondition(lambda self: self.asked)
    @rule(data=st.data(), dequeued=st.booleans())
    def hand_back(self, data, dequeued):
        worker = data.draw(st.sampled_from(sorted(self.asked)))
        self.asked.discard(worker)
        held = [task for holder, task in self.current if holder == worker]
        released = not dequeued and len(held) >= 2
        if released:
            queued = held[-1]  # the last granted sits behind the others
            assert self.table.release(worker, queued, self.current[(worker, queued)])
            self._end(worker, queued)
        else:
            self.dry.add(worker)
        self.table.steal_answered(worker, empty=not released)


class _Records(_Fleet):
    """Records of roots, dropped on their RESULT.  ``owed`` is the ids
    of records the job still owes."""

    def __init__(self):
        super().__init__()
        self.owed = {lease.id for lease in self.table.queue}

    @precondition(lambda self: self.current)
    @rule(data=st.data())
    def result(self, data):
        worker, task = data.draw(st.sampled_from(sorted(self.current)))
        lease = self.table.held(worker, task, self.current[(worker, task)])
        self.table.settle(worker, lease, done=True)
        self.owed.discard(task)
        self._end(worker, task)
        # A report is fresh progress, and its sender's STEAL died with it.
        self.asked.discard(worker)
        self.dry.clear()

    @invariant()
    def every_owed_record_is_queued_or_held_once(self):
        queued = [lease.id for lease in self.table.queue]
        held = [task for _worker, task in self.current]
        assert len(queued) + len(held) == len(set(queued) | set(held))
        assert set(queued) | set(held) == self.owed
        assert self.table.outstanding == len(self.owed)

    @invariant()
    def finished_when_nothing_is_queued_or_held(self):
        assert self.table.finished == (not self.owed)


class SharingJob(_Records):
    """Budget and Stack-Stealing: records cut from hand-overs too."""

    @precondition(lambda self: self.current)
    @rule(data=st.data(), size=st.integers(1, 6), stolen=st.booleans())
    def hand_over(self, data, size, stolen):
        worker, task = data.draw(st.sampled_from(sorted(self.current)))
        lease = self.table.held(worker, task, self.current[(worker, task)])
        if stolen:
            self.table.steal_answered(worker, empty=False)
            self.asked.discard(worker)
        queued = {queued.id for queued in self.table.queue}
        self.table.hand_over(list(range(size)), lease.depth + 1)
        for new in {queued.id for queued in self.table.queue} - queued:
            self.owed.add(new)
            self.given_by[new] = worker

    @precondition(lambda self: self.slots)
    @rule(data=st.data())
    def empty_steal_answer(self, data):
        worker = data.draw(st.sampled_from(sorted(self.slots)))
        self.table.steal_answered(worker, empty=True)
        self.asked.discard(worker)
        self.dry.add(worker)


class OrderedJob(_HandsBack):
    """Ordered: runs cut from the driver, a lost or handed-back run
    given back to it and cut again under a new id.  With nothing
    finalised, every task of the frontier is waiting in the driver or in
    exactly one held run."""

    coordination = "ordered"

    def nothing_left(self):
        driver = self.table.driver
        eligible = len(self.slots) - len(self.retired)
        return driver.backlog == 0 or driver.in_flight >= 2 * eligible

    @invariant()
    def every_task_is_waiting_or_held_once(self):
        driver, runs = self.table.driver, [
            lease.run for holder in self.table.holders.values()
            for lease in holder.leases.values()
        ]
        seqs = [seq for run in runs for seq in run.seqs]
        assert len(seqs) == len(set(seqs))
        assert driver.backlog + len(seqs) == driver.outstanding
        assert driver.in_flight == len(runs)
        assert not self.table.queue and not self.table.finished


class DepthBoundedJob(OrderedJob):
    """Depth-Bounded: leased by the same runs, so held to the same books."""

    coordination = "depthbounded"


TestSharingJob = SharingJob.TestCase
TestSharingJob.settings = SETTINGS
TestOrderedJob = OrderedJob.TestCase
TestOrderedJob.settings = SETTINGS
TestDepthBoundedJob = DepthBoundedJob.TestCase
TestDepthBoundedJob.settings = SETTINGS


def fill(coordination, slots):
    """Workers of ``slots`` slots join one at a time, each followed by
    a grant round, until one is left with nothing: the table, and the
    workers that last round asked for work on its behalf."""
    table = started_table(coordination, d_cutoff=1)
    worker = 0
    while True:
        worker += 1
        table.join(worker, slots)
        rounds = table.grant()
        if not table.holders[worker].leases:
            return table, [asked for asked, _leases, steal in rounds if steal]


@pytest.mark.parametrize("coordination", ["budget", "stacksteal", "depthbounded", "ordered"])
def test_atomic_holders_are_asked_only_for_a_queued_lease(coordination):
    # A sharing holder splits the lease it runs, so holding one is
    # enough to be asked.  An Ordered or Depth-Bounded lease is never
    # split: its holder is asked only for one queued behind it.
    atomic = coordination in RUNS
    _table, asked = fill(coordination, slots=1)
    assert asked == ([] if atomic else [1])
    table, asked = fill(coordination, slots=2)
    assert len(asked) == 1
    assert len(table.holders[asked[0]].leases) == (2 if atomic else 1)


def test_the_lease_table_is_the_only_one():
    """Only the lease table creates a lease record, requeues one (a lost
    Ordered run goes back to the driver from there too) or bumps its
    epoch: a coordinator that does is keeping a second table."""
    calls = _calls(["Lease", "_requeue", "requeue"])
    assert set(calls["Lease"]) == {"cluster/leases.py"}
    assert set(calls["_requeue"] + calls["requeue"]) == {"cluster/leases.py"}
    src = Path(repro.__file__).parent
    epoch_writes = {
        path.relative_to(src).as_posix()
        for path in src.rglob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Assign, ast.AugAssign))
        for target in getattr(node, "targets", [getattr(node, "target", None)])
        if isinstance(target, ast.Attribute) and target.attr == "epoch"
    }
    assert epoch_writes == {"cluster/leases.py"}

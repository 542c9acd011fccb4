"""The process backend's warm worker fleet (:mod:`repro.runtime.fleet`).

Every ``multiprocessing_*_search`` of a process runs on one set of
long-lived workers.  What that must not cost: a result polluted by the
job before it, a fleet that stays broken after a worker died, a worker
that outlives its owner, or an owner that cannot stop the resource
tracker.  Every test starts with no fleet and leaves none.
"""

import multiprocessing
import os
import signal
import sys
import threading
import time
from multiprocessing import resource_tracker

import pytest

from repro.core.searchtypes import Enumeration, Optimisation
from repro.core.sequential import sequential_search
from repro.runtime.processes import (
    FLEET,
    multiprocessing_budget_search,
    multiprocessing_depthbounded_search,
    multiprocessing_ordered_search,
    multiprocessing_stacksteal_search,
)

from tests.conftest import proc_stat
from tests.runtime.test_processes import (
    CLIQUE_ARGS,
    clique_spec_factory,
    decision_factory,
    enumeration_factory,
    optimisation_factory,
    uts_spec_factory,
)
from tests.runtime.test_processes_budget import UTS_ARGS, crashing_spec_factory
from tests.runtime.test_processes_witness import hard_timeout

pytestmark = pytest.mark.usefixtures("fresh_fleet")


def counted_clique_factory(path, *args):
    """:func:`clique_spec_factory`, noting each call in ``path``, in
    whichever process makes it."""
    with open(path, "a") as fh:
        fh.write(f"{os.getpid()}\n")
    return clique_spec_factory(*args)


@pytest.fixture(scope="module")
def uts_nodes():
    return sequential_search(uts_spec_factory(*UTS_ARGS), Enumeration()).metrics.nodes


@pytest.fixture(scope="module")
def clique_optimum():
    return sequential_search(clique_spec_factory(*CLIQUE_ARGS), Optimisation()).value


def count_uts(search=multiprocessing_budget_search, n=2, **knobs):
    res = search(uts_spec_factory, UTS_ARGS, enumeration_factory, n_processes=n, **knobs)
    return res.metrics.nodes


def _alive(pid: int) -> bool:
    """True while ``pid`` is a running process (a zombie nobody has
    reaped yet is not)."""
    stat = proc_stat(pid)
    return stat is not None and stat[0] != "Z"


class TestLifetime:
    def test_second_search_runs_on_the_same_workers(self, uts_nodes, monkeypatch):
        assert FLEET.status == "closed" and FLEET.pids() == []
        assert count_uts() == uts_nodes
        first = FLEET.pids()
        assert FLEET.status == "running" and len(first) == 2
        assert all(_alive(pid) for pid in first)

        def no_fork():
            raise AssertionError("the second search forked")

        monkeypatch.setattr(os, "fork", no_fork)
        assert count_uts(multiprocessing_stacksteal_search) == uts_nodes
        assert FLEET.pids() == first

    @pytest.mark.parametrize("sizes", [(2, 3, 2), (3, 2, 3)])
    def test_fleet_grows_to_the_largest_request(self, sizes, uts_nodes):
        largest = 0
        for n in sizes:
            assert count_uts(n=n, budget=20) == uts_nodes
            largest = max(largest, n)
            assert len(FLEET.pids()) == largest

    def test_close_stops_the_workers_and_the_next_search_restarts(self, uts_nodes):
        assert count_uts() == uts_nodes
        first = FLEET.pids()
        FLEET.close()
        assert FLEET.status == "closed"
        assert not any(_alive(pid) for pid in first)
        assert count_uts() == uts_nodes
        assert not set(FLEET.pids()) & set(first)


class TestIsolationBetweenJobs:
    def test_goal_leftovers_never_reach_the_next_job(self, uts_nodes):
        """A Decision job that stops on its goal leaves most of its
        frontier queued; the enumeration after it must count its own
        tree exactly, 50 times over, on every coordination."""
        enumerations = (
            (multiprocessing_budget_search, {"budget": 20}),
            (multiprocessing_stacksteal_search, {}),
            (multiprocessing_ordered_search, {"d_cutoff": 2}),
            (multiprocessing_depthbounded_search, {"d_cutoff": 2}),
        )
        for round_ in range(50):
            hit = multiprocessing_depthbounded_search(
                clique_spec_factory, CLIQUE_ARGS, decision_factory, (4,),
                n_processes=2, d_cutoff=2,
            )
            assert hit.found is True and hit.value == 4
            # The goal is four levels down and the parent cut at two:
            # it was a worker that found it, with tasks still queued.
            assert hit.metrics.spawns > 100
            search, knobs = enumerations[round_ % len(enumerations)]
            assert count_uts(search, **knobs) == uts_nodes, (round_, search.__name__)
        assert len(FLEET.pids()) == 2


    def test_a_goal_with_hand_overs_about_leaves_no_straggler(self, uts_nodes, clique_optimum):
        """Budget and Stack-Stealing decision jobs that end on one
        worker's goal while the others hold, or are about to dequeue,
        hand-overs of several roots: none of those roots may be run, or
        counted, in the enumeration that follows."""
        sharing = (
            (multiprocessing_budget_search, {"budget": 20, "share_poll": 4}),
            (multiprocessing_stacksteal_search, {"share_poll": 4}),
        )
        moved = 0
        for round_ in range(50):
            search, knobs = sharing[round_ % 2]
            hit = search(
                clique_spec_factory, CLIQUE_ARGS, decision_factory, (clique_optimum,),
                n_processes=3, **knobs,
            )
            assert hit.found is True and hit.value == clique_optimum
            moved += hit.metrics.steals
            search, knobs = sharing[(round_ + 1) % 2]
            assert count_uts(search, n=3, **knobs) == uts_nodes, (round_, search.__name__)
        assert moved > 50  # work was changing hands when the goals were hit


def _threads(pid: int) -> int:
    with open(f"/proc/{pid}/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))


class SlowPad:
    """Padding that takes ``delay`` seconds to pickle, and arrives as
    plain bytes: a hand-over holding it is written that long after its
    sender decided to hand it over."""

    def __init__(self, size: int, delay: float) -> None:
        self.data, self.delay = bytes(size), delay

    def __reduce__(self):
        time.sleep(self.delay)
        return bytes, (self.data,)


PAD = 256 * 1024  # four pipe buffers: no hand-over fits one
PADDED_NODES = 1 + 4 + 16 + 64 + 256 + 1024


def padded_factory(pad: int, delay: float = 0.0):
    """Four children a node, five levels down; every node but the root
    holds one shared ``pad``-byte padding, so a hand-over of any number
    of them pickles to more than ``pad`` bytes.  The objective is 1 at
    the root's second child alone."""
    from repro.core.nodegen import ListNodeGenerator
    from repro.core.space import SearchSpec

    padding = SlowPad(pad, delay)

    def generator(space, node):
        depth, index, _ = node
        if depth == 5:
            return ListNodeGenerator([])
        return ListNodeGenerator([(depth + 1, 4 * index + i, padding) for i in range(4)])

    return SearchSpec(
        name="padded", space=None, root=(0, 0, None), generator=generator,
        objective=lambda node: int(node[:2] == (1, 1)), upper_bound=None,
    )


class TestWires:
    """Every message is written on its sender's thread, over pipes."""

    def test_no_process_runs_a_feeder_thread(self, uts_nodes):
        for search, knobs in (
            (multiprocessing_budget_search, {"budget": 20}),
            (multiprocessing_stacksteal_search, {}),
            (multiprocessing_ordered_search, {"d_cutoff": 2}),
            (multiprocessing_depthbounded_search, {"d_cutoff": 2}),
        ):
            assert count_uts(search, **knobs) == uts_nodes
        assert not [t for t in threading.enumerate() if t.name == "QueueFeederThread"]
        # A worker's search, and the thread that waits for its owner's death.
        assert [_threads(pid) for pid in FLEET.pids()] == [2, 2]

    def test_a_hand_over_bigger_than_a_pipe_buffer_arrives(self):
        with hard_timeout(60):
            res = multiprocessing_budget_search(
                padded_factory, (PAD,), enumeration_factory,
                n_processes=2, budget=20, share_poll=4,
            )
        assert res.metrics.nodes == PADDED_NODES
        assert res.metrics.steals > 0

    def test_a_goal_met_while_such_a_hand_over_is_written(self, uts_nodes):
        """Three Stack-Stealing workers, one lease: the holder hands
        the root's second child to one starving peer, which meets the
        goal there at once, and meanwhile pickles a hand-over for the
        other, which leaves on the goal before a byte of it is written.
        Nobody reads what it writes then but the parent's drain.  The
        next job must not see it."""
        with hard_timeout(60):
            for _ in range(3):
                hit = multiprocessing_stacksteal_search(
                    padded_factory, (PAD, 0.05), decision_factory, (1,),
                    n_processes=3, share_poll=1,
                )
                assert hit.found is True and hit.value == 1
                assert count_uts(n=3) == uts_nodes


class TestFailure:
    def test_crash_raises_and_the_next_call_gets_a_fresh_fleet(self, uts_nodes):
        assert count_uts() == uts_nodes
        first = FLEET.pids()
        with pytest.raises(RuntimeError, match="budget backend worker failed: .*exit code 17"):
            multiprocessing_budget_search(
                crashing_spec_factory, (), optimisation_factory,
                n_processes=2, budget=10,
            )
        assert FLEET.status == "closed"
        assert not any(_alive(pid) for pid in first)
        assert count_uts() == uts_nodes
        assert len(FLEET.pids()) == 2 and not set(FLEET.pids()) & set(first)

    def test_worker_killed_while_idle_is_replaced(self, uts_nodes):
        assert count_uts() == uts_nodes
        victim = FLEET.pids()[0]
        os.kill(victim, signal.SIGKILL)
        # Reaped, not merely a zombie: its last thread may still be going.
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and any(
            child.pid == victim for child in multiprocessing.active_children()
        ):
            time.sleep(0.01)
        assert count_uts() == uts_nodes
        assert victim not in FLEET.pids()


def slow_chain_factory():
    """A 10 000-node chain at 10 ms a node: one worker holds the only
    lease for minutes, the other starves beside it."""
    from repro.core.nodegen import ListNodeGenerator
    from repro.core.space import SearchSpec

    def generator(space, node):
        time.sleep(0.01)
        return ListNodeGenerator([node + 1] if node < 10_000 else [])

    return SearchSpec(
        name="slow-chain", space=None, root=0, generator=generator,
        objective=lambda node: node, upper_bound=None,
    )


def _search_then_linger(conn, busy=False):
    """Child process: run a search on a fleet of its own, say which
    workers it has, and wait to be killed — idle, or in the middle of
    a search that will not end."""
    count_uts()
    conn.send(FLEET.pids())
    if busy:
        multiprocessing_budget_search(slow_chain_factory, (), enumeration_factory)
    time.sleep(60.0)


class TestOwnerDeath:
    @pytest.mark.parametrize("busy", [False, True], ids=["idle", "mid-search"])
    def test_workers_of_a_killed_owner_exit(self, busy):
        ours, theirs = multiprocessing.Pipe(duplex=False)
        owner = multiprocessing.get_context("fork").Process(
            target=_search_then_linger, args=(theirs, busy)
        )
        owner.start()
        theirs.close()
        try:
            assert ours.poll(30.0)
            workers = ours.recv()
            assert len(workers) == 2 and all(_alive(pid) for pid in workers)
            time.sleep(0.3 if busy else 0.0)  # into the slow search
        finally:
            owner.kill()
            owner.join(timeout=10.0)
        assert not owner.is_alive()
        deadline = time.monotonic() + 2.0
        while any(_alive(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not any(_alive(pid) for pid in workers)

    def test_a_forked_child_does_not_use_its_parents_workers(self, uts_nodes):
        assert count_uts() == uts_nodes
        ours, theirs = multiprocessing.Pipe(duplex=False)
        child = multiprocessing.get_context("fork").Process(
            target=_search_then_linger, args=(theirs,)
        )
        child.start()
        theirs.close()
        try:
            assert ours.poll(30.0)
            assert not set(ours.recv()) & set(FLEET.pids())
        finally:
            child.kill()
            child.join(timeout=10.0)
        assert not child.is_alive()
        assert count_uts() == uts_nodes


class TestResourceTracker:
    def test_tracker_can_be_stopped_while_the_fleet_is_up(self, uts_nodes):
        """The ledger ends with ``resource_tracker._stop()``, which
        waits for every holder of the tracker's pipe: a warm worker
        forked after the tracker started must not be one."""
        tracker = resource_tracker._resource_tracker
        if not hasattr(tracker, "_stop"):
            pytest.skip("no resource_tracker._stop in this Python")
        starter = multiprocessing.get_context("spawn").Process(target=time.sleep, args=(0,))
        starter.start()
        starter.join(timeout=60.0)
        assert starter.exitcode == 0 and tracker._fd is not None
        assert count_uts() == uts_nodes
        stopper = threading.Thread(target=tracker._stop, daemon=True)
        stopper.start()
        stopper.join(timeout=5.0)
        assert not stopper.is_alive(), "a fleet worker still holds the tracker's pipe"
        assert count_uts() == uts_nodes


class TestConcurrentCallers:
    def test_threads_take_turns_and_each_gets_its_own_answer(self, uts_nodes, clique_optimum):
        """More callers than the fleet serves at once, more workers than
        cores: every result is its own job's."""
        outcomes, errors = [], []

        def enumerate_uts():
            outcomes.append(("uts", count_uts(n=3, budget=20)))

        def optimise_clique():
            res = multiprocessing_budget_search(
                clique_spec_factory, CLIQUE_ARGS, optimisation_factory,
                n_processes=3, budget=50,
            )
            outcomes.append(("clique", res.value))

        def caller(search):
            try:
                for _ in range(5):
                    search()
            except BaseException as exc:  # reported by the assert below
                errors.append(exc)

        threads = [
            threading.Thread(target=caller, args=(search,), daemon=True)
            for search in (enumerate_uts, optimise_clique) * 2
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        expected = {"uts": uts_nodes, "clique": clique_optimum}
        assert len(outcomes) == 20
        assert all(value == expected[name] for name, value in outcomes)
        assert len(FLEET.pids()) == 3


class TestSpecsKept:
    def test_gateway_jobs_do_not_evict_the_callers_spec(self, tmp_path, clique_optimum):
        """A service's sequential jobs run on the fleet beside its
        process's own searches: six of them, one per gateway-mix
        instance, leave the parent's and the workers' spec of the
        caller's instance in place."""
        from benchmarks.ledger.spec import TABLE1_SIX
        from repro.service import InProcessBackend, JobSpec, JobState, Scheduler

        builds = tmp_path / "builds"
        args = (str(builds), *CLIQUE_ARGS)

        def search():
            return multiprocessing_budget_search(
                counted_clique_factory, args, optimisation_factory, n_processes=2,
            ).value

        assert search() == clique_optimum
        built = builds.read_text().splitlines()
        assert len(built) == 3  # the parent and each worker
        scheduler = Scheduler(backend=InProcessBackend(), n_workers=1)
        jobs = [
            scheduler.submit(JobSpec(app="maxclique", instance=name, params={"seed": seed}))
            for seed, name in enumerate(TABLE1_SIX, 1)
        ]
        scheduler.run_until_idle()
        assert all(job.state is JobState.DONE for job in jobs), [job.error for job in jobs]
        assert search() == clique_optimum
        assert builds.read_text().splitlines() == built


class TestSideBySide:
    """A job of one worker holds that worker alone: other jobs run on
    the other workers meanwhile, and a failure beside it leaves it be."""

    @staticmethod
    def _long_job():
        """A one-worker job on :func:`slow_chain_factory`, running in a
        thread until the returned ``end()`` stops it."""
        from repro.runtime.processes import _fleet_search

        stopped, out = threading.Event(), []

        def run():
            try:
                out.append(_fleet_search(
                    "stacksteal", slow_chain_factory, (), enumeration_factory, (), 1,
                    stop=lambda best: stopped.is_set(),
                ))
            except BaseException as exc:  # reported by end()
                out.append(exc)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 10.0
        while len(FLEET.pids()) < 1 and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.1)  # into the slow search

        def end():
            stopped.set()
            thread.join(timeout=10.0)
            assert not thread.is_alive()
            assert not isinstance(out[0], BaseException), out[0]
            return out[0]

        return end

    def test_other_jobs_run_beside_a_long_one_worker_job(self, uts_nodes):
        end = self._long_job()
        try:
            held = FLEET.pids()
            with hard_timeout(60):
                for n in (1, 2, 1, 3):
                    assert count_uts(n=n) == uts_nodes
            assert len(FLEET.pids()) == 4  # the long job's worker and three
            assert held[0] in FLEET.pids()
        finally:
            end()
        assert count_uts(n=4) == uts_nodes  # its worker is free again
        assert len(FLEET.pids()) == 4

    @pytest.mark.parametrize("busy_cores", [1, 2])
    def test_a_one_worker_job_waits_a_moment_only_while_the_cores_are_busy(
        self, busy_cores, uts_nodes, monkeypatch,
    ):
        """With one worker busy, a job of one worker waits a POLL for a
        worker to free where that fills the cores, then takes another;
        with a core to spare it starts at once."""
        from repro.runtime import fleet

        monkeypatch.setattr(fleet, "BUSY_CORES", busy_cores)
        waits = []
        wait_for = threading.Condition.wait_for

        def timed_wait_for(cond, predicate, timeout=None):
            started = time.monotonic()
            try:
                return wait_for(cond, predicate, timeout)
            finally:
                waits.append(time.monotonic() - started)

        end = self._long_job()
        try:
            monkeypatch.setattr(threading.Condition, "wait_for", timed_wait_for)
            assert count_uts(n=1) == uts_nodes
        finally:
            monkeypatch.undo()
            end()
        assert len(FLEET.pids()) == 2
        assert len(waits) == 1
        if busy_cores == 1:
            assert waits[0] >= fleet.POLL
        else:
            assert waits[0] < fleet.POLL

    def test_one_worker_jobs_of_several_threads_each_get_their_own_answer(self, uts_nodes):
        outcomes, errors = [], []

        def caller():
            try:
                for _ in range(5):
                    outcomes.append(count_uts(multiprocessing_stacksteal_search, n=1))
            except BaseException as exc:  # reported by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=caller, daemon=True) for _ in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert outcomes == [uts_nodes] * 15
        assert 1 <= len(FLEET.pids()) <= 3

    def test_a_failed_one_worker_job_stops_its_worker_alone(self, uts_nodes):
        assert count_uts(n=2) == uts_nodes
        first = FLEET.pids()
        with pytest.raises(RuntimeError, match="worker failed: .*exit code 17"):
            multiprocessing_budget_search(
                crashing_spec_factory, (), optimisation_factory, n_processes=1, budget=10,
            )
        assert FLEET.status == "running"
        assert FLEET.pids() == first[1:] and _alive(first[1])
        assert count_uts(n=2) == uts_nodes
        assert first[1] in FLEET.pids()

    def test_a_failed_job_of_several_leaves_the_job_beside_it_alone(self, uts_nodes):
        end = self._long_job()
        try:
            held = FLEET.pids()
            with pytest.raises(RuntimeError, match="budget backend worker failed"):
                multiprocessing_budget_search(
                    crashing_spec_factory, (), optimisation_factory, n_processes=2, budget=10,
                )
            assert FLEET.status == "closed"
            assert FLEET.pids() == held and _alive(held[0])
        finally:
            result = end()
        assert result.workers == 1
        # Forked with the failed job's wires, it is gone once its job is.
        assert FLEET.pids() == []
        assert not _alive(held[0])
        assert count_uts() == uts_nodes

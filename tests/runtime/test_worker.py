"""The one lease loop (:class:`repro.runtime.worker.Worker`) and the one
job driver (:class:`repro.runtime.driver.JobDriver`) over an in-memory
transport: no process, no socket — the work queue is a list, every
hand-over comes back to the same worker as a lease of its own, and the
driver runs in this process.  That makes it a third runtime, and every
coordination on it answers as the sequential search does."""

import ast
import dataclasses
import re
import sys
import threading
from pathlib import Path

import pytest

import repro
import repro.apps.maxclique as maxclique
from repro.core.ordered import execute_run, ordered_frontier, ordered_reference_search
from repro.core.results import SearchMetrics, validate_result
from repro.core.searchtypes import Decision, Enumeration, Incumbent, Optimisation
from repro.core.sequential import sequential_search
from repro.runtime.driver import JobDriver
from repro.runtime.worker import SpecCache, Worker, WorkerJob
from repro.verify.repetition import result_fingerprint

from tests.runtime.test_processes import clique_spec_factory, uts_spec_factory
from tests.runtime.test_processes_ordered import condemned_tail_factory

UTS_ARGS = (4.0, 6, 439092716)  # 5 152 nodes
CLIQUE_ARGS = (30, 0.5, 7)
COORDINATIONS = ["depthbounded", "budget", "stacksteal", "ordered"]


class MemoryTransport(Worker):
    """A worker whose transport is a list and whose driver is ``driver``.
    ``starving`` is the script for the imaginary peers: asked at every
    poll of a sharing lease whether one of them is waiting for work.
    ``abort_after`` polls, the job is called off.  ``runs`` is every run
    the driver cut."""

    def __init__(self, driver, *, starving=lambda t: True, abort_after=None):
        super().__init__()
        self.driver = driver
        self.queue = []
        self.starving = starving
        self.abort_after = abort_after
        self.polls = 0
        self.engaged = False
        self.reports, self.flushes, self.failures, self.runs = [], [], [], []

    def engage(self):
        self.engaged = True

    def next_work(self):
        if self.abort_after is not None and self.polls > self.abort_after:
            return None  # the job was called off: nothing more is leased
        if self.queue:
            return self.queue.pop(0)
        driver = self.driver
        if driver.job.runs and not driver.finished and driver.outstanding:  # started
            run = driver.lease(1)
            assert run is not None, "the driver has nothing out and nothing to lease"
            self.runs.append(run)
            return driver.job, (run.stretches, run.bound)
        return None

    def demand(self):
        return self.starving(self)

    def ship(self, nodes, depth):
        if nodes:
            self.queue.append((self.job, (nodes, depth)))

    def bound(self):
        return self.driver.best

    def publish(self, found):
        self.driver.merge(found)

    def aborted(self):
        self.polls += 1
        return self.abort_after is not None and self.polls > self.abort_after

    def report(self, outcome, tasks):
        self.reports.append(outcome)
        self.driver.merge(outcome.knowledge, outcome.metrics, outcome.goal, tasks)

    def flush(self, blocks, done):
        self.flushes.append(done)
        self.driver.accept(blocks, done)

    def fail(self, reason):
        self.failures.append(reason)


def serve(job, **script):
    """Run ``job`` on the in-memory runtime: its driver's first leases,
    then whatever the worker and the driver make of them."""
    worker = MemoryTransport(JobDriver(job), **script)
    worker.queue += [(job, task) for task in worker.driver.start(worker.engage)]
    worker.serve()
    assert worker.failures == []
    return worker


def job_of(coordination, spec, stype, **knobs):
    return WorkerJob(1, spec, stype, coordination, **knobs)


class TestInMemoryRuntime:
    @pytest.mark.parametrize("coordination", COORDINATIONS)
    def test_enumeration_equals_sequential(self, coordination):
        spec = uts_spec_factory(*UTS_ARGS)
        seq = sequential_search(spec, Enumeration())
        worker = serve(
            job_of(coordination, spec, Enumeration(), budget=20, share_poll=4),
            starving=lambda t: t.polls % 3 == 0,
        )
        res = worker.driver.result(1)
        assert (res.value, res.metrics.nodes) == (seq.value, seq.metrics.nodes)

    @pytest.mark.parametrize("coordination", COORDINATIONS)
    def test_optimisation_equals_sequential_in_value(self, coordination):
        spec = clique_spec_factory(*CLIQUE_ARGS)
        worker = serve(job_of(coordination, spec, Optimisation(), budget=50, share_poll=2))
        res = worker.driver.result(1)
        assert res.value == sequential_search(spec, Optimisation()).value
        assert validate_result(spec, res)

    @pytest.mark.parametrize("coordination, d_cutoff", [
        ("ordered", 0), ("depthbounded", 9),  # the tree ends at depth 6
    ])
    def test_phase_one_that_is_the_whole_search_finishes_at_start(self, coordination, d_cutoff):
        spec = uts_spec_factory(*UTS_ARGS)
        worker = serve(job_of(coordination, spec, Enumeration(), d_cutoff=d_cutoff))
        assert worker.driver.finished and not worker.engaged
        assert worker.reports == [] and worker.flushes == []
        assert worker.driver.ledger is None or worker.driver.in_flight == 0
        res, seq = worker.driver.result(1), sequential_search(spec, Enumeration())
        assert (res.value, res.metrics.nodes) == (seq.value, seq.metrics.nodes)


class TestSharingLeases:
    @pytest.mark.parametrize("coordination", ["budget", "stacksteal"])
    def test_enumeration_counts_every_node_once(self, coordination):
        spec = uts_spec_factory(*UTS_ARGS)
        seq = sequential_search(spec, Enumeration())
        worker = serve(
            job_of(coordination, spec, Enumeration(), budget=20, share_poll=4),
            starving=lambda t: t.polls % 3 == 0,
        )
        driver = worker.driver
        assert (driver.knowledge, driver.metrics.nodes) == (seq.value, seq.metrics.nodes)
        assert len(worker.reports) > 1  # hand-overs came back as leases
        assert not worker.pool

    def test_depthbounded_runs_the_frontier_it_is_handed(self):
        spec = uts_spec_factory(*UTS_ARGS)
        seq = sequential_search(spec, Enumeration())
        frontier = ordered_frontier(spec, Enumeration(), d_cutoff=2)
        worker = serve(job_of("depthbounded", spec, Enumeration(), share_poll=4))
        # The runs partition the frontier, and each reports once.
        seqs = [seq for run in worker.runs for seq in run.seqs]
        assert sorted(seqs) == list(range(len(frontier.tasks)))
        assert len(worker.reports) == len(worker.runs) < len(frontier.tasks)
        assert all(outcome.metrics.spawns == 0 for outcome in worker.reports)
        leased = sum(outcome.metrics.nodes for outcome in worker.reports)
        assert frontier.metrics.nodes + leased == seq.metrics.nodes
        driver = worker.driver
        assert (driver.knowledge, driver.metrics.nodes) == (seq.value, seq.metrics.nodes)

    def test_a_run_stopped_on_a_published_target_ends_nothing(self):
        spec = clique_spec_factory(*CLIQUE_ARGS)
        found = sequential_search(spec, Optimisation())
        stype = Decision(found.value)
        driver = JobDriver(job_of("depthbounded", spec, stype, d_cutoff=1))
        driver.start(lambda: None)
        heard, finder = driver.lease(2), driver.lease(2)
        # The run that heard the target published stops at its first
        # root with the goal met and no witness of it: no end of the job.
        zero = stype.initial_knowledge(spec)
        driver.merge(Incumbent(zero.value, None), SearchMetrics(nodes=1), True, len(heard.seqs))
        assert not (driver.goal or driver.finished)
        driver.merge(
            Incumbent(found.value, found.node), SearchMetrics(nodes=9), True, len(finder.seqs)
        )
        assert driver.goal and driver.finished
        res = driver.result(2)
        assert (res.value, res.found) == (found.value, True)
        assert validate_result(spec, res)

    @pytest.mark.parametrize("coordination", ["budget", "stacksteal"])
    def test_optimisation_value_and_witness(self, coordination):
        spec = clique_spec_factory(*CLIQUE_ARGS)
        seq = sequential_search(spec, Optimisation())
        worker = serve(job_of(coordination, spec, Optimisation(), budget=50, share_poll=2))
        res = worker.driver.result(1)
        assert res.value == seq.value == worker.driver.best
        assert validate_result(spec, res)

    def test_an_abandoned_lease_reports_nothing(self):
        spec = uts_spec_factory(*UTS_ARGS)
        worker = serve(
            job_of("budget", spec, Enumeration(), budget=20, share_poll=4),
            starving=lambda t: False, abort_after=50,
        )
        assert worker.reports == [] and worker.driver.metrics.nodes == 0
        assert not worker.pool  # what it had pooled went with it

    def test_a_lease_that_raises_fails_the_job_through_the_transport(self):
        def broken(space, node):
            raise RuntimeError("no children here")

        spec = dataclasses.replace(
            uts_spec_factory(*UTS_ARGS), generator=broken, columns=None
        )
        job = job_of("budget", spec, Enumeration())
        worker = MemoryTransport(JobDriver(job))
        worker.queue.append((job, ([spec.root], 0)))
        worker.serve()
        assert worker.reports == [] and not worker.pool
        assert worker.failures == ["RuntimeError: no children here"]


class TestOrderedRuns:
    @pytest.mark.parametrize("stype", [Optimisation(), Enumeration()], ids=["opt", "enum"])
    def test_matches_the_reference_fingerprint(self, stype):
        spec = clique_spec_factory(*CLIQUE_ARGS)
        worker = serve(job_of("ordered", spec, stype, d_cutoff=2, share_poll=16))
        # The worker holds the parents its leases named, and no others.
        assert 0 < len(worker.job.tasks) <= worker.driver.ledger.task_count
        want = ordered_reference_search(spec, stype, d_cutoff=2)
        assert result_fingerprint(worker.driver.result(1), counts=True) == result_fingerprint(
            want, counts=True
        )

    def test_an_abandoned_run_reports_nothing(self):
        spec = clique_spec_factory(*CLIQUE_ARGS)
        worker = serve(
            job_of("ordered", spec, Optimisation(), d_cutoff=2), abort_after=0,
        )
        assert worker.flushes == [] and worker.driver.ledger.next_seq == 0

    def test_a_condemned_tail_ends_the_job_on_the_report_that_condemns_it(self):
        spec = condemned_tail_factory()
        worker = serve(job_of("ordered", spec, Optimisation(), d_cutoff=1))
        # One run, of task 0, one report: the accept that finalised it
        # condemned the rest and finished the job, so the next lease the
        # worker asked for was no lease at all.
        assert worker.flushes == [True]
        want = ordered_reference_search(spec, Optimisation(), d_cutoff=1)
        assert result_fingerprint(worker.driver.result(1), counts=True) == result_fingerprint(
            want, counts=True
        )

    def test_no_task_root_is_built_but_to_run_it(self, monkeypatch):
        spec = clique_spec_factory(*CLIQUE_ARGS)
        reference = ordered_frontier(spec, Optimisation(), d_cutoff=2).tasks
        seq_of = {reference.node(seq).clique: seq for seq in range(len(reference))}
        leased_under = [None]  # the bound of the lease in hand
        built = []  # (node, bound of the lease in hand) per CliqueNode

        class SpyNode(maxclique.CliqueNode):
            __slots__ = ()

            def __init__(self, *args):
                super().__init__(*args)
                built.append((self, leased_under[0]))

        class Recording(MemoryTransport):
            def next_work(self):
                item = super().next_work()
                if item is not None:
                    leased_under[0] = item[1][1]
                return item

        monkeypatch.setattr(maxclique, "CliqueNode", SpyNode)
        ordered_frontier(spec, Optimisation(), d_cutoff=2)
        assert built and {node.size for node, _ in built} == {1}  # no task root
        built.clear()
        job = job_of("ordered", spec, Optimisation(), d_cutoff=2, share_poll=16)
        worker = Recording(JobDriver(job))
        worker.queue += [(job, task) for task in worker.driver.start(worker.engage)]
        worker.serve()
        # Task roots are the cliques of size 2, built only by runs: not
        # by the walk or a replay, and never for a task its lease's
        # bound condemns.
        roots = [(seq_of[node.clique], bound) for node, bound in built if node.size == 2]
        assert roots and all(bound is not None for _, bound in roots)
        assert not any(reference.pruned_at_root(seq, bound) for seq, bound in roots)
        assert len(roots) < len(reference) // 2
        want = ordered_reference_search(spec, Optimisation(), d_cutoff=2)
        assert result_fingerprint(worker.driver.result(1), counts=True) == result_fingerprint(
            want, counts=True
        )

    def test_a_run_cut_from_another_frontier_fails_the_job(self):
        spec = clique_spec_factory(*CLIQUE_ARGS)
        job = job_of("ordered", spec, Optimisation(), d_cutoff=2)
        walked = ordered_frontier(spec, Optimisation(), d_cutoff=2).tasks
        ((seq, path, children, index, count),) = walked.stretches(range(1))
        # Never started: nothing but this one run, whose parent the
        # driver numbered with one child more than it has.
        worker = MemoryTransport(JobDriver(job))
        worker.queue.append((job, ([(seq, path, children + 1, index, count)], 0)))
        worker.serve()
        (reason,) = worker.failures
        assert reason.startswith("ValueError")
        assert f"has {children} children here; its lease says {children + 1}" in reason
        assert worker.flushes == []

    def test_a_worker_builds_each_leased_parent_once_per_job(self, monkeypatch):
        spec = clique_spec_factory(*CLIQUE_ARGS)
        framed = []  # the clique of every node a frame of children was built for
        frame = maxclique.CliqueGen

        def spy(space, node):
            children = frame(space, node)
            if len(children.values):
                framed.append(node.clique)
            return children

        spec = dataclasses.replace(spec, columns=spy)
        walked = ordered_frontier(spec, Enumeration(), d_cutoff=2).tasks
        parents = list(framed)  # a walk frames the parents alone, in order
        job = job_of("ordered", spec, Enumeration(), d_cutoff=2, share_poll=16)
        worker = MemoryTransport(JobDriver(job))
        worker.driver.start(worker.engage)
        del framed[:]  # the walks
        worker.serve()
        assert worker.failures == [] and worker.driver.finished
        assert worker.driver.metrics.reassigned == 0  # no row ran twice
        # The root's frame once, for every path below it, and each
        # parent's once, for every lease that named it.
        assert framed.count(0) == 1
        assert sorted(clique for clique in framed if clique in parents) == sorted(parents)
        # A row behind its frame's cursor, a re-run of task 0, builds
        # that one frame again.
        del framed[:]
        execute_run(
            spec, Enumeration(), worker.job.tasks, walked.stretches([0]), None,
            lambda blocks, done: None,
        )
        assert [clique for clique in framed if clique in parents] == parents[:1]


def _calls(names):
    """Every call under ``src/repro`` to a function named in ``names``,
    as ``{name: [module path, ...]}``."""
    src = Path(repro.__file__).parent
    calls = {name: [] for name in names}
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in calls:
                    calls[name].append(path.relative_to(src).as_posix())
    return calls


def test_each_lease_executor_has_one_caller():
    """``execute_lease`` and ``execute_run`` are called from the worker's
    lease loop and nowhere else under ``src/repro``: a runtime that calls
    one itself is a second worker loop."""
    assert _calls(["execute_lease", "execute_run"]) == {
        "execute_lease": ["runtime/worker.py"],
        "execute_run": ["runtime/worker.py"],
    }
    # And no module spells the call some other way.
    src = Path(repro.__file__).parent
    text = "\n".join(path.read_text() for path in src.rglob("*.py"))
    assert len(re.findall(r"\bexecute_lease\(", text)) == 2  # the def and the call
    assert len(re.findall(r"\bexecute_run\(", text)) == 2


def test_the_job_driver_is_the_only_one():
    """The Ordered ledger is built by the job driver alone, and neither
    runtime's parent walks a frontier or assembles a result itself: a
    parent that does is a second driver."""
    calls = _calls(["OrderedLedger", "ordered_frontier", "from_knowledge"])
    assert calls["OrderedLedger"] == ["runtime/driver.py"]
    for parent in ("runtime/processes.py", "cluster/coordinator.py"):
        assert parent not in calls["ordered_frontier"] + calls["from_knowledge"]
    # The job driver walks, and the single-threaded reference; no worker.
    assert sorted(calls["ordered_frontier"]) == ["core/ordered.py", "runtime/driver.py"]


def _hammer_one_cache(n_keys: int, n_threads: int) -> list:
    """Threads sharing one cache, each asking for one of ``n_keys``
    keys at a 1 µs switch interval; returns every wrong spec got."""
    cache = SpecCache()
    wrong = []

    def hammer(key):
        for _ in range(3000):
            spec = cache.get(key, lambda: ("spec", key))
            if spec != ("spec", key):
                wrong.append((key, spec))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=hammer, args=(i % n_keys,)) for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return wrong


def test_a_shared_spec_cache_gives_each_thread_the_spec_of_its_key():
    """Threads that share one cache (the fleet's parent serves every
    caller of the process) each get the spec of the key they asked
    for, however their gets interleave."""
    assert _hammer_one_cache(3, 6) == []


def test_a_shared_spec_cache_evicting_gives_each_thread_the_spec_of_its_key():
    """The same with more keys than the cache keeps: entries are
    dropped while other threads read them."""
    from repro.runtime.worker import SPECS_KEPT

    assert _hammer_one_cache(SPECS_KEPT + 4, SPECS_KEPT + 4) == []


def test_a_spec_cache_keeps_the_specs_of_keys_asked_for_in_turn():
    """Two callers that alternate (a front door's jobs and a procs
    search beside them) each get their spec built once."""
    cache = SpecCache()
    built = []

    def build(key):
        built.append(key)
        return ("spec", key)

    for _ in range(5):
        for key in ("a", "b"):
            assert cache.get(key, lambda: build(key)) == ("spec", key)
    assert built == ["a", "b"]


def test_a_spec_cache_drops_the_least_recently_asked_for():
    from repro.runtime.worker import SPECS_KEPT

    cache = SpecCache()
    built = []
    for key in ["first", *range(SPECS_KEPT - 1), "first", "last"]:
        cache.get(key, lambda: built.append(key))
    # "first" was asked for again before "last" came: 0 went instead.
    cache.get("first", lambda: built.append("first"))
    cache.get(0, lambda: built.append(0))
    assert built == ["first", *range(SPECS_KEPT - 1), "last", 0]

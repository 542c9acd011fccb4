"""The one lease loop (:class:`repro.runtime.worker.Worker`) over an
in-memory transport: no process, no socket — the work queue is a list,
every hand-over comes back to the same worker as a lease of its own,
and the Ordered driver is a policy and a ledger in this process."""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

import repro
from repro.core.ordered import (
    OrderedLedger,
    OrderedRunPolicy,
    ordered_frontier,
    ordered_reference_search,
)
from repro.core.results import SearchMetrics, SearchResult, validate_result
from repro.core.searchtypes import Enumeration, Optimisation
from repro.core.sequential import sequential_search
from repro.runtime.worker import Worker, WorkerJob
from repro.verify.repetition import result_fingerprint

from tests.runtime.test_processes import clique_spec_factory, uts_spec_factory

UTS_ARGS = (4.0, 6, 439092716)  # 5 152 nodes
CLIQUE_ARGS = (30, 0.5, 7)


class MemoryTransport(Worker):
    """A worker whose transport is a list.  ``starving`` is the script
    for the imaginary peers: asked at every poll whether one of them is
    waiting for work.  ``abort_after`` polls, the job is called off."""

    def __init__(self, job, *, starving=lambda t: True, abort_after=None):
        super().__init__()
        self.queue = []
        self.starving = starving
        self.abort_after = abort_after
        self.polls = 0
        self.best = 0 if job.enum else job.zero.value
        self.knowledge, self.metrics = job.zero, SearchMetrics()
        self.goal = False
        self.reports, self.flushes, self.failures = [], [], []
        self.ledger = self.policy = None
        if job.coordination == "ordered":
            self.ledger = OrderedLedger(
                job.stype, ordered_frontier(job.spec, job.stype, d_cutoff=job.d_cutoff)
            )
            self.policy = OrderedRunPolicy(self.ledger, job.share_poll)
            self.queue.append((job, None))

    def next_work(self):
        if self.abort_after is not None and self.polls > self.abort_after:
            return None  # the job was called off: nothing more is leased
        if self.queue:
            return self.queue.pop(0)
        if self.ledger is not None and not self.ledger.finished:
            run = self.policy.lease(1)
            assert run is not None, "the policy has nothing out and nothing to lease"
            return self.job, (run.seqs, run.bound, self.ledger.task_count)
        return None

    def demand(self):
        return self.starving(self)

    def ship(self, nodes, depth):
        if nodes:
            self.queue.append((self.job, (nodes, depth)))

    def bound(self):
        if self.ledger is not None:
            return self.ledger.required_bound()
        return self.best

    def publish(self, found):
        self.best = max(self.best, found.value)

    def aborted(self):
        self.polls += 1
        return self.abort_after is not None and self.polls > self.abort_after

    def report(self, outcome):
        self.reports.append(outcome)
        self.knowledge = self.job.stype.combine(self.knowledge, outcome.knowledge)
        self.metrics.merge(outcome.metrics)
        self.goal = self.goal or outcome.goal

    def flush(self, blocks, done):
        self.flushes.append(done)
        self.policy.accept(blocks, done)

    def fail(self, reason):
        self.failures.append(reason)


def serve(job, **script):
    worker = MemoryTransport(job, **script)
    if job.coordination != "ordered":
        worker.queue.append((job, ([job.spec.root], 0)))
    worker.serve()
    assert worker.failures == []
    return worker


def job_of(coordination, spec, stype, **knobs):
    return WorkerJob(1, spec, stype, coordination, **knobs)


class TestSharingLeases:
    @pytest.mark.parametrize("coordination", ["budget", "stacksteal"])
    def test_enumeration_counts_every_node_once(self, coordination):
        spec = uts_spec_factory(*UTS_ARGS)
        seq = sequential_search(spec, Enumeration())
        worker = serve(
            job_of(coordination, spec, Enumeration(), budget=20, share_poll=4),
            starving=lambda t: t.polls % 3 == 0,
        )
        assert (worker.knowledge, worker.metrics.nodes) == (seq.value, seq.metrics.nodes)
        assert len(worker.reports) > 1  # hand-overs came back as leases
        assert not worker.pool

    def test_depthbounded_runs_the_frontier_it_is_handed(self):
        spec = uts_spec_factory(*UTS_ARGS)
        seq = sequential_search(spec, Enumeration())
        frontier = ordered_frontier(spec, Enumeration(), d_cutoff=2)
        job = job_of("depthbounded", spec, Enumeration(), share_poll=4)
        worker = MemoryTransport(job, starving=lambda t: False)
        worker.queue = [(job, ([task.node], task.depth)) for task in frontier.tasks]
        worker.serve()
        assert len(worker.reports) == len(frontier.tasks)
        value = Enumeration().combine(frontier.knowledge, worker.knowledge)
        nodes = frontier.metrics.nodes + worker.metrics.nodes
        assert (value, nodes) == (seq.value, seq.metrics.nodes)

    @pytest.mark.parametrize("coordination", ["budget", "stacksteal"])
    def test_optimisation_value_and_witness(self, coordination):
        spec = clique_spec_factory(*CLIQUE_ARGS)
        seq = sequential_search(spec, Optimisation())
        worker = serve(job_of(coordination, spec, Optimisation(), budget=50, share_poll=2))
        res = SearchResult.from_knowledge(
            Optimisation(), worker.knowledge, worker.goal, worker.metrics, 0.0, 1
        )
        assert res.value == seq.value == worker.best
        assert validate_result(spec, res)

    def test_an_abandoned_lease_reports_nothing(self):
        spec = uts_spec_factory(*UTS_ARGS)
        worker = serve(
            job_of("budget", spec, Enumeration(), budget=20, share_poll=4),
            starving=lambda t: False, abort_after=50,
        )
        assert worker.reports == [] and worker.metrics.nodes == 0
        assert not worker.pool  # what it had pooled went with it

    def test_a_lease_that_raises_fails_the_job_through_the_transport(self):
        def broken(space, node):
            raise RuntimeError("no children here")

        spec = dataclasses.replace(
            uts_spec_factory(*UTS_ARGS), generator=broken, columns=None
        )
        job = job_of("budget", spec, Enumeration())
        worker = MemoryTransport(job)
        worker.queue.append((job, ([spec.root], 0)))
        worker.serve()
        assert worker.reports == [] and not worker.pool
        assert worker.failures == ["RuntimeError: no children here"]


class TestOrderedRuns:
    @pytest.mark.parametrize("stype", [Optimisation(), Enumeration()], ids=["opt", "enum"])
    def test_matches_the_reference_fingerprint(self, stype):
        spec = clique_spec_factory(*CLIQUE_ARGS)
        worker = serve(job_of("ordered", spec, stype, d_cutoff=2, share_poll=16))
        assert worker.job.tasks  # the job's first item was the walk
        ledger = worker.ledger
        metrics = ledger.metrics
        metrics.weighted_nodes = metrics.nodes
        res = SearchResult.from_knowledge(stype, ledger.knowledge, ledger.goal, metrics, 0.0, 1)
        want = ordered_reference_search(spec, stype, d_cutoff=2)
        assert result_fingerprint(res, counts=True) == result_fingerprint(want, counts=True)

    def test_an_abandoned_run_reports_nothing(self):
        spec = clique_spec_factory(*CLIQUE_ARGS)
        worker = serve(
            job_of("ordered", spec, Optimisation(), d_cutoff=2), abort_after=0,
        )
        assert worker.flushes == [] and worker.ledger.next_seq == 0

    def test_a_run_cut_from_another_frontier_fails_the_job(self):
        spec = clique_spec_factory(*CLIQUE_ARGS)
        job = job_of("ordered", spec, Optimisation(), d_cutoff=2)
        worker = MemoryTransport(job)
        worker.ledger = None  # nothing but the walk and this one run
        worker.queue.append((job, (range(1), 0, 1)))
        worker.serve()
        (reason,) = worker.failures
        assert reason.startswith("ValueError") and "frontier of 1" in reason


def test_each_lease_executor_has_one_caller():
    """``execute_lease`` and ``execute_run`` are called from the worker's
    lease loop and nowhere else under ``src/repro``: a runtime that calls
    one itself is a second worker loop."""
    src = Path(repro.__file__).parent
    calls = {"execute_lease": [], "execute_run": []}
    for path in src.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name in calls:
                    calls[name].append(path.relative_to(src).as_posix())
    assert calls == {
        "execute_lease": ["runtime/worker.py"],
        "execute_run": ["runtime/worker.py"],
    }
    # And no module spells the call some other way.
    text = "\n".join(path.read_text() for path in src.rglob("*.py"))
    assert len(re.findall(r"\bexecute_lease\(", text)) == 2  # the def and the call
    assert len(re.findall(r"\bexecute_run\(", text)) == 2

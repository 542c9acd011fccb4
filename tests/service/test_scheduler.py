"""Scheduler policy tests over a scripted (instant) backend.

Real search execution is covered by the end-to-end test; here a fake
backend makes the policy paths — dedup, coalescing, rejection, retry,
timeout, cancellation, follower fan-out — fast and deterministic.  The
exceptions are the classes that run real searches: a running job's
cancel and the process fleet under :class:`InProcessBackend`, and
timeout and cancel through :class:`ClusterBackend`.
"""

import time

import pytest

from repro.core.results import SearchResult
from repro.runtime.processes import run_library_search
from repro.service import (
    InProcessBackend,
    JobQueue,
    JobSpec,
    JobState,
    JobTimeout,
    Scheduler,
    WorkerCrash,
)


def spec(instance="brock90-1", app="maxclique", **kw):
    return JobSpec(app=app, instance=instance, **kw)


class ScriptedBackend:
    """Returns/raises per-instance scripted outcomes; counts attempts."""

    def __init__(self, script=None):
        self.script = script or {}
        self.executed = []

    def execute(self, job, *, deadline=None, cancel=None):
        self.executed.append(job.id)
        action = self.script.get(job.spec.instance)
        if action is None:
            return SearchResult(kind="optimisation", value=42, node=("w",))
        if isinstance(action, list):
            step = action.pop(0)
        else:
            step = action
        if isinstance(step, Exception):
            raise step
        return step


def make_sched(backend=None, **kw):
    kw.setdefault("n_workers", 1)
    return Scheduler(backend=backend or ScriptedBackend(), **kw)


class TestSubmission:
    def test_submit_and_run(self):
        s = make_sched()
        job = s.submit(spec())
        assert job.state is JobState.PENDING
        s.run_until_idle()
        assert job.state is JobState.DONE
        assert job.result.value == 42

    def test_unknown_instance_raises_value_error(self):
        with pytest.raises(ValueError, match="unknown instance"):
            make_sched().submit(spec(instance="atlantis-9"))

    def test_app_mismatch_raises(self):
        with pytest.raises(ValueError, match="belongs to application"):
            make_sched().submit(spec(app="tsp"))

    def test_cache_hit_serves_without_execution(self):
        backend = ScriptedBackend()
        s = make_sched(backend)
        s.submit(spec())
        s.run_until_idle()
        dup = s.submit(spec(priority=9, submitter="other"))
        assert dup.state is JobState.DONE
        assert dup.from_cache
        assert backend.executed == ["j0001"]  # the duplicate never ran

    def test_jobs_listing_orders_prefixed_shard_ids(self):
        # Regression: jobs() sorted on int(id[1:]), which crashed on
        # sharded id prefixes ("s0-j0001") the gateway generates.
        s = make_sched(name="s0-")
        first = s.submit(spec())
        second = s.submit(spec(instance="brock90-2"))
        assert first.id == "s0-j0001"
        assert [j.id for j in s.jobs()] == [first.id, second.id]
        s.run_until_idle()

    def test_rejection_reports_reason_and_terminal_state(self):
        s = make_sched(queue=JobQueue(max_depth=1))
        s.submit(spec())
        rejected = s.submit(spec(instance="brock90-2"))
        assert rejected.state is JobState.FAILED
        assert "rejected: queue full" in rejected.error
        snap = s.metrics_snapshot()
        assert snap.rejected == 1


class TestBackendCoordinations:
    def test_job_the_cluster_can_never_run_is_refused_at_submit(self):
        # Regression: the job was admitted, executed twice and ended
        # FAILED "worker crash: job not clusterable" with attempts == 2
        # and the retried metric bumped — for the `submit` CLI's default
        # skeleton.  A coordinator with no workers is enough to show it.
        from repro.cluster.backend import ClusterBackend
        from repro.core.backends import BACKENDS

        backend = ClusterBackend()
        try:
            s = make_sched(backend)
            for skeleton in ("sequential",):
                with pytest.raises(ValueError) as refused:
                    s.submit(spec(skeleton=skeleton))
                for runs in BACKENDS["cluster"].coordinations:
                    assert runs in str(refused.value)
            assert s.run_until_idle() == []
            assert s.metrics_snapshot().retries == 0
        finally:
            backend.close()

    def test_worker_wait_ends_at_the_deadline(self):
        # Regression: the job waited the whole worker_wait for workers
        # that never came, whatever its deadline, and the miss was a
        # WorkerCrash the scheduler retried: FAILED after two waits.
        from repro.cluster.backend import ClusterBackend

        backend = ClusterBackend(min_workers=1, worker_wait=5.0)
        try:
            s = make_sched(backend)
            job = s.submit(spec(skeleton="budget", timeout=0.2))
            started = time.monotonic()
            s.run_until_idle()
            assert job.state is JobState.TIMEOUT, job.error
            assert job.attempts == 1
            assert time.monotonic() - started < 2.0
            assert s.metrics_snapshot().retries == 0
        finally:
            backend.close()

    def test_a_backend_without_the_attribute_runs_every_skeleton(self):
        s = make_sched()
        job = s.submit(spec(skeleton="depthbounded"))
        s.run_until_idle()
        assert job.state is JobState.DONE


class TestCoalescing:
    def test_duplicate_while_queued_is_coalesced(self):
        backend = ScriptedBackend()
        s = make_sched(backend)
        leader = s.submit(spec())
        follower = s.submit(spec(submitter="other"))
        assert follower.coalesced_into == leader.id
        s.run_until_idle()
        assert backend.executed == [leader.id]  # one execution for two jobs
        assert follower.state is JobState.DONE
        assert follower.from_cache
        assert follower.result.value == 42
        assert s.metrics_snapshot().coalesced == 1

    def test_crashed_leader_retry_resolves_followers(self):
        # Crash-retry x coalescing: the leader's first attempt crashes,
        # the retry succeeds, and the coalesced follower must be served
        # from the *retried* result — one extra execution total, never a
        # separate run for the follower.
        ok = SearchResult(kind="optimisation", value=11, node=("w",))
        backend = ScriptedBackend({"brock90-1": [WorkerCrash("flaky"), ok]})
        s = make_sched(backend)
        leader = s.submit(spec())
        follower = s.submit(spec(submitter="other"))
        assert follower.coalesced_into == leader.id
        s.run_until_idle()
        assert leader.state is JobState.DONE
        assert leader.attempts == 2
        assert follower.state is JobState.DONE
        assert follower.from_cache
        assert follower.result.value == 11
        assert backend.executed == [leader.id, leader.id]
        snap = s.metrics_snapshot()
        assert snap.retries == 1
        assert snap.coalesced == 1

    def test_failed_leader_takes_followers_with_it(self):
        backend = ScriptedBackend(
            {"brock90-1": [WorkerCrash("boom"), WorkerCrash("boom")]}
        )
        s = make_sched(backend)
        leader = s.submit(spec())
        follower = s.submit(spec(submitter="other"))
        s.run_until_idle()
        assert leader.state is JobState.FAILED
        assert follower.state is JobState.FAILED
        assert leader.id in follower.error


class TestRetry:
    def test_one_retry_on_crash_then_success(self):
        ok = SearchResult(kind="optimisation", value=7, node=("w",))
        backend = ScriptedBackend({"brock90-1": [WorkerCrash("flaky"), ok]})
        s = make_sched(backend)
        job = s.submit(spec())
        s.run_until_idle()
        assert job.state is JobState.DONE
        assert job.attempts == 2
        assert s.metrics_snapshot().retries == 1

    def test_second_crash_is_failure(self):
        backend = ScriptedBackend(
            {"brock90-1": [WorkerCrash("bad"), WorkerCrash("worse")]}
        )
        s = make_sched(backend)
        job = s.submit(spec())
        s.run_until_idle()
        assert job.state is JobState.FAILED
        assert job.attempts == 2
        assert "worse" in job.error


class TestTimeoutAndCancel:
    def test_timeout_outcome(self):
        backend = ScriptedBackend({"brock90-1": JobTimeout()})
        s = make_sched(backend)
        job = s.submit(spec(timeout=0.5))
        s.run_until_idle()
        assert job.state is JobState.TIMEOUT
        assert "0.500" in job.error
        assert s.metrics_snapshot().jobs_by_state["TIMEOUT"] == 1

    def test_timeout_does_not_cache_anything(self):
        backend = ScriptedBackend({"brock90-1": JobTimeout()})
        s = make_sched(backend)
        s.submit(spec(timeout=0.5))
        s.run_until_idle()
        assert len(s.cache) == 0

    def test_cancel_queued_job_prevents_execution(self):
        backend = ScriptedBackend()
        s = make_sched(backend)
        job = s.submit(spec())
        assert s.cancel(job.id) is True
        s.run_until_idle()
        assert job.state is JobState.CANCELLED
        assert backend.executed == []

    def test_cancel_terminal_job_returns_false(self):
        s = make_sched()
        job = s.submit(spec())
        s.run_until_idle()
        assert s.cancel(job.id) is False

    def test_cancelling_leader_promotes_follower(self):
        backend = ScriptedBackend()
        s = make_sched(backend)
        leader = s.submit(spec())
        follower = s.submit(spec(submitter="other"))
        s.cancel(leader.id)
        s.run_until_idle()
        assert leader.state is JobState.CANCELLED
        assert follower.state is JobState.DONE
        assert backend.executed == [follower.id]  # follower ran as new leader

    def test_cancelling_follower_leaves_leader_alone(self):
        backend = ScriptedBackend()
        s = make_sched(backend)
        leader = s.submit(spec())
        follower = s.submit(spec(submitter="other"))
        s.cancel(follower.id)
        s.run_until_idle()
        assert follower.state is JobState.CANCELLED
        assert leader.state is JobState.DONE
        assert backend.executed == [leader.id]


class TestMetricsSnapshot:
    def test_snapshot_counts(self):
        s = make_sched()
        for name in ("brock90-1", "brock90-2", "brock90-1"):
            s.submit(spec(instance=name))
        s.run_until_idle()
        snap = s.metrics_snapshot()
        assert snap.submitted == 3
        assert snap.completed == 3
        assert snap.jobs_by_state == {"DONE": 3}
        assert snap.coalesced == 1
        assert snap.cache_hit_rate is not None and snap.cache_hit_rate > 0
        assert snap.latency_p50 is not None
        assert snap.latency_p95 >= snap.latency_p50
        assert snap.queue_depth == 0 and snap.running == 0

    def test_render_mentions_key_figures(self):
        s = make_sched()
        s.submit(spec())
        s.run_until_idle()
        text = s.metrics_snapshot().render()
        assert "hit rate" in text
        assert "p95" in text
        assert "DONE=1" in text

    def test_percentiles_are_computed_outside_the_scheduler_lock(self, monkeypatch):
        import threading

        from repro.service import metrics

        s = make_sched()
        s.submit(spec())
        s.run_until_idle()
        free = []

        def take_the_lock():
            taken = s._lock.acquire(timeout=1)
            if taken:
                s._lock.release()
            free.append(taken)

        def percentile(values, q):
            # Another thread can take the lock while this one sorts.
            probe = threading.Thread(target=take_the_lock)
            probe.start()
            probe.join()
            return 0.0

        monkeypatch.setattr(metrics, "percentile", percentile)
        s.metrics_snapshot()
        assert free == [True, True]

    def test_to_dict_round_trips_through_json(self):
        import json

        s = make_sched()
        s.submit(spec())
        s.run_until_idle()
        blob = json.dumps(s.metrics_snapshot().to_dict())
        assert json.loads(blob)["submitted"] == 1


def _cancel_once_running(s, job, *, after=0.1):
    """Cancel ``job`` through the scheduler once it has run ``after``
    seconds, and wait for it to end."""
    while job.state is JobState.PENDING:
        time.sleep(0.01)
    time.sleep(after)
    assert s.cancel(job.id) is True
    while not job.terminal:
        time.sleep(0.01)


class TestInProcessRunningCancel:
    def test_running_sequential_job_is_cancelled(self):
        # tsp-rand-13 takes ~0.9 s sequentially: the cancel lands at a
        # kernel poll long before the search would end.
        s = make_sched(InProcessBackend())
        s.start()
        try:
            job = s.submit(spec("tsp-rand-13", "tsp"))
            _cancel_once_running(s, job)
        finally:
            s.stop()
        assert job.state is JobState.CANCELLED, job.error
        assert job.result is None
        assert job.attempts == 1


class TestInProcessSequentialOnTheFleet:
    """Every sequential job on :class:`InProcessBackend` is one lease on
    a worker of its own of the warm process fleet."""

    @pytest.mark.parametrize("instance,app", [
        ("brock90-1", "maxclique"), ("kclique-planted-80", "kclique"),
        ("knap-strong-28", "knapsack"), ("tsp-rand-11", "tsp"),
        ("sip-planted-18-65", "sip"), ("ns-genus-14", "ns"), ("uts-bin-med", "uts"),
    ])
    def test_counters_are_the_sequential_skeletons(self, instance, app):
        s = make_sched(InProcessBackend())
        job = s.submit(spec(instance, app))
        s.run_until_idle()
        assert job.state is JobState.DONE, job.error
        want = run_library_search(instance)
        assert (job.result.value, job.result.workers) == (want.value, 1)
        assert job.result.metrics.to_dict() == want.metrics.to_dict()

    def test_timeout_stops_the_search(self):
        from repro.runtime.fleet import POLL

        # tsp-rand-13 takes ~0.9 s sequentially.
        s = make_sched(InProcessBackend())
        job = s.submit(spec("tsp-rand-13", "tsp", timeout=0.2))
        s.run_until_idle()
        assert job.state is JobState.TIMEOUT, job.error
        assert job.finished_at - job.started_at <= 0.2 + 2 * POLL
        assert job.attempts == 1 and s.cache.get(job.key) is None

    @staticmethod
    def _beside_a_long_job(other_spec, stop_it):
        """Run ``other_spec`` on one shard while a tsp-rand-13 job of
        another runs on the fleet; ``stop_it(shard, job)`` once it
        runs.  Returns both shards and jobs, and whether the long job
        was still running when the other ended."""
        shards = [make_sched(InProcessBackend(), name=f"s{i}-") for i in range(2)]
        for s in shards:
            s.start()
        try:
            long_job = shards[0].submit(spec("tsp-rand-13", "tsp"))
            while long_job.state is JobState.PENDING:
                time.sleep(0.01)
            time.sleep(0.05)  # the long job has its worker
            other = shards[1].submit(other_spec)
            while other.state is JobState.PENDING:
                time.sleep(0.01)
            stop_it(shards[1], other)
            while not other.terminal:
                time.sleep(0.01)
            running = not long_job.terminal
            assert shards[0].cancel(long_job.id) is True
            while not long_job.terminal:
                time.sleep(0.01)
        finally:
            for s in shards:
                s.stop()
        return shards, (long_job, other), running

    def test_a_short_job_beside_a_long_one_finishes(self):
        """Sequential jobs run side by side on workers of their own: a
        short one does not wait for a long one, or time out behind it."""
        shards, (_long_job, short), running = self._beside_a_long_job(
            spec(timeout=0.2), lambda s, job: None,
        )
        assert running
        assert short.state is JobState.DONE, short.error
        assert short.finished_at - short.started_at < 0.2
        assert short.result.value == run_library_search("brock90-1").value

    def test_cancel_beside_another_shards_long_job(self):
        shards, jobs, running = self._beside_a_long_job(
            spec("tsp-rand-12", "tsp"), lambda s, job: s.cancel(job.id),
        )
        assert running  # the cancelled job did not wait for the long one's end
        for s, job in zip(shards, jobs):
            assert job.state is JobState.CANCELLED, job.error
            assert job.result is None and s.cache.get(job.key) is None

    def test_timeout_beside_another_shards_long_job(self):
        from repro.runtime.fleet import POLL

        shards, (_long_job, other), running = self._beside_a_long_job(
            spec("tsp-rand-13", "tsp", timeout=0.2), lambda s, job: None,
        )
        assert running
        assert other.state is JobState.TIMEOUT, other.error
        assert other.finished_at - other.started_at <= 0.2 + 2 * POLL
        assert other.attempts == 1

    def test_incumbents_follow_the_wait(self):
        events = []
        s = make_sched(
            InProcessBackend(),
            on_event=lambda job, event, data: events.append((event, data)),
        )
        job = s.submit(spec())
        s.run_until_idle()
        values = [data["value"] for event, data in events if event == "incumbent"]
        assert values and values == sorted(set(values))
        assert values[-1] == job.result.value

    def test_the_final_incumbent_is_sent_if_the_wait_never_woke(self, monkeypatch):
        """A job over before the fleet's wait first asks the stop hook
        still sends its value."""
        from repro.runtime import processes

        search = processes.fleet_sequential_search
        monkeypatch.setattr(
            processes, "fleet_sequential_search", lambda *args: search(*args[:3]),
        )
        events = []
        s = make_sched(
            InProcessBackend(),
            on_event=lambda job, event, data: events.append((event, data)),
        )
        job = s.submit(spec())
        s.run_until_idle()
        assert job.state is JobState.DONE, job.error
        values = [data["value"] for event, data in events if event == "incumbent"]
        assert values == [job.result.value]


class TestInProcessRunningParallelCancel:
    def test_running_fleet_job_is_cancelled(self):
        # A budget job on two fleet processes cannot be stopped mid-run;
        # its late verdict is still CANCELLED, and its result is not
        # cached for the next submitter of the same search.
        s = make_sched(InProcessBackend())
        s.start()
        try:
            job = s.submit(spec(
                "tsp-rand-13", "tsp", skeleton="budget",
                params={"backend": "processes", "n_processes": 2},
            ))
            _cancel_once_running(s, job)
        finally:
            s.stop()
        assert job.state is JobState.CANCELLED, job.error
        assert job.result is None
        assert s.cache.get(job.key) is None


class TestRetention:
    """A serving scheduler keeps the last RETAINED_JOBS terminal records."""

    def test_serving_scheduler_drops_the_oldest_records(self):
        from repro.service.scheduler import RETAINED_JOBS

        s = make_sched()
        s.start()
        try:
            # One execution, then cache hits: every record is terminal.
            jobs = [s.submit(spec()) for _ in range(RETAINED_JOBS + 50)]
            while not all(job.terminal for job in jobs):
                time.sleep(0.01)
            kept = s.jobs()
        finally:
            s.stop()
        assert len(kept) == RETAINED_JOBS
        assert [job.id for job in kept] == [job.id for job in jobs[50:]]
        with pytest.raises(KeyError):
            s.job(jobs[0].id)
        assert s.metrics_snapshot().completed == RETAINED_JOBS + 50

    def test_batch_run_keeps_every_record(self):
        from repro.service.scheduler import RETAINED_JOBS

        s = make_sched()
        jobs = [s.submit(spec(instance="brock90-2")) for _ in range(RETAINED_JOBS + 1)]
        assert len(s.run_until_idle()) == len(jobs)


class TestInProcessFansOut:
    """A job on :class:`InProcessBackend` whose params select
    ``backend="processes"`` runs on the warm process fleet."""

    def test_job_is_done_with_the_sequential_value(self):
        s = make_sched(InProcessBackend())
        job = s.submit(spec(
            skeleton="budget", params={"backend": "processes", "n_processes": 2},
        ))
        s.run_until_idle()
        assert job.state is JobState.DONE, job.error
        assert job.result.value == run_library_search("brock90-1").value
        assert job.result.workers == 2


class TestClusterTimeoutAndCancel:
    """The coordinator's timeout and cancel, through a scheduler, on a
    budget job over ``tsp-rand-13`` (~0.9 s sequentially)."""

    @pytest.fixture(scope="class")
    def backend(self):
        from repro.cluster.backend import ClusterBackend

        backend = ClusterBackend(local_workers=2)
        try:
            # Both workers are in before any job's deadline starts.
            backend.handle.wait_for_workers(2, timeout=30.0)
            yield backend
        finally:
            backend.close()

    def test_timeout(self, backend):
        s = make_sched(backend)
        job = s.submit(spec("tsp-rand-13", "tsp", skeleton="budget", timeout=0.2))
        s.run_until_idle()
        assert job.state is JobState.TIMEOUT, job.error
        assert job.attempts == 1

    def test_cancel_while_running(self, backend):
        s = make_sched(backend)
        s.start()
        try:
            job = s.submit(spec("tsp-rand-13", "tsp", skeleton="budget"))
            _cancel_once_running(s, job)
        finally:
            s.stop()
        assert job.state is JobState.CANCELLED, job.error
        assert job.attempts == 1

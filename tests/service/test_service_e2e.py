"""End-to-end service acceptance test (ISSUE 1 acceptance criteria).

Submits 20+ real jobs — mixed applications, duplicate submissions from
several submitters, one job with an unmeetable timeout, one cancelled
while queued — to a scheduler with a bounded queue, and checks that the
whole batch reaches terminal states with the promised semantics.
"""

import pytest

from repro.service import JobQueue, JobSpec, JobState, ResultCache, Scheduler
from repro.service.jobs import TERMINAL_STATES


def build_specs():
    """20 mixed jobs: duplicates across submitters + one timeout case."""
    specs = []

    def add(app, instance, *, submitter="suite", n=1, **kw):
        for _ in range(n):
            specs.append(
                JobSpec(app=app, instance=instance, submitter=submitter, **kw)
            )

    add("maxclique", "brock90-1", n=2)                      # dup pair
    add("maxclique", "brock90-1", submitter="alice")        # cross-submitter dup
    add("maxclique", "sanr90-1", priority=5)
    add("maxclique", "brock90-1", submitter="bob",
        skeleton="depthbounded", params={"workers_per_locality": 4}, n=2)  # dup pair
    add("kclique", "kclique-planted-80", submitter="alice", n=2)  # dup pair
    add("tsp", "tsp-rand-11", submitter="bob")
    add("knapsack", "knap-strong-28", n=2)                  # dup pair
    add("knapsack", "knap-sim-26", submitter="alice")
    add("sip", "sip-planted-18-65", submitter="bob", priority=2)
    add("uts", "uts-geo-med", n=2)                          # dup pair
    add("ns", "ns-genus-14", submitter="alice")
    add("ns", "ns-genus-16", timeout=0.05)                  # cannot finish in time
    add("tsp", "tsp-rand-11", submitter="carol")            # dup of bob's
    add("sip", "sip-planted-18-65", submitter="carol")      # dup of bob's
    add("maxclique", "p_hat90-1", submitter="carol")        # the one we cancel
    assert len(specs) >= 20
    return specs


@pytest.fixture(scope="module")
def served():
    """Run the whole batch once; tests below assert on the outcome."""
    sched = Scheduler(
        queue=JobQueue(max_depth=64, max_per_submitter=32),
        cache=ResultCache(capacity=64),
        n_workers=3,
    )
    jobs = [sched.submit(spec) for spec in build_specs()]
    victim = next(j for j in jobs if j.spec.instance == "p_hat90-1")
    assert sched.cancel(victim.id) is True
    sched.run_until_idle()
    return sched, jobs, victim


class TestEndToEnd:
    def test_all_jobs_reach_terminal_states(self, served):
        _, jobs, _ = served
        assert all(j.state in TERMINAL_STATES for j in jobs)

    def test_duplicates_served_from_cache(self, served):
        sched, jobs, _ = served
        from_cache = [j for j in jobs if j.from_cache]
        assert len(from_cache) >= 5  # every dup pair produced at least one
        for job in from_cache:
            twin_values = {
                j.result.value
                for j in jobs
                if j.key == job.key and j.result is not None
            }
            assert twin_values == {job.result.value}  # identical answers

    def test_cache_hit_rate_positive_in_snapshot(self, served):
        sched, _, _ = served
        snap = sched.metrics_snapshot()
        assert snap.cache_hit_rate is not None
        assert snap.cache_hit_rate > 0

    def test_each_unique_search_ran_at_most_once(self, served):
        _, jobs, _ = served
        executed = [j for j in jobs if j.attempts > 0]
        keys = [j.key for j in executed]
        assert len(keys) == len(set(keys))

    def test_timed_out_job_reported_timeout(self, served):
        _, jobs, _ = served
        timed_out = [j for j in jobs if j.spec.timeout is not None]
        assert len(timed_out) == 1
        assert timed_out[0].state is JobState.TIMEOUT
        assert "timeout" in timed_out[0].error

    def test_timeout_did_not_poison_the_pool(self, served):
        # Every job without a timeout or cancellation still completed.
        sched, jobs, victim = served
        others = [
            j for j in jobs if j.spec.timeout is None and j.id != victim.id
        ]
        assert all(j.state is JobState.DONE for j in others)
        # And the scheduler still serves new work afterwards.
        extra = sched.submit(
            JobSpec(app="maxclique", instance="brock90-1", submitter="late")
        )
        sched.run_until_idle()
        assert extra.state is JobState.DONE
        assert extra.from_cache  # straight from the result cache

    def test_cancelled_queued_job_never_ran(self, served):
        _, _, victim = served
        assert victim.state is JobState.CANCELLED
        assert victim.attempts == 0
        assert victim.started_at is None

    def test_snapshot_accounts_for_every_job(self, served):
        sched, jobs, _ = served
        snap = sched.metrics_snapshot()
        # +1 for the extra job submitted in the poison test (module-scoped
        # fixture: test order within the class is file order).
        assert snap.submitted >= len(jobs)
        assert snap.completed >= len(jobs)
        assert snap.jobs_by_state.get("CANCELLED", 0) >= 1
        assert snap.jobs_by_state.get("TIMEOUT", 0) == 1
        assert snap.latency_p50 is not None and snap.latency_p95 is not None
        assert snap.queue_depth == 0 and snap.running == 0

    def test_results_round_trip_to_json(self, served):
        import json

        from repro.core.results import result_from_dict

        _, jobs, _ = served
        done = [j for j in jobs if j.state is JobState.DONE]
        assert done
        for job in done:
            blob = json.dumps(job.result.to_dict())
            back = result_from_dict(json.loads(blob))
            assert back.value == job.result.value
            assert back.kind == job.result.kind
            assert back.metrics.nodes == job.result.metrics.nodes

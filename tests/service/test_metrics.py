"""Unit tests for service metrics, including the dynamic-scheduling
columns (per-job worker counts and coordination split counts)."""

from repro.core.results import SearchMetrics, SearchResult
from repro.service.jobs import RETAINED_JOBS, Job, JobSpec, JobState
from repro.service.metrics import ServiceMetrics


def _finished_job(job_id, *, workers=None, spawns=0, from_cache=False, latency=1.0):
    spec = JobSpec(app="maxclique", instance="brock90-1")
    job = Job(spec, id=job_id, submitted_at=0.0)
    metrics = SearchMetrics()
    metrics.spawns = spawns
    job.result = SearchResult(
        kind="optimisation", value=1, metrics=metrics, workers=workers
    )
    job.from_cache = from_cache
    job.transition(JobState.RUNNING, now=0.0)
    job.transition(JobState.DONE, now=latency)
    return job


class TestParallelismColumns:
    def test_workers_and_splits_recorded(self):
        m = ServiceMetrics()
        m.job_finished(_finished_job("j1", workers=4, spawns=12))
        m.job_finished(_finished_job("j2", workers=1, spawns=0))
        m.job_finished(_finished_job("j3", workers=3, spawns=5))
        snap = m.snapshot()
        assert snap.parallel_jobs == 2
        assert snap.total_splits == 17
        assert snap.avg_workers == (4 + 1 + 3) / 3

    def test_cache_served_jobs_do_not_count(self):
        # A cache hit re-serves an old result object; counting its
        # workers/splits again would double-book the original run.
        m = ServiceMetrics()
        m.job_finished(_finished_job("j1", workers=4, spawns=9))
        m.job_finished(_finished_job("j2", workers=4, spawns=9, from_cache=True))
        snap = m.snapshot()
        assert snap.parallel_jobs == 1
        assert snap.total_splits == 9
        assert snap.avg_workers == 4.0

    def test_empty_metrics(self):
        snap = ServiceMetrics().snapshot()
        assert snap.parallel_jobs == 0
        assert snap.total_splits == 0
        assert snap.avg_workers is None

    def test_snapshot_serialises_and_renders(self):
        m = ServiceMetrics()
        m.job_finished(_finished_job("j1", workers=2, spawns=3))
        snap = m.snapshot()
        d = snap.to_dict()
        assert d["parallel_jobs"] == 1
        assert d["total_splits"] == 3
        assert d["avg_workers"] == 2.0
        text = snap.render()
        assert "avg workers 2.0" in text
        assert "splits 3" in text


class TestBoundedWindow:
    def test_latencies_are_the_last_jobs_and_worker_columns_count_all(self):
        m = ServiceMetrics()
        total = RETAINED_JOBS + 50
        for i in range(total):
            # The 50 oldest are slow: they fall out of the window.
            latency = 100.0 if i < 50 else 1.0
            m.job_finished(_finished_job(f"j{i}", workers=1 + i % 2, latency=latency))
        assert len(m.counters()["latencies"]) == RETAINED_JOBS
        snap = m.snapshot()
        assert snap.latency_p95 == 1.0
        assert snap.completed == total
        # As every job's worker count kept would give.
        assert snap.parallel_jobs == total // 2
        assert snap.avg_workers == sum(1 + i % 2 for i in range(total)) / total

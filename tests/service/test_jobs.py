"""Tests for JobSpec identity and the Job lifecycle."""

import pytest

from repro.service.jobs import Job, JobSpec, JobState, TERMINAL_STATES


def spec(**kw):
    base = dict(app="maxclique", instance="brock90-1")
    base.update(kw)
    return JobSpec(**base)


class TestJobSpecValidation:
    def test_defaults_valid(self):
        s = spec()
        assert s.skeleton == "sequential"
        assert s.search_type is None

    def test_unknown_skeleton_rejected(self):
        with pytest.raises(ValueError, match="skeleton"):
            spec(skeleton="warp-drive")

    def test_unknown_search_type_rejected(self):
        with pytest.raises(ValueError, match="search type"):
            spec(search_type="divination")

    def test_nonpositive_timeout_rejected(self):
        with pytest.raises(ValueError, match="timeout"):
            spec(timeout=0)
        with pytest.raises(ValueError, match="timeout"):
            spec(timeout=-1.5)

    def test_bad_param_override_rejected_at_construction(self):
        with pytest.raises(TypeError):
            spec(params={"no_such_knob": 3})
        with pytest.raises(ValueError):
            spec(params={"d_cutoff": -1})

    def test_empty_instance_and_submitter_rejected(self):
        with pytest.raises(ValueError):
            spec(instance="")
        with pytest.raises(ValueError):
            spec(submitter="")


class TestCanonicalKey:
    def test_scheduling_attributes_do_not_change_key(self):
        # Priority/timeout/submitter affect *when*, not *what*: two specs
        # differing only there are duplicates and must share a cache key.
        a = spec(priority=0, submitter="alice")
        b = spec(priority=9, submitter="bob", timeout=60)
        assert a.key == b.key

    def test_search_identity_changes_key(self):
        assert spec().key != spec(instance="brock90-2").key
        assert spec().key != spec(skeleton="depthbounded").key
        assert spec().key != spec(params={"d_cutoff": 3}).key
        assert spec().key != spec(search_type="decision",
                                  stype_kwargs={"target": 10}).key

    def test_param_order_is_canonical(self):
        a = spec(params={"d_cutoff": 3, "budget": 50})
        b = spec(params={"budget": 50, "d_cutoff": 3})
        assert a.key == b.key

    def test_key_is_pinned(self):
        # Content addressing must not move: a cache, a shard route or a
        # stored result keyed by an older digest still has to match.
        s = spec(skeleton="budget", params={"budget": 500, "seed": 3},
                 priority=5, timeout=2.0, submitter="alice")
        assert s.key == (
            "5d2578541541a1771b3125455cc4f82f951f20336252f7d06ef8e398b552e73a"
        )
        d = JobSpec(app="kclique", instance="kclique-planted-80",
                    search_type="decision", stype_kwargs={"target": 18})
        assert d.key == (
            "41c47a83c605dfab0c697a2f82a3b39671517dc4072ad3089e987d33d2f39fc0"
        )

    def test_key_is_computed_once(self, monkeypatch):
        import hashlib
        from types import SimpleNamespace

        from repro.service import jobs

        calls = []

        def sha256(data):
            calls.append(data)
            return hashlib.sha256(data)

        monkeypatch.setattr(jobs, "hashlib", SimpleNamespace(sha256=sha256))
        s = spec()
        assert s.key == s.key == Job(s, id="j1").key
        assert len(calls) == 1

    def test_round_trip_preserves_key(self):
        s = spec(skeleton="budget", params={"budget": 10}, priority=4,
                 timeout=2.5, submitter="carol")
        back = JobSpec.from_dict(s.to_dict())
        assert back == s
        assert back.key == s.key


class TestLifecycle:
    def test_happy_path(self):
        job = Job(spec(), id="j0001")
        job.transition(JobState.RUNNING, now=1.0)
        assert job.started_at == 1.0
        job.transition(JobState.DONE, now=2.5)
        assert job.finished_at == 2.5
        assert job.terminal

    def test_pending_can_finish_directly(self):
        # Cache hits, rejections and queued-cancellations skip RUNNING.
        for state in (JobState.DONE, JobState.FAILED, JobState.CANCELLED):
            job = Job(spec(), id="x")
            job.transition(state)
            assert job.terminal

    def test_pending_cannot_timeout(self):
        # TIMEOUT means "ran out of time while running".
        job = Job(spec(), id="x")
        with pytest.raises(ValueError, match="illegal"):
            job.transition(JobState.TIMEOUT)

    def test_terminal_states_are_final(self):
        for state in TERMINAL_STATES:
            job = Job(spec(), id="x")
            if state is JobState.TIMEOUT:
                job.transition(JobState.RUNNING)
            job.transition(state)
            with pytest.raises(ValueError, match="illegal"):
                job.transition(JobState.RUNNING)

    def test_latency(self):
        job = Job(spec(), id="x", submitted_at=10.0)
        assert job.latency() is None
        job.transition(JobState.RUNNING, now=11.0)
        job.transition(JobState.DONE, now=13.5)
        assert job.latency() == pytest.approx(3.5)

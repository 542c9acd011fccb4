"""ClusterDeployment integration tests: real fleets scaling up and down.

These spawn real worker processes (spawn context, ~0.5s each), so they
keep fleets small and budgets tight.
"""

import time

import pytest

from repro.cluster.coordinator import ClusterJobCancelled
from repro.cluster.local import job_payload
from repro.core.searchtypes import make_search_type
from repro.deploy import Adaptive, ClusterDeployment, WorkerSpec
from repro.verify.generators import instance_spec


@pytest.fixture
def deployment():
    dep = ClusterDeployment(
        WorkerSpec(name_prefix="t", give_up_after=15.0),
        heartbeat_interval=0.1,
        heartbeat_timeout=2.0,
    )
    yield dep
    dep.close()


class TestScaling:
    def test_scale_up_spawns_and_connects(self, deployment):
        deployment.scale(2)
        deployment.wait_for_workers(2, timeout=20)
        assert deployment.fleet_size() == 2
        assert deployment.workers_spawned == 2
        stats = deployment.handle.load_stats()
        assert sorted(w["name"] for w in stats["workers"]) == ["t-0", "t-1"]

    def test_scale_down_retires_youngest_first(self, deployment):
        deployment.scale(3)
        deployment.wait_for_workers(3, timeout=30)
        deployment.scale(1)
        deployment.wait_for_fleet(1, timeout=20)
        assert deployment.workers_retired == 2
        # The survivor is always the oldest worker.
        assert deployment.worker_names() == ["t-0"]
        stats = deployment.handle.load_stats()
        assert [w["name"] for w in stats["workers"]] == ["t-0"]

    def test_scale_is_idempotent_during_drain(self, deployment):
        deployment.scale(2)
        deployment.wait_for_workers(2, timeout=20)
        deployment.scale(1)
        deployment.scale(1)  # must not retire the survivor too
        deployment.wait_for_fleet(1, timeout=20)
        assert deployment.workers_retired == 1

    def test_names_never_recycle(self, deployment):
        deployment.scale(1)
        deployment.wait_for_workers(1, timeout=20)
        deployment.scale(0)
        deployment.wait_for_fleet(0, timeout=20)
        deployment.scale(1)
        # The replacement is t-1: indices are monotone, so coordinator
        # logs and chaos plans never see an ambiguous name.
        assert deployment.worker_names() == ["t-1"]

    def test_wait_for_fleet_times_out_descriptively(self, deployment):
        with pytest.raises(TimeoutError, match="fleet is 0 workers, wanted 1"):
            deployment.wait_for_fleet(1, timeout=0.2)


class TestAdaptLoop:
    def test_follows_demand_up_and_back_down(self, deployment):
        demand = {"depth": 0}
        deployment.adapt(
            1,
            3,
            interval=0.1,
            policy=Adaptive(1, 3, smoothing=1.0, down_cooldown=0.5),
            queue_depth=lambda: demand["depth"],
        )
        deployment.wait_for_fleet(1, timeout=20)

        demand["depth"] = 5
        deadline = time.monotonic() + 20
        while deployment.fleet_size() < 3 and time.monotonic() < deadline:
            time.sleep(0.05)
        assert deployment.fleet_size() == 3
        assert deployment.fleet_peak == 3

        demand["depth"] = 0
        deployment.wait_for_fleet(1, timeout=30)
        assert deployment.workers_retired >= 2
        assert deployment.worker_names() == ["t-0"]

    def test_self_heals_a_crashed_worker(self, deployment):
        deployment.adapt(
            1,
            3,
            interval=0.1,
            policy=Adaptive(1, 3, smoothing=1.0, down_cooldown=5.0),
        )
        deployment.wait_for_fleet(1, timeout=20)
        victim = deployment._procs["t-0"]
        victim.terminate()
        victim.join(timeout=5)
        # The adapt loop reaps the corpse and respawns to the floor.
        deadline = time.monotonic() + 20
        while time.monotonic() < deadline:
            names = deployment.worker_names()
            if names and names != ["t-0"]:
                break
            time.sleep(0.05)
        assert deployment.worker_names() == ["t-1"]
        assert deployment.workers_spawned == 2


class TestCoordinatorCloseIsARetire:
    @pytest.mark.parametrize("grow", ["fork", "scale"])
    def test_shutdown_mid_job_cancels_it_and_every_worker_exits_cleanly(self, grow):
        """``shutdown(drain_workers=True)`` sends every worker RETIRE
        before it closes their connections: the job in flight is
        cancelled, and each worker leaves for good, with exit code 0,
        instead of reconnecting until it gives up.  A fixed fan-out
        (``fork``) and an elastic fleet (``scale``) alike."""
        dep = ClusterDeployment(
            WorkerSpec(name_prefix="s", give_up_after=15.0),
            heartbeat_interval=0.1,
            heartbeat_timeout=2.0,
        )
        try:
            getattr(dep, grow)(2)
            dep.wait_for_workers(2, timeout=30)
            procs = list(dep._procs.values())
            # ~3 s of sequential search: still running below.
            future = dep.run_job_future(job_payload(
                instance_spec, ("uts", [4, 12, 1330772960]),
                make_search_type("enumeration"), budget=10_000,
            ), timeout=120)
            deadline = time.monotonic() + 10
            while dep.handle.load_stats()["leased_tasks"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            dep.handle.shutdown(drain_workers=True)
            with pytest.raises(ClusterJobCancelled):
                future.result(timeout=5)
            deadline = time.monotonic() + 5
            for proc in procs:
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
            assert [proc.exitcode for proc in procs] == [0, 0]
        finally:
            dep.close()


class TestMetricsIntegration:
    def test_deployment_reports_into_service_metrics(self):
        from repro.service.metrics import ServiceMetrics

        metrics = ServiceMetrics()
        dep = ClusterDeployment(
            WorkerSpec(name_prefix="m", give_up_after=15.0),
            heartbeat_interval=0.1,
            heartbeat_timeout=2.0,
            metrics=metrics,
        )
        try:
            dep.scale(2)
            dep.wait_for_workers(2, timeout=20)
            dep.scale(1)
            dep.wait_for_fleet(1, timeout=20)
            snap = metrics.snapshot()
            assert snap.workers_spawned == 2
            assert snap.workers_retired == 1
            assert snap.fleet_size == 1
            assert snap.fleet_peak == 2
            assert "fleet: 1 live (peak 2)" in snap.render()
        finally:
            dep.close()

    def test_fleet_line_absent_without_a_fleet(self):
        from repro.service.metrics import ServiceMetrics

        assert "fleet:" not in ServiceMetrics().snapshot().render()

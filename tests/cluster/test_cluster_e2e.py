"""End-to-end cluster tests: real sockets, real worker processes.

The acceptance bar for the distributed runtime is bit-identical results
against :func:`sequential_search` where the maths demands it:

- enumeration counts every node exactly once, whatever the work split,
  so both the value *and* the node count must match;
- a *refuted* decision search prunes on ``bound < target or bound <=
  incumbent`` with the incumbent pinned below target, so its explored
  set is incumbent-independent: node counts must match exactly too;
- optimisation node counts legitimately vary with incumbent timing
  (search-order anomalies), so only the optimum and a valid witness are
  required.
"""

import multiprocessing
import os
import threading
import time

import pytest

from repro.cluster.coordinator import ClusterHandle, ClusterJobFailed
from repro.cluster.local import cluster_search, job_payload
from repro.cluster.worker import ClusterWorker, _worker_process_main
from repro.core.ordered import ordered_reference_search
from repro.core.params import SkeletonParams
from repro.core.results import validate_result
from repro.core.searchtypes import Optimisation, make_search_type
from repro.core.sequential import sequential_search
from repro.instances.library import library_spec_factory, spec_for
from repro.verify.repetition import result_fingerprint


def _stype_for(instance):
    spec, tname, kwargs = spec_for(instance)
    return spec, make_search_type(tname, **kwargs)


def parent_only_spec_factory(instance):
    """The library spec in the process that calls it first, and an error
    in every worker process: a factory one side of the wire cannot run."""
    if multiprocessing.parent_process() is not None:
        raise RuntimeError("this instance is not installed here")
    return library_spec_factory(instance)


class TestMatchesSequential:
    def test_enumeration_bit_identical(self):
        spec, stype = _stype_for("uts-geo-med")
        res = cluster_search(
            library_spec_factory, ("uts-geo-med",), stype,
            n_workers=2, budget=500, share_poll=32, timeout=60,
        )
        seq = sequential_search(spec, stype)
        assert res.value == seq.value
        assert res.metrics.nodes == seq.metrics.nodes
        assert res.workers == 2
        assert res.metrics.spawns > 0  # real offcut traffic happened

    def test_refuted_decision_bit_identical(self):
        spec, stype = _stype_for("kclique-fig4")  # k=14 does not exist
        res = cluster_search(
            library_spec_factory, ("kclique-fig4",), stype,
            n_workers=2, budget=300, share_poll=32, timeout=120,
        )
        seq = sequential_search(spec, stype)
        assert res.found is False
        assert seq.found is False
        assert res.value == seq.value
        assert res.metrics.nodes == seq.metrics.nodes

    def test_optimisation_value_and_witness(self):
        spec, stype = _stype_for("brock90-1")
        res = cluster_search(
            library_spec_factory, ("brock90-1",), stype,
            n_workers=2, budget=500, share_poll=32, timeout=60,
        )
        seq = sequential_search(spec, stype)
        assert res.value == seq.value
        assert validate_result(spec, res)

    def test_single_worker(self):
        spec, stype = _stype_for("uts-geo-med")
        res = cluster_search(
            library_spec_factory, ("uts-geo-med",), stype,
            n_workers=1, budget=500, timeout=60,
        )
        seq = sequential_search(spec, stype)
        assert res.value == seq.value
        assert res.metrics.nodes == seq.metrics.nodes
        assert res.workers == 1

    @pytest.mark.parametrize("n", [1, 2])
    def test_ordered_job_whose_tail_is_condemned_completes(self, n):
        # The RESULT that finalises task 0 condemns every task after it
        # that is not out yet: the coordinator completes the job on that
        # RESULT or on the last one of the runs already out.
        from tests.runtime.test_processes_ordered import condemned_tail_factory

        want = ordered_reference_search(condemned_tail_factory(), Optimisation(), d_cutoff=1)
        res = cluster_search(
            condemned_tail_factory, (), Optimisation(), coordination="ordered",
            n_workers=n, d_cutoff=1, timeout=60,
        )
        assert result_fingerprint(res, counts=True) == result_fingerprint(want, counts=True)


class TestOrderedWalkIsTheCoordinators:
    def test_the_frontier_is_walked_once_by_the_coordinator(self, monkeypatch, tmp_path):
        import repro.core.ordered as ordered_module
        import repro.runtime.driver as driver_module

        log = tmp_path / "walks"
        walk = ordered_module.ordered_frontier

        def logged(*args, **kwargs):
            with open(log, "a") as out:
                out.write(f"{os.getpid()}\n")
            return walk(*args, **kwargs)

        spec, stype = _stype_for("brock90-1")
        want = ordered_reference_search(spec, stype, d_cutoff=2)
        # Before the workers fork, so each would log a walk too.
        for module in (ordered_module, driver_module):
            monkeypatch.setattr(module, "ordered_frontier", logged)
        res = cluster_search(
            library_spec_factory, ("brock90-1",), stype, coordination="ordered",
            n_workers=2, d_cutoff=2, timeout=60,
        )
        assert result_fingerprint(res, counts=True) == result_fingerprint(want, counts=True)
        assert res.workers == 2
        assert log.read_text().split() == [str(os.getpid())]

    @pytest.mark.parametrize("tamper, match", [
        (lambda seq, path, children, index, count: (seq, path, children + 1, index, count),
         r"worker 'local-\d'.*the parent at path \[\d+\] has \d+ children here"),
        (lambda seq, path, children, index, count: (seq, path, children, index + children, count),
         r"worker 'local-\d'.*the parent at path \[\d+\] has (\d+) children here; its "
         r"lease says \1 and names child \d+"),
    ], ids=["child-count", "child"])
    def test_a_lease_naming_what_the_tree_lacks_fails_the_job(self, monkeypatch, tamper, match):
        from repro.core.ordered import FrontierTasks

        # The coordinator's leases only: the workers never cut one.
        stretches = FrontierTasks.stretches
        monkeypatch.setattr(FrontierTasks, "stretches", lambda tasks, seqs: [
            tamper(*stretch) for stretch in stretches(tasks, seqs)
        ])
        _, stype = _stype_for("brock90-1")
        with pytest.raises(ClusterJobFailed, match=match):
            cluster_search(
                library_spec_factory, ("brock90-1",), stype, coordination="ordered",
                n_workers=2, d_cutoff=2, timeout=30,
            )


class TestSkeletonRoute:
    def test_backend_cluster_param(self):
        from repro.core.skeletons import make_skeleton

        spec, stype = _stype_for("brock90-1")
        skel = make_skeleton("budget", "optimisation")
        res = skel.search(
            spec,
            SkeletonParams(backend="cluster", cluster_workers=2, budget=500),
            stype=stype,
            spec_factory=library_spec_factory,
            factory_args=("brock90-1",),
        )
        assert res.value == sequential_search(spec, stype).value

    def test_backend_cluster_requires_factory(self):
        from repro.core.skeletons import make_skeleton

        spec, stype = _stype_for("brock90-1")
        skel = make_skeleton("budget", "optimisation")
        with pytest.raises(ValueError, match="spec_factory"):
            skel.search(
                spec,
                SkeletonParams(backend="cluster"),
                stype=stype,
            )


class TestFaultTolerance:
    def test_worker_killed_mid_search_result_still_exact(self):
        # Hard-kill one of two workers mid-refutation, from a fault
        # plan (a wall-clock sleep would miss a job this short): it
        # dies starting its 40th subtree, so with a lease live, a pool
        # behind it and — asked by its idle peer — children already
        # shipped.  The lease re-runs from its root under a bumped
        # epoch and the answer is still exact; what had been shipped is
        # searched twice, so the node count may only overcount.
        spec, stype = _stype_for("kclique-fig4")
        res = cluster_search(
            library_spec_factory, ("kclique-fig4",), stype,
            n_workers=2, budget=300, share_poll=32, timeout=120,
            heartbeat_interval=0.2, heartbeat_timeout=1.0,
            fault_plan={"events": [
                {"kind": "kill_worker", "worker": "local-0", "at_task": 40},
            ]},
        )
        seq = sequential_search(spec, stype)
        assert res.found is False
        assert res.value == seq.value
        assert res.metrics.nodes >= seq.metrics.nodes
        assert res.metrics.reassigned > 0  # the failure was survived, visibly

    def test_teardown_after_a_job_that_moved_work_is_prompt(self):
        # SHUTDOWN followed at once by EOF used to leave a worker
        # reconnecting to the closing coordinator and sitting out its
        # connect timeout (seconds).  Time the whole teardown.
        from multiprocessing import Process

        from repro.runtime.processes import graceful_stop

        spec, stype = _stype_for("uts-geo-med")
        payload = job_payload(
            library_spec_factory, ("uts-geo-med",), stype,
            budget=300, share_poll=32,
        )
        handle = ClusterHandle()
        host, port = handle.start()
        procs = [
            Process(
                target=_worker_process_main,
                args=(host, port, f"w{i}", 10.0),
                daemon=True,
            )
            for i in range(2)
        ]
        try:
            for p in procs:
                p.start()
            handle.wait_for_workers(2, timeout=15)
            res = handle.run_job(payload, timeout=60)
            assert res.metrics.steals > 0  # work did move
            started = time.perf_counter()
            handle.shutdown(drain_workers=True)
            for p in procs:
                p.join(timeout=5.0)
            teardown = time.perf_counter() - started
        finally:
            handle.shutdown(drain_workers=True)
            for p in procs:
                graceful_stop(p, grace=1.0)
        assert all(p.exitcode == 0 for p in procs)
        assert teardown < 1.0

    def test_a_job_no_worker_can_build_fails_instead_of_timing_out(self):
        # The coordinator builds the spec; each worker answers the JOB
        # with ERROR, which fails the job at once, naming the worker.
        # Without the answer the workers dropped every lease while they
        # kept heart-beating, and the job waited for its timeout.
        _, stype = _stype_for("brock90-1")
        with pytest.raises(ClusterJobFailed, match=r"worker 'local-\d'.*not installed here"):
            cluster_search(
                parent_only_spec_factory, ("brock90-1",), stype,
                n_workers=2, timeout=30,
            )


class TestWorkerLifecycle:
    def test_reconnect_with_backoff_then_drain(self):
        # Start the worker before any coordinator exists: it must retry
        # with backoff, join once the coordinator appears, do real work,
        # and exit cleanly when drained.
        import socket as _socket

        probe = _socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()

        worker = ClusterWorker(
            "127.0.0.1", port, name="early-bird", give_up_after=30.0
        )
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        time.sleep(0.4)  # several refused connects happen here

        handle = ClusterHandle(host="127.0.0.1", port=port)
        handle.start()
        try:
            handle.wait_for_workers(1, timeout=10)
            spec, stype = _stype_for("uts-geo-med")
            payload = job_payload(
                library_spec_factory, ("uts-geo-med",), stype, budget=500
            )
            res = handle.run_job(payload, timeout=60)
            assert res.value == sequential_search(spec, stype).value
        finally:
            handle.shutdown(drain_workers=True)
        thread.join(timeout=10)
        assert not thread.is_alive()  # SHUTDOWN drained the worker out
        assert worker.tasks_run > 0

    def test_stop_event_aborts_promptly(self):
        stop = threading.Event()
        stop.set()
        worker = ClusterWorker("127.0.0.1", 1, stop_event=stop)
        worker.run()  # must return immediately despite the dead address


class TestServiceBackend:
    def test_scheduler_runs_jobs_on_cluster(self):
        from repro.cluster.backend import ClusterBackend
        from repro.service import JobSpec, JobState, Scheduler

        backend = ClusterBackend(local_workers=2)
        try:
            sched = Scheduler(backend=backend, n_workers=1)
            ok = sched.submit(JobSpec(
                app="maxclique", instance="brock90-1",
                skeleton="budget", params={"budget": 500},
            ))
            cut = sched.submit(JobSpec(
                app="maxclique", instance="brock90-2",
                skeleton="depthbounded", params={"d_cutoff": 2},
            ))
            # Not a cluster coordination: refused at the door, never run
            # (see test_scheduler.py::TestBackendCoordinations).
            with pytest.raises(ValueError, match="budget"):
                sched.submit(JobSpec(
                    app="maxclique", instance="brock90-2",
                    skeleton="sequential",
                ))
            sched.run_until_idle()
        finally:
            backend.close()
        assert ok.state is JobState.DONE
        assert ok.result.value == 14
        assert cut.state is JobState.DONE
        spec, stype = _stype_for("brock90-2")
        assert cut.result.value == sequential_search(spec, stype).value
        # The depth cut's first grant round leases a record to each of
        # the two workers the backend waited for.  (The Budget job may
        # end on one worker before a steal reaches the other.)
        assert cut.result.workers == 2

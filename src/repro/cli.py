"""Command-line interface mirroring the YewPar artifact binaries.

The paper's artifact exposes per-application binaries driven by flags
like ``--skeleton``, ``-d`` (depth cutoff), ``-b`` (budget),
``--chunked`` and ``--decisionBound`` (Appendix A).  This module
reproduces that interface over the Python skeletons::

    python -m repro.cli maxclique --instance sanr90-1 --skeleton depthbounded -d 2
    python -m repro.cli maxclique -f mygraph.clq --skeleton budget -b 100 \\
        --decisionBound 27 --localities 2 --workers 8
    python -m repro.cli uts --shape geometric --b0 4 --depth 8 --skeleton stacksteal
    python -m repro.cli maxclique --instance brock100-1 --skeleton budget \\
        --backend processes --processes 4 -b 2000   # real OS processes
    python -m repro.cli ns --genus 14 --skeleton budget -b 50
    python -m repro.cli knapsack --instance knap-sim-30 --skeleton stacksteal
    python -m repro.cli tsp --instance tsp-rand-12 --skeleton depthbounded -d 3
    python -m repro.cli sip --instance sip-planted-20-70 --skeleton stacksteal
    python -m repro.cli tune --instance sanr90-1 --workers 8   # pick a skeleton
    python -m repro.cli list            # show the instance library

Beyond the artifact, the service layer (:mod:`repro.service`) is driven
by two extra subcommands::

    python -m repro.cli submit --jobfile jobs.jsonl --app maxclique \\
        --instance sanr90-1 --priority 3 --timeout 10
    python -m repro.cli serve --jobfile jobs.jsonl --pool 4 --results out.jsonl

and the distributed runtime (:mod:`repro.cluster`) by three more::

    python -m repro.cli cluster-worker --connect 127.0.0.1:7031
    python -m repro.cli cluster-coordinator --listen 127.0.0.1:7031 \\
        --jobfile jobs.jsonl --min-workers 2
    python -m repro.cli maxclique --instance brock100-1 --skeleton budget \\
        --backend cluster --cluster-workers 4   # self-contained localhost run

The network front door (:mod:`repro.gateway`, see docs/gateway.md)
adds three more::

    python -m repro.cli gateway --listen 127.0.0.1:8080 --shards 2
    python -m repro.cli submit --url http://127.0.0.1:8080 --app maxclique \\
        --instance sanr90-1 --wait
    python -m repro.cli gateway-top --url http://127.0.0.1:8080

The differential conformance harness (:mod:`repro.verify`, see
docs/verify.md) runs as::

    python -m repro.cli verify --backend all --seed 0 --rounds 20
    python -m repro.cli verify --backend cluster --chaos --seed 7 \\
        --rounds 10 --artifacts verify-artifacts

Exit status is 0 on success; decision searches exit 0 whether or not a
witness exists (the answer is printed), matching the original binaries.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro.core.backends import BACKENDS, COORDINATION_NAMES
from repro.core.params import SkeletonParams
from repro.core.results import SearchResult
from repro.core.searchtypes import make_search_type
from repro.core.skeletons import COORDINATIONS, make_skeleton

__all__ = ["main", "build_parser"]


def _add_wire_codec(parser: argparse.ArgumentParser, help: str) -> None:
    parser.add_argument(
        "--wire-codec", default="binary", choices=["json", "binary"], help=help
    )


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--skeleton",
        default="sequential",
        choices=sorted(COORDINATIONS),
        help="search coordination (default: sequential)",
    )
    parser.add_argument(
        "-d", "--depth-cutoff", type=int, default=2, metavar="D",
        help="Depth-Bounded cutoff (default 2)",
    )
    parser.add_argument(
        "-b", "--budget", type=int, default=1000, metavar="N",
        help="Budget backtrack budget (default 1000)",
    )
    parser.add_argument(
        "--chunked", action=argparse.BooleanOptionalAction,
        default=SkeletonParams().chunked,
        help="Stack-Stealing: steal whole lowest levels (--no-chunked: "
        "one node at a time, YewPar's single-node steal)",
    )
    parser.add_argument(
        "--localities", type=int, default=1, help="simulated localities"
    )
    parser.add_argument(
        "--workers", type=int, default=15,
        help="workers per locality (paper default 15)",
    )
    parser.add_argument("--seed", type=int, default=0, help="simulator seed")
    parser.add_argument(
        "--backend", default="sim", choices=list(BACKENDS),
        help="run parallel skeletons on: "
        + "; ".join(
            f"{name} ({'/'.join(row.coordinations)})"
            for name, row in BACKENDS.items()
        ),
    )
    parser.add_argument(
        "--processes", type=int, default=2, metavar="N",
        help="worker processes for --backend processes (default 2)",
    )
    parser.add_argument(
        "--share-poll", type=int, default=64, metavar="N",
        help="processes backend: nodes between shared-incumbent reads",
    )
    parser.add_argument(
        "--cluster-workers", type=int, default=2, metavar="N",
        help="worker nodes for --backend cluster (default 2)",
    )
    _add_wire_codec(
        parser,
        "cluster backend: frame body format on the wire (binary is "
        "compact and fast; json is readable under tcpdump)",
    )
    parser.add_argument(
        "--decisionBound", type=int, default=None, metavar="K",
        help="run as a decision search with this target objective",
    )
    parser.add_argument(
        "--trace", action="store_true", default=False,
        help="print a worker Gantt chart of the (simulated) schedule",
    )


def _params(args: argparse.Namespace) -> SkeletonParams:
    return SkeletonParams(
        d_cutoff=args.depth_cutoff,
        budget=args.budget,
        chunked=args.chunked,
        localities=args.localities,
        workers_per_locality=args.workers,
        seed=args.seed,
        backend=args.backend,
        n_processes=args.processes,
        share_poll=args.share_poll,
        cluster_workers=args.cluster_workers,
        wire_codec=args.wire_codec,
    )


def _report(res: SearchResult, out) -> None:
    print(f"search type: {res.kind}", file=out)
    if res.kind == "decision":
        print(f"found: {res.found}", file=out)
    print(f"value: {res.value}", file=out)
    if res.node is not None:
        print(f"witness: {res.node}", file=out)
    m = res.metrics
    print(
        f"nodes: {m.nodes}  prunes: {m.prunes}  backtracks: {m.backtracks}  "
        f"spawns: {m.spawns}  steals: {m.steals}",
        file=out,
    )
    if res.virtual_time is not None:
        eff = res.efficiency()
        eff_str = f"  efficiency: {eff:.0%}" if eff is not None else ""
        print(
            f"workers: {res.workers}  virtual time: {res.virtual_time:.1f}{eff_str}",
            file=out,
        )
    if res.wall_time is not None:
        print(f"wall time: {res.wall_time:.3f}s", file=out)


def _library_instance(name: str, expect_app: Optional[str] = None):
    from repro.instances.library import _entry, spec_for

    entry = _entry(name)
    if expect_app is not None and entry.app not in (expect_app, "kclique"):
        raise SystemExit(
            f"instance {name!r} belongs to application {entry.app!r}"
        )
    return spec_for(name)


def _run(spec, search_type: str, args: argparse.Namespace, out,
         spec_factory=None, factory_args=(), **type_kwargs):
    skeleton = make_skeleton(args.skeleton, search_type)
    stype = make_search_type(search_type, **type_kwargs)
    cluster = None
    if BACKENDS[args.backend].rebuilds_spec and args.skeleton != "sequential":
        if args.trace:
            raise SystemExit(
                "--trace records the simulated schedule; it is not "
                f"available with --backend {args.backend}"
            )
        if spec_factory is None:
            raise SystemExit(
                f"--backend {args.backend} must rebuild the search on each "
                "worker, which only works for library instances and "
                "parameterised generators (not ad-hoc inputs like -f files)"
            )
    if args.trace and args.skeleton != "sequential":
        from repro.runtime.executor import SimulatedCluster
        from repro.runtime.topology import Topology

        cluster = SimulatedCluster(
            Topology(args.localities, args.workers), trace=True
        )
    res = skeleton.search(
        spec, _params(args), stype=stype, cluster=cluster,
        spec_factory=spec_factory, factory_args=factory_args,
    )
    _report(res, out)
    if res.trace is not None:
        from repro.runtime.trace import render_gantt

        print(render_gantt(res.trace), file=out)
    return res


# -- subcommands ----------------------------------------------------------


def _decision_or(search_type: str, kwargs: dict, args) -> tuple:
    """``--decisionBound K`` turns any search into the decision search
    for objective ``K``."""
    if args.decisionBound is not None:
        return "decision", {"target": args.decisionBound}
    return search_type, kwargs


def _cmd_maxclique(args, out) -> int:
    from repro.apps.maxclique import maxclique_spec
    from repro.instances.dimacs import parse_dimacs

    if args.file:
        graph = parse_dimacs(args.file)
        spec = maxclique_spec(graph, name=args.file)
        factory, fargs = None, ()
    else:
        from repro.instances.library import library_spec_factory

        spec, _, _ = _library_instance(args.instance, "maxclique")
        factory, fargs = library_spec_factory, (args.instance,)
    search_type, kwargs = _decision_or("optimisation", {}, args)
    _run(spec, search_type, args, out, spec_factory=factory,
         factory_args=fargs, **kwargs)
    return 0


def _cmd_generic_library(app: str):
    def cmd(args, out) -> int:
        from repro.instances.library import library_spec_factory

        spec, search_type, kwargs = _library_instance(args.instance, app)
        search_type, kwargs = _decision_or(search_type, kwargs, args)
        _run(spec, search_type, args, out, spec_factory=library_spec_factory,
             factory_args=(args.instance,), **kwargs)
        return 0

    return cmd


def _cmd_uts(args, out) -> int:
    from repro.apps.uts import uts_spec_from_params

    fargs = (args.shape, args.b0, args.depth, args.m, args.q,
             args.tree_seed, f"uts-{args.shape}")
    _run(uts_spec_from_params(*fargs), "enumeration", args, out,
         spec_factory=uts_spec_from_params, factory_args=fargs)
    return 0


def _cmd_ns(args, out) -> int:
    from repro.apps.semigroups import SemigroupInstance, semigroups_spec

    inst = SemigroupInstance(max_genus=args.genus)
    spec = semigroups_spec(inst, name=f"ns-genus-{args.genus}",
                           count_genus=args.genus if args.count_genus else None)
    _run(spec, "enumeration", args, out)
    return 0


def _cmd_tune(args, out) -> int:
    from repro.tuning import tune

    spec, stype_name, kwargs = _library_instance(args.instance)
    stype = make_search_type(stype_name, **kwargs)
    report = tune(
        spec,
        stype,
        localities=args.localities,
        workers_per_locality=args.workers,
        seed=args.seed,
    )
    print(report.render(), file=out)
    return 0


def _parse_param(text: str):
    """Parse one ``key=value`` override, coercing value to bool/int/float
    when it looks like one (SkeletonParams validates the rest)."""
    if "=" not in text:
        raise SystemExit(f"--param expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    if raw.lower() in ("true", "false"):
        return key, raw.lower() == "true"
    for cast in (int, float):
        try:
            return key, cast(raw)
        except ValueError:
            continue
    return key, raw


def _cmd_submit(args, out) -> int:
    import json

    from repro.service.jobs import JobSpec

    stype_kwargs = {}
    if args.target is not None:
        stype_kwargs["target"] = args.target
    try:
        spec = JobSpec(
            app=args.app,
            instance=args.instance,
            skeleton=args.skeleton,
            search_type=args.search_type,
            params=dict(_parse_param(p) for p in args.param),
            stype_kwargs=stype_kwargs,
            priority=args.priority,
            timeout=args.timeout,
            submitter=args.submitter,
        )
    except (ValueError, TypeError) as exc:
        raise SystemExit(f"invalid job: {exc}") from None
    if args.url:
        return _submit_remote(spec, args, out)
    if args.wait:
        raise SystemExit("--wait requires --url (job files are drained "
                         "later by `serve`)")
    line = json.dumps(spec.to_dict(), sort_keys=True)
    if args.jobfile == "-":
        print(line, file=out)
    else:
        with open(args.jobfile, "a") as fh:
            fh.write(line + "\n")
        print(f"queued {spec.app}/{spec.instance} key={spec.key[:12]} "
              f"-> {args.jobfile}", file=out)
    return 0


def _submit_remote(spec, args, out) -> int:
    """POST one job to a running gateway (``submit --url``); with
    ``--wait``, follow the status stream and report the result."""
    from repro.gateway.client import Backpressure, GatewayClient, GatewayError

    try:
        client = GatewayClient(args.url)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    try:
        record = client.submit_paced(spec.to_dict())
    except Backpressure as bp:
        print(f"gateway busy (HTTP {bp.status}), gave up after pacing; "
              f"server suggests retrying in {bp.retry_after:g}s", file=out)
        return 1
    except (GatewayError, OSError) as exc:
        print(f"submit failed: {exc}", file=out)
        return 1
    print(f"queued {spec.app}/{spec.instance} key={spec.key[:12]} "
          f"-> {client.host}:{client.port} "
          f"(job {record['job']}, shard {record['shard']}, "
          f"{record['state']}{', cached' if record.get('from_cache') else ''})",
          file=out)
    if not args.wait:
        return 0
    try:
        for event in client.events(record["job"]):
            kind = event.get("event")
            if kind == "incumbent":
                print(f"  incumbent: {event.get('value')}", file=out)
            elif kind != "ping":
                print(f"  {kind}", file=out)
        status, body = client.result(record["job"])
        if status != 200:
            final = client.job(record["job"])
            print(f"job {final['state']}: {final.get('error')}", file=out)
            return 1
    except (GatewayError, OSError) as exc:
        print(f"wait failed: {exc}", file=out)
        return 1
    from repro.core.results import result_from_dict

    _report(result_from_dict(body["result"]), out)
    return 0


def _read_jobfile(path: str, out, accept) -> int:
    """Hand every job line of ``path`` ('-' reads stdin) to
    ``accept(spec)``.  A line that does not parse, or that ``accept``
    refuses with ValueError, is reported; returns how many were."""
    import json

    from repro.service.jobs import JobSpec

    if path == "-":
        lines = sys.stdin.readlines()
    else:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise SystemExit(f"cannot read jobfile: {exc}") from None
    rejected = 0
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            accept(JobSpec.from_dict(json.loads(line)))
        except (ValueError, KeyError, TypeError) as exc:
            rejected += 1
            print(f"line {lineno}: rejected ({exc})", file=out)
    return rejected


def _check_fleet_bounds(args) -> None:
    if args.min_workers < 1:
        raise SystemExit("--min-workers must be >= 1")
    if args.max_workers < args.min_workers:
        raise SystemExit("--max-workers must be >= --min-workers")


def _service_backend(args, *, name_prefix: str, on_event, metrics=None):
    """``--backend inproc|cluster [--adaptive]`` of `serve`
    and of each `gateway` shard, as ``(backend, deployment)``: backend
    None is inproc (the scheduler's threads search); a deployment is
    for the caller to ``adapt()`` to its queue once that exists."""
    if args.adaptive:
        if args.backend != "cluster":
            raise SystemExit("--adaptive requires --backend cluster")
        _check_fleet_bounds(args)
    if args.backend != "cluster":
        return None, None
    from repro.cluster.backend import ClusterBackend

    if not args.adaptive:
        return ClusterBackend(
            local_workers=args.cluster_workers, wire_codec=args.wire_codec
        ), None
    from repro.deploy import ClusterDeployment, WorkerSpec

    deployment = ClusterDeployment(
        WorkerSpec(name_prefix=name_prefix, wire_codec=args.wire_codec),
        wire_codec=args.wire_codec,
        metrics=metrics,
        on_event=on_event,
    )
    return ClusterBackend(
        deployment=deployment, min_workers=args.min_workers
    ), deployment


def _cmd_gateway(args, out) -> int:
    """Run the HTTP front door until SIGTERM/SIGINT, then drain: finish
    in-flight jobs, cancel queued ones, stop serving."""
    import signal
    import threading

    from repro.gateway import Gateway, GatewayHandle, ShardRouter

    if args.shards < 1:
        raise SystemExit("--shards must be >= 1")
    host, port = _parse_addr(args.listen)

    deployments = []

    def backend_factory(index: int):
        backend, deployment = _service_backend(
            args,
            name_prefix=f"gw{index}",
            on_event=lambda line: print(f"shard {index} fleet: {line}", file=out),
        )
        if deployment is not None:
            deployments.append((index, deployment))
        return backend

    try:
        router = ShardRouter(
            args.shards,
            backend_factory=backend_factory,
            pool=args.pool,
            queue_depth=args.queue_depth,
            per_submitter=args.per_submitter,
            cache_size=args.cache_size,
            cache_ttl=args.cache_ttl,
        )
    except OSError as exc:
        raise SystemExit(f"cannot start shard backends: {exc}") from None
    for index, deployment in deployments:
        # Each shard's fleet follows that shard's own backlog — the queue
        # exists only now, after the router built it.
        deployment.adapt(
            args.min_workers,
            args.max_workers,
            queue_depth=router.shards[index].scheduler.queue.depth,
        )
    handle = GatewayHandle(
        Gateway(router, host=host, port=port, retry_after=args.retry_after)
    )
    try:
        bound_host, bound_port = handle.start()
    except OSError as exc:
        raise SystemExit(f"cannot listen on {host}:{port}: {exc}") from None
    print(f"gateway listening on http://{bound_host}:{bound_port}  "
          f"({args.shards} shard(s), backend {args.backend})", file=out)

    stop = threading.Event()

    def _on_signal(signum, frame):
        stop.set()

    previous = {}
    try:
        for sig in (signal.SIGTERM, signal.SIGINT):
            previous[sig] = signal.signal(sig, _on_signal)
    except ValueError:
        pass  # not the main thread: no handlers, rely on KeyboardInterrupt
    try:
        while not stop.wait(timeout=0.5):
            pass
        print("draining: in-flight jobs finish, queued jobs cancel, "
              "new submissions get 503", file=out, flush=True)
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        handle.close(timeout=args.drain_timeout)
        print("gateway stopped", file=out)
    return 0


def _cmd_gateway_top(args, out) -> int:
    """Live ASCII dashboard over a gateway's ``/metrics`` endpoint."""
    from repro.gateway.dashboard import gateway_top

    iterations = 1 if args.once else args.iterations
    return gateway_top(
        args.url,
        interval=args.interval,
        iterations=iterations,
        out=out,
        clear=not args.no_clear,
    )


def _parse_addr(text: str) -> tuple[str, int]:
    """Parse a ``host:port`` address argument."""
    host, sep, port = text.rpartition(":")
    if not sep or not host:
        raise SystemExit(f"expected host:port, got {text!r}")
    try:
        return host, int(port)
    except ValueError:
        raise SystemExit(f"bad port in {text!r}") from None


def _cmd_cluster_jobs(args, out) -> int:
    """`cluster-coordinator`: wait for --min-workers to connect, run
    each job of a job file across them, report like the single-shot
    commands.  `cluster-deploy` (``args.elastic``) is that plus an
    adaptive local fleet between --min-workers and --max-workers."""
    from repro.cluster.backend import wire_job
    from repro.cluster.coordinator import ClusterError
    from repro.deploy import ClusterDeployment, WorkerSpec

    if args.elastic:
        _check_fleet_bounds(args)
    host, port = _parse_addr(args.listen)
    specs = []
    failed = _read_jobfile(args.jobfile, out, specs.append)
    # Pending jobs count as demand: the fleet bursts while the backlog
    # exists and drains once only the in-flight job remains.
    pending = len(specs)
    try:
        # Until adapt() is called the deployment is a bare coordinator.
        cluster = ClusterDeployment(
            WorkerSpec(name_prefix="deploy", wire_codec=args.wire_codec),
            host=host,
            port=port,
            heartbeat_timeout=args.heartbeat_timeout,
            wire_codec=args.wire_codec,
            on_event=lambda line: print(f"fleet: {line}", file=out),
        )
    except OSError as exc:
        raise SystemExit(f"cannot listen on {host}:{port}: {exc}") from None
    handle = cluster.handle
    try:
        print("coordinator listening on %s:%d" % handle.address, file=out)
        if args.elastic:
            cluster.adapt(
                args.min_workers, args.max_workers, queue_depth=lambda: pending
            )
        try:
            handle.wait_for_workers(args.min_workers, timeout=args.worker_wait)
        except ClusterError as exc:
            raise SystemExit(str(exc)) from None
        if not args.elastic:
            print(f"workers connected: {handle.n_workers()}", file=out)
        for spec in specs:
            pending -= 1
            label = f"{spec.app}/{spec.instance}"
            try:
                res = handle.run_job(wire_job(spec), timeout=spec.timeout)
            except (ClusterError, ValueError) as exc:
                failed += 1
                print(f"== {label}: FAILED ({exc})", file=out)
                continue
            print(f"== {label} (workers: {res.workers}, "
                  f"reassigned: {res.metrics.reassigned})", file=out)
            _report(res, out)
        if args.elastic:
            print(
                f"fleet: peak {cluster.fleet_peak}  "
                f"spawned {cluster.workers_spawned}  "
                f"retired {cluster.workers_retired}",
                file=out,
            )
    finally:
        cluster.close()
    return 1 if failed else 0


def _cmd_cluster_worker(args, out) -> int:
    """Run worker capacity against a coordinator until retired."""
    from repro.cluster.worker import run_worker

    host, port = _parse_addr(args.connect)
    print(f"worker ({args.processes} process(es)) -> {host}:{port}", file=out)
    # With --processes 1 this process *is* the worker: its search
    # thread's neighbours (frame receiver, heartbeat) get the short GIL
    # hand-over the fanned-out worker processes set for themselves.
    # Restored on the way out for callers that run main() in-process.
    from repro.runtime.fleet import WORKER_SWITCH_INTERVAL

    previous = sys.getswitchinterval()
    sys.setswitchinterval(WORKER_SWITCH_INTERVAL)
    try:
        run_worker(
            host, port,
            processes=args.processes,
            name=args.name,
            give_up_after=args.give_up_after,
            wire_codec=args.wire_codec,
        )
    except KeyboardInterrupt:
        return 0
    except ConnectionError as exc:
        print(str(exc), file=out)
        return 1
    finally:
        sys.setswitchinterval(previous)
    print("retired; exiting", file=out)
    return 0


def _cmd_serve(args, out) -> int:
    import json

    from repro.service import JobQueue, JobState, ResultCache, Scheduler
    from repro.service.metrics import ServiceMetrics

    queue = JobQueue(
        max_depth=args.queue_depth, max_per_submitter=args.per_submitter
    )
    cache = ResultCache(capacity=args.cache_size, ttl=args.cache_ttl)
    metrics = ServiceMetrics()
    backend, deployment = _service_backend(
        args, name_prefix="svc", metrics=metrics,
        on_event=lambda line: print(f"fleet: {line}", file=out),
    )
    if deployment is not None:
        # The service queue's depth is part of the demand signal, so
        # the fleet grows while jobs are still waiting for a slot on
        # the (one-job-at-a-time) coordinator.
        deployment.adapt(
            args.min_workers, args.max_workers, queue_depth=queue.depth
        )
    sched = Scheduler(
        backend=backend, queue=queue, cache=cache, n_workers=args.pool,
        metrics=metrics,
    )
    bad_lines = _read_jobfile(args.jobfile, out, sched.submit)
    snap = None
    try:
        jobs = sched.run_until_idle()
        if deployment is not None:
            # Let the policy observe the now-idle queue and drain the
            # fleet back to the floor, then freeze the footer snapshot
            # *before* teardown empties the fleet — so the footer (and
            # the elastic-e2e assertions) see the settled size.
            try:
                deployment.wait_for_fleet(
                    args.min_workers,
                    timeout=deployment.policy.down_cooldown + 10.0,
                )
            except TimeoutError:
                pass  # report the size it got to
            snap = sched.metrics_snapshot()
    finally:
        if hasattr(backend, "close"):
            backend.close()

    for job in jobs:
        print(job.describe(), file=out)
    if snap is None:
        snap = sched.metrics_snapshot()
    print(snap.render(), file=out)

    if args.results:
        with open(args.results, "w") as fh:
            for job in jobs:
                fh.write(
                    json.dumps(
                        {
                            "job": job.id,
                            "key": job.key,
                            "state": job.state.value,
                            "spec": job.spec.to_dict(),
                            "result": job.result.to_dict()
                            if job.result is not None
                            else None,
                            "error": job.error,
                            "from_cache": job.from_cache,
                            "attempts": job.attempts,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )
        print(f"results written to {args.results}", file=out)
    failed = sum(1 for j in jobs if j.state is JobState.FAILED)
    return 1 if failed or bad_lines else 0


def _cmd_verify(args, out) -> int:
    """Run the differential conformance harness (see docs/verify.md)."""
    from repro.analysis import lockorder
    from repro.verify.differential import run_verify
    from repro.verify.repetition import run_repetition

    # Under REPRO_LOCK_TRACE=1 the conformance run doubles as a
    # deadlock detector: every lock acquisition feeds the order graph
    # and a cycle fails the command even if all answers matched.
    graph = lockorder.maybe_install_from_env()
    try:
        common = dict(
            seed=args.seed,
            artifact_dir=args.artifacts,
            log=lambda line: print(line, file=out),
            cluster_timeout=args.cluster_timeout,
        )
        if args.repeat > 1:
            # Repetition mode: fewer instances, each hammered repeat
            # times across worker counts — so the unset default is
            # smaller than the differential sweep's.
            status = run_repetition(
                backend=args.backend if args.backend != "all" else "cluster",
                coordination=args.coordination or "ordered",
                rounds=args.rounds if args.rounds is not None else 3,
                repeat=args.repeat,
                chaos=args.chaos or None,
                **common,
            )
        else:
            status = run_verify(
                backend=args.backend,
                rounds=args.rounds if args.rounds is not None else 20,
                chaos=args.chaos,
                coordination=args.coordination,
                **common,
            )
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if graph is not None:
        cycle = graph.find_cycle()
        if cycle is not None:
            print(
                "lock-order cycle (latent deadlock): "
                + " -> ".join(cycle),
                file=out,
            )
            return 1
        print("lock-order graph acyclic", file=out)
    return status


def _cmd_analyze(args, out) -> int:
    """Static concurrency analysis over the source tree."""
    import json
    from pathlib import Path

    from repro.analysis import (
        analyze_paths,
        apply_baseline,
        load_baseline,
        load_config,
        save_baseline,
    )
    from repro.analysis.rules import RULE_CLASSES

    if args.list_rules:
        for cls in RULE_CLASSES:
            print(f"{cls.name}: {cls.description}", file=out)
        return 0

    root = Path(args.root).resolve()
    rule_names = (
        [r.strip() for r in args.rules.split(",") if r.strip()]
        if args.rules
        else None
    )
    try:
        report = analyze_paths(root, args.paths or None, rules=rule_names)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if not report.files:
        print("no files selected for analysis", file=out)
        return 1

    baseline_path = args.baseline or load_config(root).baseline
    if args.write_baseline:
        if not baseline_path:
            raise SystemExit(
                "--write-baseline needs --baseline or a pyproject"
                " [tool.repro.analyze] baseline entry"
            )
        count = save_baseline(root / baseline_path, report)
        print(
            f"baseline written to {baseline_path} ({count} findings)",
            file=out,
        )
        return 0
    if baseline_path and (root / baseline_path).is_file():
        report = apply_baseline(
            report, load_baseline(root / baseline_path)
        )

    if args.format == "json":
        print(json.dumps(report.to_dict(), sort_keys=True), file=out)
    else:
        for finding in report.findings:
            print(finding.render(), file=out)
        print(
            f"{len(report.findings)} findings"
            f" ({report.errors} errors, {report.warnings} warnings);"
            f" {report.suppressed} suppressed;"
            f" {report.baselined} baselined;"
            f" {report.files} files",
            file=out,
        )
    return 1 if report.errors else 0


def _cmd_list(args, out) -> int:
    from repro.instances.library import APPS, suite

    for app in APPS:
        print(f"{app}:", file=out)
        for name in suite(app):
            print(f"  {name}", file=out)
    return 0


def _add_service_options(p: argparse.ArgumentParser) -> None:
    """What `serve` and each `gateway` shard share: one scheduler over
    one execution backend."""
    p.add_argument("--backend", default="inproc",
                   choices=["inproc", "cluster"],
                   help="execution backend: scheduler threads or a TCP "
                   "cluster coordinator (one per gateway shard)")
    p.add_argument("--cluster-workers", type=int, default=2, metavar="N",
                   help="local worker nodes for --backend cluster")
    _add_wire_codec(p, "cluster backend: frame body format on the wire")
    p.add_argument("--adaptive", action="store_true",
                   help="with --backend cluster: run an elastic worker "
                   "fleet that follows the queue depth (see docs/deploy.md)")
    p.add_argument("--min-workers", type=int, default=1, metavar="N",
                   help="adaptive fleet floor (with --adaptive)")
    p.add_argument("--max-workers", type=int, default=4, metavar="N",
                   help="adaptive fleet ceiling (with --adaptive)")
    p.add_argument("--pool", type=int, default=2,
                   help="scheduler worker threads")
    p.add_argument("--queue-depth", type=int, default=256,
                   help="admission bound on queued jobs")
    p.add_argument("--per-submitter", type=int, default=None,
                   help="per-submitter admission quota")
    p.add_argument("--cache-size", type=int, default=256,
                   help="result cache capacity (entries)")
    p.add_argument("--cache-ttl", type=float, default=None,
                   help="result cache TTL in seconds (default: no expiry)")


def _add_cluster_job_options(p: argparse.ArgumentParser, *, listen: str) -> None:
    """What `cluster-coordinator` and `cluster-deploy` share: a
    coordinator address, a job file, the worker floor to wait for."""
    p.add_argument("--listen", default=listen, metavar="HOST:PORT",
                   help="coordinator listen address (port 0 picks a free one)")
    p.add_argument("--jobfile", default="jobs.jsonl",
                   help="JSONL job file from `submit` ('-' reads stdin)")
    p.add_argument("--min-workers", type=int, default=1, metavar="N",
                   help="wait for this many workers before starting (the "
                   "floor of cluster-deploy's fleet)")
    p.add_argument("--worker-wait", type=float, default=60.0, metavar="S",
                   help="seconds to wait for --min-workers")
    p.add_argument("--heartbeat-timeout", type=float, default=5.0, metavar="S",
                   help="silence before a worker is declared dead")
    _add_wire_codec(p, "preferred frame body format (negotiated per worker)")


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser with all application subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="YewPar-reproduction search applications",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("maxclique", help="maximum clique / k-clique search")
    p.add_argument("-f", "--file", help="DIMACS .clq file")
    p.add_argument("--instance", default="sanr90-1", help="library instance name")
    _add_common(p)
    p.set_defaults(fn=_cmd_maxclique)

    for app, default in (
        ("knapsack", "knap-sim-30"),
        ("tsp", "tsp-rand-12"),
        ("sip", "sip-planted-20-70"),
    ):
        p = sub.add_parser(app, help=f"{app} search over a library instance")
        p.add_argument("--instance", default=default, help="library instance name")
        _add_common(p)
        p.set_defaults(fn=_cmd_generic_library(app))

    p = sub.add_parser("uts", help="unbalanced tree search (node counting)")
    p.add_argument("--shape", default="geometric", choices=["geometric", "binomial"])
    p.add_argument("--b0", type=float, default=3.5, help="branching factor")
    p.add_argument("--depth", type=int, default=8, help="geometric depth cutoff")
    p.add_argument("--m", type=int, default=8, help="binomial children per success")
    p.add_argument("--q", type=float, default=0.1, help="binomial success probability")
    p.add_argument("--tree-seed", type=int, default=42, help="tree shape seed")
    _add_common(p)
    p.set_defaults(fn=_cmd_uts)

    p = sub.add_parser("ns", help="numerical semigroups by genus")
    p.add_argument("--genus", type=int, default=12)
    p.add_argument(
        "--count-genus", action="store_true",
        help="count only semigroups of exactly --genus (default: whole tree)",
    )
    _add_common(p)
    p.set_defaults(fn=_cmd_ns)

    p = sub.add_parser(
        "tune", help="sweep skeletons/knobs on the simulator, recommend one"
    )
    p.add_argument("--instance", default="sanr90-1", help="library instance name")
    _add_common(p)
    p.set_defaults(fn=_cmd_tune)

    p = sub.add_parser("list", help="list the instance library")
    p.set_defaults(fn=_cmd_list)

    p = sub.add_parser(
        "verify",
        help="differential conformance harness: seeded random instances, "
        "dual oracles, per-backend knob sweeps, optional cluster chaos",
    )
    p.add_argument("--backend", default="all",
                   choices=["all", "sequential", *BACKENDS],
                   help="which backend(s) to check (default: all)")
    p.add_argument("--seed", type=int, default=0,
                   help="harness seed; fixes instances, knobs and fault plans")
    p.add_argument("--rounds", type=int, default=None,
                   help="instances to generate (default 20; 3 with --repeat)")
    p.add_argument("--repeat", type=int, default=1, metavar="N",
                   help="repetition oracle: run each cell N times across "
                   "worker counts 1/2/4 (plus a kill_worker chaos round on "
                   "the cluster backend) and require stable values — and, "
                   "for --coordination ordered, bit-identical node counts")
    p.add_argument("--coordination", default=None,
                   choices=COORDINATION_NAMES[1:],  # the parallel ones
                   help="pin every parallel cell to one coordination "
                   "(default: seeded draw; 'ordered' with --repeat)")
    p.add_argument("--chaos", action="store_true", default=False,
                   help="cluster backend: inject a seeded FaultPlan per round")
    p.add_argument("--artifacts", default="verify-artifacts", metavar="DIR",
                   help="directory for shrunk-repro JSON artifacts on failure")
    p.add_argument("--cluster-timeout", type=float, default=60.0, metavar="S",
                   help="per-run wall-clock limit for cluster cells")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser(
        "analyze",
        help="concurrency-aware static analysis: lock discipline, "
        "async blocking, protocol exhaustiveness, factory imports, "
        "cross-thread call safety (see docs/analysis.md)",
    )
    p.add_argument("paths", nargs="*", metavar="PATH",
                   help="files/directories to scan (default: the "
                   "pyproject [tool.repro.analyze] include list)")
    p.add_argument("--rules", default=None, metavar="R1,R2",
                   help="comma-separated rule subset (default: all)")
    p.add_argument("--list-rules", action="store_true", default=False,
                   help="print the rule catalogue and exit")
    p.add_argument("--format", default="text", choices=["text", "json"],
                   help="report format (json schema is stable, v1)")
    p.add_argument("--baseline", default=None, metavar="FILE",
                   help="baseline file of known findings (default: the "
                   "pyproject baseline entry, if the file exists)")
    p.add_argument("--write-baseline", action="store_true", default=False,
                   help="snapshot current error findings as the baseline")
    p.add_argument("--root", default=".", metavar="DIR",
                   help="project root holding pyproject.toml (default .)")
    p.set_defaults(fn=_cmd_analyze)

    p = sub.add_parser(
        "submit", help="append one job to a job file (see `serve`)"
    )
    p.add_argument("--jobfile", default="jobs.jsonl",
                   help="job file to append to ('-' prints the JSON line)")
    p.add_argument("--app", required=True, help="application family")
    p.add_argument("--instance", required=True, help="library instance name")
    p.add_argument("--skeleton", default="sequential",
                   choices=sorted(COORDINATIONS), help="search coordination")
    p.add_argument("--search-type", default=None,
                   choices=["enumeration", "decision", "optimisation"],
                   help="override the instance's registered search type")
    p.add_argument("--target", type=int, default=None,
                   help="decision target objective")
    p.add_argument("--param", action="append", default=[], metavar="K=V",
                   help="SkeletonParams override (repeatable), e.g. d_cutoff=3")
    p.add_argument("--priority", type=int, default=0,
                   help="higher runs earlier within your backlog")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-job wall-clock timeout in seconds")
    p.add_argument("--submitter", default="anon", help="fairness bucket")
    p.add_argument("--url", default=None, metavar="URL",
                   help="POST to a running gateway instead of a job file")
    p.add_argument("--wait", action="store_true",
                   help="with --url: follow the status stream and print "
                   "the final result")
    p.set_defaults(fn=_cmd_submit)

    p = sub.add_parser(
        "gateway",
        help="run the HTTP front door: sharded schedulers, streaming job "
        "status, Prometheus /metrics (SIGTERM drains in-flight jobs)",
    )
    p.add_argument("--listen", default="127.0.0.1:8080", metavar="HOST:PORT",
                   help="listen address (port 0 picks a free port)")
    p.add_argument("--shards", type=int, default=2, metavar="N",
                   help="independent scheduler shards; also the modulus of "
                   "the job-hash routing rule (default 2)")
    _add_service_options(p)
    p.add_argument("--retry-after", type=float, default=1.0, metavar="S",
                   help="Retry-After pacing hint on 429/503 responses")
    p.add_argument("--drain-timeout", type=float, default=120.0, metavar="S",
                   help="max seconds to wait for in-flight jobs on shutdown")
    p.set_defaults(fn=_cmd_gateway)

    p = sub.add_parser(
        "gateway-top",
        help="live ASCII dashboard over a gateway's /metrics endpoint",
    )
    p.add_argument("--url", default="http://127.0.0.1:8080",
                   help="gateway base URL")
    p.add_argument("--interval", type=float, default=1.0, metavar="S",
                   help="seconds between scrapes (default 1)")
    p.add_argument("--iterations", type=int, default=None, metavar="N",
                   help="frames to render (default: until interrupted)")
    p.add_argument("--once", action="store_true",
                   help="print a single frame and exit (CI mode)")
    p.add_argument("--no-clear", action="store_true",
                   help="append frames instead of clearing the screen")
    p.set_defaults(fn=_cmd_gateway_top)

    p = sub.add_parser(
        "serve", help="run a scheduler over a job file (or stdin) to completion"
    )
    p.add_argument("--jobfile", default="jobs.jsonl",
                   help="JSONL job file from `submit` ('-' reads stdin)")
    _add_service_options(p)
    p.add_argument("--results", default=None, metavar="FILE",
                   help="write per-job results as JSONL to FILE")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser(
        "cluster-coordinator",
        help="run a cluster coordinator over a job file (see `submit`)",
    )
    _add_cluster_job_options(p, listen="127.0.0.1:7031")
    p.set_defaults(fn=_cmd_cluster_jobs, elastic=False)

    p = sub.add_parser(
        "cluster-deploy",
        help="run a job file on an elastic, self-scaling worker fleet",
    )
    _add_cluster_job_options(p, listen="127.0.0.1:0")
    p.add_argument("--max-workers", type=int, default=4, metavar="N",
                   help="fleet ceiling under load")
    p.set_defaults(fn=_cmd_cluster_jobs, elastic=True)

    p = sub.add_parser(
        "cluster-worker", help="run a worker node against a coordinator"
    )
    p.add_argument("--connect", default="127.0.0.1:7031", metavar="HOST:PORT",
                   help="coordinator address")
    p.add_argument("--processes", type=int, default=1, metavar="N",
                   help="fan out to N local worker processes")
    p.add_argument("--name", default=None, help="worker name (diagnostics)")
    p.add_argument("--give-up-after", type=float, default=None, metavar="S",
                   help="exit if no coordinator is reachable for S seconds "
                   "(default: retry forever)")
    _add_wire_codec(p, "codecs offered in HELLO (json offers json only — "
                    "the debugging veto)")
    p.set_defaults(fn=_cmd_cluster_worker)

    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """CLI entry point; returns the process exit status."""
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args, out)
    except BrokenPipeError:
        # `repro ... | head` closed the pipe: standard CLI etiquette is
        # to exit quietly rather than traceback.
        return 0


if __name__ == "__main__":
    raise SystemExit(main())

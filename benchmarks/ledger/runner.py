"""One run of one workload: set-up, measured seconds, metrics.

``run_workload`` is the whole measurement.  It derives the inputs from
the seed, sets the system up (several times; ``setup_s`` is the
median), then for the measured seconds runs *rounds* — one pass over
the search cells, then gateway segments until the closed loop has had
its share of the time — tears everything down and turns the raw
repetitions into the declared metrics.  Every timing is normalised by
the calibration readings around it (``calibration.Clock``).  With
``trace`` it alternates traced and untraced rounds, adds the
micro-benches, and reports the per-layer metrics as well.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.local import job_payload
from repro.deploy import ClusterDeployment, WorkerSpec
from repro.runtime.processes import make_stype

from . import micro
from .calibration import Clock
from .cells import SearchCells, cell_name
from .gatewayload import GatewayLoad
from .instances import Inputs, make_inputs
from .spec import COORDINATIONS, END_TO_END, PER_LAYER, WIRE_CODEC, WORKERS, Scale, Workload
from .tracing import Recorder

FLEET_JOIN_TIMEOUT_S = 30.0


@dataclass
class RunResult:
    workload: str
    seed: int
    seconds: float
    trace: bool
    end_to_end: dict
    per_layer: Optional[dict]
    attempted: int
    failures: list
    raw: dict  # every raw repetition behind the medians
    samples: dict  # metric -> sample count
    info: dict
    spans: list = field(default_factory=list)
    span_summary: dict = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return not self.failures and all(
            v is not None and math.isfinite(v) for v in self.end_to_end.values()
        )


def _median(values) -> Optional[float]:
    values = list(values)
    return statistics.median(values) if values else None


def _percentile(values, q: float) -> Optional[float]:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return None
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(a, b) -> Optional[float]:
    return a / b if a is not None and b else None


def _scaled(value, factor: float) -> Optional[float]:
    return None if value is None else value * factor


class _System:
    """The system under test, set up once: specs, fleet, gateway."""

    def __init__(self, inputs: Inputs, load: GatewayLoad, recorder: Recorder, clock: Clock) -> None:
        self.inputs = inputs
        self.load = load
        self.recorder = recorder
        self.clock = clock
        self.fleet = None
        self.setups: list = []  # one calibration.Timed per set-up
        self.phase_s: dict[str, list[float]] = {"instance": [], "fleet": [], "gateway": []}

    def _phase(self, name: str, fn) -> None:
        t0 = time.perf_counter()
        with self.recorder.span(f"setup.{name}"):
            fn()
        self.phase_s[name].append(time.perf_counter() - t0)

    def _build_spec(self) -> None:
        target = self.inputs.target
        target.spec = target.factory(*target.factory_args)

    def _start_fleet(self) -> None:
        """Spawn 2 workers, wait for both to connect, and run one
        untimed job on a small sibling so each has imported the spec
        factory and searched once."""
        self.fleet = ClusterDeployment(
            WorkerSpec(name_prefix="ledger", wire_codec=WIRE_CODEC), wire_codec=WIRE_CODEC
        )
        self.fleet.scale(WORKERS)
        self.fleet.wait_for_workers(WORKERS, timeout=FLEET_JOIN_TIMEOUT_S)
        target = self.inputs.target
        self.fleet.run_job(
            job_payload(
                target.factory, target.sibling_args, make_stype(target.kind, {}),
                coordination="budget",
            ),
            timeout=FLEET_JOIN_TIMEOUT_S,
        )

    def up(self) -> None:
        with self.clock.around("pair") as timed:
            with self.recorder.span("setup"):
                self._phase("instance", self._build_spec)
                self._phase("fleet", self._start_fleet)
                self._phase("gateway", self.load.start)
        self.setups.append(timed)

    def normalise(self) -> list:
        """Once the run's calibration readings are all in: the set-up
        phases become normalised seconds; returns those of each set-up."""
        speeds = [self.clock.speed(timed) for timed in self.setups]
        for phases in self.phase_s.values():
            phases[:] = [raw / speed for raw, speed in zip(phases, speeds)]
        return [timed.seconds / speed for timed, speed in zip(self.setups, speeds)]

    def down(self) -> None:
        self.load.close()
        if self.fleet is not None:
            self.fleet.close()
            self.fleet = None


def _measure(cells: SearchCells, load: GatewayLoad, workload: Workload, seconds: float,
             scale: Scale, trace: bool) -> int:
    """Rounds for ``seconds``: a search pass, then gateway segments
    until the loop has had ``gateway_share`` of the time so far.  A new
    round starts only if the previous one's duration still fits (and
    ``min_rounds`` always run).  With ``trace`` odd rounds record spans
    and even ones do not (at least one of each), so both halves see the
    same machine state."""
    recorder = cells.recorder
    owed = workload.gateway_share / (1.0 - workload.gateway_share)
    min_rounds = max(scale.min_rounds, 2) if trace else scale.min_rounds
    started = time.perf_counter()
    rounds = 0
    last = search_s = gateway_s = 0.0
    while rounds < min_rounds or time.perf_counter() - started + last <= seconds:
        recorder.enabled = trace and rounds % 2 == 1
        t0 = time.perf_counter()
        cells.run_pass()
        t1 = time.perf_counter()
        search_s += t1 - t0
        while True:
            load.run_segment(scale.segment_s)
            if time.perf_counter() - t1 + gateway_s >= owed * search_s:
                break
        gateway_s += time.perf_counter() - t1
        last = time.perf_counter() - t0
        rounds += 1
    return rounds


def run_workload(
    workload: Workload, seed: int, seconds: float, trace: bool, scale: Scale
) -> RunResult:
    recorder = Recorder(run_id=f"{workload.name}-seed{seed}")
    recorder.enabled = trace
    clock = Clock()
    system = None
    micro_out: dict = {}
    try:
        t0 = time.perf_counter()
        inputs = make_inputs(workload, seed, scale)
        load = GatewayLoad(inputs.gateway_seed, recorder, clock)
        inputs_s = time.perf_counter() - t0
        system = _System(inputs, load, recorder, clock)
        for rep in range(scale.setups):
            if rep:
                system.down()
            system.up()
        cells = SearchCells(inputs.target, workload.knobs, system.fleet, recorder, clock)
        rounds = _measure(cells, load, workload, seconds, scale, trace)
        setup_s = system.normalise()
        cells.normalise()
        load.normalise()
        scraped = load.scrape()
        if trace:
            recorder.enabled = True
            micro_out = _run_micro(workload, inputs, system, recorder, scale)
    finally:
        if system is not None:
            system.down()
        clock.close()

    # Children are reaped by now, so RUSAGE_CHILDREN covers the fleet.
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    gateway = _gateway_stats(load.segments)
    end_to_end, counts = _end_to_end(cells, gateway, setup_s, peak_kb)
    failures = list(cells.failures) + [
        f"gateway job on {s['instance']}: {s['error']}" for s in load.samples if s["error"]
    ]
    per_layer = None
    if trace:
        per_layer = _per_layer(cells, gateway, scraped, system.phase_s, micro_out)
        per_layer["bench.passes"] = rounds
        per_layer["bench.spans"] = len(recorder.spans)
        for kind, readings in clock.readings.items():
            per_layer[f"bench.calibration.{kind}_ms"] = _median(r[-1] for r in readings) * 1e3
        assert set(per_layer) == set(PER_LAYER), set(per_layer) ^ set(PER_LAYER)
    return RunResult(
        workload=workload.name,
        seed=seed,
        seconds=seconds,
        trace=trace,
        end_to_end=end_to_end,
        per_layer=per_layer,
        attempted=cells.attempted + len(load.samples),
        failures=failures,
        raw={
            "setup_s": setup_s,
            "setup_phase_s": system.phase_s,
            "cells": cells.reps,
            "gateway_segments": gateway["segments"],
            "calibration_s": clock.readings,
        },
        samples=counts,
        info={
            "inputs_s": inputs_s,
            "target": inputs.target.label,
            "sequential_counters": dict(
                zip(("nodes", "prunes", "backtracks"), cells.sequential_counters())
            ),
            "rounds": rounds,
            "knobs": dict(workload.knobs),
        },
        spans=recorder.spans,
        span_summary=recorder.summary(),
    )


# -- metrics -------------------------------------------------------------------


def _gateway_stats(segments: list) -> dict:
    """Per segment the normalised rate and latency percentiles; the
    end-to-end numbers are medians over the untraced segments."""
    rows = []
    for segment in segments:
        latency = [s["latency_ms"] for s in segment["samples"] if s["error"] is None]
        if latency:
            rows.append({
                "traced": segment["traced"],
                "start": segment["start"],
                "seconds": segment["seconds"],
                "speed": segment["speed"],
                "requests": len(latency),
                "jobs_per_s": len(latency) / segment["seconds"] * segment["speed"],
                "latency_p50_ms": _percentile(latency, 0.50),
                "latency_p95_ms": _percentile(latency, 0.95),
            })
    untraced = [row for row in rows if not row["traced"]]
    return {
        "segments": rows,
        "measured": [s for seg in segments for s in seg["samples"] if s["error"] is None],
        "requests": sum(row["requests"] for row in untraced),
        **{
            name: _median(row[name] for row in untraced)
            for name in ("jobs_per_s", "latency_p50_ms", "latency_p95_ms")
        },
        "request_ms": {
            traced: _median(
                s["latency_ms"] for seg in segments if seg["traced"] == traced
                for s in seg["samples"] if s["error"] is None
            )
            for traced in (False, True)
        },
    }


def _end_to_end(cells: SearchCells, gateway: dict, setup_s: list, peak_kb: int) -> tuple:
    walls = {
        name: cells.values(name, traced=False)
        for name in ["seq", "handwritten"]
        + [cell_name(rt, c) for rt in ("procs", "cluster") for c in COORDINATIONS]
    }
    out = {
        "seq_wall_s": _median(walls["seq"]),
        # Sequential and hand-written reps are adjacent in every pass and
        # share a calibration reading: the per-pair ratio needs no other.
        "seq_overhead_ratio": _median(
            s / h for s, h in zip(walls["seq"], walls["handwritten"])
        ),
        "jobs_per_s": gateway["jobs_per_s"],
        "latency_p50_ms": gateway["latency_p50_ms"],
        "latency_p95_ms": gateway["latency_p95_ms"],
        "setup_s": _median(setup_s),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    counts = {
        "seq_wall_s": len(walls["seq"]),
        "seq_overhead_ratio": len(walls["handwritten"]),
        "setup_s": len(setup_s),
        "peak_rss_mb": 1,
    }
    for name in ("jobs_per_s", "latency_p50_ms", "latency_p95_ms"):
        counts[name] = gateway["requests"]
    for rt in ("procs", "cluster"):
        for c in COORDINATIONS:
            out[f"{rt}_{c}_wall_s"] = _median(walls[cell_name(rt, c)])
            counts[f"{rt}_{c}_wall_s"] = len(walls[cell_name(rt, c)])
    assert set(out) == set(END_TO_END), set(out) ^ set(END_TO_END)
    return out, counts


def _run_micro(workload, inputs: Inputs, system: _System, recorder: Recorder, scale: Scale):
    """Every micro-bench, each under its own span."""
    budget, sample, reps = scale.micro_target_s, scale.micro_sample, scale.micro_reps
    first = inputs.target
    stype = make_stype(first.kind, {})
    out: dict = {}

    def bench(name: str, fn):
        with recorder.span(f"micro.{name}"):
            out[name] = fn()

    for family, target in inputs.micro.items():
        spec = target.spec or target.factory(*target.factory_args)
        expanded, visited = micro.sample_nodes(spec, make_stype(target.kind, {}), sample)
        bench(f"{family}.generator", lambda: micro.generator_s_per_child(spec, expanded))
        bench(f"{family}.handwritten", lambda: micro.handwritten_s_per_node(target))
        if family == "maxclique":
            bench("maxclique.bound", lambda: micro.bound_s_per_call(spec, visited))

    expanded, visited = micro.sample_nodes(first.spec, stype, sample)
    sibling = first.factory(*first.sibling_args)
    bench("process", lambda: micro.process_s_per_call(first.spec, stype, visited))
    bench("split", lambda: micro.split_s(first.spec, 40 * reps))
    bench("stepped", lambda: micro.stepped_s_per_node(sibling, stype))
    bench("fixed_bound", lambda: micro.fixed_bound_s_per_node(sibling, stype))
    bench("frontier", lambda: micro.frontier(first.spec, stype, workload.knobs["d_cutoff"]))
    bench("spawn", lambda: micro.spawn_s(reps))
    bench("task_pickle", lambda: micro.task_pickle(visited, budget))
    bench("job_floor", lambda: micro.job_floor_s(system.fleet, 2 * reps))
    bench("lease_rtt", lambda: micro.lease_rtt_s(first, sample // 10))
    bench("frame_rtt", lambda: micro.frame_rtt_s(budget))
    for frame, build in micro.codec_frames(first.spec, expanded).items():
        bench(f"codec.{frame}", lambda: micro.codec_costs(build, budget))
    bench("service", lambda: micro.service_costs(budget, reps))
    bench("http", lambda: micro.http_costs(budget))
    bench("healthz", lambda: micro.healthz_rtt_s(system.load.handle.url, 6 * reps))
    bench("direct_search", micro.direct_search_s)
    return out


def _per_layer(cells, gateway, scraped, phase_s, m) -> dict:
    """The per-layer metrics, in their declared units."""
    ns, us, ms = 1e9, 1e6, 1e3
    nodes, prunes, backtracks = cells.sequential_counters()
    seq = _median(cells.values("seq"))
    hand = _median(cells.values("handwritten"))
    out = {
        "apps.uts.generator_ns_per_child": m["uts.generator"] * ns,
        "apps.uts.handwritten_ns_per_node": m["uts.handwritten"] * ns,
        "apps.maxclique.generator_ns_per_child": m["maxclique.generator"] * ns,
        "apps.maxclique.bound_ns_per_call": m["maxclique.bound"] * ns,
        "apps.maxclique.handwritten_ns_per_node": m["maxclique.handwritten"] * ns,
        "instances.build_s": _median(phase_s["instance"]),
        "core.sequential.ns_per_node": _scaled(_ratio(seq, nodes), ns),
        "core.sequential.overhead_ns_per_node": (
            None if seq is None or hand is None else (seq - hand) / nodes * ns
        ),
        "core.sequential.nodes": nodes,
        "core.sequential.prunes": prunes,
        "core.sequential.backtracks": backtracks,
        "core.searchtypes.process_ns_per_call": m["process"] * ns,
        "core.tasks.split_us": m["split"] * us,
        "core.tasks.stepped_ns_per_node": m["stepped"] * ns,
        "core.ordered.frontier_ms": m["frontier"][0] * ms,
        "core.ordered.frontier_tasks": m["frontier"][1],
        "core.ordered.fixed_bound_ns_per_node": m["fixed_bound"] * ns,
        "runtime.processes.spawn_ms": m["spawn"] * ms,
        "runtime.processes.task_pickle_us": m["task_pickle"][0] * us,
        "runtime.processes.task_pickle_bytes": m["task_pickle"][1],
        "cluster.coordinator.job_floor_ms": m["job_floor"] * ms,
        "cluster.coordinator.lease_rtt_us": m["lease_rtt"] * us,
        "cluster.protocol.frame_rtt_us": m["frame_rtt"] * us,
        "cluster.fleet_start_s": _median(phase_s["fleet"]),
        "service.jobs.key_us": m["service"]["key"] * us,
        "service.cache.hit_us": m["service"]["cache_hit"] * us,
        "service.queue.push_pop_us": m["service"]["push_pop"] * us,
        "service.scheduler.roundtrip_ms": m["service"]["roundtrip"] * ms,
        "service.scheduler.cached_roundtrip_ms": m["service"]["cached_roundtrip"] * ms,
        "gateway.http.parse_us": m["http"]["parse"] * us,
        "gateway.http.response_us": m["http"]["response"] * us,
        "gateway.shard.route_us": m["http"]["route"] * us,
        "gateway.healthz_rtt_ms": m["healthz"] * ms,
    }
    for frame in ("task", "offcut", "result", "incumbent"):
        encode, decode, size = m[f"codec.{frame}"]
        out[f"cluster.codec.binary.{frame}.encode_us"] = encode * us
        out[f"cluster.codec.binary.{frame}.decode_us"] = decode * us
        out[f"cluster.codec.binary.{frame}.bytes"] = size

    # Sequential CPU is its wall: one thread, nothing to wait for.
    coordinator_cpu = coordinator_tasks = 0.0
    for rt, prefix in (("procs", "runtime.processes"), ("cluster", "cluster")):
        for c in COORDINATIONS:
            name = cell_name(rt, c)
            wall = _median(cells.values(name))
            tasks = _median(cells.values(name, "tasks"))
            work = _ratio(_median(cells.values(name, "nodes")), nodes)
            cpu = _median(cells.values(name, "cpu"))
            out[f"{prefix}.{c}.speedup_vs_seq"] = _ratio(seq, wall)
            out[f"{prefix}.{c}.tasks"] = tasks
            out[f"{prefix}.{c}.nodes"] = _median(cells.values(name, "nodes"))
            out[f"{prefix}.{c}.work_ratio"] = work
            if rt == "procs":
                out[f"{prefix}.{c}.worker_cpu_s"] = cpu
                # CPU the workers burnt beyond searching their share of
                # the nodes at the sequential rate, per task moved.
                out[f"{prefix}.{c}.overhead_us_per_task"] = (
                    None if None in (cpu, seq, work, tasks)
                    else (cpu - seq * work) / max(1.0, tasks) * us
                )
            elif cpu is not None:
                coordinator_cpu += cpu
                coordinator_tasks += tasks
    out["cluster.coordinator.cpu_s"] = coordinator_cpu
    out["cluster.coordinator.cpu_us_per_task"] = (
        coordinator_cpu / max(1.0, coordinator_tasks) * us
    )

    measured = gateway["measured"]
    hits = [s for s in measured if s["hot"] and s.get("from_cache")]
    misses = [s for s in measured if not s["hot"]]
    lookups = scraped["cache_hits"] + scraped["cache_misses"]
    direct = sum(m["direct_search"][s["instance"]] for s in misses)
    out.update({
        "gateway.submit_rtt_ms": _scaled(_median(s["submit_s"] for s in measured), ms),
        "gateway.hit_latency_p50_ms": _median(s["latency_ms"] for s in hits),
        "gateway.miss_latency_p50_ms": _median(s["latency_ms"] for s in misses),
        "gateway.latency_p99_ms": _percentile([s["latency_ms"] for s in measured], 0.99),
        "gateway.polls_per_job": statistics.mean(s["polls"] for s in measured),
        "gateway.executed": scraped["executed"],
        "gateway.cache_hit_ratio": _ratio(scraped["cache_hits"], lookups),
        "gateway.rejected_429": scraped["rejected_429"],
        "gateway.search_ms_per_job": direct / max(1, len(misses)) * ms,
        "gateway.search_share": _ratio(direct, sum(s["t1"] - s["t0"] for s in misses)),
    })

    # One of each operation, traced against untraced.
    traced = untraced = 0.0
    for name in cells.reps:
        t, u = _median(cells.values(name, traced=True)), _median(cells.values(name, traced=False))
        if t is not None and u is not None:
            traced, untraced = traced + t, untraced + u
    t, u = gateway["request_ms"][True], gateway["request_ms"][False]
    if t is not None and u is not None:
        traced, untraced = traced + t / ms, untraced + u / ms
    out["bench.trace_overhead_frac"] = _ratio(traced - untraced, untraced)
    return out

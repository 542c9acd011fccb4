"""Prometheus text exposition (and a small parser) for the gateway.

``GET /metrics`` renders every shard's :class:`ServiceMetrics` snapshot
plus — when the shard runs over the cluster backend — its coordinator's
``load_stats`` in the Prometheus text format (version 0.0.4): one
``# HELP``/``# TYPE`` pair per family, one sample per shard, label
values escaped per the exposition rules (``\\`` → ``\\\\``, ``"`` →
``\\"``, newline → ``\\n``).  The SetupBench exemplar validates services
by scraping exactly such an endpoint; :func:`parse_metrics` is the
other half of that contract — the dashboard, the tests and CI all
consume the endpoint through it, so the format is round-tripped in
anger, not just eyeballed.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping, Optional, Tuple

from repro.service.metrics import MetricsSnapshot

__all__ = [
    "escape_label_value",
    "escape_help",
    "sample_line",
    "render_families",
    "render_service",
    "parse_metrics",
]


def escape_label_value(value: str) -> str:
    """Escape a label value per the text exposition rules."""
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def escape_help(text: str) -> str:
    """Escape a ``# HELP`` string (backslash and newline only)."""
    return str(text).replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value) -> str:
    """Render a sample value: integers exactly, floats via repr."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(value)


def sample_line(
    name: str, value, labels: Optional[Mapping[str, str]] = None
) -> str:
    """One sample line: ``name{k="v",...} value``."""
    if labels:
        inner = ",".join(
            f'{k}="{escape_label_value(v)}"' for k, v in labels.items()
        )
        return f"{name}{{{inner}}} {_format_value(value)}"
    return f"{name} {_format_value(value)}"


# A family is (name, type, help, [(labels, value), ...]); samples with a
# None value are skipped (e.g. latency quantiles before the first job).
Family = Tuple[str, str, str, Iterable[Tuple[Optional[Mapping[str, str]], object]]]


def render_families(families: Iterable[Family]) -> str:
    """Render families to exposition text (families without live
    samples are omitted entirely)."""
    lines: list[str] = []
    for name, mtype, help_text, samples in families:
        body = [
            sample_line(name, value, labels)
            for labels, value in samples
            if value is not None
        ]
        if not body:
            continue
        lines.append(f"# HELP {name} {escape_help(help_text)}")
        lines.append(f"# TYPE {name} {mtype}")
        lines.extend(body)
    return "\n".join(lines) + "\n"


def _snapshot_families(
    snapshots: Mapping[str, MetricsSnapshot]
) -> list[Family]:
    """Metric families over per-shard service snapshots."""
    shards = list(snapshots.items())

    def per_shard(getter) -> list:
        return [({"shard": label}, getter(snap)) for label, snap in shards]

    families: list[Family] = [
        ("repro_jobs_submitted_total", "counter",
         "Jobs accepted into the service (incl. cache hits and rejects).",
         per_shard(lambda s: s.submitted)),
        ("repro_jobs_rejected_total", "counter",
         "Submissions turned away by admission control (backpressure).",
         per_shard(lambda s: s.rejected)),
        ("repro_jobs_coalesced_total", "counter",
         "Duplicate submissions attached to an in-flight twin.",
         per_shard(lambda s: s.coalesced)),
        ("repro_jobs_retried_total", "counter",
         "Attempts re-dispatched after a worker crash.",
         per_shard(lambda s: s.retries)),
        ("repro_jobs_executed_total", "counter",
         "Jobs actually handed to a backend (the dedup witness).",
         per_shard(lambda s: s.executed)),
        ("repro_cache_hits_total", "counter",
         "Result-cache hits, including coalesced fan-outs.",
         per_shard(lambda s: s.cache_hits)),
        ("repro_cache_misses_total", "counter",
         "Result-cache misses.",
         per_shard(lambda s: s.cache_misses)),
        ("repro_queue_depth", "gauge",
         "Live queued jobs awaiting a worker.",
         per_shard(lambda s: s.queue_depth)),
        ("repro_jobs_running", "gauge",
         "Jobs currently executing on a backend.",
         per_shard(lambda s: s.running)),
        ("repro_job_latency_seconds", "summary",
         "Submit-to-terminal latency quantiles over completed jobs.",
         [({"shard": label, "quantile": q}, v)
          for label, snap in shards
          for q, v in (("0.5", snap.latency_p50), ("0.95", snap.latency_p95))]),
        ("repro_jobs_completed_total", "counter",
         "Jobs by terminal state.",
         [({"shard": label, "state": state}, count)
          for label, snap in shards
          for state, count in sorted(snap.jobs_by_state.items())]),
        ("repro_fleet_workers", "gauge",
         "Elastic fleet size (live workers).",
         [({"shard": label}, snap.fleet_size)
          for label, snap in shards if snap.fleet_peak]),
        ("repro_fleet_workers_peak", "gauge",
         "Elastic fleet high-water mark.",
         [({"shard": label}, snap.fleet_peak)
          for label, snap in shards if snap.fleet_peak]),
    ]
    return families


def _load_stat_families(load_stats: Mapping[str, dict]) -> list[Family]:
    """Metric families over per-shard coordinator load snapshots."""
    shards = list(load_stats.items())
    if not shards:
        return []

    def per_shard(key) -> list:
        return [({"shard": label}, stats.get(key)) for label, stats in shards]

    return [
        ("repro_cluster_workers_connected", "gauge",
         "Cluster workers connected to this shard's coordinator.",
         per_shard("connected")),
        ("repro_cluster_workers_retiring", "gauge",
         "Cluster workers draining toward retirement.",
         per_shard("retiring")),
        ("repro_cluster_job_active", "gauge",
         "Whether the shard's coordinator is running a job right now.",
         [(labels, int(bool(v))) for labels, v in per_shard("job_active")]),
        ("repro_cluster_queued_tasks", "gauge",
         "Subtree tasks queued on the coordinator.",
         per_shard("queued_tasks")),
        ("repro_cluster_leased_tasks", "gauge",
         "Subtree tasks leased to workers.",
         per_shard("leased_tasks")),
        ("repro_cluster_outstanding_tasks", "gauge",
         "Outstanding tasks (termination counter).",
         per_shard("outstanding")),
        ("repro_cluster_tasks_reassigned", "gauge",
         "Tasks re-leased after worker death in the active job.",
         per_shard("reassigned")),
    ]


def render_service(
    snapshots: Mapping[str, MetricsSnapshot],
    *,
    load_stats: Optional[Mapping[str, dict]] = None,
    gateway: Optional[Mapping[str, object]] = None,
    requests: Optional[Mapping[Tuple[str, int], int]] = None,
) -> str:
    """The full ``/metrics`` document.

    Args:
        snapshots: shard label -> :class:`MetricsSnapshot`.
        load_stats: shard label -> coordinator ``load_stats()`` dict
            (cluster-backed shards only).
        gateway: gateway-level gauges (``shards``, ``draining``,
            ``streams_active``, ``uptime_seconds``) and the
            ``connections`` counter.
        requests: ``(method, status)`` -> count of HTTP requests served.
    """
    families = _snapshot_families(snapshots)
    families.extend(_load_stat_families(load_stats or {}))
    gw = gateway or {}
    families.extend([
        ("repro_gateway_shards", "gauge",
         "Scheduler shards behind this gateway.",
         [(None, gw.get("shards"))]),
        ("repro_gateway_draining", "gauge",
         "1 while the gateway is draining toward shutdown.",
         [(None, gw.get("draining"))]),
        ("repro_gateway_streams_active", "gauge",
         "Open chunked status streams.",
         [(None, gw.get("streams_active"))]),
        ("repro_gateway_uptime_seconds", "gauge",
         "Seconds since the gateway started serving.",
         [(None, gw.get("uptime_seconds"))]),
        ("repro_gateway_connections_total", "counter",
         "TCP connections accepted (each carries one or more requests).",
         [(None, gw.get("connections"))]),
        ("repro_gateway_requests_total", "counter",
         "HTTP requests served, by method and status code.",
         [({"method": method, "code": str(code)}, count)
          for (method, code), count in sorted((requests or {}).items())]),
    ])
    return render_families(families)


def parse_metrics(text: str) -> dict:
    """Parse exposition text back into ``{(name, labels): value}``.

    ``labels`` is a sorted tuple of ``(key, value)`` pairs (empty for
    unlabelled samples).  Handles the escapes :func:`escape_label_value`
    produces; used by the dashboard, the tests and CI to assert on the
    endpoint rather than on internals.
    """
    out: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "{" in line:
            name, _, rest = line.partition("{")
            labels_text, _, value_text = rest.rpartition("} ")
            labels = []
            i = 0
            while i < len(labels_text):
                eq = labels_text.index("=", i)
                key = labels_text[i:eq].lstrip(",").strip()
                # value is a quoted string starting at eq+1
                assert labels_text[eq + 1] == '"'
                j = eq + 2
                buf = []
                while labels_text[j] != '"':
                    if labels_text[j] == "\\":
                        nxt = labels_text[j + 1]
                        buf.append(
                            {"n": "\n", "\\": "\\", '"': '"'}.get(nxt, nxt)
                        )
                        j += 2
                    else:
                        buf.append(labels_text[j])
                        j += 1
                labels.append((key, "".join(buf)))
                i = j + 1
            out[(name, tuple(sorted(labels)))] = float(value_text)
        else:
            name, _, value_text = line.rpartition(" ")
            out[(name, ())] = float(value_text)
    return out

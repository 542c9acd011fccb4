"""The named instance registry used by tests, examples and benches.

Every entry is a seeded, deterministic stand-in for one of the paper's
standard challenge instances, at laptop scale (DESIGN.md §2).  Names
follow the families they imitate (``brock*``, ``p_hat*``, ``san*``,
``sanr*``, ``mann*`` for MaxClique; ``tsp*``; ``knap*``; ``sip*``;
``uts*``; ``ns*``).

API:

- :func:`load_instance(name)` — the raw instance object (a
  :class:`Graph`, :class:`KnapsackInstance`, ...).
- :func:`spec_for(name)` — the (memoised) :class:`SearchSpec` plus the
  search type kwargs the instance is meant to run with.
- :func:`resolve_job(name, search_type, stype_kwargs)` — the spec and
  the search type object a library job names.
- :func:`suite(app)` — the instance names of one application's
  evaluation suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any, Callable, Optional

from repro.apps.knapsack import KnapsackInstance, knapsack_spec
from repro.apps.maxclique import maxclique_spec
from repro.apps.semigroups import SemigroupInstance, semigroups_spec
from repro.apps.sip import SIPInstance, sip_spec
from repro.apps.tsp import TSPInstance, tsp_spec
from repro.apps.uts import UTSInstance, uts_spec
from repro.core.searchtypes import SearchType, make_search_type
from repro.core.space import SearchSpec
from repro.instances.graphs import (
    brock_like,
    p_hat_like,
    planted_clique,
    uniform_graph,
)
from repro.util.rng import SplitMix64

__all__ = [
    "Entry",
    "load_instance",
    "spec_for",
    "resolve_job",
    "library_spec_factory",
    "instance_names",
    "suite",
    "APPS",
]

APPS = ("maxclique", "kclique", "tsp", "knapsack", "sip", "uts", "ns")


@dataclass(frozen=True)
class Entry:
    """One registry entry: how to build the instance and its spec."""

    name: str
    app: str
    build: Callable[[], Any]
    make_spec: Callable[[Any], SearchSpec]
    search_type: str = "optimisation"
    stype_kwargs: dict = field(default_factory=dict)


# -- auxiliary instance builders ------------------------------------------------


def random_knapsack(
    n: int,
    seed: int,
    *,
    kind: str = "strong",
    max_weight: int = 100,
    band: float = 0.7,
    bump_divisor: int = 10,
) -> KnapsackInstance:
    """Random knapsack in Pisinger's classic families.

    ``uncorrelated``: independent profits/weights; ``weak``: profit
    tracks weight with noise; ``strong``: profit = weight + constant;
    ``similar``: strongly-correlated with weights drawn from the narrow
    band ``[band*max_weight, max_weight]`` and profit = weight +
    ``max_weight/bump_divisor`` — near-identical densities make the
    Dantzig bound nearly uninformative and blow the tree up, the
    hardest of the classic families for branch and bound.  Tightening
    ``band`` towards 1 and raising ``bump_divisor`` hardens instances.
    """
    rng = SplitMix64(seed)
    if kind == "similar":
        if not 0.0 < band <= 1.0:
            raise ValueError("band must be in (0, 1]")
        lo = int(band * max_weight)
        weights = [lo + rng.randrange(max_weight - lo + 1) for _ in range(n)]
        profits = [w + max(1, max_weight // bump_divisor) for w in weights]
    else:
        weights = [1 + rng.randrange(max_weight) for _ in range(n)]
        if kind == "uncorrelated":
            profits = [1 + rng.randrange(max_weight) for _ in range(n)]
        elif kind == "weak":
            spread = max(1, max_weight // 10)
            profits = [
                max(1, w + rng.randrange(2 * spread + 1) - spread) for w in weights
            ]
        elif kind == "strong":
            profits = [w + max_weight // 10 for w in weights]
        else:
            raise ValueError(f"unknown knapsack family {kind!r}")
    capacity = sum(weights) // 2
    return KnapsackInstance.sorted_by_density(profits, weights, capacity)


def random_tsp(n: int, seed: int, *, scale: int = 1000) -> TSPInstance:
    """Uniform random Euclidean points in a square (rounded distances)."""
    rng = SplitMix64(seed)
    points = [(scale * rng.random(), scale * rng.random()) for _ in range(n)]
    return TSPInstance.from_points(points)


def random_sip(
    pattern_n: int, target_n: int, target_p: float, seed: int, *, planted: bool = True
) -> SIPInstance:
    """SIP instance: random target; pattern sampled from it if planted.

    A planted pattern guarantees satisfiability (the interesting search
    regime for decision-speedup studies: the witness exists but search
    order determines how fast it is found); an unplanted uniform pattern
    is usually unsatisfiable, exercising exhaustive refutation.
    """
    from repro.apps.graph import Graph

    target = uniform_graph(target_n, target_p, seed)
    rng = SplitMix64(seed ^ 0x51B)
    if not planted:
        pattern = uniform_graph(pattern_n, min(1.0, target_p + 0.1), seed ^ 0xFACE)
        return SIPInstance.build(pattern, target)
    # Grow a random connected vertex set in the target, take its induced
    # subgraph as the pattern.
    start = rng.randrange(target_n)
    chosen = [start]
    chosen_set = {start}
    while len(chosen) < pattern_n:
        frontier = sorted(
            {
                w
                for v in chosen
                for w in target.neighbours(v)
                if w not in chosen_set
            }
        )
        if not frontier:  # disconnected target: jump to a fresh vertex
            rest = [v for v in range(target_n) if v not in chosen_set]
            frontier = rest
        nxt = frontier[rng.randrange(len(frontier))]
        chosen.append(nxt)
        chosen_set.add(nxt)
    index = {v: i for i, v in enumerate(chosen)}
    pattern = Graph(pattern_n)
    for i, u in enumerate(chosen):
        for v in chosen[i + 1 :]:
            if target.has_edge(u, v):
                pattern.add_edge(index[u], index[v])
    return SIPInstance.build(pattern, target)


def decoy_sip(
    pattern_n: int, filler_n: int, hub_n: int, pattern_p: float,
    filler_p: float, seed: int,
) -> SIPInstance:
    """A SIP instance built to exhibit an *acceleration anomaly* (§2.1).

    The target has three regions: a planted exact copy of the pattern
    (so the answer is SAT), ``hub_n`` decoy hubs adjacent to everything
    in a ``filler_n``-vertex random region, and the filler itself.  The
    pattern's vertex 0 is adjacent to all other pattern vertices, so it
    is matched first (fail-first order), and its only degree-compatible
    images are the decoy hubs followed by its planted image — filler
    degrees are capped strictly below by construction.  A sequential
    (or any strictly depth-first) search therefore grinds through the
    hubs' barren-but-deep subtrees before touching the planted copy,
    while a search that runs several root branches concurrently finds
    the witness almost immediately.  Degree of difficulty is set by
    ``filler_n``/``filler_p``; the skew does not depend on timing, so
    the anomaly is reproducible.
    """
    from repro.apps.graph import Graph

    pat = uniform_graph(pattern_n, pattern_p, seed ^ 0xAAA)
    pattern = Graph(pattern_n, list(pat.adj))
    for v in range(1, pattern_n):
        if not pattern.has_edge(0, v):
            pattern.add_edge(0, v)
    dp0 = pattern_n - 1
    total_n = pattern_n + hub_n + filler_n
    target = Graph(total_n)
    for u in range(pattern_n):
        for v in range(u + 1, pattern_n):
            if pattern.has_edge(u, v):
                target.add_edge(u, v)
    hubs = list(range(pattern_n, pattern_n + hub_n))
    filler = list(range(pattern_n + hub_n, total_n))
    for i, h in enumerate(hubs):
        for h2 in hubs[i + 1 :]:
            target.add_edge(h, h2)
        for f in filler:
            target.add_edge(h, f)
    # Random filler edges with every filler vertex's total degree capped
    # below dp0, so no filler vertex can host pattern vertex 0.
    cap = dp0 - 1 - hub_n
    rng = SplitMix64(seed ^ 0xBBB)
    deg = [0] * filler_n
    want_edges = int(filler_p * filler_n * (filler_n - 1) / 2)
    added = tries = 0
    while added < want_edges and tries < 20 * want_edges:
        tries += 1
        u = rng.randrange(filler_n)
        v = rng.randrange(filler_n)
        if u == v or deg[u] >= cap or deg[v] >= cap:
            continue
        if target.has_edge(filler[u], filler[v]):
            continue
        target.add_edge(filler[u], filler[v])
        deg[u] += 1
        deg[v] += 1
        added += 1
    return SIPInstance.build(pattern, target)


# -- the registry -------------------------------------------------------------

_REGISTRY: dict[str, Entry] = {}


def _register(entry: Entry) -> None:
    if entry.name in _REGISTRY:
        raise ValueError(f"duplicate instance name {entry.name!r}")
    _REGISTRY[entry.name] = entry


def _graph_entry(name: str, build: Callable[[], Any], *, app: str = "maxclique",
                 search_type: str = "optimisation", **stype_kwargs: Any) -> None:
    _register(
        Entry(
            name=name,
            app=app,
            build=build,
            make_spec=lambda g, _n=name: maxclique_spec(g, name=_n),
            search_type=search_type,
            stype_kwargs=dict(stype_kwargs),
        )
    )


def _populate() -> None:
    # ---- MaxClique: the 18-instance Table 1 suite (scaled DIMACS
    # analogues; sequential trees of roughly 1e3..1e5 nodes).
    clique_suite: list[tuple[str, Callable[[], Any]]] = [
        ("brock90-1", lambda: brock_like(90, 0.55, 14, seed=101)),
        ("brock90-2", lambda: brock_like(90, 0.60, 15, seed=102)),
        ("brock100-1", lambda: brock_like(100, 0.50, 14, seed=103)),
        ("brock100-2", lambda: brock_like(100, 0.55, 15, seed=104)),
        ("brock110-1", lambda: brock_like(110, 0.50, 15, seed=105)),
        ("brock120-1", lambda: brock_like(120, 0.50, 16, seed=106)),
        ("p_hat90-1", lambda: p_hat_like(90, 0.1, 0.9, seed=201)),
        ("p_hat100-1", lambda: p_hat_like(100, 0.2, 0.9, seed=202)),
        ("p_hat100-2", lambda: p_hat_like(100, 0.3, 0.9, seed=203)),
        ("p_hat110-1", lambda: p_hat_like(110, 0.1, 0.8, seed=204)),
        ("san90-1", lambda: planted_clique(90, 0.55, 16, seed=301)),
        ("san100-1", lambda: planted_clique(100, 0.60, 18, seed=302)),
        ("san110-1", lambda: planted_clique(110, 0.50, 16, seed=303)),
        ("sanr90-1", lambda: uniform_graph(90, 0.6, seed=401)),
        ("sanr100-1", lambda: uniform_graph(100, 0.6, seed=402)),
        ("sanr110-1", lambda: uniform_graph(110, 0.55, seed=403)),
        ("mann-a15", lambda: _mann_like(15)),
        ("mann-a18", lambda: _mann_like(18)),
    ]
    for name, build in clique_suite:
        _graph_entry(name, build)

    # ---- k-Clique decision instances.  kclique-fig4 is the Figure 4
    # scaling instance: an unsatisfiable decision (prove no 14-clique in
    # a graph whose maximum clique is 13) — refutations are
    # pruning-stable, so the scaling curve is reproducible.
    _graph_entry(
        "kclique-fig4",
        lambda: uniform_graph(150, 0.6, seed=77),
        app="kclique",
        search_type="decision",
        target=14,
    )
    _graph_entry(
        "kclique-planted-80",
        lambda: planted_clique(80, 0.55, 18, seed=501),
        app="kclique",
        search_type="decision",
        target=18,
    )
    _graph_entry(
        "kclique-uniform-100",
        lambda: uniform_graph(100, 0.6, seed=502),
        app="kclique",
        search_type="decision",
        target=11,
    )

    # ---- TSP.
    for name, n, seed in (
        ("tsp-rand-11", 11, 602),
        ("tsp-rand-12", 12, 603),
        ("tsp-rand-13", 13, 611),
    ):
        _register(
            Entry(
                name=name,
                app="tsp",
                build=lambda n=n, seed=seed: random_tsp(n, seed),
                make_spec=lambda inst, _n=name: tsp_spec(inst, name=_n),
            )
        )

    # ---- Knapsack: the narrow-band "similar" family is the hard one.
    for name, n, kind, seed, mw, band, bump in (
        ("knap-strong-28", 28, "strong", 901, 1000, 0.7, 10),
        ("knap-sim-26", 26, "similar", 5, 1000, 0.95, 100),
        ("knap-sim-30", 30, "similar", 4, 1000, 0.7, 14),
    ):
        _register(
            Entry(
                name=name,
                app="knapsack",
                build=lambda n=n, kind=kind, seed=seed, mw=mw, band=band, bump=bump: random_knapsack(
                    n, seed, kind=kind, max_weight=mw, band=band, bump_divisor=bump
                ),
                make_spec=lambda inst, _n=name: knapsack_spec(inst, name=_n),
            )
        )

    # ---- SIP (seeds calibrated for mid-size, non-degenerate searches).
    for name, pn, tn, tp, seed, planted in (
        ("sip-planted-20-70", 20, 70, 0.3, 814, True),
        ("sip-planted-20-70b", 20, 70, 0.3, 821, True),
        ("sip-planted-18-65", 18, 65, 0.32, 826, True),
    ):
        _register(
            Entry(
                name=name,
                app="sip",
                build=lambda pn=pn, tn=tn, tp=tp, seed=seed, planted=planted: random_sip(
                    pn, tn, tp, seed, planted=planted
                ),
                make_spec=lambda inst, _n=name: sip_spec(inst, name=_n),
                search_type="decision",
                stype_kwargs={"target": pn},
            )
        )

    # Acceleration-anomaly demonstrator (see decoy_sip): SAT, but the
    # witness hides behind three barren decoy subtrees in fail-first
    # order.  Searches that explore root branches concurrently find it
    # orders of magnitude sooner than strict depth-first.
    _register(
        Entry(
            name="sip-decoy-24-200",
            app="sip",
            build=lambda: decoy_sip(24, 200, 3, 0.40, 0.10, 1),
            make_spec=lambda inst: sip_spec(inst, name="sip-decoy-24-200"),
            search_type="decision",
            stype_kwargs={"target": 24},
        )
    )

    # ---- UTS.
    for name, inst in (
        ("uts-geo-med", UTSInstance(shape="geometric", b0=3.5, max_depth=8, seed=12)),
        ("uts-geo-big", UTSInstance(shape="geometric", b0=4.0, max_depth=9, seed=19)),
        ("uts-bin-med", UTSInstance(shape="binomial", b0=500, m=8, q=0.123, seed=7)),
    ):
        _register(
            Entry(
                name=name,
                app="uts",
                build=lambda inst=inst: inst,
                make_spec=lambda inst, _n=name: uts_spec(inst, name=_n),
                search_type="enumeration",
            )
        )

    # ---- Numerical Semigroups.
    for name, genus in (("ns-genus-14", 14), ("ns-genus-15", 15), ("ns-genus-16", 16)):
        _register(
            Entry(
                name=name,
                app="ns",
                build=lambda genus=genus: SemigroupInstance(max_genus=genus),
                make_spec=lambda inst, _n=name: semigroups_spec(inst, name=_n),
                search_type="enumeration",
            )
        )


def _mann_like(k: int) -> Any:
    """A MANN-style Steiner-ish dense graph: the complement of a sparse
    structured graph (MANN instances are very dense with large cliques)."""
    sparse = uniform_graph(3 * k, 4.0 / (3 * k), seed=9000 + k)
    return sparse.complement()


_populate()


@lru_cache(maxsize=None)
def load_instance(name: str) -> Any:
    """Build (and memoise) a registry instance by name."""
    entry = _entry(name)
    return entry.build()


def spec_for(name: str) -> tuple[SearchSpec, str, dict]:
    """Spec + (search_type, stype_kwargs) for a registry instance; the
    spec is :func:`library_spec_factory`'s, built once per process."""
    entry = _entry(name)
    return library_spec_factory(name), entry.search_type, dict(entry.stype_kwargs)


def resolve_job(
    name: str,
    search_type: Optional[str] = None,
    stype_kwargs: Optional[dict] = None,
) -> tuple[SearchSpec, SearchType]:
    """The spec and search type of a job on a registry instance.

    ``search_type`` defaults to the instance's registered type; the
    registered kwargs (e.g. a decision target) apply only to that type,
    under any caller-supplied ``stype_kwargs``.
    """
    spec, default_type, kwargs = spec_for(name)
    kind = search_type or default_type
    if kind != default_type:
        kwargs = {}
    kwargs.update(stype_kwargs or {})
    return spec, make_search_type(kind, **kwargs)


@lru_cache(maxsize=None)
def library_spec_factory(name: str) -> SearchSpec:
    """The spec of a registry instance, built once per process.

    The registry is deterministic and a spec frozen over an immutable
    space (its lazy caches, ``Graph.inverted_adj`` and
    ``UTSInstance.log_ratio``, are idempotent), so every job, thread and
    worker shares one.  Also the top-level picklable factory workers
    rebuild a registry spec from: ``(library_spec_factory, (name,))``.
    """
    return _entry(name).make_spec(load_instance(name))


def _entry(name: str) -> Entry:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown instance {name!r}; known: {sorted(_REGISTRY)}"
        ) from None


def instance_names() -> list[str]:
    """All registered instance names, sorted."""
    return sorted(_REGISTRY)


def suite(app: str) -> list[str]:
    """The evaluation-suite instance names of one application."""
    if app not in APPS:
        raise ValueError(f"unknown application {app!r}; known: {APPS}")
    return sorted(name for name, e in _REGISTRY.items() if e.app == app)

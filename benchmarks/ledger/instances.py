"""Inputs: pinned search instances, the screening rule, hand-written UTS.

The search instances are *pinned* per scale (``spec.FULL`` /
``spec.SMOKE``); ``--seed`` drives the gateway job sequence and nothing
else.  Parallel search times depend on the shape of the one tree
searched — across screened instances of equal node count the process
and cluster walls still differ by 20-50 % (when the optimum is found,
how the depth-2 frontier splits) — so an instance drawn from the seed
would drown every regression bound.  The program under test only ever
sees the generated ``(family, args)`` pair, rebuilt by
``repro.verify.generators:instance_spec`` in every process.

How a pin is chosen (``derive_pin``): tree sizes swing by orders of
magnitude with the instance seed (UTS ``(4, 9, s)``: 1 to 700 k nodes),
so candidates from the family's ``SplitMix64(0)`` stream are *screened*
— the hand-written solver counts the tree exactly, after a cheap
population proxy for UTS — and the first one inside the band is kept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.apps.maxclique import sequential_maxclique_specialised
from repro.instances.graphs import uniform_graph
from repro.instances.library import library_spec_factory, load_instance
from repro.util.rng import SplitMix64, splittable_hash
from repro.verify.generators import instance_spec

from .spec import TABLE1_SIX, Scale, Workload

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_B0_LEVELS_PROXY = 3  # screen on the population this many levels above the leaves
_PROXY_SLACK = 0.10
_MAX_CANDIDATES = {"uts": 600, "maxclique": 60}


def handwritten_uts_count(b0: float, max_depth: int, seed: int, cap: int = 0) -> int:
    """Count a geometric UTS tree with no framework: no node objects,
    no generators, the splittable hash inlined, leaves counted without
    being pushed.  Visits the same tree as ``uts_spec`` (same hash,
    same child-count expression), so the count must equal the
    skeleton's — the enumeration twin of
    ``sequential_maxclique_specialised`` for the Table 1 overhead cell.

    ``cap`` > 0 abandons the count once it exceeds the cap (screening
    guard); the returned value is then merely ``> cap``.
    """
    log = math.log
    floor = math.floor
    log_ratio = log(b0 / (b0 + 1.0))
    scale = 1.0 / (1 << 53)
    last = max_depth - 1
    nodes = 1
    if max_depth <= 0:
        return nodes
    stack = [(splittable_hash(seed, 0), 0)]
    pop = stack.pop
    push = stack.append
    while stack:
        state, depth = pop()
        count = int(floor(log(1.0 - (state >> 11) * scale) / log_ratio))
        nodes += count
        if depth < last:
            depth += 1
            for i in range(1, count + 1):
                z = (state + _GOLDEN * i) & _MASK64
                z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
                z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
                push((z ^ (z >> 31), depth))
        if cap and nodes > cap:
            return nodes
    return nodes


def _uts_count_in_band(b0: int, max_depth: int, seed: int, band: tuple) -> int:
    """Exact node count, or 0 when a cheap proxy already rules the
    candidate out: the population ``_B0_LEVELS_PROXY`` levels above the
    leaves times the expected size of a geometric subtree of that
    height predicts the total to a few per cent at ~1 % of the cost."""
    lo, hi = band
    level = max_depth - _B0_LEVELS_PROXY
    if level >= 2:
        above = handwritten_uts_count(b0, level - 1, seed)
        upto = handwritten_uts_count(b0, level, seed)
        subtree = sum(b0 ** k for k in range(max_depth - level + 1))
        predicted = above + (upto - above) * subtree
        if not lo * (1 - _PROXY_SLACK) <= predicted <= hi * (1 + _PROXY_SLACK):
            return 0
    return handwritten_uts_count(b0, max_depth, seed, cap=hi)


@dataclass
class Target:
    """One instance the search cells run, as the backends want it: a
    top-level spec factory plus plain arguments."""

    label: str
    factory: Callable[..., Any]
    factory_args: tuple
    kind: str
    handwritten: Callable[[], tuple]  # () -> (value, nodes)
    sibling_args: tuple  # a <=100 k-node sibling, for the stepped micro-benches
    expected_nodes: Optional[int] = None  # the pinned count, a second oracle
    spec: Any = None  # built by set-up


@dataclass
class Inputs:
    """The inputs of one run."""

    target: Target  # the instance the search cells run
    gateway_seed: int
    micro: dict  # family -> Target for the family-specific app micro-benches


def _uts_target(args2: tuple, seed: int, nodes: int) -> Target:
    b0, depth = args2
    return Target(
        label=f"uts({b0},{depth},{seed})",
        factory=instance_spec,
        factory_args=("uts", (b0, depth, seed)),
        kind="enumeration",
        handwritten=lambda: (handwritten_uts_count(float(b0), depth, seed),) * 2,
        sibling_args=("uts", (b0, max(1, depth - 2), seed)),
        expected_nodes=nodes,
    )


def _clique_handwritten(graph) -> Callable[[], tuple]:
    def handwritten() -> tuple:
        r = sequential_maxclique_specialised(graph)
        return r.size, r.nodes

    return handwritten


def _maxclique_target(args2: tuple, seed: int, nodes: int) -> Target:
    n, p_pct = args2
    return Target(
        label=f"maxclique({n},{p_pct},{seed})",
        factory=instance_spec,
        factory_args=("maxclique", (n, p_pct, seed)),
        kind="optimisation",
        handwritten=_clique_handwritten(uniform_graph(n, p_pct / 100.0, seed)),
        sibling_args=("maxclique", (max(8, n * 3 // 4), p_pct, seed)),
        expected_nodes=nodes,
    )


def _library_target(name: str) -> Target:
    return Target(
        label=name,
        factory=library_spec_factory,
        factory_args=(name,),
        kind="optimisation",
        handwritten=_clique_handwritten(load_instance(name)),
        sibling_args=(name,),
    )


def derive_pin(family: str, args2: tuple, band: tuple) -> tuple:
    """``(seed, nodes, candidates tried)`` of the pin for one instance
    shape: the screening rule, executable."""
    master = SplitMix64(0)
    streams = {name: SplitMix64(master.next_u64()) for name in ("uts", "maxclique")}
    lo, hi = band
    for tried in range(1, _MAX_CANDIDATES[family] + 1):
        seed = streams[family].next_u64() & 0x7FFFFFFF
        if family == "uts":
            nodes = _uts_count_in_band(args2[0], args2[1], seed, band)
        else:
            nodes = _clique_handwritten(uniform_graph(args2[0], args2[1] / 100.0, seed))()[1]
        if lo <= nodes <= hi:
            return seed, nodes, tried
    raise RuntimeError(
        f"no {family} instance with {lo}..{hi} nodes among "
        f"{_MAX_CANDIDATES[family]} candidates"
    )


def make_inputs(workload: Workload, seed: int, scale: Scale) -> Inputs:
    """The run's inputs: pinned targets plus the seed's gateway stream.

    Both UTS workloads use the same pin, so ``enum-uts-coarse`` and
    ``enum-uts-fine`` search the *same tree* under different knobs.
    """

    def pinned(family: str, sizing: tuple) -> Target:
        args2, _, instance_seed, nodes = sizing
        build = _uts_target if family == "uts" else _maxclique_target
        return build(args2, instance_seed, nodes)

    if workload.family == "library":
        # gateway-mix: the hot key's instance, the one every fourth
        # request hits (all six under ordered would be ~10 k tasks).
        target = _library_target(TABLE1_SIX[0])
    else:
        target = pinned(workload.family, getattr(scale, workload.family))
    # The app micro-benches name their family; off-family workloads run
    # them on a smaller pinned instance so every run reports them.
    micro = {
        family: target
        if workload.family == family
        else pinned(family, getattr(scale, "micro_" + family))
        for family in ("uts", "maxclique")
    }
    return Inputs(target, SplitMix64(seed).next_u64(), micro)

"""Unbalanced Tree Search (UTS) — synthetic enumeration workload [30].

UTS counts the nodes of a synthetic tree whose shape is derived from a
splittable hash: each node's child count is a pure function of the
node's hash state, so the tree is identical no matter which worker
expands which subtree — the property that makes UTS the standard
load-balancing stress test (the paper, §5.1, uses it to evaluate the
enumeration skeletons on extremely irregular workloads).

Two tree shapes from the original benchmark:

- **geometric**: child counts follow a geometric distribution with mean
  ``b0``, cut off below ``max_depth`` (expected size ~ b0 * max_depth
  branching structure, highly irregular depth profile);
- **binomial**: the root has ``b0`` children; every other node has
  ``m`` children with probability ``q`` and none otherwise (``q*m < 1``
  keeps it finite), giving extreme subtree-size variance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

from repro.core.nodegen import ListNodeGenerator
from repro.core.space import SearchSpec
from repro.util.rng import _GOLDEN, _MASK64, splittable_hash

__all__ = ["UTSInstance", "UTSNode", "uts_children", "uts_spec", "uts_spec_from_params"]

_GEOMETRIC = "geometric"
_BINOMIAL = "binomial"
_UNIT = 1.0 / (1 << 53)  # top 53 bits of a hash state -> uniform float in [0, 1)
_new_node = tuple.__new__  # skips the NamedTuple constructor's Python frame


@dataclass(frozen=True)
class UTSInstance:
    """Parameters of a UTS tree; ``seed`` fixes the tree exactly."""

    shape: str = _GEOMETRIC
    b0: float = 4.0  # root/expected branching factor
    max_depth: int = 6  # geometric shape only
    m: int = 8  # binomial: children on a "success" node
    q: float = 0.1  # binomial: success probability (q*m < 1)
    seed: int = 42

    def __post_init__(self) -> None:
        if self.shape not in (_GEOMETRIC, _BINOMIAL):
            raise ValueError(f"unknown UTS shape {self.shape!r}")
        if self.b0 <= 0:
            raise ValueError("b0 must be positive")
        if self.shape == _GEOMETRIC and self.max_depth < 0:
            raise ValueError("max_depth must be non-negative")
        if self.shape == _BINOMIAL and not (0 <= self.q * self.m < 1):
            raise ValueError("binomial UTS requires 0 <= q*m < 1 (finite tree)")

    @cached_property
    def log_ratio(self) -> float:
        """Geometric with mean b0: P(children >= k) = (b0/(b0+1))^k, so
        the child count is ``floor(log(1 - u) / log_ratio)``."""
        return math.log(self.b0 / (self.b0 + 1.0))


class UTSNode(NamedTuple):
    """A UTS node: hash state + depth; children derive from these only."""

    state: int
    depth: int


def uts_children(inst: UTSInstance, node: UTSNode) -> Sequence[UTSNode]:
    """All children of ``node``, hashed from (parent state, child index)
    — order-independent.  One is built per tree node, so
    :func:`~repro.util.rng.splittable_hash` is inlined and the nodes are
    made by ``tuple.__new__`` rather than the NamedTuple constructor."""
    state, depth = node
    if inst.shape == _GEOMETRIC:
        if depth >= inst.max_depth:
            return ()
        count = math.floor(math.log(1.0 - (state >> 11) * _UNIT) / inst.log_ratio)
    elif depth == 0:
        count = max(1, round(inst.b0))
    else:
        count = inst.m if (state >> 11) * _UNIT < inst.q else 0
    depth += 1
    out = []
    for i in range(1, count + 1):
        z = (state + _GOLDEN * i) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        out.append(_new_node(UTSNode, (z ^ (z >> 31), depth)))
    return out


def uts_spec_from_params(
    shape: str,
    b0: float,
    max_depth: int,
    m: int,
    q: float,
    seed: int,
    name: str = "uts",
) -> SearchSpec:
    """Top-level picklable spec factory for the multiprocessing backends:
    rebuilds :func:`uts_spec` from the instance's plain parameters."""
    return uts_spec(
        UTSInstance(shape=shape, b0=b0, max_depth=max_depth, m=m, q=q, seed=seed),
        name=name,
    )


def uts_spec(inst: UTSInstance, *, name: str = "uts") -> SearchSpec:
    """UTS :class:`SearchSpec`; pair with Enumeration (counts nodes)."""
    root = UTSNode(state=splittable_hash(inst.seed, 0), depth=0)
    return SearchSpec(
        name=name,
        space=inst,
        root=root,
        # A child is one hash: laziness buys nothing, so the Lazy Node
        # Generator form is the list adapter over the batched one.
        generator=lambda inst, node: ListNodeGenerator(uts_children(inst, node)),
        objective=lambda node: 1,
        children=uts_children,
    )

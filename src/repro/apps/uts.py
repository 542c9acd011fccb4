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
from typing import NamedTuple

from repro.core.nodegen import ColumnNodeGenerator
from repro.core.space import SearchSpec
from repro.util.rng import _GOLDEN, _MASK64, splittable_hash

__all__ = ["UTSInstance", "UTSNode", "UTSGen", "UTSColumns", "uts_spec", "uts_spec_from_params"]

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


class UTSGen(ColumnNodeGenerator[UTSInstance, UTSNode]):
    """The children of one UTS node: its lazy generator and its column
    frame.  One hash of the parent's state gives the child count; each
    child is worth 1 and unbounded, and is hashed from (parent state,
    child index) only when built.  The parent of a geometric tree's last
    level knows its children are ``leaves``; on a binomial tree a
    child's count is its own hash, so nothing is promised.  The hash is
    :func:`~repro.util.rng.splittable_hash` inlined, and a node is made
    by ``tuple.__new__``: one is built per expanded tree node."""

    __slots__ = ("state", "depth", "values", "pos", "leaves")

    def __init__(self, inst: UTSInstance, node: UTSNode) -> None:
        state, depth = node
        u = (state >> 11) * _UNIT
        if inst.shape == _GEOMETRIC:
            count = math.floor(math.log(1.0 - u) / inst.log_ratio) if depth < inst.max_depth else 0
            self.leaves = depth + 1 >= inst.max_depth
        else:
            count = max(1, round(inst.b0)) if depth == 0 else inst.m if u < inst.q else 0
            self.leaves = False
        self.state = state
        self.depth = depth + 1  # the children's
        self.values = [1] * count
        self.pos = 0

    @property
    def bounds(self) -> list:
        return [math.inf] * len(self.values)

    def build(self, i: int) -> UTSNode:
        self.pos = i + 1
        z = (self.state + _GOLDEN * self.pos) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return _new_node(UTSNode, (z ^ (z >> 31), self.depth))

    def drain(self) -> list[UTSNode]:
        return [self.build(i) for i in range(self.pos, len(self.values))]


class UTSColumns(UTSGen):
    """UTS's column frame: :class:`UTSGen` plus, for a node of a
    geometric tree's level ``max_depth - 2``, each child's own child
    count in ``sizes`` — every grandchild is a leaf, and worth 1, so
    the same list is ``sums``.  One pass hashes each child's state and
    draws its count, as a hand-written counter would, and the kernel
    counts the node's last two levels from it without building a child.
    Only the kernel reads the column, so the lazy generator
    (:class:`UTSGen`) does not pay for it."""

    __slots__ = ("sizes", "sums")

    def __init__(self, inst: UTSInstance, node: UTSNode) -> None:
        super().__init__(inst, node)
        if inst.shape != _GEOMETRIC or self.depth != inst.max_depth - 1:
            self.sizes = self.sums = None
            return
        state, floor, log, log_ratio = self.state, math.floor, math.log, inst.log_ratio
        sizes = []
        for i in range(1, len(self.values) + 1):
            z = (state + _GOLDEN * i) & _MASK64
            z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            sizes.append(floor(log(1.0 - ((z ^ (z >> 31)) >> 11) * _UNIT) / log_ratio))
        self.sizes = self.sums = sizes


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
        generator=UTSGen,
        columns=UTSColumns,
        objective=lambda node: 1,
    )

"""The column-frame contract, over every application that declares one.

A column frame is read by the kernel in place of the children it
describes, so each promise is checked against the children themselves:
``values[i]`` is child ``i``'s objective, ``bounds[i]`` its bound,
``build(i)`` with gaps is the ``i``-th child of ``drain()``,
``leaves`` means no child has a child, and ``sizes[i]`` / ``sums[i]``
are the number and the summed values of child ``i``'s children, none of
which has a child.
"""

from math import inf

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.maxclique import maxclique_spec
from repro.apps.uts import UTSInstance, uts_spec
from repro.instances.graphs import uniform_graph

FAMILIES = {
    "maxclique": lambda rnd: maxclique_spec(
        uniform_graph(rnd.randint(1, 24), rnd.choice([0.3, 0.6, 0.9]), rnd.randint(0, 999))
    ),
    "uts-geometric": lambda rnd: uts_spec(
        UTSInstance(b0=rnd.choice([1.5, 3.0, 6.0]), max_depth=rnd.randint(0, 6), seed=rnd.randint(0, 999))
    ),
    "uts-binomial": lambda rnd: uts_spec(
        UTSInstance(
            shape="binomial", b0=rnd.randint(1, 30), m=rnd.randint(1, 6), q=0.15,
            seed=rnd.randint(0, 999),
        )
    ),
}


def key(node):
    """What makes two nodes the same child (``CliqueNode.__eq__``
    ignores the colour bound)."""
    return node if isinstance(node, tuple) else (node.clique, node.size, node.candidates, node.bound)


def check_frame(spec, node, rnd):
    kids = spec.generator(spec.space, node).drain()
    frame = spec.columns(spec.space, node)
    assert list(frame.values) == [spec.objective(kid) for kid in kids]
    bound = spec.bound if spec.upper_bound is not None else (lambda kid: inf)
    assert list(frame.bounds) == [bound(kid) for kid in kids]
    drained = spec.columns(spec.space, node).drain()
    assert [key(kid) for kid in drained] == [key(kid) for kid in kids]
    picked = sorted(rnd.sample(range(len(kids)), rnd.randint(0, len(kids))))
    assert [key(frame.build(i)) for i in picked] == [key(drained[i]) for i in picked]
    # ... and a drain carries on from behind the last child built.
    resume = picked[-1] + 1 if picked else 0
    assert [key(kid) for kid in frame.drain()] == [key(kid) for kid in drained[resume:]]
    if frame.leaves:
        assert all(not spec.columns(spec.space, kid).values for kid in kids)
    if frame.sizes is not None:
        grandkids = [spec.generator(spec.space, kid).drain() for kid in kids]
        assert list(frame.sizes) == [len(below) for below in grandkids]
        assert list(frame.sums) == [sum(map(spec.objective, below)) for below in grandkids]
        assert all(not spec.generator(spec.space, g).has_next() for below in grandkids for g in below)
    return kids


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_the_columns_describe_the_children(family, rnd):
    """Every node on a random root-to-leaf walk."""
    spec = FAMILIES[family](rnd)
    assert spec.columns is not None
    node = spec.root
    while True:
        kids = check_frame(spec, node, rnd)
        if not kids:
            break
        node = rnd.choice(kids)

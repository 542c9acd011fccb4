"""What cannot be pickled on the process backend: a witness degrades to
value-only, and a hand-over fails the search.

Every fleet message is pickled on its sender's thread as it is written,
so an object that cannot be pickled raises in the sender.  A report
whose witness holds one is sent again without the witness (the value
still counts); a hand-over of subtrees that hold one cannot travel at
all, so the worker fails the job and the search raises at once.  Were
the pickling left to a queue's feeder thread, the item would be dropped
with a traceback instead: the ordered parent would wait for ever for a
record, and a sharing search for a lease count that never reaches zero.
Each run here sits under a hard SIGALRM deadline so that hang is a
failure, not a stuck suite.
"""

import signal
from contextlib import contextmanager

import pytest

from repro.core.nodegen import ListNodeGenerator
from repro.core.space import SearchSpec
from repro.runtime.processes import (
    multiprocessing_budget_search,
    multiprocessing_ordered_search,
    multiprocessing_stacksteal_search,
)

from tests.runtime.test_processes import optimisation_factory

CHILDREN = {"root": ["a", "b"], "a": ["aa", "ab"], "b": ["ba"]}
VALUES = {"root": 0, "a": 1, "b": 2, "aa": 5, "ab": 3, "ba": 4}


def lambda_leaf_factory():
    """Nodes are ``(name, extra)``; the depth-2 leaves hold a lambda, so
    they can be searched but not pickled.  The root and its children are
    plain — they have to travel to the workers as tasks.  The optimum
    (``aa``, 5) is one of the lambda-holding leaves."""

    def node(name):
        return (name, (lambda: name) if len(name) == 2 else None)

    return SearchSpec(
        name="lambda-leaves",
        space=None,
        root=node("root"),
        generator=lambda space, parent: ListNodeGenerator(
            [node(child) for child in CHILDREN.get(parent[0], [])]
        ),
        objective=lambda n: VALUES[n[0]],
    )


def lambda_tree_factory():
    """Four children a node, three levels down (85 nodes); every node
    but the root holds a lambda, so no subtree can be handed over."""

    def node(depth, index):
        return (depth, index, lambda: index)

    def children(space, parent):
        depth, index = parent[0], parent[1]
        if depth == 3:
            return ListNodeGenerator([])
        return ListNodeGenerator([node(depth + 1, 4 * index + i) for i in range(4)])

    return SearchSpec(
        name="lambda-tree",
        space=None,
        root=(0, 0, None),
        generator=children,
        objective=lambda n: n[0],
    )


@contextmanager
def hard_timeout(seconds):
    def expired(signum, frame):
        raise TimeoutError(f"search still running after {seconds}s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


SEARCHES = {
    "budget": lambda: multiprocessing_budget_search(
        lambda_leaf_factory, (), optimisation_factory, n_processes=2,
    ),
    "stacksteal": lambda: multiprocessing_stacksteal_search(
        lambda_leaf_factory, (), optimisation_factory, n_processes=2,
    ),
    "ordered": lambda: multiprocessing_ordered_search(
        lambda_leaf_factory, (), optimisation_factory,
        n_processes=2, d_cutoff=1,
    ),
}


@pytest.mark.parametrize("coordination", sorted(SEARCHES))
def test_unpicklable_witness_degrades_to_value_only(coordination):
    with hard_timeout(30):
        res = SEARCHES[coordination]()
    assert res.value == 5
    assert res.node is None  # the lambda-holding witness stayed behind
    assert res.metrics.nodes == len(VALUES)


@pytest.mark.parametrize("search, knobs", [
    (multiprocessing_budget_search, {"budget": 2}),
    (multiprocessing_stacksteal_search, {}),
], ids=["budget", "stacksteal"])
def test_a_hand_over_that_cannot_be_pickled_fails_the_search(search, knobs):
    with hard_timeout(30), pytest.raises(
        RuntimeError, match=r"backend worker failed: .*[Pp]ickle"
    ):
        search(
            lambda_tree_factory, (), optimisation_factory,
            n_processes=2, share_poll=1, **knobs,
        )

"""An unpicklable witness degrades to value-only on every process backend.

``multiprocessing.Queue.put`` never raises on an unpicklable object —
pickling happens in the queue's feeder thread, which prints a traceback
and drops the item — so a worker that does not probe its witness first
loses its whole message: budget and stack-stealing then fail the run
for a missing payload, and the ordered parent waits forever for a
record that never arrives.  Each run here sits under a hard SIGALRM
deadline so that hang is a failure, not a stuck suite.
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

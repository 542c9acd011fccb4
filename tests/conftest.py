"""Shared fixtures: a tiny explicit-tree search application.

``toy_spec`` builds a SearchSpec over an explicit dict tree — the
simplest possible Lazy Node Generator — with per-node objective values
and the tightest admissible bound (max objective over the subtree).
Used to unit-test coordinations without dragging a real application in.
"""

from __future__ import annotations

import pytest

from repro.core.nodegen import ColumnListGenerator, ListNodeGenerator
from repro.core.space import SearchSpec


class ToyTree:
    """Explicit tree: children lists + objective values per node."""

    def __init__(self, children: dict, values: dict) -> None:
        self.children = children
        self.values = values
        self.bounds = {}
        self._compute_bounds("root")

    def _compute_bounds(self, node):
        best = self.values[node]
        for c in self.children.get(node, []):
            best = max(best, self._compute_bounds(c))
        self.bounds[node] = best
        return best

    def all_nodes(self):
        out, stack = [], ["root"]
        while stack:
            n = stack.pop()
            out.append(n)
            stack.extend(reversed(self.children.get(n, [])))
        return out


def make_toy_spec(
    children: dict, values: dict, *, with_bound: bool = True, with_columns: bool = False
) -> SearchSpec:
    tree = ToyTree(children, values)

    def columns(space, node):
        kids = list(space.children.get(node, []))
        return ColumnListGenerator(
            kids, [space.values[kid] for kid in kids], [space.bounds[kid] for kid in kids]
        )

    return SearchSpec(
        name="toy",
        space=tree,
        root="root",
        generator=lambda space, node: ListNodeGenerator(
            list(space.children.get(node, []))
        ),
        objective=lambda node: tree.values[node],
        upper_bound=(lambda space, node: space.bounds[node]) if with_bound else None,
        columns=columns if with_columns else None,
    )


@pytest.fixture
def toy_spec():
    r"""A small irregular tree::

            root(0)
           /   |   \
         a(1) b(5)  c(2)
        /  \          \
      aa(3) ab(2)     ca(7)
                        \
                        caa(4)
    """
    children = {
        "root": ["a", "b", "c"],
        "a": ["aa", "ab"],
        "c": ["ca"],
        "ca": ["caa"],
    }
    values = {"root": 0, "a": 1, "b": 5, "c": 2, "aa": 3, "ab": 2, "ca": 7, "caa": 4}
    return make_toy_spec(children, values)


@pytest.fixture
def toy_spec_unbounded():
    children = {"root": ["a", "b"], "a": ["aa"]}
    values = {"root": 0, "a": 1, "b": 2, "aa": 3}
    return make_toy_spec(children, values, with_bound=False)


@pytest.fixture(scope="session", autouse=True)
def _lock_order_trace():
    """Opt-in dynamic lock-order tracing for the whole test session.

    With ``REPRO_LOCK_TRACE=1`` in the environment (the CI conformance
    job sets it), every ``threading.Lock``/``RLock`` created during the
    run is traced and the session fails if the acquisition-order graph
    ever contains a cycle — a latent deadlock, even if the schedule
    that would trigger it never ran.
    """
    from repro.analysis import lockorder

    graph = lockorder.maybe_install_from_env()
    if graph is None:
        yield None
        return
    try:
        yield graph
    finally:
        lockorder.uninstall()
        graph.assert_acyclic()


def proc_stat(pid) -> tuple:
    """``(state, process group)`` of a live process from
    ``/proc/<pid>/stat``, or None once it is gone.  A zombie nobody has
    reaped yet reads state ``"Z"``."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state, _, pgrp = fh.read().rpartition(")")[2].split()[:3]
    except OSError:
        return None
    return state, int(pgrp)


@pytest.fixture
def fresh_fleet():
    """The process backend's worker fleet, stopped before the test (so
    the test's first search starts new workers) and after it."""
    from repro.runtime.processes import FLEET

    FLEET.close()
    yield FLEET
    FLEET.close()


@pytest.fixture(scope="session", autouse=True)
def _close_process_fleet():
    """The fleet outlives the searches that use it; the session ends it."""
    yield
    from repro.runtime.processes import FLEET

    FLEET.close()

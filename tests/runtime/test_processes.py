"""Tests for the multiprocessing Depth-Bounded backend.

Factories must be top-level (picklable) — that constraint is part of
the backend's contract and these tests exercise it for real.
"""

import pytest

from repro.core.ordered import ordered_frontier
from repro.core.results import validate_result
from repro.core.searchtypes import Decision, Enumeration, Optimisation
from repro.core.sequential import sequential_search
from repro.runtime.processes import (
    multiprocessing_depthbounded_search,
    run_library_search,
)


# -- top-level picklable factories -----------------------------------------


def clique_spec_factory(n, p, seed):
    """Rebuild a MaxClique spec from instance parameters."""
    from repro.apps.maxclique import maxclique_spec
    from repro.instances.graphs import uniform_graph

    return maxclique_spec(uniform_graph(n, p, seed))


def uts_spec_factory(b0, depth, seed):
    """Rebuild a UTS spec from instance parameters."""
    from repro.apps.uts import UTSInstance, uts_spec

    return uts_spec(UTSInstance(shape="geometric", b0=b0, max_depth=depth, seed=seed))


def optimisation_factory():
    """Top-level Optimisation constructor (picklable)."""
    return Optimisation()


def enumeration_factory():
    """Top-level Enumeration constructor (picklable)."""
    return Enumeration()


def decision_factory(target):
    """Top-level Decision constructor (picklable)."""
    return Decision(target=target)


CLIQUE_ARGS = (35, 0.5, 9)


class TestCorrectness:
    def test_optimisation_matches_sequential(self):
        seq = sequential_search(clique_spec_factory(*CLIQUE_ARGS), Optimisation())
        res = multiprocessing_depthbounded_search(
            clique_spec_factory, CLIQUE_ARGS, optimisation_factory,
            n_processes=2, d_cutoff=1,
        )
        assert res.value == seq.value

    def test_enumeration_matches_sequential(self):
        args = (3.0, 6, 11)
        seq = sequential_search(uts_spec_factory(*args), Enumeration())
        res = multiprocessing_depthbounded_search(
            uts_spec_factory, args, enumeration_factory,
            n_processes=3, d_cutoff=2,
        )
        assert res.value == seq.value
        assert res.metrics.nodes == seq.metrics.nodes

    def test_decision_found(self):
        seq = sequential_search(clique_spec_factory(*CLIQUE_ARGS), Optimisation())
        res = multiprocessing_depthbounded_search(
            clique_spec_factory, CLIQUE_ARGS, decision_factory, (seq.value,),
            n_processes=2, d_cutoff=1,
        )
        assert res.found is True
        assert res.value == seq.value
        # The witness is the finder's, whichever run stopped first.
        assert validate_result(clique_spec_factory(*CLIQUE_ARGS), res)

    def test_decision_refuted(self):
        seq = sequential_search(clique_spec_factory(*CLIQUE_ARGS), Optimisation())
        res = multiprocessing_depthbounded_search(
            clique_spec_factory, CLIQUE_ARGS, decision_factory, (seq.value + 1,),
            n_processes=2, d_cutoff=1,
        )
        assert res.found is False

    def test_single_process(self):
        seq = sequential_search(clique_spec_factory(*CLIQUE_ARGS), Optimisation())
        res = multiprocessing_depthbounded_search(
            clique_spec_factory, CLIQUE_ARGS, optimisation_factory,
            n_processes=1, d_cutoff=2,
        )
        assert res.value == seq.value

    def test_bad_process_count(self):
        with pytest.raises(ValueError):
            multiprocessing_depthbounded_search(
                clique_spec_factory, CLIQUE_ARGS, optimisation_factory,
                n_processes=0,
            )

    def test_workers_reported(self):
        res = multiprocessing_depthbounded_search(
            clique_spec_factory, CLIQUE_ARGS, optimisation_factory,
            n_processes=3, d_cutoff=1,
        )
        assert res.workers == 3
        assert res.wall_time is not None


class TestCutoffDepth:
    """``d_cutoff`` is the depth the parent cuts the tree at: the tasks
    are the frontier :func:`ordered_frontier` numbers, whatever the
    depth.  (Draining only the root task cut at depth 1 whatever the
    knob said — 30 tasks on this clique and a single one on this UTS
    tree at every cutoff — which value and node count cannot see.)"""

    @pytest.mark.parametrize("d_cutoff, tasks", [(1, 30), (2, 219), (3, 514)])
    def test_optimisation_spawns_the_whole_frontier(self, d_cutoff, tasks):
        args = (30, 0.5, 7)
        spec = clique_spec_factory(*args)
        frontier = ordered_frontier(spec, Optimisation(), d_cutoff=d_cutoff)
        res = multiprocessing_depthbounded_search(
            clique_spec_factory, args, optimisation_factory,
            n_processes=2, d_cutoff=d_cutoff,
        )
        assert res.metrics.spawns == len(frontier.tasks) == tasks
        assert res.value == sequential_search(spec, Optimisation()).value

    @pytest.mark.parametrize("d_cutoff, tasks", [(1, 1), (2, 9), (3, 66)])
    def test_enumeration_spawns_the_whole_frontier(self, d_cutoff, tasks):
        args = (4.0, 6, 439092716)
        spec = uts_spec_factory(*args)
        seq = sequential_search(spec, Enumeration())
        frontier = ordered_frontier(spec, Enumeration(), d_cutoff=d_cutoff)
        res = multiprocessing_depthbounded_search(
            uts_spec_factory, args, enumeration_factory,
            n_processes=2, d_cutoff=d_cutoff,
        )
        assert res.metrics.spawns == len(frontier.tasks) == tasks
        assert res.value == seq.value
        assert res.metrics.nodes == seq.metrics.nodes


def singleton_spec_factory():
    """A one-node tree: the depth-d frontier is empty."""
    from tests.conftest import make_toy_spec

    return make_toy_spec({}, {"root": 5})


def toy_spec_factory():
    """A small fixed tree (picklable rebuild of the conftest toy)."""
    from tests.conftest import make_toy_spec

    children = {"root": ["a", "b", "c"], "a": ["aa", "ab"], "c": ["ca"],
                "ca": ["caa"]}
    values = {"root": 0, "a": 1, "b": 5, "c": 2, "aa": 3, "ab": 2, "ca": 7,
              "caa": 4}
    return make_toy_spec(children, values)


def exploding_spec_factory():
    """A spec whose node generator raises below the spawn frontier, so
    the failure happens inside a worker process, not the parent."""
    from repro.core.nodegen import ListNodeGenerator
    from repro.core.space import SearchSpec

    children = {"root": ["a", "b"], "a": ["aa"], "b": ["bb"]}
    values = {"root": 0, "a": 1, "b": 2, "aa": 3, "bb": 4}

    def generator(space, node):
        if node in ("aa", "bb"):
            raise RuntimeError(f"generator exploded at {node}")
        return ListNodeGenerator(list(children.get(node, [])))

    return SearchSpec(
        name="exploding",
        space=None,
        root="root",
        generator=generator,
        objective=lambda node: values[node],
        upper_bound=None,
    )


BUILDS = []  # the tags counted_toy_spec_factory built in this process


def counted_toy_spec_factory(tag):
    """toy_spec_factory, noting each build in the calling process."""
    BUILDS.append(tag)
    return toy_spec_factory()


class TestEdgeCases:
    def test_the_parent_builds_a_spec_again_only_for_another_key(self):
        # The parent keeps the specs of its last jobs, keyed as every
        # worker keeps its own: (spec_factory, factory_args).
        BUILDS.clear()
        for tag in ("a", "a", "b", "b", "a"):
            res = multiprocessing_depthbounded_search(
                counted_toy_spec_factory, (tag,), optimisation_factory,
                n_processes=2, d_cutoff=1,
            )
            assert res.value == 7
        assert BUILDS == ["a", "b"]

    def test_trivial_root_no_frontier(self):
        # A single-node tree spawns no tasks: the search completes in the
        # parent and no worker is started.
        seq = sequential_search(singleton_spec_factory(), Optimisation())
        res = multiprocessing_depthbounded_search(
            singleton_spec_factory, (), optimisation_factory,
            n_processes=2, d_cutoff=2,
        )
        assert res.value == seq.value == 5
        assert res.node == seq.node
        assert res.metrics.nodes == seq.metrics.nodes == 1

    def test_cutoff_deeper_than_tree(self):
        # Every leaf is inside the parent's expansion: frontier tasks are
        # leaves or nothing; the result must still match sequential.
        seq = sequential_search(toy_spec_factory(), Optimisation())
        res = multiprocessing_depthbounded_search(
            toy_spec_factory, (), optimisation_factory,
            n_processes=2, d_cutoff=10,
        )
        assert res.value == seq.value

    def test_enumeration_parity_on_toy_tree(self):
        seq = sequential_search(toy_spec_factory(), Enumeration())
        res = multiprocessing_depthbounded_search(
            toy_spec_factory, (), enumeration_factory,
            n_processes=2, d_cutoff=1,
        )
        assert res.value == seq.value
        assert res.metrics.nodes == seq.metrics.nodes

    def test_worker_exception_propagates(self):
        # A raising generator inside a worker must surface to the caller,
        # not hang the pool or be swallowed.
        with pytest.raises(RuntimeError, match="generator exploded"):
            multiprocessing_depthbounded_search(
                exploding_spec_factory, (), optimisation_factory,
                n_processes=2, d_cutoff=1,
            )


class TestRunLibrarySearch:
    def test_matches_sequential_skeleton(self):
        res = run_library_search("brock90-1")
        from repro.instances.library import spec_for

        spec, _, _ = spec_for("brock90-1")
        seq = sequential_search(spec, Optimisation())
        assert res.value == seq.value

    def test_search_type_override_drops_default_kwargs(self):
        # kclique instances register decision targets; overriding to
        # optimisation must not leak the target kwarg.
        res = run_library_search("kclique-planted-80",
                                 search_type="optimisation")
        assert res.kind == "optimisation"
        assert res.value >= 18

    def test_params_dict_applied(self):
        res = run_library_search(
            "brock90-1", skeleton="depthbounded",
            params={"workers_per_locality": 4, "d_cutoff": 2},
        )
        assert res.workers == 4

    def test_unknown_instance_raises(self):
        with pytest.raises(KeyError):
            run_library_search("no-such-instance")


# -- SIGTERM -> SIGKILL escalation ------------------------------------------


def _cooperative_child(ready):
    """Sleep forever, but exit promptly (and cleanly) on SIGTERM."""
    import signal
    import time

    def _on_term(signum, frame):
        raise SystemExit(143)

    signal.signal(signal.SIGTERM, _on_term)
    ready.set()
    while True:
        time.sleep(0.05)


def _stubborn_child(ready):
    """Ignore SIGTERM entirely; only SIGKILL can end this."""
    import signal
    import time

    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    ready.set()
    while True:
        time.sleep(0.05)


class TestGracefulStop:
    def test_cooperative_child_dies_on_sigterm(self):
        from multiprocessing import Event, Process

        from repro.runtime.processes import graceful_stop

        ready = Event()
        proc = Process(target=_cooperative_child, args=(ready,), daemon=True)
        proc.start()
        assert ready.wait(timeout=10.0)  # handler installed before TERM
        graceful_stop(proc, grace=5.0)
        assert not proc.is_alive()
        # SIGTERM rung sufficed: the handler's SystemExit code survives.
        assert proc.exitcode == 143

    def test_stubborn_child_escalates_to_sigkill(self):
        from multiprocessing import Event, Process

        from repro.runtime.processes import graceful_stop

        ready = Event()
        proc = Process(target=_stubborn_child, args=(ready,), daemon=True)
        proc.start()
        assert ready.wait(timeout=10.0)
        graceful_stop(proc, grace=0.3)
        assert not proc.is_alive()
        assert proc.exitcode == -9  # killed, not terminated

    def test_dead_child_is_a_noop(self):
        from multiprocessing import Process

        from repro.runtime.processes import graceful_stop

        proc = Process(target=_noop_child, daemon=True)
        proc.start()
        proc.join(timeout=10.0)
        graceful_stop(proc)  # must not raise on an already-dead process
        assert proc.exitcode == 0


def _noop_child():
    """Exit immediately."""

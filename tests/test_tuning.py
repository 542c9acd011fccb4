"""Tests for the simulated tuning sweep (§5.5 tooling)."""

import pytest

from repro.core.searchtypes import Enumeration, Optimisation
from repro.tuning import tune

from tests.conftest import make_toy_spec


def wide_spec(width=5, depth=4):
    children = {}
    values = {"root": 1}

    def grow(name, d):
        if d == depth:
            return
        kids = [f"{name}/{i}" for i in range(width)]
        children[name] = kids
        for k in kids:
            values[k] = 1
            grow(k, d + 1)

    grow("root", 0)
    return make_toy_spec(children, values, with_bound=False)


@pytest.fixture(scope="module")
def report():
    return tune(
        wide_spec(),
        Enumeration(),
        localities=1,
        workers_per_locality=4,
        d_cutoffs=(1, 2),
        budgets=(5, 50),
    )


class TestTune:
    def test_sweep_covers_all_points(self, report):
        # depthbounded x2 + stacksteal x2 + budget x2
        assert len(report.results) == 6
        assert {r.skeleton for r in report.results} == {
            "depthbounded",
            "stacksteal",
            "budget",
        }

    def test_best_is_max_speedup(self, report):
        assert report.best.speedup == max(r.speedup for r in report.results)

    def test_best_for_skeleton(self, report):
        best_db = report.best_for("depthbounded")
        assert best_db.skeleton == "depthbounded"
        assert best_db.speedup >= min(
            r.speedup for r in report.results if r.skeleton == "depthbounded"
        )

    def test_best_for_unknown_skeleton(self, report):
        with pytest.raises(ValueError):
            report.best_for("ordered")

    def test_ranked_descending(self, report):
        speeds = [r.speedup for r in report.ranked()]
        assert speeds == sorted(speeds, reverse=True)

    def test_render(self, report):
        text = report.render()
        assert "recommendation:" in text
        assert "speedup" in text

    def test_parallel_gains_on_regular_tree(self, report):
        # A regular 5^4 tree on 4 workers must show real speedup for at
        # least one configuration.
        assert report.best.speedup > 2.0

    def test_sequential_not_tunable(self):
        with pytest.raises(ValueError):
            tune(wide_spec(), Enumeration(), skeletons=("sequential",))

    def test_unknown_skeleton_rejected(self):
        with pytest.raises(ValueError):
            tune(wide_spec(), Enumeration(), skeletons=("bestfirst",))

    def test_extension_skeletons_tunable(self):
        report = tune(
            wide_spec(width=4, depth=3),
            Enumeration(),
            localities=1,
            workers_per_locality=3,
            skeletons=("ordered",),
            d_cutoffs=(1,),
        )
        assert {r.skeleton for r in report.results} == {"ordered"}

    def test_optimisation_tuning(self):
        from repro.apps.maxclique import maxclique_spec
        from repro.instances.graphs import uniform_graph

        report = tune(
            maxclique_spec(uniform_graph(30, 0.5, seed=7)),
            Optimisation(),
            localities=1,
            workers_per_locality=4,
            d_cutoffs=(1, 2),
            budgets=(10,),
        )
        assert report.best.speedup > 0
        # determinism: same sweep, same report
        again = tune(
            maxclique_spec(uniform_graph(30, 0.5, seed=7)),
            Optimisation(),
            localities=1,
            workers_per_locality=4,
            d_cutoffs=(1, 2),
            budgets=(10,),
        )
        assert [r.speedup for r in report.ranked()] == [
            r.speedup for r in again.ranked()
        ]

    def test_empty_report_best_raises(self):
        from repro.tuning import TuningReport

        with pytest.raises(ValueError):
            TuningReport("x", 1, 1.0).best

"""Tests for the named instance registry."""

import sys
import threading

import pytest

from repro.core.sequential import sequential_search
from repro.core.space import SearchSpec
from repro.instances.library import (
    APPS,
    instance_names,
    library_spec_factory,
    load_instance,
    resolve_job,
    spec_for,
    suite,
)


class TestRegistry:
    def test_names_nonempty(self):
        assert len(instance_names()) >= 25

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            load_instance("nonexistent-instance")

    def test_load_is_memoised(self):
        a = load_instance("sanr90-1")
        b = load_instance("sanr90-1")
        assert a is b

    def test_every_app_has_a_suite(self):
        for app in APPS:
            assert suite(app), f"no instances registered for {app}"

    def test_unknown_app_rejected(self):
        with pytest.raises(ValueError):
            suite("sudoku")

    def test_maxclique_suite_has_18_instances(self):
        # Table 1 compares 18 instances.
        assert len(suite("maxclique")) == 18


class TestSpecFor:
    def test_returns_spec_and_type(self):
        spec, stype, kwargs = spec_for("sanr90-1")
        assert isinstance(spec, SearchSpec)
        assert stype == "optimisation"
        assert kwargs == {}

    def test_decision_instances_carry_target(self):
        spec, stype, kwargs = spec_for("kclique-planted-80")
        assert stype == "decision"
        assert kwargs["target"] == 18

    def test_every_instance_spec_builds(self):
        for name in instance_names():
            spec, stype, kwargs = spec_for(name)
            assert spec.name
            gen = spec.children_of(spec.root)
            assert hasattr(gen, "has_next")

    def test_enumeration_suites(self):
        for name in suite("uts") + suite("ns"):
            _, stype, _ = spec_for(name)
            assert stype == "enumeration"

    def test_spec_is_memoised(self):
        # One spec per registry name and process: a service job looks
        # its spec up instead of relabelling the graph again.
        assert spec_for("sanr90-1")[0] is spec_for("sanr90-1")[0]
        assert library_spec_factory("sanr90-1") is spec_for("sanr90-1")[0]
        assert resolve_job("sanr90-1")[0] is spec_for("sanr90-1")[0]

    def test_kwargs_are_the_callers_own(self):
        _, _, kwargs = spec_for("kclique-planted-80")
        kwargs["target"] = 3
        assert spec_for("kclique-planted-80")[2]["target"] == 18

    @pytest.mark.parametrize("name", ["brock90-1", "tsp-rand-11", "uts-geo-med"])
    def test_threads_search_one_spec_at_once(self, name):
        # The memoised spec is shared by every scheduler thread: four
        # searches at once, switching often, must each see the
        # sequential tree.  A fresh spec, so its lazily filled caches
        # (Graph.inverted_adj) are filled in the race too.
        spec = library_spec_factory.__wrapped__(name)
        stype = resolve_job(name)[1]
        start = threading.Barrier(4)
        got = []

        def search() -> None:
            start.wait()
            res = sequential_search(spec, stype)
            got.append((res.value, res.metrics.nodes))

        threads = [threading.Thread(target=search) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        want = sequential_search(*resolve_job(name))
        assert got == [(want.value, want.metrics.nodes)] * 4


class TestDecoySip:
    def test_anomaly_structure(self):
        # The decoy instance's whole point (an acceleration anomaly for
        # parallel runs; cluster speedup itself is the ledger's
        # cluster.*.speedup_vs_seq): the only candidates for the first
        # pattern vertex are the three decoy hubs, then the planted
        # image — in that fail-first order.
        inst = load_instance("sip-decoy-24-200")
        p0 = inst.order[0]
        dp0 = inst.pattern.degree(p0)
        assert p0 == 0 and dp0 == inst.pattern.n - 1
        cands = [w for w in inst.target_by_degree
                 if inst.target.degree(w) >= dp0]
        pn = inst.pattern.n
        assert cands == [pn, pn + 1, pn + 2, 0]

    def test_planted_block_is_exact_copy(self):
        inst = load_instance("sip-decoy-24-200")
        pn = inst.pattern.n
        for u in range(pn):
            for v in range(u + 1, pn):
                assert inst.pattern.has_edge(u, v) == inst.target.has_edge(u, v)

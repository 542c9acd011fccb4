"""Tests for the multiprocessing Stack-Stealing backend.

Stack-stealing moves *live generator frames* between workers, so the
bar is: enumeration bit-identical to sequential (every node counted
exactly once no matter how the stack is split), optimisation exact in
value with a valid witness.  Work movement (steal counts) is timing
dependent and only sanity-checked, never pinned.
"""

import pytest

from repro.core.searchtypes import Enumeration, Optimisation
from repro.core.results import validate_result
from repro.core.sequential import sequential_search
from repro.runtime.processes import multiprocessing_stacksteal_search

from tests.runtime.test_processes import (
    CLIQUE_ARGS,
    clique_spec_factory,
    decision_factory,
    enumeration_factory,
    optimisation_factory,
    uts_spec_factory,
)

UTS_ARGS = (3.0, 6, 11)


class TestCorrectness:
    def test_optimisation_matches_sequential(self):
        spec = clique_spec_factory(*CLIQUE_ARGS)
        seq = sequential_search(spec, Optimisation())
        res = multiprocessing_stacksteal_search(
            clique_spec_factory, CLIQUE_ARGS, optimisation_factory,
            n_processes=3,
        )
        assert res.value == seq.value
        assert validate_result(spec, res)

    def test_enumeration_counts_exact(self):
        seq = sequential_search(uts_spec_factory(*UTS_ARGS), Enumeration())
        res = multiprocessing_stacksteal_search(
            uts_spec_factory, UTS_ARGS, enumeration_factory,
            n_processes=3, share_poll=16,
        )
        assert res.value == seq.value
        assert res.metrics.nodes == seq.metrics.nodes

    def test_decision_found(self):
        seq = sequential_search(
            clique_spec_factory(*CLIQUE_ARGS), Optimisation()
        )
        res = multiprocessing_stacksteal_search(
            clique_spec_factory, CLIQUE_ARGS, decision_factory, (seq.value,),
            n_processes=2,
        )
        assert res.found is True

    def test_unchunked_split_matches_sequential(self):
        # chunked=False steals a single frame per request instead of
        # half the victim's lowest level: different work movement, the
        # same answer and the same node accounting.
        seq = sequential_search(uts_spec_factory(*UTS_ARGS), Enumeration())
        res = multiprocessing_stacksteal_search(
            uts_spec_factory, UTS_ARGS, enumeration_factory,
            n_processes=3, chunked=False, share_poll=16,
        )
        assert res.value == seq.value
        assert res.metrics.nodes == seq.metrics.nodes

    def test_steals_are_counted(self):
        # A deep irregular tree shared among hungry workers: at least
        # one steal must actually happen (the whole tree starts as one
        # task, so 3 workers stay idle until thefts move work).  162 k
        # nodes: the victim is still searching at its first polls, when
        # fewer leases exist than workers and the others are hungry.
        res = multiprocessing_stacksteal_search(
            uts_spec_factory, (2.0, 16, 7), enumeration_factory,
            n_processes=4, share_poll=8,
        )
        assert res.metrics.steals > 0
        assert res.workers == 4


class TestEdgeCases:
    def test_single_process_degenerates_to_sequential(self):
        spec = uts_spec_factory(2.0, 4, 3)
        seq = sequential_search(spec, Enumeration())
        res = multiprocessing_stacksteal_search(
            uts_spec_factory, (2.0, 4, 3), enumeration_factory,
            n_processes=1,
        )
        assert res.value == seq.value
        assert res.metrics.nodes == seq.metrics.nodes
        assert res.metrics.steals == 0  # nobody to steal from

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError):
            multiprocessing_stacksteal_search(
                clique_spec_factory, CLIQUE_ARGS, optimisation_factory,
                n_processes=0,
            )
        with pytest.raises(ValueError):
            multiprocessing_stacksteal_search(
                clique_spec_factory, CLIQUE_ARGS, optimisation_factory,
                n_processes=2, share_poll=0,
            )

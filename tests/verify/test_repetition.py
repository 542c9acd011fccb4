"""Tests for the repetition oracle (``repro verify --repeat``).

Two satellites live here.  **Repetition stability**: every backend runs
the same seeded instance five times and the answer must not wobble —
with the replicable coordinations held to full bit-identical
fingerprints and the known value-stable-only cells documented as
``xfail``.  **Mutation sensitivity**: with the ``ordered-tiebreak``
mutation active the oracle must return a failing exit code at the
pinned seed, proving the witness really is inside the net.
"""

import json
import os

import pytest

from repro.core.results import SearchMetrics, SearchResult
from repro.verify.differential import run_config
from repro.verify.generators import Instance
from repro.verify.repetition import (
    REPLICABLE_BACKENDS,
    _cell_config,
    _diff,
    result_fingerprint,
    run_repetition,
)

# A maxclique cell small enough to run 5x per backend in-test but with
# real ties for arrival order to get wrong.
INSTANCE = Instance("maxclique", (14, 60, 3))
KNOBS = {"seed": 7, "d_cutoff": 2, "budget": 5, "share_poll": 16}

# The seed of the harness's own runs.
PINNED_SEED = 1

# The tie-break mutation shows only when a tied later-seq witness is
# merged after the earlier one.  At seed 1 that happens only on the
# 2- and 4-worker cells, when the schedule has it: the catch read 5 of
# 10 full-suite runs.  At this seed the round-1 draw puts tied optima
# in frontier tasks 0 and 1, which the one-worker cell's first two
# leases carry, both cut under the same bound before any report comes
# back; the one worker runs them in order, so the later witness lands
# last.  Scans caught it 15/15 on one worker and 10/10 on all cells,
# also with two CPU burners beside them.
TIEBREAK_SEED = 12


def _repeat_runs(backend, coordination, workers, n=5):
    cfg = _cell_config(backend, coordination, workers, dict(KNOBS))
    return [run_config(INSTANCE, cfg) for _ in range(n)]


class TestFingerprint:
    def _result(self, node):
        return SearchResult(
            kind="optimisation", value=4, node=node,
            metrics=SearchMetrics(nodes=10, prunes=2, backtracks=9,
                                  max_depth=3),
        )

    def test_value_fingerprint_excludes_witness(self):
        a = result_fingerprint(self._result(("x",)))
        b = result_fingerprint(self._result(("y",)))
        assert a == b
        assert set(a) == {"value", "found"}

    def test_counts_fingerprint_pins_witness_and_counters(self):
        a = result_fingerprint(self._result(("x",)), counts=True)
        b = result_fingerprint(self._result(("y",)), counts=True)
        assert a != b
        assert set(a) == {
            "value", "found", "node", "nodes", "prunes", "backtracks",
            "max_depth",
        }
        assert a["nodes"] == 10

    def test_reassigned_is_outside_the_fingerprint(self):
        res = self._result(("x",))
        res.metrics.reassigned = 7
        other = self._result(("x",))
        assert result_fingerprint(res, counts=True) == result_fingerprint(
            other, counts=True
        )

    def test_diff_names_each_differing_field(self):
        a = {"value": "1", "nodes": 5}
        b = {"value": "1", "nodes": 6}
        lines = _diff("left", a, "right", b)
        assert len(lines) == 1
        assert "nodes differs" in lines[0]
        assert _diff("l", a, "r", a) == []


class TestCellConfig:
    def test_worker_count_maps_per_backend(self):
        sim = _cell_config("sim", "ordered", 4, dict(KNOBS))
        assert sim.knobs["workers_per_locality"] == 4
        proc = _cell_config("processes", "ordered", 3, dict(KNOBS))
        assert proc.knobs["n_processes"] == 3
        clu = _cell_config("cluster", "ordered", 2, dict(KNOBS))
        assert clu.knobs["cluster_workers"] == 2
        seq = _cell_config("sequential", "anything", 9, dict(KNOBS))
        assert seq.backend == "sequential"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            _cell_config("gpu", "ordered", 2, {})


class TestValidation:
    def test_unknown_backend(self):
        with pytest.raises(ValueError, match="backend"):
            run_repetition(backend="quantum")

    def test_chaos_only_on_cluster(self):
        with pytest.raises(ValueError, match="chaos"):
            run_repetition(backend="processes", chaos=True)

    def test_repeat_must_be_positive(self):
        with pytest.raises(ValueError, match="repeat"):
            run_repetition(backend="sequential", repeat=0)


class TestAnswerStability:
    """Satellite: 5x repetition per backend on one seeded instance."""

    @pytest.mark.parametrize(
        "backend,coordination,workers",
        [
            ("sequential", "sequential", 1),
            ("sim", "ordered", 3),       # the simulator is deterministic
            ("processes", "ordered", 2),  # replicable by construction
        ],
    )
    def test_full_fingerprint_stable_5x(self, backend, coordination, workers):
        prints = [
            result_fingerprint(r, counts=True)
            for r in _repeat_runs(backend, coordination, workers)
        ]
        assert prints == [prints[0]] * 5

    def test_cluster_ordered_full_fingerprint_stable_5x(self):
        prints = [
            result_fingerprint(r, counts=True)
            for r in _repeat_runs("cluster", "ordered", 2)
        ]
        assert prints == [prints[0]] * 5

    def test_processes_budget_answer_stable_5x(self):
        # Budget is raced on purpose; the *answer* still must not move.
        prints = [
            result_fingerprint(r)
            for r in _repeat_runs("processes", "budget", 3)
        ]
        assert prints == [prints[0]] * 5

    @pytest.mark.xfail(
        reason="tracking: sim/ordered counts vary with the worker count "
        "(the simulated pool reorders expansion between ticks); the sim "
        "backend is held to the value-stability bar only",
        strict=False,
    )
    def test_sim_ordered_counts_stable_across_worker_counts(self):
        one = result_fingerprint(
            _repeat_runs("sim", "ordered", 1, n=1)[0], counts=True
        )
        four = result_fingerprint(
            _repeat_runs("sim", "ordered", 4, n=1)[0], counts=True
        )
        assert one == four

    def test_replicable_backends_constant(self):
        assert set(REPLICABLE_BACKENDS) == {"processes", "cluster"}


class TestHarness:
    def test_processes_ordered_rounds_pass(self, tmp_path):
        lines = []
        rc = run_repetition(
            backend="processes", coordination="ordered",
            seed=PINNED_SEED, rounds=2, repeat=3,
            artifact_dir=str(tmp_path), log=lines.append,
        )
        assert rc == 0
        assert list(tmp_path.iterdir()) == []  # artifacts only on failure
        assert any("stable" in line for line in lines)

    def test_cluster_round_includes_chaos_cell(self, tmp_path):
        lines = []
        rc = run_repetition(
            backend="cluster", coordination="ordered",
            seed=PINNED_SEED, rounds=1, repeat=2, worker_counts=(1, 2),
            artifact_dir=str(tmp_path), log=lines.append,
        )
        assert rc == 0
        # 1, 2 workers plus the pinned kill_worker cell.
        assert any("3 cell(s) stable" in line for line in lines)


class TestMutationSensitivity:
    """Satellite: the repetition oracle catches the planted tie-break bug."""

    def test_ordered_tiebreak_mutation_is_caught(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_MUTATION", "ordered-tiebreak")
        lines = []
        rc = run_repetition(
            backend="processes", coordination="ordered",
            seed=TIEBREAK_SEED, rounds=2, repeat=3,
            artifact_dir=str(tmp_path), log=lines.append,
        )
        assert rc == 1
        assert any("FAIL" in line for line in lines)
        # Round 0 is enumeration (witness-free, mutation invisible);
        # the optimisation round writes the artifact.
        path = tmp_path / "repeat-r1-processes-ordered.json"
        assert path.exists()
        artifact = json.loads(path.read_text())
        assert artifact["issues"]
        assert any("node differs" in issue for issue in artifact["issues"])
        assert artifact["reference"]["node"] is not None

    def test_clean_harness_passes(self):
        # Guard against the mutation leaking into the environment: the
        # identical call must be green with the switch unset.
        assert os.environ.get("REPRO_VERIFY_MUTATION") is None
        rc = run_repetition(
            backend="processes", coordination="ordered",
            seed=TIEBREAK_SEED, rounds=2, repeat=3,
        )
        assert rc == 0

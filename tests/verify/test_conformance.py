"""The tier-1 conformance matrix: a small fixed-seed slice of what the
nightly ``repro verify`` job runs at scale.

Everything here is deterministic: the instance stream, the knob draws
and the chaos plans are pure functions of the seeds below, so a failure
reproduces with ``repro verify --backend B --seed S``.
"""

import json
import os

import pytest

from repro.cluster.coordinator import ClusterJobFailed
from repro.cluster.local import cluster_search
from repro.core.searchtypes import make_search_type
from repro.verify.differential import run_verify
from repro.verify.generators import Instance, instance_spec

pytestmark = pytest.mark.conformance


class TestSimMatrix:
    # Each seed drives 5 rounds x (families cycling) x a fresh knob draw
    # over every sim coordination — cheap, in-process, deterministic.
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sim_conforms(self, seed):
        assert run_verify(backend="sim", seed=seed, rounds=5) == 0

    def test_sequential_conforms(self):
        # The oracle checked against itself: catches oracle regressions.
        assert run_verify(backend="sequential", seed=11, rounds=5) == 0


class TestRealParallelism:
    def test_processes_conform(self):
        assert run_verify(backend="processes", seed=2, rounds=3) == 0

    def test_cluster_conforms(self):
        assert run_verify(
            backend="cluster", seed=3, rounds=2, cluster_timeout=45.0
        ) == 0

    def test_cluster_survives_chaos(self):
        # Seeded fault schedules: kills, partitions, dropped frames,
        # delayed heartbeats — results must still conform exactly.
        assert run_verify(
            backend="cluster", seed=7, rounds=2, chaos=True,
            cluster_timeout=60.0,
        ) == 0


class TestEnumerationFailsLoudly:
    def test_worker_death_mid_enumeration_raises(self):
        # Losing a worker during enumeration is unrecoverable (part of
        # the accumulated sum dies with it); the contract is a loud
        # ClusterJobFailed, never a silently wrong total.
        inst = Instance("uts", (2, 3, 12345))
        with pytest.raises(ClusterJobFailed):
            cluster_search(
                instance_spec,
                (inst.family, inst.args),
                make_search_type("enumeration"),
                n_workers=1,
                budget=1,
                timeout=30.0,
                heartbeat_interval=0.1,
                heartbeat_timeout=1.0,
                fault_plan={
                    "events": [
                        {"kind": "kill_worker", "worker": "local-0",
                         "at_task": 1}
                    ]
                },
            )


class TestMutationSensitivity:
    """The harness must catch a deliberately broken incumbent merge.

    ``REPRO_VERIFY_MUTATION=incumbent-ordering`` flips
    ``Optimisation.combine`` to last-write-wins (see docs/verify.md):
    a worker publishing a *weaker* incumbent late then clobbers a
    better one during the parallel merge.  The sequential oracle never
    calls ``combine``, so it stays sound — exactly the asymmetry the
    differential harness exists to exploit.  Sim runs are deterministic,
    so the catching seed below fails every time.
    """

    SEED = 9  # fails at round 3: knapsack(7, ...) under 3 sim workers

    def test_incumbent_ordering_bug_caught_and_shrunk(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_VERIFY_MUTATION", "incumbent-ordering")
        rc = run_verify(
            backend="sim", seed=self.SEED, rounds=4,
            artifact_dir=str(tmp_path),
        )
        assert rc == 1
        artifacts = sorted(tmp_path.glob("fail-*.json"))
        assert artifacts, "a failing round must leave a repro artifact"
        repro = json.loads(artifacts[0].read_text())
        assert repro["issues"]
        assert repro["shrunk"] is not None
        shrunk = Instance.from_dict(repro["shrunk"])
        original = Instance.from_dict(repro["instance"])
        assert shrunk.family == original.family
        assert shrunk.args[-1] == original.args[-1]  # seed preserved

    def test_same_seed_clean_without_mutation(self, tmp_path):
        assert os.environ.get("REPRO_VERIFY_MUTATION") is None
        rc = run_verify(
            backend="sim", seed=self.SEED, rounds=4,
            artifact_dir=str(tmp_path),
        )
        assert rc == 0
        assert not list(tmp_path.glob("fail-*.json"))


class TestDriver:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            run_verify(backend="gpu", rounds=1)

    def test_chaos_requires_cluster(self):
        with pytest.raises(ValueError, match="chaos"):
            run_verify(backend="sim", chaos=True, rounds=1)

    def test_log_lines_name_every_cell(self):
        lines = []
        run_verify(backend="sequential", seed=11, rounds=2, log=lines.append)
        assert sum(": ok" in line for line in lines) == 2
        assert any("conform" in line for line in lines)

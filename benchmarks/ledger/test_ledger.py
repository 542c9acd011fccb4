"""Checks of the ledger itself.  Run explicitly (outside tier-1):

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q

The smoke scale (tiny instances, 3 measured seconds per workload, a 2 s
gateway loop) finishes all four workloads, traced, in under 30 s.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import time

import pytest

from benchmarks.ledger import cli
from benchmarks.ledger.instances import derive_pin
from benchmarks.ledger.runner import run_workload
from benchmarks.ledger.spec import (
    DECLARATION, END_TO_END, FULL, HERE, PER_LAYER, ROOT, SMOKE, WORKLOADS,
)

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_declaration_meets_the_contract():
    assert set(DECLARATION) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert DECLARATION["paths"] == [str(HERE.relative_to(ROOT))]
    assert DECLARATION["command"][-1].startswith(DECLARATION["paths"][0] + "/")
    assert 1 <= DECLARATION["run_seconds"] <= 60
    assert 2 <= len(DECLARATION["workloads"]) <= 8
    for w in DECLARATION["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(END_TO_END) <= 16 and 1 <= len(PER_LAYER) <= 128
    for m in DECLARATION["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in DECLARATION["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for m in DECLARATION["end_to_end"] + DECLARATION["per_layer"]]
    names += [w["name"] for w in DECLARATION["workloads"]]
    assert len(names) == len(set(names)), "a name is used twice"
    assert all(NAME.fullmatch(n) for n in names)
    for m in DECLARATION["end_to_end"] + DECLARATION["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
    setup = END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in END_TO_END.values())
    # 4 + 22 runs per workload, ~4 s of set-up and tear-down each.
    runs = 4 + 22 * len(WORKLOADS)
    assert runs * (DECLARATION["run_seconds"] + 4) <= 3420


def test_code_and_declaration_agree_on_workloads():
    assert list(WORKLOADS) == [w["name"] for w in DECLARATION["workloads"]]


@pytest.mark.parametrize("scale", [FULL, SMOKE], ids=lambda s: s.name)
def test_pins_follow_the_screening_rule(scale):
    for family in ("uts", "maxclique"):
        for sizing in (getattr(scale, family), getattr(scale, "micro_" + family)):
            args2, band, seed, nodes = sizing
            assert derive_pin(family, args2, band)[:2] == (seed, nodes)
            assert band[0] <= nodes <= band[1]


def test_smoke_reports_every_declared_metric_once_per_workload():
    started = time.perf_counter()
    for workload in WORKLOADS.values():
        result = run_workload(workload, 0, 3.0, True, SMOKE)
        assert result.failures == []
        assert result.correct and result.attempted >= 1
        for declared, values in ((END_TO_END, result.end_to_end), (PER_LAYER, result.per_layer)):
            assert set(values) == set(declared)
            for name, value in values.items():
                assert isinstance(value, (int, float)) and math.isfinite(value), name
        for per_layer in (False, True):
            line = json.loads(cli.contract_line(result, per_layer))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert list(line["metrics"]) == list(PER_LAYER if per_layer else END_TO_END)
        assert {"setup.instance", "setup.fleet", "rep", "cell.seq", "cell.procs.budget",
                "cell.cluster.ordered", "request", "submit", "poll"} <= set(result.span_summary)
        assert all(
            set(s) == {"id", "name", "start", "end", "parent", "run_id"} for s in result.spans
        )
    assert time.perf_counter() - started < 30.0


def test_uts_workloads_share_one_tree_and_differ_in_tasks():
    coarse = run_workload(WORKLOADS["enum-uts-coarse"], 0, 1.0, True, SMOKE)
    fine = run_workload(WORKLOADS["enum-uts-fine"], 0, 1.0, True, SMOKE)
    assert coarse.info["target"] == fine.info["target"]
    assert coarse.per_layer["core.sequential.nodes"] == fine.per_layer["core.sequential.nodes"]
    assert fine.per_layer["cluster.budget.tasks"] > coarse.per_layer["cluster.budget.tasks"]


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's
    own files there is no program to measure: no result, exit code != 0."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / HERE.relative_to(ROOT),
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    proc = subprocess.run(
        [sys.executable, *DECLARATION["command"][1:], "--workload", "gateway-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()

"""Tests for the YewPar-style command-line interface."""

import io

import pytest

from repro.cli import _params, build_parser, main
from repro.core.params import SkeletonParams


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestMaxClique:
    def test_library_instance_sequential(self):
        code, out = run_cli("maxclique", "--instance", "sanr90-1")
        assert code == 0
        assert "value: 11" in out
        assert "search type: optimisation" in out

    def test_decision_bound(self):
        code, out = run_cli(
            "maxclique", "--instance", "sanr90-1", "--decisionBound", "11"
        )
        assert code == 0
        assert "found: True" in out

    def test_decision_bound_unsat(self):
        code, out = run_cli(
            "maxclique", "--instance", "sanr90-1", "--decisionBound", "30"
        )
        assert "found: False" in out

    def test_parallel_run_reports_virtual_time(self):
        code, out = run_cli(
            "maxclique", "--instance", "sanr90-1",
            "--skeleton", "depthbounded", "-d", "2",
            "--localities", "2", "--workers", "4",
        )
        assert code == 0
        assert "virtual time:" in out
        assert "workers: 8" in out

    def test_dimacs_file(self, tmp_path):
        from repro.instances.dimacs import write_dimacs
        from repro.instances.graphs import planted_clique

        path = tmp_path / "g.clq"
        write_dimacs(planted_clique(30, 0.3, 8, seed=1), path)
        code, out = run_cli("maxclique", "-f", str(path))
        assert code == 0
        assert "value: 8" in out

    def test_wrong_app_instance_rejected(self):
        with pytest.raises(SystemExit):
            run_cli("maxclique", "--instance", "tsp-rand-12")


class TestOtherApps:
    def test_knapsack(self):
        code, out = run_cli("knapsack", "--instance", "knap-strong-28",
                            "--skeleton", "stacksteal", "--workers", "4")
        assert code == 0
        assert "value: 8265" in out

    def test_tsp(self):
        code, out = run_cli("tsp", "--instance", "tsp-rand-11")
        assert code == 0
        assert "search type: optimisation" in out

    def test_sip_decision(self):
        code, out = run_cli("sip", "--instance", "sip-planted-18-65")
        assert code == 0
        assert "found: True" in out

    def test_uts(self):
        code, out = run_cli("uts", "--shape", "geometric", "--b0", "3",
                            "--depth", "5", "--tree-seed", "2")
        assert code == 0
        assert "search type: enumeration" in out

    def test_ns_count_genus(self):
        code, out = run_cli("ns", "--genus", "8", "--count-genus")
        assert code == 0
        assert "value: 67" in out  # A007323(8)

    def test_ns_whole_tree(self):
        code, out = run_cli("ns", "--genus", "4")
        assert "value: 15" in out  # 1+1+2+4+7


class TestMisc:
    def test_list(self):
        code, out = run_cli("list")
        assert code == 0
        assert "maxclique:" in out
        assert "sanr90-1" in out

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            run_cli()


class TestSkeletonDefaults:
    @pytest.mark.parametrize(
        "app", ["maxclique", "knapsack", "tsp", "sip", "uts", "ns", "tune"]
    )
    def test_a_bare_search_runs_the_library_defaults(self, app):
        """`repro uts --skeleton stacksteal` runs what the same job runs
        submitted to the service: ``SkeletonParams()``, chunked steals
        included."""
        params = _params(build_parser().parse_args([app]))
        assert params == SkeletonParams()

    def test_no_chunked_selects_the_single_node_steal(self):
        parser = build_parser()
        assert _params(parser.parse_args(["uts", "--chunked"])).chunked is True
        assert _params(parser.parse_args(["uts", "--no-chunked"])).chunked is False


class TestTraceFlag:
    def test_trace_prints_gantt(self):
        code, out = run_cli(
            "maxclique", "--instance", "sanr90-1",
            "--skeleton", "stacksteal", "--workers", "4", "--trace",
        )
        assert code == 0
        assert "util|" in out

    def test_trace_ignored_for_sequential(self):
        code, out = run_cli("maxclique", "--instance", "sanr90-1", "--trace")
        assert code == 0
        assert "util|" not in out


class TestTuneCommand:
    def test_tune_prints_recommendation(self):
        code, out = run_cli("tune", "--instance", "brock100-1",
                            "--localities", "1", "--workers", "4")
        assert code == 0
        assert "recommendation:" in out
        assert "stacksteal" in out


class TestServiceCommands:
    def submit(self, jobfile, *extra):
        return run_cli(
            "submit", "--jobfile", str(jobfile),
            "--app", "maxclique", "--instance", "brock90-1", *extra,
        )

    def test_submit_appends_json_lines(self, tmp_path):
        import json

        jobfile = tmp_path / "jobs.jsonl"
        code, out = self.submit(jobfile, "--priority", "3")
        assert code == 0
        assert "key=" in out
        code, _ = self.submit(jobfile, "--submitter", "alice")
        assert code == 0
        lines = jobfile.read_text().splitlines()
        assert len(lines) == 2
        spec = json.loads(lines[0])
        assert spec["instance"] == "brock90-1"
        assert spec["priority"] == 3

    def test_submit_rejects_bad_param(self, tmp_path):
        with pytest.raises(SystemExit):
            self.submit(tmp_path / "jobs.jsonl", "--param", "notkeyvalue")

    def test_serve_runs_jobs_and_reports_metrics(self, tmp_path):
        jobfile = tmp_path / "jobs.jsonl"
        self.submit(jobfile)
        self.submit(jobfile, "--submitter", "bob")  # duplicate → coalesced
        run_cli("submit", "--jobfile", str(jobfile),
                "--app", "kclique", "--instance", "kclique-planted-80")
        code, out = run_cli("serve", "--jobfile", str(jobfile), "--pool", "2")
        assert code == 0
        assert "DONE" in out
        assert "(cache)" in out
        assert "service metrics:" in out
        assert "hit rate" in out

    def test_serve_writes_results_jsonl(self, tmp_path):
        import json

        from repro.core.results import result_from_dict

        jobfile = tmp_path / "jobs.jsonl"
        results = tmp_path / "out.jsonl"
        self.submit(jobfile)
        code, _ = run_cli("serve", "--jobfile", str(jobfile),
                          "--results", str(results))
        assert code == 0
        records = [json.loads(l) for l in results.read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["state"] == "DONE"
        back = result_from_dict(records[0]["result"])
        assert back.value == 14

    def test_serve_reports_bad_lines_and_fails(self, tmp_path):
        jobfile = tmp_path / "jobs.jsonl"
        self.submit(jobfile)
        with open(jobfile, "a") as fh:
            fh.write('{"app": "maxclique", "instance": "no-such-instance"}\n')
            fh.write("not json at all\n")
        code, out = run_cli("serve", "--jobfile", str(jobfile))
        assert code == 1
        assert "rejected" in out
        assert "DONE" in out  # the good job still ran

    def test_serve_respects_timeout(self, tmp_path):
        jobfile = tmp_path / "jobs.jsonl"
        run_cli("submit", "--jobfile", str(jobfile),
                "--app", "ns", "--instance", "ns-genus-16",
                "--timeout", "0.05")
        code, out = run_cli("serve", "--jobfile", str(jobfile))
        assert code == 0  # TIMEOUT is a reported outcome, not a CLI failure
        assert "TIMEOUT" in out

    def test_serve_comment_and_blank_lines_ignored(self, tmp_path):
        jobfile = tmp_path / "jobs.jsonl"
        with open(jobfile, "w") as fh:
            fh.write("# a comment\n\n")
        self.submit(jobfile)
        code, out = run_cli("serve", "--jobfile", str(jobfile))
        assert code == 0
        assert "DONE" in out


class TestVerifyCommand:
    def test_verify_sequential_conforms(self):
        code, out = run_cli(
            "verify", "--backend", "sequential", "--seed", "11", "--rounds", "2"
        )
        assert code == 0
        assert "all 2 round(s) conform" in out

    def test_verify_failure_writes_artifacts_and_exits_1(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_VERIFY_MUTATION", "incumbent-ordering")
        code, out = run_cli(
            "verify", "--backend", "sim", "--seed", "9", "--rounds", "4",
            "--artifacts", str(tmp_path / "arts"),
        )
        assert code == 1
        assert "FAIL" in out
        assert list((tmp_path / "arts").glob("fail-*.json"))

    def test_verify_rejects_chaos_without_cluster(self):
        with pytest.raises(SystemExit):
            run_cli("verify", "--backend", "sim", "--chaos", "--rounds", "1")


class TestGatewayCommands:
    def test_submit_wait_requires_url(self):
        with pytest.raises(SystemExit, match="--wait requires --url"):
            run_cli("submit", "--app", "maxclique", "--instance", "brock90-1",
                    "--wait", "--jobfile", "-")

    def test_submit_url_unreachable_fails_cleanly(self):
        code, out = run_cli(
            "submit", "--url", "http://127.0.0.1:9", "--app", "maxclique",
            "--instance", "brock90-1",
        )
        assert code == 1
        assert "submit failed" in out

    def test_submit_url_rejects_non_http_schemes(self):
        with pytest.raises(SystemExit, match="http"):
            run_cli("submit", "--url", "ftp://example.org", "--app",
                    "maxclique", "--instance", "brock90-1")

    def test_gateway_top_unreachable_exits_1(self):
        code, out = run_cli(
            "gateway-top", "--url", "http://127.0.0.1:9", "--once"
        )
        assert code == 1
        assert "cannot scrape" in out

    def test_gateway_validates_flag_combinations(self):
        with pytest.raises(SystemExit, match="--shards"):
            run_cli("gateway", "--shards", "0")
        with pytest.raises(SystemExit, match="--adaptive requires"):
            run_cli("gateway", "--adaptive")
        with pytest.raises(SystemExit, match="--max-workers"):
            run_cli("gateway", "--adaptive", "--backend", "cluster",
                    "--min-workers", "3", "--max-workers", "1")

    def test_submit_and_wait_against_a_live_gateway(self):
        from repro.gateway import Gateway, GatewayHandle, ShardRouter

        handle = GatewayHandle(Gateway(ShardRouter(2), port=0))
        handle.start()
        try:
            code, out = run_cli(
                "submit", "--url", handle.url, "--app", "maxclique",
                "--instance", "brock90-1", "--skeleton", "budget",
                "--param", "budget=500", "--wait",
            )
            assert code == 0
            assert "queued maxclique/brock90-1" in out
            assert "done" in out
            assert "value:" in out
            # a second submission is served from the cache
            code, out = run_cli(
                "submit", "--url", handle.url, "--app", "maxclique",
                "--instance", "brock90-1", "--skeleton", "budget",
                "--param", "budget=500",
            )
            assert code == 0
            assert "cached" in out
        finally:
            handle.close()

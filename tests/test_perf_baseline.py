"""Tests for the perf-baseline pipeline and its ``bench`` front-end."""

import json

import pytest

from repro.experiments.baseline import SCHEMA, run_perf_baseline


@pytest.fixture(scope="module")
def small_doc():
    return run_perf_baseline(n_peers=200, n_requests=400, seed=7)


class TestPipeline:
    def test_document_shape(self, small_doc):
        assert small_doc["schema"] == SCHEMA
        assert set(small_doc["phases"]) == {
            "build", "trace", "chord_routes", "hieras_routes", "protocol_smoke",
            "peak_rss",
        }
        assert small_doc["phases"]["peak_rss"]["peak_rss_mb"] > 0.0
        for name, phase in small_doc["phases"].items():
            if name != "peak_rss":
                assert phase["wall_ms"] >= 0.0
        assert set(small_doc["metrics"]) == {"chord", "hieras", "protocol"}

    def test_both_stacks_covered(self, small_doc):
        for net in ("chord", "hieras"):
            m = small_doc["metrics"][net]
            assert m["lookups"] == small_doc["config"]["n_requests"]
            assert m["hops"]["count"] == 400.0
            assert m["latency_ms"]["mean"] > 0.0
        assert small_doc["metrics"]["chord"]["low_layer_hop_share"] == 0.0
        assert small_doc["metrics"]["hieras"]["low_layer_hop_share"] > 0.0

    def test_protocol_smoke_counters(self, small_doc):
        proto = small_doc["metrics"]["protocol"]
        assert proto["lookups_completed"] == proto["lookups_issued"]
        assert proto["counters"]["sim.messages_sent"] > 0
        assert proto["counters"]["sim.events_processed"] > 0
        assert proto["counters"]["protocol.lookups"] >= proto["lookups_issued"]

    def test_same_seed_reproduces_metrics(self, small_doc):
        again = run_perf_baseline(n_peers=200, n_requests=400, seed=7)
        # Wall times may differ; the metrics section must not.
        assert again["metrics"] == small_doc["metrics"]
        assert again["config"] == small_doc["config"]

    def test_different_seed_differs(self, small_doc):
        other = run_perf_baseline(n_peers=200, n_requests=400, seed=8)
        assert other["metrics"] != small_doc["metrics"]


class TestCli:
    def test_perf_baseline_subcommand_writes_artifact(self, tmp_path, monkeypatch, capsys):
        from repro.experiments.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["bench", "perf_baseline", "--out", "BENCH_baseline.json"]) == 0
        out = capsys.readouterr().out
        assert "wrote BENCH_baseline.json" in out
        doc = json.loads((tmp_path / "BENCH_baseline.json").read_text())
        assert doc["schema"] == SCHEMA
        assert doc["metrics"]["hieras"]["low_layer_hop_share"] > 0.5
        for net in ("chord", "hieras"):
            assert doc["metrics"][net]["lookups"] == doc["config"]["n_requests"]

    def test_run_emits_metrics_artifact(self, tmp_path, monkeypatch, capsys):
        from repro.experiments.cli import main

        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        assert main(["run", "table1"]) == 0
        artifact = tmp_path / "metrics_table1.json"
        assert artifact.exists()
        doc = json.loads(artifact.read_text())
        assert doc["experiment"] == "table1"
        assert doc["diverged"] is False
        assert "data" in doc

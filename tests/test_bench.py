"""Tests for the shared BENCH document format and the ``bench`` command."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import cli, figures
from repro.experiments.bench import PhaseTimer, wall_times, write_json
from repro.experiments.figures import EXPERIMENTS, Experiment, ExperimentResult

ROOT = Path(__file__).resolve().parent.parent
BENCH_IDS = [e.id for e in EXPERIMENTS.values() if e.bench_out]


def test_bench_ids_are_the_seven_bench_documents():
    assert {EXPERIMENTS[i].bench_out for i in BENCH_IDS} == {
        "BENCH_baseline.json", "BENCH_batchroute.json", "BENCH_cache.json",
        "BENCH_durability.json", "BENCH_scale.json", "BENCH_scenarios.json",
        "BENCH_serve.json",
    }


@pytest.mark.parametrize("experiment_id", BENCH_IDS)
def test_write_json_reproduces_committed_doc(experiment_id, tmp_path):
    """The one writer is byte-stable: sorted keys, indent 2, final newline."""
    committed = ROOT / EXPERIMENTS[experiment_id].bench_out
    doc = json.loads(committed.read_text(encoding="utf-8"))
    first = write_json(doc, tmp_path / "a.json").read_text(encoding="utf-8")
    second = write_json(doc, tmp_path / "b.json").read_text(encoding="utf-8")
    assert first == second == committed.read_text(encoding="utf-8")
    assert first.endswith("}\n") and not first.endswith("\n\n")
    assert list(json.loads(first)) == sorted(doc)


def test_write_json_creates_parent_dirs_and_converts_numpy(tmp_path):
    path = write_json({"b": np.int64(3), "a": np.arange(2)}, tmp_path / "x" / "y.json")
    assert path.read_text(encoding="utf-8") == '{\n  "a": [\n    0,\n    1\n  ],\n  "b": 3\n}\n'


class TestPhaseTimer:
    def test_phases_keys_and_peak_rss(self):
        timer = PhaseTimer()
        with timer.phase("build"):
            pass
        with timer.phase("cell", key="scalar_wall_ms"):
            pass
        with timer.phase("cell", key="batch_wall_ms", rss=True) as entry:
            entry["speedup"] = 2.0
        phases = timer.finish()
        assert set(phases) == {"build", "cell", "peak_rss"}
        assert set(phases["build"]) == {"wall_ms"}
        assert set(phases["cell"]) == {
            "scalar_wall_ms", "batch_wall_ms", "peak_rss_mb", "speedup",
        }
        assert set(phases["peak_rss"]) == {"peak_rss_mb"}
        assert phases["peak_rss"]["peak_rss_mb"] > 0.0

    def test_wall_times_skips_phases_without_wall_ms(self):
        phases = {"build": {"wall_ms": 1.5}, "peak_rss": {"peak_rss_mb": 9.0}}
        assert wall_times(phases) == {"build": 1.5}


def _fake_bench(text: str) -> Experiment:
    return Experiment(
        "fake", "Fake", "claim",
        lambda full, seed: ExperimentResult("fake", "Fake", text, data={"schema": "fake/1"}),
        bench_out="BENCH_fake.json",
    )


class TestBenchCommand:
    def test_writes_data_to_default_out(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "EXPERIMENTS", {"fake": _fake_bench("  [ok] fine")})
        monkeypatch.chdir(tmp_path)
        assert cli.main(["bench", "fake"]) == 0
        assert json.loads((tmp_path / "BENCH_fake.json").read_text())["schema"] == "fake/1"
        out = capsys.readouterr().out
        assert "[ok] fine" in out and "wrote BENCH_fake.json" in out

    def test_exits_one_on_divergence(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "EXPERIMENTS", {"fake": _fake_bench("  [DIVERGES] nope")})
        out = tmp_path / "bench.json"
        assert cli.main(["bench", "fake", "--out", str(out)]) == 1
        assert out.exists()

    def test_rejects_ids_without_a_bench_document(self):
        with pytest.raises(SystemExit):
            cli.main(["bench", "table1"])


class TestMetricsArtifact:
    def test_run_creates_missing_artifact_dir(self, tmp_path, monkeypatch, capsys):
        tiny = Experiment(
            "tiny", "Tiny", "claim",
            lambda full, seed: ExperimentResult("tiny", "Tiny", "  [ok] fine", data={"n": 1}),
        )
        monkeypatch.setattr(figures, "EXPERIMENTS", {"tiny": tiny})
        artifact_dir = tmp_path / "missing" / "deeper"
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(artifact_dir))
        assert cli.main(["run", "tiny"]) == 0
        artifact = artifact_dir / "metrics_tiny.json"
        assert json.loads(artifact.read_text())["data"] == {"n": 1}
        assert f"wrote {artifact}" in capsys.readouterr().out

    def test_same_seed_runs_write_identical_artifacts(self, tmp_path, monkeypatch):
        """Wall time and the ``phases`` section stay out of the artifact,
        so two same-seed runs byte-compare."""
        runs = iter(range(2))
        noisy = Experiment(
            "noisy", "Noisy", "claim",
            lambda full, seed: ExperimentResult(
                "noisy", "Noisy", "  [ok] fine",
                data={"n": 1, "phases": {"build": {"wall_ms": float(next(runs))}}},
            ),
        )
        monkeypatch.setattr(figures, "EXPERIMENTS", {"noisy": noisy})
        texts = []
        for run in ("a", "b"):
            monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / run))
            assert cli.main(["run", "noisy"]) == 0
            texts.append((tmp_path / run / "metrics_noisy.json").read_text(encoding="utf-8"))
        assert texts[0] == texts[1]
        doc = json.loads(texts[0])
        assert "wall_s" not in doc
        assert "phases" not in doc["data"]
        assert doc["data"] == {"n": 1}

"""Self-tests of the benchmark at reduced sizes: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.engine import batch as engine_batch  # noqa: E402
from repro.serve import DHTService  # noqa: E402
from repro.topology.latency import StreamingTransitStubLatencyModel  # noqa: E402

from perfbench import compare, run  # noqa: E402
from perfbench.trace import Tracer, instrument_setup  # noqa: E402
from perfbench.workloads import SEGMENT_REQUESTS, SMALL, Round, _Clocked, deploy  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = 0.2


def _run(name: str, trace: bool, seed: int = 7):
    return run.run_workload(name, seed, SECONDS, trace, SMALL[name])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOADS)
def test_every_declared_metric_is_emitted_with_its_unit(name: str, trace: bool) -> None:
    result, errors, _, _ = _run(name, trace)
    assert errors == []
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert math.isfinite(entry["value"])
        if not trace:
            assert entry["value"] > 0, m["name"]


def _swap_first_owner(monkeypatch: pytest.MonkeyPatch) -> None:
    original = engine_batch.batch_route_hieras

    def corrupted(*args, **kwargs):
        result = original(*args, **kwargs)
        if len(result) > 1:
            result.owner[0] = result.owner[1] if result.owner[1] != result.owner[0] else 0
        return result

    monkeypatch.setattr(engine_batch, "batch_route_hieras", corrupted)


@pytest.mark.parametrize("name", ["lookup_streaming", "churn_faults"])
def test_a_swapped_owner_trips_the_gate(name: str, monkeypatch: pytest.MonkeyPatch) -> None:
    _swap_first_owner(monkeypatch)
    result, errors, _, _ = _run(name, False)
    assert errors and result["correct"] is False


def test_a_lost_completion_trips_the_serve_gate(monkeypatch: pytest.MonkeyPatch) -> None:
    original = DHTService.run

    def lossy(self, requests):
        result = original(self, requests)
        result.completions.pop()
        return result

    monkeypatch.setattr(DHTService, "run", lossy)
    result, errors, _, _ = _run("serve_mixed", False)
    assert any("arrivals" in e for e in errors) and result["correct"] is False


def test_a_wrong_stub_latency_trips_the_streaming_gate(monkeypatch: pytest.MonkeyPatch) -> None:
    original = StreamingTransitStubLatencyModel.pairs
    monkeypatch.setattr(StreamingTransitStubLatencyModel, "pairs",
                        lambda self, us, vs: original(self, us, vs) + 1.0)
    result, errors, _, _ = _run("lookup_streaming", False)
    assert any("Dijkstra" in e for e in errors) and result["correct"] is False


DETERMINISTIC = ("hieras_latency_ratio", "sim_p50_ms", "sim_p999_ms")


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_gives_identical_deterministic_metrics(name: str) -> None:
    first, _, _, _ = _run(name, False, seed=11)
    second, _, _, _ = _run(name, False, seed=11)
    other, _, _, _ = _run(name, False, seed=12)
    for metric in DETERMINISTIC:
        assert first["metrics"][metric] == second["metrics"][metric]
    assert any(first["metrics"][m] != other["metrics"][m] for m in DETERMINISTIC)


def test_churn_fractions_repeat_for_a_seed() -> None:
    first, _, _, _ = _run("churn_faults", True, seed=5)
    second, _, _, _ = _run("churn_faults", True, seed=5)
    for metric in ("failed_fraction", "key_loss_fraction"):
        assert first["metrics"][metric] == second["metrics"][metric]
    assert first["metrics"]["failed_fraction"]["value"] > 0


SETUP_LAYERS = ("topology.generate", "topology.latency.build", "topology.attach",
                "topology.landmarks", "dht.chord.build", "core.binning.orders",
                "core.hieras.build")


def test_traced_setup_times_each_step_of_the_program_build() -> None:
    import repro.scale.bundle as bundle

    before = dict(vars(bundle))
    tracer = Tracer()
    with instrument_setup(tracer):
        dep = deploy(600, streaming=False)
    assert dict(vars(bundle)) == before
    for layer in SETUP_LAYERS:
        assert tracer.calls(layer) >= 1, layer
    assert tracer.root_s > 0
    assert dep.hieras.n_peers == 600


def test_splice_gauges_come_from_the_network_counters() -> None:
    result, _, gauges, _ = _run("churn_faults", True)
    # One graceful leave and one rejoin per stack: two waves on each of two stacks.
    assert gauges["ring.splice.waves"] == 4
    assert gauges["ring.full_rebuilds"] == 0
    assert result["metrics"]["ring.splice.rings_spliced"]["value"] > 0


def test_throughput_sums_each_pieces_fastest_time() -> None:
    rounds = [Round(requests=12, segment_s=[1.0, 5.0]), Round(requests=12, segment_s=[3.0, 2.0])]
    assert run._requests_per_s(rounds) == 12 / 3.0
    with pytest.raises(ValueError):
        run._requests_per_s(rounds + [Round(requests=12, segment_s=[1.0])])


def test_clocked_requests_cut_a_run_into_fixed_pieces() -> None:
    clocked = _Clocked(range(3 * SEGMENT_REQUESTS + 1))
    assert list(clocked) == list(range(3 * SEGMENT_REQUESTS + 1))
    assert len(clocked.pieces()) == 4


def test_missing_sources_exit_nonzero_without_a_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lookup_streaming", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


@pytest.mark.parametrize(("old", "new", "better", "expected"), [
    ([100, 101, 99, 100], [130, 131, 129, 130], "lower", "regressed"),
    ([100, 101, 99, 100], [80, 81, 79, 80], "lower", "improved"),
    ([100, 101, 99, 100], [102, 101, 103, 102], "lower", "within"),
    ([100, 160, 60, 100], [102, 101, 103, 102], "lower", "unresolved"),
    ([100, 101, 99, 100], [80, 81, 79, 80], "higher", "regressed"),
    ([100, 101, 99, 100], [130, 131, 129, 130], "higher", "improved"),
    # A better median is no gain unless the new side wins 90 % of the seeds.
    ([100, 101, 99, 100, 100, 101, 99, 100, 100, 101],
     [80, 80, 80, 80, 80, 80, 80, 80, 120, 120], "lower", "within"),
])
def test_compare_verdicts(old: list[float], new: list[float], better: str, expected: str) -> None:
    bound = 0.2 if len(old) > 4 else 0.1
    assert compare.verdict(dict(enumerate(old)), dict(enumerate(new)), better, bound)[3] == expected


def test_record_alternates_which_checkout_goes_first(monkeypatch: pytest.MonkeyPatch,
                                                     tmp_path: Path) -> None:
    order = []
    monkeypatch.setattr(compare, "_run_one",
                        lambda root, out, name, seed, trace, seconds: order.append(root) or True)
    a, b = tmp_path / "a", tmp_path / "b"
    assert compare.record([(a, a), (b, b)], ["lookup_streaming"], [1, 2, 3], 0, 1) == 0
    assert order == [a, b, b, a, a, b]

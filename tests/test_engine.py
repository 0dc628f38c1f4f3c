"""Tests for repro.engine — the vectorized batch routing engine.

The engine's contract is *bit-identical* semantics to the scalar
``route()`` loop: same owners, same paths, same hop counts and exact
float equality on latencies.  The property tests here sweep seeds ×
stacks × depths × successor-list settings and compare array-for-array
with no tolerance.
"""

import numpy as np
import pytest

from repro.analysis.stats import RouteSample, collect_routes
from repro.core.binning import BinningScheme
from repro.core.hieras import HierasNetwork
from repro.dht.chord import ChordNetwork
from repro.dht.base import ZeroLatency
from repro.engine import (
    BatchRouteResult,
    batch_route,
    scalar_batch_route,
    supports_batch,
)
from repro.metrics.registry import MetricsRegistry
from repro.metrics.sinks import JsonlSink
from repro.metrics.spans import SpanRecorder
from repro.topology.latency import CoordinateLatencyModel
from repro.util.ids import IdSpace


def build_pair(
    n=120, depth=2, seed=5, bits=16, landmarks=4, latency=True, **hieras_kw
):
    """A (chord, hieras) pair over a synthetic planar deployment."""
    rng = np.random.default_rng(seed)
    space = IdSpace(bits)
    ids = space.sample_unique_ids(n, rng)
    distances = rng.uniform(0, 300, size=(n, landmarks))
    orders = BinningScheme.default_for_depth(max(depth, 2)).orders(distances)
    model = (
        CoordinateLatencyModel(rng.uniform(0, 500, size=(n, 2)))
        if latency
        else ZeroLatency()
    )
    chord = ChordNetwork(space, ids, latency=model)
    hieras = HierasNetwork(
        space, ids, latency=model, landmark_orders=orders, depth=depth, **hieras_kw
    )
    return chord, hieras


def make_requests(network, n_requests, seed):
    rng = np.random.default_rng(seed ^ 0x5EED)
    sources = rng.integers(0, network.n_peers, size=n_requests)
    keys = rng.integers(0, network.space.size, size=n_requests, dtype=np.uint64)
    return sources, keys


def assert_identical(batch: BatchRouteResult, scalar: BatchRouteResult):
    """Bit-exact equality of every array the engine promises."""
    assert np.array_equal(batch.owner, scalar.owner)
    assert np.array_equal(batch.hops, scalar.hops)
    assert np.array_equal(batch.hops_per_layer, scalar.hops_per_layer)
    # Exact float equality — the contract, not np.allclose.
    assert np.array_equal(batch.latency_ms, scalar.latency_ms)
    assert np.array_equal(
        batch.low_layer_latency_ms(), scalar.low_layer_latency_ms()
    )
    if batch.paths is not None and scalar.paths is not None:
        for lane in range(len(batch.hops)):
            assert batch.path(lane) == scalar.path(lane)


class TestBatchScalarEquivalence:
    """The tentpole property: batch ≡ scalar, bit for bit."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("depth", [2, 3])
    @pytest.mark.parametrize("r", [0, 8])
    def test_hieras_matches_scalar(self, seed, depth, r):
        _, net = build_pair(n=90, depth=depth, seed=seed, successor_list_r=r)
        sources, keys = make_requests(net, 300, seed)
        batch = batch_route(net, sources, keys, paths=True)
        scalar = scalar_batch_route(net, sources, keys, paths=True)
        assert_identical(batch, scalar)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("r", [0, 8])
    def test_chord_matches_scalar(self, seed, r):
        rng = np.random.default_rng(seed)
        space = IdSpace(16)
        ids = space.sample_unique_ids(90, rng)
        model = CoordinateLatencyModel(rng.uniform(0, 500, size=(90, 2)))
        net = ChordNetwork(space, ids, latency=model, successor_list_r=r)
        sources, keys = make_requests(net, 300, seed)
        batch = batch_route(net, sources, keys, paths=True)
        scalar = scalar_batch_route(net, sources, keys, paths=True)
        assert_identical(batch, scalar)

    @pytest.mark.parametrize("policy", ["transitions", "always", "off"])
    def test_hieras_policies(self, policy):
        _, net = build_pair(
            n=80, depth=3, seed=9, successor_list_r=6, successor_list_policy=policy
        )
        sources, keys = make_requests(net, 250, 9)
        assert_identical(
            batch_route(net, sources, keys, paths=True),
            scalar_batch_route(net, sources, keys, paths=True),
        )

    def test_zero_latency(self):
        chord, hieras = build_pair(n=60, seed=3, latency=False)
        for net in (chord, hieras):
            sources, keys = make_requests(net, 150, 3)
            assert_identical(
                batch_route(net, sources, keys, paths=True),
                scalar_batch_route(net, sources, keys, paths=True),
            )

    def test_exact_member_id_keys(self):
        chord, hieras = build_pair(n=50, seed=11)
        for net in (chord, hieras):
            rng = np.random.default_rng(11)
            sources = rng.integers(0, net.n_peers, size=net.n_peers)
            keys = np.asarray(
                [net.id_of(p) for p in range(net.n_peers)], dtype=np.uint64
            )
            assert_identical(
                batch_route(net, sources, keys, paths=True),
                scalar_batch_route(net, sources, keys, paths=True),
            )

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_tiny_networks(self, n):
        chord, hieras = build_pair(n=n, seed=2)
        for net in (chord, hieras):
            sources, keys = make_requests(net, 64, n)
            assert_identical(
                batch_route(net, sources, keys, paths=True),
                scalar_batch_route(net, sources, keys, paths=True),
            )

    def test_source_owns_key(self):
        chord, _ = build_pair(n=40, seed=4)
        keys = np.asarray(
            [chord.id_of(p) for p in range(chord.n_peers)], dtype=np.uint64
        )
        owners = np.asarray([chord.owner_of(int(k)) for k in keys], dtype=np.int64)
        result = batch_route(chord, owners, keys)
        assert np.array_equal(result.owner, owners)
        assert np.array_equal(result.hops, np.zeros(len(keys), dtype=np.int64))
        assert np.array_equal(result.latency_ms, np.zeros(len(keys)))


class TestResultShape:
    def test_route_result_round_trip(self):
        _, net = build_pair(n=70, depth=3, seed=6)
        sources, keys = make_requests(net, 40, 6)
        result = batch_route(net, sources, keys, paths=True)
        for lane in (0, 7, 39):
            rr = result.to_route_result(lane)
            direct = net.route(int(sources[lane]), int(keys[lane]))
            assert rr.path == direct.path
            assert rr.owner == direct.owner
            assert rr.latency_ms == direct.latency_ms
            assert rr.hops_per_layer == direct.hops_per_layer

    def test_paths_require_opt_in(self):
        chord, _ = build_pair(n=30, seed=1)
        sources, keys = make_requests(chord, 10, 1)
        result = batch_route(chord, sources, keys)
        assert result.paths is None
        with pytest.raises(ValueError):
            result.path(0)

    def test_dead_source_rejected(self):
        chord, _ = build_pair(n=30, seed=1)
        chord.remove_peer(3)
        sources = np.asarray([3], dtype=np.int64)
        keys = np.asarray([123], dtype=np.uint64)
        with pytest.raises(ValueError):
            batch_route(chord, sources, keys)


def _traced_jsonl(net, path, route_all):
    """The JSONL span bytes ``route_all()`` records on ``net``."""
    sink = JsonlSink(path)
    net.enable_tracing(SpanRecorder(registry=MetricsRegistry(), sinks=[sink]))
    try:
        route_all()
    finally:
        net.disable_tracing()
        sink.close()
    return path.read_bytes()


class TestFallback:
    def test_subclass_not_batchable(self):
        class WeirdChord(ChordNetwork):
            def route(self, source, key):  # pragma: no cover - marker only
                return super().route(source, key)

        rng = np.random.default_rng(0)
        space = IdSpace(12)
        net = WeirdChord(space, space.sample_unique_ids(20, rng))
        assert not supports_batch(net)


class TestTracedBatch:
    """Tracing keeps the kernel and replays per-request-identical spans."""

    @pytest.mark.parametrize(
        "stack, depth, policy",
        [("chord", 2, "transitions")]
        + [
            ("hieras", depth, policy)
            for depth in (2, 3)
            for policy in ("transitions", "always", "off")
        ],
    )
    def test_traced_batch_spans_match_route_loop(self, tmp_path, stack, depth, policy):
        chord, hieras = build_pair(
            n=70, depth=depth, seed=8, successor_list_r=6,
            successor_list_policy=policy,
        )
        net = chord if stack == "chord" else hieras
        sources, keys = make_requests(net, 120, 8)
        results = []

        def traced_batch():
            results.append(batch_route(net, sources, keys))

        def route_loop():
            for s, k in zip(sources.tolist(), keys.tolist()):
                net.route(s, k)

        batch_bytes = _traced_jsonl(net, tmp_path / "batch.jsonl", traced_batch)
        loop_bytes = _traced_jsonl(net, tmp_path / "loop.jsonl", route_loop)
        assert batch_bytes.count(b"\n") == len(sources)
        assert batch_bytes == loop_bytes
        (result,) = results
        assert result.paths is None  # paths were routed for the replay only
        assert_identical(result, scalar_batch_route(net, sources, keys))

    @pytest.mark.parametrize("stack", ["chord", "hieras"])
    def test_traced_batch_route_runs_the_kernel(self, tmp_path, monkeypatch, stack):
        chord, hieras = build_pair(n=60, depth=3, seed=8)
        net = chord if stack == "chord" else hieras
        sources, keys = make_requests(net, 50, 8)
        want = scalar_batch_route(net, sources, keys, paths=True)

        def refuse(self, source, key):
            raise AssertionError("traced batch_route fell back to route()")

        monkeypatch.setattr(type(net), "route", refuse)
        got = []
        spans = _traced_jsonl(
            net,
            tmp_path / "spans.jsonl",
            lambda: got.append(batch_route(net, sources, keys, paths=True)),
        )
        assert spans.count(b"\n") == len(sources)
        assert_identical(got[0], want)


class TestExperimentWiring:
    def test_collect_routes_engines_agree(self):
        chord, hieras = build_pair(n=80, depth=3, seed=13)
        from repro.workloads.requests import generate_requests

        trace = generate_requests(
            300, chord.n_peers, chord.space, seed=np.random.default_rng(13)
        )
        for net in (chord, hieras):
            a = RouteSample.from_batch(
                scalar_batch_route(net, trace.sources, trace.keys)
            )
            b = collect_routes(net, trace)
            assert np.array_equal(a.hops, b.hops)
            assert np.array_equal(a.latency_ms, b.latency_ms)
            assert np.array_equal(a.low_layer_hops, b.low_layer_hops)
            assert np.array_equal(a.top_layer_hops, b.top_layer_hops)
            assert np.array_equal(a.low_layer_latency_ms, b.low_layer_latency_ms)

    def test_perf_baseline_metrics_identical_across_engines(self, monkeypatch):
        from repro.engine import batch as engine_batch
        from repro.experiments.baseline import run_perf_baseline

        b = run_perf_baseline(seed=3, n_peers=220, n_requests=300)
        # Force batch_route onto scalar_batch_route: traced route() calls.
        monkeypatch.setattr(engine_batch, "supports_batch", lambda net: False)
        a = run_perf_baseline(seed=3, n_peers=220, n_requests=300)
        assert a["metrics"] == b["metrics"]

    def test_cache_uncached_cell_identical_across_engines(self, monkeypatch):
        from repro.cache import CachePolicy
        from repro.experiments import cache_exp
        from repro.experiments.config import SimConfig
        from repro.experiments.runner import build_bundle

        bundle = build_bundle(
            SimConfig(model="ts", n_peers=260, n_landmarks=4, depth=2, seed=6)
        )
        trace = cache_exp.make_zipf_trace(
            bundle, 500, catalog_size=200, zipf_exponent=0.95
        )
        off = CachePolicy(capacity=0)
        for stack in ("chord", "hieras"):
            b = cache_exp.run_cache_cell(bundle, trace, stack=stack, policy=off)
            with monkeypatch.context() as m:
                # Force the per-request cache loop the fast path replaces.
                m.setattr(cache_exp, "supports_batch", lambda net: False)
                a = cache_exp.run_cache_cell(bundle, trace, stack=stack, policy=off)
            assert a == b

    def test_bench_batchroute_document(self):
        from repro.experiments.batchbench import SCHEMA, run_bench_batchroute

        doc = run_bench_batchroute(seed=2, sizes=(128,), n_requests=200)
        assert doc["schema"] == SCHEMA
        cells = doc["metrics"]["cells"]
        assert set(cells) == {"chord_n128", "hieras_n128"}
        assert all(c["engines_agree"] for c in cells.values())
        assert all(doc["phases"][name]["speedup"] > 0 for name in cells)


class TestBatchMembership:
    """add_peers/remove_peers/revive_peers ≡ their sequential singles."""

    def _state(self, net):
        ring = net.ring if isinstance(net, ChordNetwork) else net.global_ring
        return (
            [int(v) for v in ring.ids],
            [net.is_alive(p) for p in range(len(net._id_of_peer))],
        )

    def test_chord_remove_matches_sequential(self):
        a, _ = build_pair(n=60, seed=21)
        b, _ = build_pair(n=60, seed=21)
        victims = [3, 17, 42, 5]
        for v in victims:
            a.remove_peer(v)
        b.remove_peers(victims)
        assert self._state(a) == self._state(b)

    def test_hieras_remove_and_revive_match_sequential(self):
        _, a = build_pair(n=60, depth=3, seed=22)
        _, b = build_pair(n=60, depth=3, seed=22)
        victims = [8, 1, 33]
        for v in victims:
            a.remove_peer(v)
        b.remove_peers(victims)
        assert self._state(a) == self._state(b)
        for v in victims:
            a.revive_peer(v)
        b.revive_peers(victims)
        assert self._state(a) == self._state(b)
        for layer in range(2, a.depth + 1):
            assert a.ring_sizes(layer).tolist() == b.ring_sizes(layer).tolist()

    def test_chord_add_peers_matches_sequential(self):
        a, _ = build_pair(n=40, seed=23)
        b, _ = build_pair(n=40, seed=23)
        space = a.space
        fresh = [
            int(v)
            for v in space.sample_unique_ids(200, np.random.default_rng(99))
            if int(v) not in a.ring
        ][:5]
        idx_a = [a.add_peer(v) for v in fresh]
        idx_b = b.add_peers(fresh)
        assert idx_a == idx_b
        assert self._state(a) == self._state(b)

    def test_hieras_add_peers_matches_sequential(self):
        _, a = build_pair(n=40, depth=2, seed=24)
        _, b = build_pair(n=40, depth=2, seed=24)
        names = a.ring_name_of(0, 2)
        fresh = [
            int(v)
            for v in a.space.sample_unique_ids(200, np.random.default_rng(98))
            if int(v) not in a.global_ring
        ][:4]
        idx_a = [a.add_peer(v, [names]) for v in fresh]
        idx_b = b.add_peers(fresh, [[names] for _ in fresh])
        assert idx_a == idx_b
        assert self._state(a) == self._state(b)

    def test_remove_batch_is_atomic(self):
        chord, _ = build_pair(n=10, seed=25)
        before = self._state(chord)
        with pytest.raises(ValueError, match="not alive"):
            chord.remove_peers([2, 2])
        assert self._state(chord) == before
        with pytest.raises(ValueError, match="last peer"):
            chord.remove_peers(list(range(10)))
        assert self._state(chord) == before

    def test_add_batch_rejects_duplicates(self):
        chord, _ = build_pair(n=10, seed=26)
        existing = int(chord.ids[0])
        with pytest.raises(ValueError, match="already present"):
            chord.add_peers([existing])
        free = next(
            k for k in range(chord.space.size) if k not in chord.ring
        )
        with pytest.raises(ValueError, match="already present"):
            chord.add_peers([free, free])

    def test_empty_batches_are_noops(self):
        chord, hieras = build_pair(n=10, seed=27)
        for net in (chord, hieras):
            before = self._state(net)
            net.remove_peers([])
            net.revive_peers([])
            before_ring = net is hieras and net.rings_at_layer(2)
            assert self._state(net) == before
            if net is hieras:
                # no rebuild happened: the cached mapping is the same object
                assert net.rings_at_layer(2) is before_ring
        assert chord.add_peers([]) == []

    def test_routes_after_batch_churn(self):
        _, net = build_pair(n=50, depth=2, seed=28, successor_list_r=4)
        net.remove_peers([2, 7, 11, 30])
        sources = np.asarray(
            [p for p in range(50) if net.is_alive(p)][:20], dtype=np.int64
        )
        keys = make_requests(net, 20, 28)[1]
        assert_identical(
            batch_route(net, sources, keys, paths=True),
            scalar_batch_route(net, sources, keys, paths=True),
        )


class TestCachedAccessors:
    def test_ring_sizes_cached_and_fresh_after_rebuild(self):
        _, net = build_pair(n=60, depth=3, seed=30)
        sizes = net.ring_sizes(2)
        assert sizes is net.ring_sizes(2)  # cached, not rebuilt per call
        assert not sizes.flags.writeable
        total_before = int(sizes.sum())
        assert total_before == net.n_peers
        net.remove_peer(0)
        assert int(net.ring_sizes(2).sum()) == net.n_peers
        assert net.ring_sizes(2) is not sizes

    def test_rings_at_layer_cached(self):
        _, net = build_pair(n=60, depth=3, seed=31)
        assert net.rings_at_layer(2) is net.rings_at_layer(2)
        with pytest.raises(ValueError):
            net.ring_sizes(1)
        with pytest.raises(ValueError):
            net.ring_sizes(net.depth + 1)

"""Tests for the quick_network facade."""

import numpy as np
import pytest

from repro import quick_network
from repro.experiments.config import SimConfig
from repro.scale import build_scale_bundle
from repro.scale.bundle import SimulationBundle


@pytest.fixture(scope="module")
def bundle():
    return quick_network(n_peers=96, n_landmarks=4, depth=2, seed=5)


class TestQuickNetwork:
    def test_bundle_type_and_fields(self, bundle):
        assert isinstance(bundle, SimulationBundle)
        assert bundle.hieras.n_peers == 96
        assert bundle.chord.n_peers == 96
        assert bundle.attachment.n_landmarks == 4
        assert bundle.topology.is_connected()

    def test_route_and_route_chord_agree(self, bundle):
        for key in (0, 12345, 2**31):
            assert bundle.route(0, key).owner == bundle.route_chord(0, key).owner

    def test_deterministic(self):
        a = quick_network(n_peers=64, seed=9)
        b = quick_network(n_peers=64, seed=9)
        ra = a.route(3, 777)
        rb = b.route(3, 777)
        assert ra.path == rb.path
        assert ra.latency_ms == rb.latency_ms

    def test_seed_changes_network(self):
        a = quick_network(n_peers=64, seed=1)
        b = quick_network(n_peers=64, seed=2)
        assert a.hieras.id_of(0) != b.hieras.id_of(0) or a.route(0, 5).path != b.route(0, 5).path

    def test_depth_parameter(self):
        bundle = quick_network(n_peers=64, depth=3, seed=3)
        assert bundle.hieras.depth == 3
        assert len(bundle.route(0, 99).hops_per_layer) == 3

    def test_latency_wiring(self, bundle):
        """The bundle's peer latency view must drive route latencies."""
        r = bundle.route(1, 424242)
        if r.hops:
            manual = sum(
                bundle.peer_latency.pair(a, b)
                for a, b in zip(r.path[:-1], r.path[1:])
            )
            assert r.latency_ms == pytest.approx(manual)


class TestModelParameter:
    def test_brite_model(self):
        bundle = quick_network(n_peers=80, seed=2, model="brite")
        assert bundle.topology.name == "brite"
        r = bundle.route(0, 555)
        assert r.owner == bundle.route_chord(0, 555).owner

    def test_inet_floor_enforced(self):
        with pytest.raises(ValueError, match="3000"):
            quick_network(n_peers=100, model="inet")

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown model"):
            quick_network(n_peers=64, model="grid")


@pytest.mark.parametrize(
    ("model", "n_peers", "depth"), [("ts", 96, 2), ("ts", 64, 3), ("brite", 80, 2)]
)
def test_facade_is_the_deployment_build_with_spread_landmarks(model, n_peers, depth):
    """quick_network is build_scale_bundle over a spread-landmark config."""
    facade = quick_network(n_peers=n_peers, depth=depth, seed=5, model=model)
    built = build_scale_bundle(
        SimConfig(model=model, n_peers=n_peers, depth=depth, seed=5, landmark_strategy="spread")
    )
    assert isinstance(facade, SimulationBundle)
    np.testing.assert_array_equal(facade.chord.ring.ids, built.chord.ring.ids)
    np.testing.assert_array_equal(facade.hieras.global_ring.ids, built.hieras.global_ring.ids)
    for layer in range(2, depth + 1):
        assert sorted(facade.hieras.rings_at_layer(layer)) == sorted(
            built.hieras.rings_at_layer(layer)
        )
    np.testing.assert_array_equal(
        facade.attachment.landmark_routers, built.attachment.landmark_routers
    )
    rng = np.random.default_rng(0)
    us, vs = rng.integers(0, n_peers, 200), rng.integers(0, n_peers, 200)
    np.testing.assert_array_equal(facade.peer_latency.pairs(us, vs), built.peer_latency.pairs(us, vs))
    for source, key in zip(us[:50].tolist(), rng.integers(0, 2**32, 50).tolist()):
        assert facade.route(source, key).path == built.route(source, key).path
        assert facade.route_chord(source, key).path == built.route_chord(source, key).path

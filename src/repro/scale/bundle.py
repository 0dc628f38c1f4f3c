"""The deployment build: the paper's §4.1 set-up as one seeded pipeline.

Topology (transit-stub, Inet or BRITE) → latency model → overlay
attachment → landmark nodes → distributed binning → Chord and HIERAS
over the same peers, in two steps:

* :func:`build_substrate` — everything
  :meth:`~repro.experiments.config.SimConfig.topology_key` identifies:
  topology, latency model, attachment, landmarks, node ids and the
  landmark distances the binning reads;
* :func:`build_stacks` — Chord, the binning's landmark orders and
  HIERAS over one substrate.

Every deployment in the repo comes from these two steps:
:func:`build_scale_bundle` runs both uncached,
:func:`repro.experiments.runner.build_bundle` puts its substrate cache
in front, and :func:`repro.quick_network` is ``build_scale_bundle``
with spread landmarks.  Seeding goes through fixed
:class:`~repro.util.rng.RngFactory` labels (``"topology"``,
``"attach"``, ``"landmarks"``, ``"node-ids"``), so a config names one
deployment whichever caller builds it.  The steps are looked up as this
module's globals at call time, so a traced set-up can time each layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
import numpy.typing as npt

from repro.core.binning import BinningScheme, LandmarkOrders
from repro.core.hieras import HierasNetwork
from repro.dht.base import RouteResult
from repro.dht.chord import ChordNetwork
from repro.topology.attach import OverlayAttachment, PeerLatencyView, attach_overlay, place_landmarks
from repro.topology.base import Topology
from repro.topology.brite import BriteParams, generate_brite
from repro.topology.inet import InetParams, generate_inet
from repro.topology.latency import STREAMING_THRESHOLD_BYTES, latency_model_for
from repro.topology.transit_stub import TransitStubParams, generate_transit_stub
from repro.util.ids import IdSpace
from repro.util.rng import RngFactory
from repro.util.validation import require

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import SimConfig

__all__ = [
    "SimulationBundle",
    "Substrate",
    "build_scale_bundle",
    "build_stacks",
    "build_substrate",
    "hot_state_bytes",
    "scale_ts_params",
]


@dataclass
class SimulationBundle:
    """A fully built deployment ready for routing experiments."""

    config: SimConfig
    topology: Topology
    attachment: OverlayAttachment
    peer_latency: PeerLatencyView
    space: IdSpace
    node_ids: npt.NDArray[np.uint64]
    orders: LandmarkOrders
    chord: ChordNetwork
    hieras: HierasNetwork

    def route(self, source: int, key: int) -> RouteResult:
        """Route ``key`` from ``source`` through HIERAS."""
        return self.hieras.route(source, key)

    def route_chord(self, source: int, key: int) -> RouteResult:
        """Route ``key`` from ``source`` through flat Chord."""
        return self.chord.route(source, key)


@dataclass
class Substrate:
    """The expensive, depth-independent half of a deployment."""

    topology: Topology
    attachment: OverlayAttachment
    peer_latency: PeerLatencyView
    space: IdSpace
    node_ids: npt.NDArray[np.uint64]
    landmark_distances: npt.NDArray[np.float64]


def scale_ts_params(n_routers: int) -> TransitStubParams:
    """Transit-stub parameters sized for very large internetworks.

    Below 100 000 routers this defers to
    :meth:`~repro.topology.transit_stub.TransitStubParams.for_size`, so
    every existing config keeps its exact topology.  Above, the transit
    tier grows with the network while stub domains are pinned near 512
    routers: per-stub APSP blocks stay ≈1 MB (``512² × 4`` bytes), the
    unit of work both the streaming latency cache and the exact border
    decomposition operate on.  At 1.25 M routers that yields 38 transit
    domains × 8 routers, 2 432 stubs of 514 — a core APSP under 1 MB
    and a bounded block working set, instead of one monolithic
    quadratic matrix.
    """
    require(n_routers >= 16, f"transit-stub networks need >= 16 routers, got {n_routers}")
    if n_routers < 100_000:
        return TransitStubParams.for_size(n_routers)
    per_domain = 8
    stubs_per = 8
    target_stub = 512
    n_domains = max(
        4, round(n_routers / (per_domain * (1 + stubs_per * target_stub)))
    )
    n_transit = n_domains * per_domain
    stub_size = max(2, round((n_routers / n_transit - 1) / stubs_per))
    return TransitStubParams(
        n_transit_domains=n_domains,
        transit_nodes_per_domain=per_domain,
        stubs_per_transit_node=stubs_per,
        stub_domain_size=stub_size,
        stub_edge_prob=min(0.5, 1.5 / stub_size),
    )


def _generate_topology(config: SimConfig, seed: np.random.Generator) -> Topology:
    n = config.n_routers
    if config.model == "ts":
        return generate_transit_stub(scale_ts_params(n), seed=seed)
    if config.model == "inet":
        require(
            n >= 3000,
            f"Inet topologies need >= 3000 routers (got {n}); the paper "
            "imposes the same floor (§4.1)",
        )
        return generate_inet(InetParams(n_nodes=n), seed=seed)
    return generate_brite(BriteParams(n_nodes=n), seed=seed)


def build_substrate(
    config: SimConfig, *, streaming_threshold_bytes: int = STREAMING_THRESHOLD_BYTES
) -> Substrate:
    """Topology, latency model, attachment, landmarks and node ids.

    Latency models switch to their streaming twins once the eager form
    would cross ``streaming_threshold_bytes``
    (see :func:`~repro.topology.latency.latency_model_for`).
    """
    rngs = RngFactory(config.seed)
    topology = _generate_topology(config, rngs.get("topology"))
    model = latency_model_for(topology, streaming_threshold_bytes=streaming_threshold_bytes)
    routers = attach_overlay(topology, config.n_peers, seed=rngs.get("attach"))
    landmarks = place_landmarks(
        topology,
        model,
        config.n_landmarks,
        seed=rngs.get("landmarks"),
        strategy=config.resolved_landmark_strategy,
    )
    attachment = OverlayAttachment(topology, routers, landmarks)
    space = IdSpace(config.bits)
    return Substrate(
        topology=topology,
        attachment=attachment,
        peer_latency=attachment.peer_latency(model),
        space=space,
        node_ids=space.sample_unique_ids(config.n_peers, rngs.get("node-ids")),
        landmark_distances=attachment.landmark_distances(model),
    )


def build_stacks(config: SimConfig, sub: Substrate) -> SimulationBundle:
    """Chord, the binning's landmark orders and HIERAS over ``sub``."""
    chord = ChordNetwork(sub.space, sub.node_ids, latency=sub.peer_latency)
    orders = BinningScheme.default_for_depth(config.depth).orders(sub.landmark_distances)
    hieras = HierasNetwork(
        sub.space,
        sub.node_ids,
        latency=sub.peer_latency,
        landmark_orders=orders,
        depth=config.depth,
        successor_list_r=config.successor_list_r,
        successor_list_policy=config.successor_list_policy,
    )
    return SimulationBundle(
        config=config,
        topology=sub.topology,
        attachment=sub.attachment,
        peer_latency=sub.peer_latency,
        space=sub.space,
        node_ids=sub.node_ids,
        orders=orders,
        chord=chord,
        hieras=hieras,
    )


def build_scale_bundle(
    config: SimConfig, *, streaming_threshold_bytes: int = STREAMING_THRESHOLD_BYTES
) -> SimulationBundle:
    """Build a deployment, uncached (a million-peer substrate is not
    something to keep two of)."""
    return build_stacks(
        config, build_substrate(config, streaming_threshold_bytes=streaming_threshold_bytes)
    )


def hot_state_bytes(bundle: SimulationBundle) -> dict[str, int]:
    """Byte counts of the struct-of-arrays routing state of both stacks.

    Seed-deterministic (array shapes and dtypes only), so the numbers
    are safe for a bench document's byte-compared ``metrics`` — and
    they are the receipts for the "no per-peer Python objects on the
    hot path" claim: every entry is a numpy buffer, with ring-name
    strings interned once per *ring*, not per peer.
    """
    chord = bundle.chord
    hieras = bundle.hieras
    chord_total = (
        chord.ring.ids.nbytes
        + chord.ring.peers.nbytes
        + chord._id_of_peer.nbytes
        + chord._alive.nbytes
    )
    hieras_rings = sum(
        ring.ids.nbytes + ring.peers.nbytes
        for layer in hieras._rings
        for ring in layer
    )
    hieras_total = (
        hieras.global_ring.ids.nbytes
        + hieras.global_ring.peers.nbytes
        + hieras_rings
        + hieras._id_of_peer.nbytes
        + hieras._alive.nbytes
        + hieras._ring_of_peer.nbytes
        + hieras._pos_in_ring.nbytes
        + sum(codes.nbytes for codes in hieras._name_codes)
    )
    return {
        "chord_bytes": int(chord_total),
        "hieras_bytes": int(hieras_total),
        "hieras_ring_name_pool_entries": int(
            sum(len(pool) for pool in hieras._name_pool)
        ),
    }

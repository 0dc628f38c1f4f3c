"""Batch routers for the trace-driven stacks, and the one engine dispatch.

``batch_route_chord`` runs one greedy frontier over the flat ring;
``batch_route_hieras`` runs the §3.2 bottom-up procedure layer by
layer — grouping active lanes by their current ring, advancing each
ring's cohort with the shared predecessor-stop kernel, then handing
survivors to the next layer — and takes the final explicit owner hop
on the global ring, exactly like the scalar ``HierasNetwork.route``.

``batch_route`` is the entry point every caller uses, and the only
place an engine is chosen: the exact ``ChordNetwork``/``HierasNetwork``
types run the vectorized kernels, every other stack runs
:func:`scalar_batch_route` (per-request ``route()`` calls).  With a span
recorder attached, the kernels still run and each lane's span is then
replayed through the network's own ``record_route``, so the recorded
spans are the ones per-request routing would have emitted.
:func:`scalar_batch_route` doubles as the test oracle the kernels are
pinned bit-identical to.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.core.hieras import HierasNetwork
from repro.dht.base import DHTNetwork
from repro.dht.chord import ChordNetwork
from repro.engine.kernel import route_cohort
from repro.engine.result import BatchRouteResult, row_prefix_sums
from repro.topology.base import LatencyModel
from repro.util.validation import require

__all__ = [
    "batch_route",
    "batch_route_chord",
    "batch_route_hieras",
    "scalar_batch_route",
    "supports_batch",
]


class _HopLog:
    """Growing per-lane hop buffers: latency values and optional paths.

    One ``record`` call per frontier step appends, for the lanes that
    moved, their hop's link delay (one bulk ``LatencyModel.pairs``
    call) and optionally the peer reached.  Buffers are C-ordered so a
    lane's hop latencies form a contiguous row — the property the
    exact-float total relies on (see ``row_prefix_sums``).
    """

    def __init__(
        self,
        sources: npt.NDArray[np.int64],
        latency: LatencyModel,
        *,
        want_paths: bool,
    ) -> None:
        n_lanes = len(sources)
        self._latency = latency
        self._cap = 8
        self.hop_count = np.zeros(n_lanes, dtype=np.int64)
        self.cur_peer = sources.copy()
        self.hop_latency = np.zeros((n_lanes, self._cap), dtype=np.float64)
        self.paths: npt.NDArray[np.int64] | None = None
        if want_paths:
            self.paths = np.full((n_lanes, self._cap + 1), -1, dtype=np.int64)
            self.paths[:, 0] = sources

    def _grow(self, need: int) -> None:
        old = self._cap
        while self._cap < need:
            self._cap *= 2
        lat = np.zeros((len(self.hop_count), self._cap), dtype=np.float64)
        lat[:, :old] = self.hop_latency
        self.hop_latency = lat
        if self.paths is not None:
            paths = np.full((len(self.hop_count), self._cap + 1), -1, dtype=np.int64)
            paths[:, : old + 1] = self.paths
            self.paths = paths

    def record(self, lanes: npt.NDArray[np.int64], next_peers: npt.NDArray[np.int64]) -> None:
        """Append one hop for ``lanes``, each arriving at ``next_peers``."""
        hc = self.hop_count[lanes]
        top = int(hc.max()) if hc.size else 0
        if top >= self._cap:
            self._grow(top + 1)
        self.hop_latency[lanes, hc] = self._latency.pairs(self.cur_peer[lanes], next_peers)
        if self.paths is not None:
            self.paths[lanes, hc + 1] = next_peers
        self.hop_count[lanes] = hc + 1
        self.cur_peer[lanes] = next_peers


def supports_batch(network: DHTNetwork) -> bool:
    """Whether ``batch_route`` runs the vectorized kernels on ``network``.

    True only for the exact trace-driven classes: subclasses may
    override ``route`` semantics, so they take the scalar loop.
    """
    return type(network) in (ChordNetwork, HierasNetwork)


def _request_arrays(
    network: DHTNetwork, sources: object, keys: object
) -> tuple[npt.NDArray[np.int64], npt.NDArray[np.uint64]]:
    src = np.ascontiguousarray(np.asarray(sources, dtype=np.int64))
    wrapped = np.ascontiguousarray(np.asarray(keys, dtype=np.uint64))
    wrapped = wrapped & np.uint64(network.space.size - 1)  # type: ignore[attr-defined]
    require(len(src) == len(wrapped), "sources and keys must align")
    return src, wrapped


def batch_route_chord(
    net: ChordNetwork,
    sources: object,
    keys: object,
    *,
    paths: bool = False,
) -> BatchRouteResult:
    """Vectorized equivalent of ``ChordNetwork.route`` per lane.

    Records no spans (:func:`batch_route` replays them when tracing is
    on); all result fields are bit-identical to the scalar path.
    """
    src, keys_w = _request_arrays(net, sources, keys)
    if len(src):
        require(bool(net._alive[src].all()), "every source peer must be alive")
    ring = net.ring
    log = _HopLog(src, net.latency, want_paths=paths)
    peers = ring.peers

    def sink(
        lanes: npt.NDArray[np.int64],
        prev_pos: npt.NDArray[np.int64],
        next_pos: npt.NDArray[np.int64],
    ) -> None:
        log.record(lanes, peers[next_pos])

    route_cohort(
        ring,
        net._pos_of_peer[src],
        keys_w,
        to_owner=True,
        succ_list_r=net.successor_list_r,
        sink=sink,
    )
    return BatchRouteResult(
        sources=src,
        keys=keys_w,
        owner=log.cur_peer.copy(),
        hops=log.hop_count,
        latency_ms=row_prefix_sums(log.hop_latency, log.hop_count),
        hops_per_layer=log.hop_count[:, None].copy(),
        hop_latency_ms=log.hop_latency,
        paths=log.paths,
    )


def batch_route_hieras(
    net: HierasNetwork,
    sources: object,
    keys: object,
    *,
    paths: bool = False,
) -> BatchRouteResult:
    """Vectorized equivalent of ``HierasNetwork.route`` per lane.

    One frontier per layer, lowest ring first: active lanes are grouped
    by the ring their current peer belongs to at that layer, each ring's
    cohort advances with the shared predecessor-stop kernel, and the
    global layer finishes with the explicit owner hop — identical hop
    sequences and per-layer counts to the scalar route.
    """
    src, keys_w = _request_arrays(net, sources, keys)
    n_lanes = len(src)
    if n_lanes:
        require(bool(net._alive[src].all()), "every source peer must be alive")
    log = _HopLog(src, net.latency, want_paths=paths)
    hops_per_layer = np.zeros((n_lanes, net.depth), dtype=np.int64)

    for layer in range(net.depth, 1, -1):
        col = net.depth - layer
        r = net.successor_list_width(layer)
        k = layer - 2
        codes = net._ring_of_peer[k, log.cur_peer]
        for code in np.unique(codes):
            lanes = np.flatnonzero(codes == code)
            ring = net._rings[k][int(code)]
            ring_peers = ring.peers

            def sink(
                sub: npt.NDArray[np.int64],
                prev_pos: npt.NDArray[np.int64],
                next_pos: npt.NDArray[np.int64],
                lanes: npt.NDArray[np.int64] = lanes,
                ring_peers: npt.NDArray[np.int64] = ring_peers,
                col: int = col,
            ) -> None:
                moved = lanes[sub]
                log.record(moved, ring_peers[next_pos])
                hops_per_layer[moved, col] += 1

            route_cohort(
                ring,
                net.ring_position(log.cur_peer[lanes], layer),
                keys_w[lanes],
                to_owner=False,
                succ_list_r=r,
                sink=sink,
            )

    # Global layer: predecessor loop over everyone, then the §3.2
    # terminating step — the global predecessor hands the request to
    # the key's owner, just like flat Chord's final hop.
    ring = net.global_ring
    ring_peers = ring.peers
    col = net.depth - 1

    def global_sink(
        lanes: npt.NDArray[np.int64],
        prev_pos: npt.NDArray[np.int64],
        next_pos: npt.NDArray[np.int64],
    ) -> None:
        log.record(lanes, ring_peers[next_pos])
        hops_per_layer[lanes, col] += 1

    route_cohort(
        ring,
        net.ring_position(log.cur_peer, 1),
        keys_w,
        to_owner=False,
        succ_list_r=net.successor_list_width(1),
        sink=global_sink,
    )
    owner_pos = np.searchsorted(ring.ids, keys_w, side="left").astype(np.int64)
    owner_pos[owner_pos == len(ring)] = 0
    owner_peer = ring_peers[owner_pos]
    final = np.flatnonzero(log.cur_peer != owner_peer)
    if final.size:
        log.record(final, owner_peer[final])
        hops_per_layer[final, col] += 1

    return BatchRouteResult(
        sources=src,
        keys=keys_w,
        owner=log.cur_peer.copy(),
        hops=log.hop_count,
        latency_ms=row_prefix_sums(log.hop_latency, log.hop_count),
        hops_per_layer=hops_per_layer,
        hop_latency_ms=log.hop_latency,
        paths=log.paths,
    )


def scalar_batch_route(
    network: DHTNetwork,
    sources: object,
    keys: object,
    *,
    paths: bool = False,
) -> BatchRouteResult:
    """Per-request ``route()`` calls packed into a ``BatchRouteResult``.

    The engine for every stack without a kernel, and the oracle the
    kernels are tested against; ``route()`` records spans itself when
    tracing is attached.  Per-hop latency rows are
    recomputed from each path with one bulk ``pairs`` call, which
    yields the same elementwise values the scalar route summed.
    """
    src = np.ascontiguousarray(np.asarray(sources, dtype=np.int64))
    keys_in = np.asarray(keys, dtype=np.uint64)
    require(len(src) == len(keys_in), "sources and keys must align")
    results = [
        network.route(int(s), int(k)) for s, k in zip(src.tolist(), keys_in.tolist())
    ]
    n_lanes = len(results)
    n_layers = max((len(r.hops_per_layer) for r in results), default=1) or 1
    cap = max((r.hops for r in results), default=0)
    cap = max(cap, 1)
    keys_w = np.array([r.key for r in results], dtype=np.uint64)
    owner = np.array([r.owner for r in results], dtype=np.int64)
    hops = np.array([r.hops for r in results], dtype=np.int64)
    latency_ms = np.array([r.latency_ms for r in results], dtype=np.float64)
    hops_per_layer = np.zeros((n_lanes, n_layers), dtype=np.int64)
    hop_latency = np.zeros((n_lanes, cap), dtype=np.float64)
    path_buf: npt.NDArray[np.int64] | None = None
    if paths:
        path_buf = np.full((n_lanes, cap + 1), -1, dtype=np.int64)
        if n_lanes:
            path_buf[:, 0] = src
    latency_model: LatencyModel | None = getattr(network, "latency", None)
    for i, r in enumerate(results):
        # Right-align into the last columns so column -1 is always the
        # global ring, preserving the low/top split for flat results.
        row = r.hops_per_layer if r.hops_per_layer else [r.hops]
        hops_per_layer[i, n_layers - len(row):] = row
        if r.hops:
            arr = np.asarray(r.path, dtype=np.int64)
            if latency_model is not None:
                hop_latency[i, : r.hops] = latency_model.pairs(arr[:-1], arr[1:])
            if path_buf is not None:
                path_buf[i, 1 : r.hops + 1] = arr[1:]
    return BatchRouteResult(
        sources=src,
        keys=keys_w,
        owner=owner,
        hops=hops,
        latency_ms=latency_ms,
        hops_per_layer=hops_per_layer,
        hop_latency_ms=hop_latency,
        paths=path_buf,
    )


def batch_route(
    network: DHTNetwork,
    sources: object,
    keys: object,
    *,
    paths: bool = False,
) -> BatchRouteResult:
    """Route a batch of lookups through ``network``.

    Runs the vectorized kernels when :func:`supports_batch` allows and
    :func:`scalar_batch_route` otherwise; results are bit-identical
    either way.  With a span recorder attached, the kernel lanes are
    routed with paths and replayed as spans; the returned result keeps
    ``paths`` only when the caller asked for them.
    """
    if not supports_batch(network):
        return scalar_batch_route(network, sources, keys, paths=paths)
    traced = network.metrics is not None
    if isinstance(network, HierasNetwork):
        label = "hieras"
        result = batch_route_hieras(network, sources, keys, paths=paths or traced)
    else:
        assert isinstance(network, ChordNetwork)
        label = "chord"
        result = batch_route_chord(network, sources, keys, paths=paths or traced)
    if traced:
        _replay_spans(network, result, label=label)
        if not paths:
            result.paths = None
    return result


def _replay_spans(network: DHTNetwork, result: BatchRouteResult, *, label: str) -> None:
    """Record one span per lane through the network's attached recorder.

    Each lane is rebuilt as its scalar ``RouteResult`` (requires
    materialized paths) and fed through the network's own
    ``record_route``/``hop_layer_info``, so the emitted spans — and
    every downstream sink/registry aggregate — are identical to what
    per-request scalar routing would have produced.
    """
    for lane in range(len(result)):
        rr = result.to_route_result(lane)
        layers, rings = network.hop_layer_info(rr)
        network.record_route(label, rr, layers=layers, rings=rings)

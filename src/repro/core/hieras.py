"""HIERAS: the hierarchical multi-ring DHT network (paper §2–§3).

A :class:`HierasNetwork` is built from the same ingredients as the flat
:class:`~repro.dht.chord.ChordNetwork` — an id space, one id per peer, a
latency model — plus the peers' **landmark orders** from the distributed
binning scheme.  Layer 1 is the single global ring containing everyone;
each lower layer partitions the peers into rings of nodes sharing a
landmark order, and every node routes with Chord's rule inside each of
its rings using a ring-restricted finger table (§3.1, Table 2).

Routing (§3.2) is bottom-up: the lookup runs in the originator's lowest
ring until it reaches the node that would own the key *in that ring*
(its ring-successor), climbs one layer, and repeats until the global
ring delivers it to the key's true owner.  Because any ring containing
the global owner has the global owner as its ring-successor of the key,
upper-layer loops naturally contribute zero hops once the owner is
reached — the paper's early-exit check falls out of the semantics (the
protocol stack still performs it explicitly to avoid sending messages).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.binning import LandmarkOrders
from repro.core.ring import RingTableDirectory, ring_id
from repro.dht.base import DHTNetwork, RouteResult, ZeroLatency
from repro.dht.ring_array import FingerEntry, SortedRing
from repro.topology.base import LatencyModel
from repro.util.ids import IdSpace
from repro.util.rng import make_rng
from repro.util.validation import require

__all__ = ["HierasNetwork", "LayeredFingerRow"]


@dataclass(frozen=True)
class LayeredFingerRow:
    """One row of the paper's Table 2: a finger across every layer.

    ``successors[0]`` is the layer-1 (global) successor; subsequent
    entries descend through the lower layers.  Each successor is a
    ``(node_id, peer, ring_name)`` triple — ring name of the successor's
    own layer-2 ring, as printed in Table 2's parentheses.
    """

    start: int
    interval: tuple[int, int]
    successors: tuple[tuple[int, int, str], ...]


class HierasNetwork(DHTNetwork):
    """The HIERAS overlay over a static set of peers.

    Parameters
    ----------
    space, ids, latency:
        As for :class:`~repro.dht.chord.ChordNetwork`.
    landmark_orders:
        Output of :meth:`repro.core.binning.BinningScheme.orders` for
        these peers (row ``p`` binned peer ``p``).
    depth:
        Hierarchy depth ``m`` (layers including the global ring).
        Defaults to everything the orders provide; may be lowered to
        study depth effects with one binning pass (paper §4.5).
    successor_list_r:
        Length of the per-layer successor list every node maintains
        (§3.3: "a node must keep a successor-list of its r nearest
        successors in each layer").  Routing consults it as the §3.2
        acceleration; 0 disables the shortcut entirely.
    successor_list_policy:
        ``"transitions"`` (default) consults successor lists in every
        loop **above the lowest** — the message enters those loops
        already close to the key, which is exactly where §3.2 says the
        lists "accelerate the process"; the cold lowest loop routes
        with fingers alone, like the flat Chord baseline.  ``"always"``
        also shortcuts inside the lowest loop and ``"off"`` never does;
        both are exposed for the acceleration ablation.
    """

    def __init__(
        self,
        space: IdSpace,
        ids: np.ndarray,
        *,
        landmark_orders: LandmarkOrders,
        latency: LatencyModel | None = None,
        depth: int | None = None,
        ring_table_replicas: int = 2,
        successor_list_r: int = 16,
        successor_list_policy: str = "transitions",
    ) -> None:
        ids = np.asarray(ids, dtype=np.uint64)
        n = len(ids)
        require(n >= 1, "need at least one peer")
        require(len(np.unique(ids)) == n, "node ids must be unique")
        require(
            landmark_orders.n_nodes == n,
            f"landmark orders cover {landmark_orders.n_nodes} nodes, network has {n}",
        )
        depth = depth if depth is not None else landmark_orders.depth
        require(
            2 <= depth <= landmark_orders.depth,
            f"depth must be in [2, {landmark_orders.depth}], got {depth}",
        )
        require(successor_list_r >= 0, "successor_list_r must be >= 0")
        require(
            successor_list_policy in ("transitions", "always", "off"),
            f"unknown successor_list_policy {successor_list_policy!r}",
        )
        self.space = space
        self.depth = depth
        self.latency = latency if latency is not None else ZeroLatency()
        self.orders = landmark_orders
        self.successor_list_r = successor_list_r
        self.successor_list_policy = successor_list_policy
        self._id_of_peer = ids.copy()
        self._alive = np.ones(n, dtype=bool)
        # Ring membership per lower layer, struct-of-arrays: every peer
        # carries one ``int32`` *pool code* per layer (index 0 →
        # layer 2) and the per-layer pool maps codes back to ring-name
        # strings — no per-peer Python string ever sits on the hot
        # path, which is what keeps million-peer networks in budget.
        self._name_pool: list[list[str]] = []
        self._name_code_of: list[dict[str, int]] = []
        self._name_codes: list[np.ndarray] = []
        pools = getattr(landmark_orders, "name_pools", None)
        codes = getattr(landmark_orders, "codes_per_layer", None)
        for k in range(depth - 1):
            if pools is not None and codes is not None:
                pool = [str(s) for s in pools[k]]
                layer_codes = np.asarray(codes[k], dtype=np.int32)
            else:
                uniq, inverse = np.unique(
                    np.asarray(landmark_orders.names_per_layer[k], dtype=object),
                    return_inverse=True,
                )
                pool = [str(u) for u in uniq]
                layer_codes = inverse.astype(np.int32)
            self._name_pool.append(pool)
            self._name_code_of.append({name: c for c, name in enumerate(pool)})
            self._name_codes.append(layer_codes)
        #: Full O(N log N) all-ring rebuilds performed (the constructor's
        #: initial build counts); membership waves splice only the rings
        #: they touch, so this stays flat under churn.
        self.rebuild_count = 0
        #: Membership waves applied incrementally (no full rebuild).
        self.incremental_waves = 0
        #: Rings created, spliced, or retired by incremental waves — the
        #: O(wave) work certificate the maintenance tests pin.
        self.rings_spliced = 0
        #: ``directory.publish`` calls skipped because a ring's
        #: membership did not change across a full rebuild.
        self.publish_skips = 0
        self.directory = RingTableDirectory(space, replicas=ring_table_replicas)
        self._rebuild()

    # ------------------------------------------------------------------
    # construction / membership
    # ------------------------------------------------------------------
    def _intern(self, k: int, name: str) -> int:
        """Pool code for ``name`` at layer index ``k`` (interning it)."""
        code = self._name_code_of[k].get(name)
        if code is None:
            code = len(self._name_pool[k])
            self._name_pool[k].append(name)
            self._name_code_of[k][name] = code
        return code

    def _publish(
        self, name: str, ring: SortedRing, prev: dict[str, SortedRing] | None
    ) -> None:
        """Publish one ring table, skipping unchanged memberships."""
        if prev is not None:
            old = prev.get(name)
            if (
                old is not None
                and np.array_equal(old.ids, ring.ids)
                and np.array_equal(old.peers, ring.peers)
            ):
                self.publish_skips += 1
                return
        self.directory.publish(name, ring.ids, ring.peers)

    def _refresh_layer_caches(self) -> None:
        # Per-layer accessor caches: ring membership only changes in
        # ``_rebuild``/``_apply_wave``, so the name->ring maps and size
        # vectors sweeps poll per cell are materialized once per
        # membership change instead of per call.
        self._rings_by_name: list[dict[str, SortedRing]] = [
            dict(zip(names, rings))
            for names, rings in zip(self._ring_names, self._rings)
        ]
        self._ring_size_arrays: list[np.ndarray] = []
        for rings in self._rings:
            sizes = np.asarray([len(r) for r in rings], dtype=np.int64)
            sizes.setflags(write=False)
            self._ring_size_arrays.append(sizes)

    @property
    def _pos_global(self) -> np.ndarray:
        """Peer → global-ring position (−1 for dead peers), lazy."""
        pos = self._pos_global_cache
        if pos is None:
            pos = np.full(len(self._id_of_peer), -1, dtype=np.int64)
            pos[self.global_ring.peers] = np.arange(len(self.global_ring))
            self._pos_global_cache = pos
        return pos

    def _rebuild(self) -> None:
        self.rebuild_count += 1
        alive = np.flatnonzero(self._alive)
        ids = self._id_of_peer[alive]
        order = np.argsort(ids)
        self.global_ring = SortedRing(self.space, ids[order], alive[order])
        n_total = len(self._id_of_peer)
        self._pos_global_cache: np.ndarray | None = None

        # Lower layers: factorise live peers' interned ring codes, build
        # one SortedRing per distinct name (listed in ring-name order,
        # matching the incremental path), record each peer's ring + slot.
        prev_tables = getattr(self, "_rings_by_name", None)
        self._rings: list[list[SortedRing]] = []
        self._ring_names: list[list[str]] = []
        self._ring_of_peer = np.full((self.depth - 1, n_total), -1, dtype=np.int32)
        self._pos_in_ring = np.full((self.depth - 1, n_total), -1, dtype=np.int32)
        known_names = set(self.directory.names())
        seen_names: set[str] = set()
        for k in range(self.depth - 1):
            pool = self._name_pool[k]
            codes_alive = self._name_codes[k][alive]
            grouped = np.lexsort((ids, codes_alive))
            codes_sorted = codes_alive[grouped]
            members_sorted = alive[grouped]
            ids_sorted = ids[grouped]
            present = np.unique(codes_alive)
            starts = np.searchsorted(codes_sorted, present, side="left")
            ends = np.searchsorted(codes_sorted, present, side="right")
            by_name = sorted(range(len(present)), key=lambda i: pool[int(present[i])])
            layer_rings: list[SortedRing] = []
            layer_names: list[str] = []
            prev = prev_tables[k] if prev_tables is not None else None
            for gi in by_name:
                name = pool[int(present[gi])]
                a, b = int(starts[gi]), int(ends[gi])
                ring = SortedRing(self.space, ids_sorted[a:b], members_sorted[a:b])
                code = len(layer_rings)
                layer_rings.append(ring)
                layer_names.append(name)
                self._ring_of_peer[k, ring.peers] = code
                self._pos_in_ring[k, ring.peers] = np.arange(len(ring), dtype=np.int32)
                self._publish(name, ring, prev)
                seen_names.add(name)
            self._rings.append(layer_rings)
            self._ring_names.append(layer_names)
        for stale in sorted(known_names - seen_names):
            self.directory.drop(stale)
        self._refresh_layer_caches()

    def rebuild(self) -> None:
        """Escape hatch: re-derive every ring of every layer from scratch.

        The incremental wave path (:meth:`_apply_wave`) produces state
        bit-identical to this full rebuild — pinned by
        ``tests/test_incremental.py`` — so calling it is never *needed*;
        it exists for operators and for the equivalence tests.
        """
        self._rebuild()

    def _apply_wave(self, added: np.ndarray, removed: np.ndarray) -> None:
        """Splice one membership wave into every layer's ring state.

        ``added``/``removed`` hold the peer indices whose liveness just
        flipped (``self._alive`` is already updated).  Only the rings
        those peers belong to are rebuilt/spliced — O(wave + touched
        ring sizes) work instead of the full rebuild's O(N log N) sort
        plus every ring of every layer — and the resulting state is
        bit-identical to :meth:`_rebuild` (tests pin this), because
        :meth:`SortedRing.splice` and the argsort rebuild agree on the
        unique sorted layout and rings stay listed in name order.
        """
        self.incremental_waves += 1
        rm_pos = (
            np.searchsorted(self.global_ring.ids, self._id_of_peer[removed])
            if len(removed)
            else np.empty(0, dtype=np.int64)
        )
        self.global_ring = self.global_ring.splice(
            rm_pos, self._id_of_peer[added], added
        )
        self._pos_global_cache = None

        for k in range(self.depth - 1):
            pool = self._name_pool[k]
            names_k = self._ring_names[k]
            rings_k = self._rings[k]
            index_of = {nm: i for i, nm in enumerate(names_k)}
            layer_codes = self._name_codes[k]
            rm_by_name: dict[str, list[int]] = {}
            for p in removed.tolist():
                rm_by_name.setdefault(pool[int(layer_codes[p])], []).append(p)
            add_by_name: dict[str, list[int]] = {}
            for p in added.tolist():
                add_by_name.setdefault(pool[int(layer_codes[p])], []).append(p)

            touched: dict[str, SortedRing | None] = {}
            for name in sorted(set(rm_by_name) | set(add_by_name)):
                leavers = rm_by_name.get(name, [])
                joiners = add_by_name.get(name, [])
                old_idx = index_of.get(name)
                old_ring = rings_k[old_idx] if old_idx is not None else None
                self.rings_spliced += 1
                if old_ring is None:
                    members = np.asarray(joiners, dtype=np.int64)
                    m_ids = self._id_of_peer[members]
                    srt = np.argsort(m_ids)
                    new_ring: SortedRing | None = SortedRing(
                        self.space, m_ids[srt], members[srt]
                    )
                elif len(leavers) == len(old_ring) and not joiners:
                    new_ring = None  # its last members left: the ring dies
                else:
                    lv = np.asarray(leavers, dtype=np.int64)
                    jn = np.asarray(joiners, dtype=np.int64)
                    new_ring = old_ring.splice(
                        self._pos_in_ring[k, lv], self._id_of_peer[jn], jn
                    )
                touched[name] = new_ring
                if new_ring is None:
                    self.directory.drop(name)
                else:
                    self.directory.publish(name, new_ring.ids, new_ring.peers)
            if len(removed):
                self._ring_of_peer[k, removed] = -1
                self._pos_in_ring[k, removed] = -1

            births = [
                nm for nm, r in touched.items() if r is not None and nm not in index_of
            ]
            deaths = {nm for nm, r in touched.items() if r is None}
            if births or deaths:
                # The ring *set* changed: renumber so rings stay listed
                # in name order (one vectorized old→new code remap).
                new_names = sorted((set(names_k) - deaths) | set(births))
                remap = np.full(len(names_k), -1, dtype=np.int32)
                new_rings: list[SortedRing] = []
                for new_idx, nm in enumerate(new_names):
                    old_idx = index_of.get(nm)
                    if old_idx is not None:
                        remap[old_idx] = np.int32(new_idx)
                        ring = touched.get(nm, rings_k[old_idx])
                    else:
                        ring = touched[nm]
                    assert ring is not None
                    new_rings.append(ring)
                col = self._ring_of_peer[k]
                live = col >= 0
                col[live] = remap[col[live]]
                self._ring_names[k] = new_names
                self._rings[k] = new_rings
            else:
                self._rings[k] = [
                    touched.get(nm, ring) for nm, ring in zip(names_k, rings_k)
                ]
            # Re-index members of every touched, surviving ring.
            idx_by_name = {nm: i for i, nm in enumerate(self._ring_names[k])}
            for nm, ring in touched.items():
                if ring is None:
                    continue
                i = idx_by_name[nm]
                self._ring_of_peer[k, ring.peers] = i
                self._pos_in_ring[k, ring.peers] = np.arange(len(ring), dtype=np.int32)
        self._refresh_layer_caches()

    @property
    def n_peers(self) -> int:
        """Number of live peers."""
        return int(self._alive.sum())

    def id_of(self, peer: int) -> int:
        """Node id of ``peer``."""
        return int(self._id_of_peer[peer])

    def is_alive(self, peer: int) -> bool:
        """Whether ``peer`` is currently a member."""
        return bool(self._alive[peer])

    def add_peer(self, node_id: int, ring_names: list[str]) -> int:
        """Add a peer (offline equivalent of the §3.3 join protocol).

        ``ring_names`` gives the ring the new node joins at each lower
        layer (layer 2 first) — i.e. its landmark orders, measured by
        the caller against the landmark set.
        """
        return self.add_peers([node_id], [ring_names])[0]

    def add_peers(
        self, node_ids: list[int], ring_names_per_peer: list[list[str]]
    ) -> list[int]:
        """Add several peers in one membership change; returns indices.

        ``ring_names_per_peer[i]`` names peer ``i``'s rings (layer 2
        first), exactly as :meth:`add_peer` takes them.  Validation and
        the returned indices match the sequential calls, but the wave is
        spliced into the affected rings in one pass (no full rebuild); a
        rejected entry leaves the overlay untouched.
        """
        require(
            len(ring_names_per_peer) == len(node_ids),
            "need one ring-name list per added peer",
        )
        validated: list[int] = []
        seen: set[int] = set()
        for node_id, ring_names in zip(node_ids, ring_names_per_peer):
            node_id = self.space.validate_id(node_id, name="node_id")
            require(
                node_id not in self.global_ring and node_id not in seen,
                f"id {node_id} already present",
            )
            require(
                len(ring_names) == self.depth - 1,
                f"need {self.depth - 1} ring names, got {len(ring_names)}",
            )
            seen.add(node_id)
            validated.append(node_id)
        if not validated:
            return []
        start = len(self._id_of_peer)
        count = len(validated)
        self._id_of_peer = np.concatenate(
            [self._id_of_peer, np.asarray(validated, dtype=np.uint64)]
        )
        self._alive = np.concatenate([self._alive, np.ones(count, dtype=bool)])
        for k in range(self.depth - 1):
            codes = np.asarray(
                [self._intern(k, names[k]) for names in ring_names_per_peer],
                dtype=np.int32,
            )
            self._name_codes[k] = np.concatenate([self._name_codes[k], codes])
        pad = np.full((self.depth - 1, count), -1, dtype=np.int32)
        self._ring_of_peer = np.concatenate([self._ring_of_peer, pad], axis=1)
        self._pos_in_ring = np.concatenate([self._pos_in_ring, pad.copy()], axis=1)
        self._apply_wave(
            np.arange(start, start + count, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
        return list(range(start, start + count))

    def remove_peer(self, peer: int) -> None:
        """Remove ``peer`` (graceful leave or failure)."""
        self.remove_peers([peer])

    def remove_peers(self, peers: list[int], *, graceful: bool = False) -> None:
        """Remove several peers in one membership change.

        A sequence of :meth:`remove_peer` calls (same checks, same
        error messages, in order) with one splice per touched ring —
        rings the wave does not touch are untouched objects; validation
        runs against a scratch copy, so a rejected batch leaves the
        overlay untouched.

        ``graceful=True`` models the §3.3 *announced* leave: after the
        rings are rebuilt (ring successors re-assigned) but before the
        departing disks drop, attached stores hear
        ``on_graceful_leave`` and hand keys/hints off to the keys' new
        replica groups.  The default (``False``) is a silent failure —
        disks vanish with the peers.
        """
        alive = self._alive.copy()
        live = int(alive.sum())
        for peer in peers:
            require(bool(alive[peer]), f"peer {peer} is not alive")
            require(live > 1, "cannot remove the last peer")
            alive[peer] = False
            live -= 1
        if not peers:
            return
        self._alive = alive
        self._apply_wave(
            np.empty(0, dtype=np.int64), np.asarray(peers, dtype=np.int64)
        )
        if graceful:
            self._notify_departing(peers)
        self._notify_removed(peers)

    def revive_peer(self, peer: int) -> None:
        """Bring a removed peer back under its old index and ring names.

        The peer re-enters the rings its landmark orders named (its
        position on the Internet did not change while it was offline);
        its node id and latency-model index are retained.
        """
        self.revive_peers([peer])

    def revive_peers(self, peers: list[int]) -> None:
        """Revive several previously-removed peers in one spliced wave."""
        alive = self._alive.copy()
        for peer in peers:
            require(not bool(alive[peer]), f"peer {peer} is already alive")
            alive[peer] = True
        if not peers:
            return
        self._alive = alive
        self._apply_wave(
            np.asarray(peers, dtype=np.int64), np.empty(0, dtype=np.int64)
        )
        self._notify_revived(peers)

    def rebind_peers(
        self, peers: list[int], ring_names_per_peer: list[list[str]]
    ) -> None:
        """Re-assign lower-ring names for *offline* peers in place.

        Models §2.3's degraded joins: a node (re)joining while a
        landmark is down measures a blinded coordinate and lands in a
        different low-layer ring than its position warrants.  Only
        peers currently offline may be rebound (a live node's rings
        cannot silently change); a later :meth:`revive_peers` brings
        them back under the new names.  No rebuild happens here — the
        rings only change when membership does.
        """
        require(
            len(ring_names_per_peer) == len(peers),
            "need one ring-name list per rebound peer",
        )
        for peer, ring_names in zip(peers, ring_names_per_peer):
            require(not bool(self._alive[peer]), f"peer {peer} is alive; cannot rebind")
            require(
                len(ring_names) == self.depth - 1,
                f"need {self.depth - 1} ring names, got {len(ring_names)}",
            )
        for peer, ring_names in zip(peers, ring_names_per_peer):
            for k in range(self.depth - 1):
                self._name_codes[k][peer] = self._intern(k, ring_names[k])

    # ------------------------------------------------------------------
    # ring accessors
    # ------------------------------------------------------------------
    def ring_of(self, peer: int, layer: int) -> SortedRing:
        """The ring ``peer`` belongs to at ``layer`` (1 = global)."""
        require(1 <= layer <= self.depth, f"layer must be in [1, {self.depth}]")
        if layer == 1:
            return self.global_ring
        code = int(self._ring_of_peer[layer - 2, peer])
        require(code >= 0, f"peer {peer} is not alive")
        return self._rings[layer - 2][code]

    def ring_name_of(self, peer: int, layer: int) -> str:
        """Ring name of ``peer`` at a lower ``layer`` (2..depth)."""
        require(2 <= layer <= self.depth, f"layer must be in [2, {self.depth}]")
        k = layer - 2
        return self._name_pool[k][int(self._name_codes[k][peer])]

    def rings_at_layer(self, layer: int) -> dict[str, SortedRing]:
        """All rings of one lower layer, keyed by ring name.

        The returned mapping is a cache shared by every caller (rebuilt
        on membership change); treat it as read-only.
        """
        require(2 <= layer <= self.depth, f"layer must be in [2, {self.depth}]")
        return self._rings_by_name[layer - 2]

    def ring_sizes(self, layer: int) -> np.ndarray:
        """Member counts of the rings at one lower layer (read-only)."""
        require(2 <= layer <= self.depth, f"layer must be in [2, {self.depth}]")
        return self._ring_size_arrays[layer - 2]

    def ring_table_host(self, name: str) -> int:
        """Peer storing ring ``name``'s ring table (§3.1)."""
        return self.directory.host_of(name, self.global_ring.ids, self.global_ring.peers)

    def ring_successor_list(self, peer: int, r: int) -> list[int]:
        """Successors of ``peer`` inside its **lowest-layer** ring.

        The replication layer's ``ring_scoped`` placement asks exactly
        this question: which nearby nodes — nearby by landmark order,
        i.e. members of ``peer``'s layer-``depth`` ring — come next on
        that ring's id circle?  The list wraps, excludes ``peer``
        itself, and is capped at the ring's size minus one; callers pad
        from the global ring when they need more copies than the ring
        can hold.
        """
        ring = self.ring_of(peer, self.depth)
        pos = int(self.ring_position(peer, self.depth))
        return [int(ring.peers[p]) for p in ring.successor_list(pos, r)]

    # ------------------------------------------------------------------
    # routing (§3.2)
    # ------------------------------------------------------------------
    def owner_of(self, key: int) -> int:
        """Peer responsible for ``key`` — the global successor."""
        return int(self.global_ring.peers[self.global_ring.successor_pos(key)])

    def successor_list_width(self, layer: int) -> int:
        """Successor-list entries the layer-``layer`` loop may shortcut to.

        Applies ``successor_list_policy``: ``"transitions"`` leaves the
        cold lowest loop on fingers alone, ``"off"`` never shortcuts.
        """
        if self.successor_list_policy == "off":
            return 0
        if self.successor_list_policy == "transitions" and layer == self.depth:
            return 0  # cold lowest loop: fingers only, like flat Chord
        return self.successor_list_r

    def ring_position(self, peers: Any, layer: int) -> Any:
        """Position of ``peers`` in their layer-``layer`` ring (-1 if dead).

        ``peers`` is one peer index or an index array; so is the result.
        """
        if layer == 1:
            return self._pos_global[peers]
        return self._pos_in_ring[layer - 2, peers]

    def route(self, source: int, key: int) -> RouteResult:
        """Bottom-up hierarchical routing of ``key`` from ``source``.

        One loop per layer, lowest ring first, each running Chord's
        greedy rule restricted to the current ring's membership.  Lower
        loops stop at the key's *ring predecessor* — the ring member the
        key falls immediately after — so the message approaches the key
        monotonically and never overshoots it (DESIGN.md §5 discusses
        this reading of the paper's "numerically closest node in this
        ring").  The final, global loop takes the last hop to the key's
        owner, exactly like flat Chord's terminating step.
        """
        require(bool(self._alive[source]), f"source peer {source} is not alive")
        key = self.space.wrap(int(key))
        cur = source
        path = [source]
        hops_per_layer: list[int] = []
        for layer in range(self.depth, 0, -1):
            ring = self.ring_of(cur, layer)
            sub = ring.predecessor_route(
                int(self.ring_position(cur, layer)),
                key,
                succ_list_r=self.successor_list_width(layer),
            )
            hops = len(sub) - 1
            for p in sub[1:]:
                path.append(int(ring.peers[p]))
            cur = path[-1]
            if layer == 1:
                # Terminating step (§3.2): the global predecessor hands
                # the request to its successor — the key's owner — just
                # like flat Chord's final hop.
                owner = self.owner_of(key)
                if cur != owner:
                    path.append(owner)
                    cur = owner
                    hops += 1
            hops_per_layer.append(hops)
        result = RouteResult(
            source=source,
            key=key,
            owner=path[-1],
            path=path,
            latency_ms=self.route_latency(self.latency, path),
            hops_per_layer=hops_per_layer,
        )
        if self.metrics is not None:
            layers, rings = self.hop_layer_info(result)
            self.record_route("hieras", result, layers=layers, rings=rings)
        return result

    def route_lossy(self, source: int, key: int, *, injector) -> RouteResult:
        """Failure-aware bottom-up routing under an active fault injector.

        Same layer-by-layer procedure as :meth:`route`, but every ring
        snapshot is treated as stale knowledge: crashed peers still sit
        in finger tables, contacts can time out, and each loop falls
        back through next-best fingers and the per-layer §3.3 successor
        list (``injector.policy.successor_fallback`` entries), charging
        retry penalties to the result.  Lower loops stop at the key's
        closest *live* ring predecessor; the global loop ends at the
        first *live* successor of the key — the peer that actually owns
        it after the failures.  On failure ``owner`` is ``-1`` and the
        path covers the hops taken before the lookup died.
        """
        from repro.faults.injector import LossyContext
        from repro.faults.routing import lossy_ring_route

        require(bool(self._alive[source]), f"source peer {source} is not alive")
        require(not injector.state.is_dead(source), f"source peer {source} has crashed")
        key = self.space.wrap(int(key))
        ctx = LossyContext()
        contact = lambda u, v: injector.contact(u, v, ctx)  # noqa: E731
        fallback_r = injector.policy.successor_fallback
        cur = source
        path = [source]
        hops_per_layer: list[int] = []
        ok = True
        for layer in range(self.depth, 0, -1):
            ring = self.ring_of(cur, layer)
            pos = int(self.ring_position(cur, layer))
            max_hops = 2 * max(len(ring).bit_length(), 4) + fallback_r
            sub, sub_ok = lossy_ring_route(
                ring,
                pos,
                key,
                to_owner=(layer == 1),
                contact=contact,
                is_dead=injector.state.is_dead,
                fallback_r=fallback_r,
                max_hops=max_hops,
            )
            for p in sub[1:]:
                path.append(int(ring.peers[p]))
            hops_per_layer.append(len(sub) - 1)
            cur = path[-1]
            if not sub_ok:
                ok = False
                break
        result = RouteResult(
            source=source,
            key=key,
            owner=path[-1] if ok else -1,
            path=path,
            latency_ms=self.route_latency(self.latency, path) * injector.state.delay_factor,
            hops_per_layer=hops_per_layer,
            success=ok,
            timeouts=ctx.timeouts,
            retry_latency_ms=ctx.retry_latency_ms,
        )
        if self.metrics is not None:
            layers, rings = self.hop_layer_info(result)
            self.record_route("hieras", result, layers=layers, rings=rings)
        return result

    def hop_layer_info(self, result: RouteResult) -> tuple[list[int], list[str]]:
        """Per-hop ``(layers, rings)`` labels for one finished lookup.

        ``hops_per_layer`` is ordered lowest layer first, matching the
        ``range(depth, 0, -1)`` routing loop, so zipping the two
        recovers which ring each ``path`` edge ran in.  A hop's ring is
        named after its *source* peer — the peer whose ring-restricted
        finger table chose the next hop.
        """
        layers: list[int] = []
        rings: list[str] = []
        hop_index = 0
        for layer, layer_hops in zip(range(self.depth, 0, -1), result.hops_per_layer):
            for _ in range(layer_hops):
                src = result.path[hop_index]
                layers.append(layer)
                rings.append("global" if layer == 1 else self.ring_name_of(src, layer))
                hop_index += 1
        return layers, rings

    # ------------------------------------------------------------------
    # inspection (Table 2, §3.4 cost model)
    # ------------------------------------------------------------------
    def finger_table(self, peer: int, layer: int) -> list[FingerEntry]:
        """Materialised finger table of ``peer`` in one layer's ring."""
        return self.ring_of(peer, layer).finger_table(int(self.ring_position(peer, layer)))

    def table2_rows(self, peer: int) -> list[LayeredFingerRow]:
        """The paper's Table 2 for ``peer``: fingers across all layers.

        Every row pairs the layer-1 successor with the lower-layer
        successors for the same finger interval; each successor is
        annotated with its own layer-2 ring name, as in the paper.
        """
        tables = [self.finger_table(peer, layer) for layer in range(1, self.depth + 1)]
        rows = []
        for entries in zip(*tables):
            base = entries[0]
            succ = tuple(
                (e.node_id, e.peer, self.ring_name_of(e.peer, 2)) for e in entries
            )
            rows.append(
                LayeredFingerRow(start=base.start, interval=base.interval, successors=succ)  # lint: allow-loop-alloc -- Table 2 inspection API; routing never calls this
            )
        return rows

    def distinct_finger_count(self, peer: int, layer: int) -> int:
        """Number of *distinct* finger nodes of ``peer`` at ``layer``.

        The §3.4 cost discussion notes lower-layer finger tables hold
        fewer distinct nodes; this is the quantity behind that claim.
        """
        return len({e.node_id for e in self.finger_table(peer, layer)})

    def maintenance_summary(self, *, successor_list_len: int = 4, sample: int | None = 64,
                            seed: int = 0) -> dict[str, float]:
        """Quantified §3.4 cost model (averages per node).

        Reports, per node: distinct finger-table entries per layer,
        successor-list entries (one list per layer), and how many ring
        tables the node hosts.  ``sample`` bounds the number of nodes
        whose finger tables are materialised (None = all).
        """
        rng = make_rng(seed)
        peers = self.global_ring.peers
        if sample is not None and sample < len(peers):
            peers = rng.choice(peers, size=sample, replace=False)
        finger_entries = {
            layer: float(
                np.mean([self.distinct_finger_count(int(p), layer) for p in peers])
            )
            for layer in range(1, self.depth + 1)
        }
        hosts: dict[int, int] = {}
        for name in self.directory.names():
            h = self.ring_table_host(name)
            hosts[h] = hosts.get(h, 0) + 1
        succ_entries = sum(
            min(successor_list_len, len(self.ring_of(int(peers[0]), layer)) - 1)
            for layer in range(1, self.depth + 1)
        )
        return {
            "depth": float(self.depth),
            "n_rings": float(sum(len(layer) for layer in self._rings) + 1),
            "avg_distinct_fingers_total": float(sum(finger_entries.values())),
            **{
                f"avg_distinct_fingers_layer{layer}": v
                for layer, v in sorted(finger_entries.items())
            },
            "successor_list_entries": float(succ_entries),
            "avg_ring_tables_hosted": float(
                sum(hosts.values()) / max(self.n_peers, 1)
            ),
        }

    def ring_id_of(self, name: str) -> int:
        """Ring id (hash of ring name) in this network's id space."""
        return ring_id(self.space, name)

    def explain_route(self, source: int, key: int) -> str:
        """Human-readable per-hop narration of one lookup.

        Shows, for every hop: the layer/ring it ran in, the peers and
        node ids involved, and the link delay — the debugging view of
        §3.2's multi-loop procedure.
        """
        result = self.route(source, key)
        lines = [
            f"route key={self.space.wrap(int(key))} from peer {source} "
            f"(id {self.id_of(source)}): {result.hops} hops, "
            f"{result.latency_ms:.0f}ms"
        ]
        hop_index = 0
        layers = list(range(self.depth, 0, -1))
        for layer, layer_hops in zip(layers, result.hops_per_layer):
            ring_label = (
                "global ring"
                if layer == 1
                else f'ring "{self.ring_name_of(result.path[hop_index], layer)}"'
            )
            if layer_hops == 0:
                lines.append(f"  layer {layer} ({ring_label}): no hops needed")
                hop_index += 0
                continue
            for _ in range(layer_hops):
                a = result.path[hop_index]
                b = result.path[hop_index + 1]
                delay = self.latency.pair(a, b)
                lines.append(
                    f"  layer {layer} ({ring_label}): peer {a} (id {self.id_of(a)})"
                    f" -> peer {b} (id {self.id_of(b)})  {delay:.0f}ms"
                )
                hop_index += 1
        lines.append(
            f"  owner: peer {result.owner} (id {self.id_of(result.owner)})"
        )
        return "\n".join(lines)

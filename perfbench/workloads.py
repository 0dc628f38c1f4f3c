"""The benchmark's three workloads over the HIERAS simulator's public API.

Each workload has a seeded *set-up* (deployment, latency model, both
stacks, generated inputs) and a *round*: a fixed amount of work that is
repeated while the run's time lasts.  A round returns its wall-clock
figures, a deterministic summary (the same for every round of one seed —
checked), and the failures its correctness gate found.

* ``lookup_streaming`` — uniform lookups streamed through the batch
  kernels on the streaming latency model (per-stub blocks computed on first
  touch, cold at every round's start), with a membership wave between the
  two stacks.
* ``serve_mixed`` — an open-loop 3:1 get/put mix at a constant simulated
  rate through ``DHTService`` with a quorum-replicated store.
* ``churn_faults`` — a closed-loop client doing replicated put/get under a
  fault plan (crashes, a loss burst, revival) and graceful membership
  waves.

Sizes live in :data:`FULL` and, for the self-tests, :data:`SMALL`.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

import numpy as np
from scipy.sparse.csgraph import dijkstra

from repro.engine import batch_route, stream_batch_route
from repro.experiments.config import SimConfig
from repro.experiments.runner import SimulationBundle
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.loadgen import WorkloadMix, catalog_names, constant_rate, generate
from repro.replication import ReplicatedStore, ReplicationPolicy
from repro.scale import build_scale_bundle
from repro.serve import DHTService, ServiceConfig
from repro.topology.latency import latency_model_for
from repro.util.rng import RngFactory
from repro.workloads.requests import zipf_weights

from perfbench.trace import NULL

__all__ = ["FULL", "SMALL", "WORKLOADS", "Params", "Round", "deploy"]

#: Replication every store in the benchmark uses: quorum over owner + 2.
POLICY = ReplicationPolicy(replicas=2, consistency="quorum", placement="successor")

#: Seed of the deployment every run builds (topology, attachment, landmarks,
#: node ids).  The deployment is the fixed system under test; ``--seed``
#: makes the workload's inputs (traces, arrivals, op mix, crash sets,
#: membership waves), so runs with different seeds measure the same system.
DEPLOYMENT_SEED = 42

#: Share of peers in every membership wave.
WAVE_FRACTION = 0.01

#: Lanes of the lookup sample checked against ``owner_of`` per stack.
OWNER_SAMPLE = 2000
#: Lanes whose HIERAS latencies give a lookup workload's percentiles
#: (p99.9 then has 20 samples beyond it).
PERCENTILE_SAMPLE = 20_000
#: Lanes per timed piece of a bulk lookup pass: one ``stream_batch_route``
#: call each.
PIECE_LANES = 20_000
#: Arrivals per timed piece of a ``DHTService.run``.
SEGMENT_REQUESTS = 20


@dataclass(frozen=True)
class Params:
    """Sizes of one workload (``FULL`` for runs, ``SMALL`` for self-tests)."""

    n_peers: int
    lookups: int = 0            # per stack per round (lookup_streaming)
    probe_lookups: int = 0      # per stack per probe pass (serve/churn)
    probe_reps: int = 3         # probe passes per set-up and per round
    setups: int = 3             # set-ups per untraced run (setup_s is their median)
    rate_per_s: float = 1600.0  # serve
    duration_ms: float = 0.0    # serve
    catalog: int = 0            # serve / churn
    ops: int = 0                # churn, per stack per round
    sample_ops: int = 0         # churn: HIERAS ops of the untimed percentile pass
    stub_checks: int = 4        # streaming: stub domains checked by Dijkstra


#: Short set-ups are repeated more often, so each median covers a few
#: seconds of set-up work.  Rounds are short enough that the measured time
#: holds at least one per set-up (``lookup_streaming``'s, which refill the
#: whole cold block cache, about two per set-up), and the fastest time of
#: each piece of a round is taken over many rounds.  The serve input is
#: still long enough that its latency percentiles vary little by seed;
#: churn rounds are short, so its percentiles come from a longer untimed
#: pass.
FULL: dict[str, Params] = {
    "lookup_streaming": Params(n_peers=80_000, lookups=50_000),
    "serve_mixed": Params(n_peers=4096, probe_lookups=20_000, duration_ms=3000.0, catalog=4096,
                          setups=6),
    "churn_faults": Params(n_peers=16_384, probe_lookups=20_000, catalog=1024, ops=1500,
                           sample_ops=5000),
}

SMALL: dict[str, Params] = {
    "lookup_streaming": Params(n_peers=2048, lookups=5000, stub_checks=2),
    "serve_mixed": Params(n_peers=512, probe_lookups=2000, probe_reps=1, rate_per_s=400.0,
                          duration_ms=1000.0, catalog=256),
    "churn_faults": Params(n_peers=1024, probe_lookups=2000, probe_reps=1, catalog=128, ops=1200,
                           sample_ops=1200),
}


@dataclass
class Round:
    """What one timed round measured and what its gate found."""

    #: Per timed bulk pass: (lookups, wall s of each piece, Chord's then HIERAS's).
    lookup_passes: list[tuple[Any, ...]] = field(default_factory=list)
    requests: int = 0         # client requests / operations issued
    #: Wall time of each fixed slice of the work serving them, in order.
    segment_s: list[float] = field(default_factory=list)
    failed: int = 0           # requests that did not complete
    summary: dict[str, Any] = field(default_factory=dict)  # deterministic
    gauges: dict[str, float] = field(default_factory=dict)  # counters read after the round
    errors: list[str] = field(default_factory=list)


def deploy(n_peers: int, *, streaming: bool) -> SimulationBundle:
    """The program's scale build of the fixed deployment.

    ``streaming`` selects the streaming transit-stub model through
    ``build_scale_bundle``'s public threshold, with the default cache
    budget.  A traced set-up times this build step by step through
    :func:`perfbench.trace.instrument_setup`.
    """
    config = SimConfig(model="ts", n_peers=n_peers, seed=DEPLOYMENT_SEED)
    if streaming:
        return build_scale_bundle(config, streaming_threshold_bytes=0)
    return build_scale_bundle(config)


def _stacks(dep: SimulationBundle) -> tuple[tuple[str, Any], ...]:
    return (("chord", dep.chord), ("hieras", dep.hieras))


def _uniform_trace(dep: SimulationBundle, n: int, rng: np.random.Generator) -> tuple[Any, Any]:
    sources = rng.integers(0, dep.chord.n_peers, size=n, dtype=np.int64)
    keys = rng.integers(0, dep.space.size, size=n, dtype=np.uint64)
    return sources, keys


def _wave(dep: SimulationBundle, fraction: float, rng: np.random.Generator,
          exclude: frozenset[int] = frozenset()) -> list[int]:
    n = dep.chord.n_peers
    size = max(1, int(round(fraction * n)))
    pool = np.array([p for p in range(n) if p not in exclude], dtype=np.int64)
    return sorted(int(p) for p in rng.choice(pool, size=size, replace=False))


def _percentiles(values: Any) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    p50, p999 = np.percentile(arr, [50.0, 99.9])
    return float(p50), float(p999)


def _stream(net: Any, sources: Any, keys: Any, tr: Any) -> tuple[dict[str, Any], list[float]]:
    """Stream the trace through ``net`` in pieces of ``PIECE_LANES`` lanes.

    Returns the totals over the pieces and each piece's wall time.
    """
    pieces, times = [], []
    for start in range(0, len(sources), PIECE_LANES):
        stop = start + PIECE_LANES
        t0 = time.perf_counter()
        with tr.span("engine.stream"):
            pieces.append(stream_batch_route(net, sources[start:stop], keys[start:stop]))
        times.append(time.perf_counter() - t0)
    layer_hops = [s.per_layer_hop_sum for s in pieces if s.per_layer_hop_sum is not None]
    totals = {
        "lookups": sum(s.lookups for s in pieces),
        "hop_sum": sum(s.hop_sum for s in pieces),
        "latency_sum_ms": sum(s.latency_sum_ms for s in pieces),
        "owner_checksums": tuple(s.owner_checksum for s in pieces),
        "per_layer_hop_sum": np.sum(layer_hops, axis=0) if layer_hops else None,
    }
    return totals, times


def _hop_shares(per_layer: Any) -> dict[str, float]:
    """HIERAS hop share per layer; columns run lowest layer first."""
    sums = np.asarray(per_layer, dtype=np.float64)
    total = float(sums.sum())
    depth = len(sums)
    return {f"layer{layer}.hop_share": float(sums[depth - layer]) / total if total else 0.0
            for layer in range(1, depth + 1)}


def _owner_errors(dep: SimulationBundle, sources: Any, keys: Any, tag: str) -> list[str]:
    """Both stacks' owners on a lane sample match each other and ``owner_of``."""
    errors = []
    src, key = sources[:OWNER_SAMPLE], keys[:OWNER_SAMPLE]
    owners = {}
    for stack, net in _stacks(dep):
        owners[stack] = batch_route(net, src, key).owner
        truth = np.array([net.owner_of(int(k)) for k in key], dtype=np.int64)
        bad = int((owners[stack] != truth).sum())
        if bad:
            errors.append(f"{tag}: {bad} {stack} lanes disagree with owner_of")
    if not np.array_equal(owners["chord"], owners["hieras"]):
        errors.append(f"{tag}: chord and hieras owners differ on the sample")
    return errors


def _membership(dep: SimulationBundle) -> np.ndarray:
    """Full rebuilds, splice waves and HIERAS rings spliced so far, both stacks."""
    return np.array([dep.chord.rebuild_count + dep.hieras.rebuild_count,
                     dep.chord.incremental_waves + dep.hieras.incremental_waves,
                     dep.hieras.rings_spliced], dtype=np.int64)


def _remove(nets: list[Any], wave: list[int], tr: Any, *, graceful: bool = False) -> None:
    with tr.span("ring.splice.remove"):
        for net in nets:
            net.remove_peers(wave, graceful=graceful)


def _revive(nets: list[Any], wave: list[int], tr: Any) -> None:
    with tr.span("ring.splice.revive"):
        for net in nets:
            net.revive_peers(wave)


def _splice_gauges(dep: SimulationBundle, before: np.ndarray) -> dict[str, float]:
    """What the networks' own counters say happened since ``before``."""
    rebuilds, waves, spliced = (_membership(dep) - before).tolist()
    return {
        "ring.splice.waves": float(waves),
        "ring.splice.rings_spliced": float(spliced),
        "ring.full_rebuilds": float(rebuilds),
    }


# ---------------------------------------------------------------------------
# lookup_streaming
# ---------------------------------------------------------------------------

class LookupWorkload:
    """Uniform lookups (paper §4.2) streamed through Chord, then HIERAS.

    The deployment uses the streaming transit-stub latency model, and every
    round starts from a cold block cache.
    """

    def __init__(self, params: Params) -> None:
        self.p = params

    def setup(self, seed: int, tr: Any) -> dict[str, Any]:
        dep = deploy(self.p.n_peers, streaming=True)
        rngs = RngFactory(seed)
        with tr.span("loadgen.generate"):
            sources, keys = _uniform_trace(dep, self.p.lookups, rngs.get("bench-trace"))
            wave = _wave(dep, WAVE_FRACTION, rngs.get("bench-wave"))
        return {"dep": dep, "model": dep.peer_latency.model, "sources": sources, "keys": keys,
                "wave": wave, "seed": seed}

    def setup_samples(self, st: dict[str, Any]) -> list[tuple[Any, ...]]:
        return []

    def round(self, st: dict[str, Any], tr: Any) -> Round:
        dep: SimulationBundle = st["dep"]
        rnd = Round()
        # Every round starts from a cold block cache: a fresh model.
        t0 = time.perf_counter()
        with tr.span("topology.latency.build"):
            st["model"] = latency_model_for(dep.topology, streaming_threshold_bytes=0)
            view = dep.attachment.peer_latency(st["model"])
            for _, net in _stacks(dep):
                net.latency = view
        rnd.segment_s.append(time.perf_counter() - t0)
        stats = {}
        before = _membership(dep)
        pass_s: list[float] = []
        for stack, net in _stacks(dep):
            if stack == "hieras":
                t0 = time.perf_counter()
                nets = [dep.chord, dep.hieras]
                _remove(nets, st["wave"], tr)
                _revive(nets, st["wave"], tr)
                rnd.segment_s.append(time.perf_counter() - t0)
            stats[stack], times = _stream(net, st["sources"], st["keys"], tr)
            rnd.segment_s += times
            pass_s += times
        rnd.requests = 2 * self.p.lookups
        rnd.lookup_passes.append((rnd.requests, *pass_s))
        chord, hieras = stats["chord"], stats["hieras"]
        if chord["owner_checksums"] != hieras["owner_checksums"]:
            rnd.errors.append("chord and hieras owner checksums differ")
        rnd.summary = {
            "hieras_latency_ratio": hieras["latency_sum_ms"] / chord["latency_sum_ms"],
            "owner_checksums": chord["owner_checksums"],
            "chord_mean_hops": chord["hop_sum"] / chord["lookups"],
            "hieras_mean_hops": hieras["hop_sum"] / hieras["lookups"],
        }
        rnd.summary.update(_hop_shares(hieras["per_layer_hop_sum"]))
        rnd.gauges = {**_cache_gauges(st["model"]), **_splice_gauges(dep, before)}
        if rnd.gauges["ring.full_rebuilds"]:
            rnd.errors.append("membership waves caused a full rebuild")
        return rnd

    def finish(self, st: dict[str, Any]) -> tuple[dict[str, float], list[str]]:
        """Untimed checks and the trace's HIERAS latency percentiles."""
        dep: SimulationBundle = st["dep"]
        errors = _owner_errors(dep, st["sources"], st["keys"], "lookup sample")
        n = min(PERCENTILE_SAMPLE, len(st["sources"]))
        lat = batch_route(dep.hieras, st["sources"][:n], st["keys"][:n]).latency_ms
        p50, p999 = _percentiles(lat)
        errors += _stub_latency_errors(dep, st, self.p.stub_checks)
        return {"sim_p50_ms": p50, "sim_p999_ms": p999, "sim_samples": float(n)}, errors


def _cache_gauges(model: Any) -> dict[str, float]:
    hits = float(getattr(model, "cache_hits", 0))
    misses = float(getattr(model, "cache_misses", 0))
    streaming = hasattr(model, "cache_hits")
    return {
        "topology.latency.cache_hits": hits,
        "topology.latency.cache_misses": misses,
        "topology.latency.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "topology.latency.blocks_total": float(model.topology.n_stub_domains) if streaming else 0.0,
    }


def _stub_latency_errors(dep: SimulationBundle, st: dict[str, Any], n_domains: int) -> list[str]:
    """Streamed same-stub latencies against a full-graph Dijkstra.

    The streaming model answers same-stub queries from per-stub blocks; the
    reference here runs single-source Dijkstra over the *whole* router
    graph, so it also checks the model's claim that no shortest path
    between two routers of one stub leaves the stub.
    """
    topo = dep.topology
    rng = RngFactory(st["seed"]).get("bench-stub-check")
    csr = topo.csr()
    peer_routers = dep.attachment.router_of_peer
    doms = topo.stub_domain_of[peer_routers]
    errors = []
    for dom in rng.choice(np.unique(doms[doms >= 0]), size=n_domains, replace=False):
        members = np.unique(peer_routers[doms == dom])
        src = members[:3]
        ref = dijkstra(csr, directed=False, indices=src)[:, members]
        us = np.repeat(src, len(members))
        vs = np.tile(members, len(src))
        got = st["model"].pairs(us, vs).reshape(len(src), len(members))
        if not np.allclose(got, ref, rtol=0.0, atol=1e-3):
            errors.append(f"stub domain {int(dom)}: streamed latency differs from Dijkstra")
    return errors


# ---------------------------------------------------------------------------
# serve_mixed and churn_faults
# ---------------------------------------------------------------------------

def _probe(dep: SimulationBundle, probe: tuple[Any, Any], reps: int,
           tr: Any) -> tuple[list[tuple[Any, ...]], Any]:
    """Time bulk lookups of the short probe trace ``reps`` times.

    Each repetition (Chord then HIERAS) is one timed pass; returns the
    passes and the last repetition's per-stack stream totals.
    """
    sources, keys = probe
    passes = []
    for _ in range(reps):
        stats = {}
        pass_s: list[float] = []
        for stack, net in _stacks(dep):
            stats[stack], times = _stream(net, sources, keys, tr)
            pass_s += times
        passes.append((2 * len(sources), *pass_s))
    return passes, stats


class _ProbedWorkload:
    """Serve and churn rounds end with a bulk-lookup probe of the networks.

    Their rounds are long, so the probe is also sampled after every set-up
    (:meth:`setup_samples`), which spreads the ``lookups_per_s`` samples
    over the whole run instead of one short window.
    """

    p: Params

    def finish(self, st: dict[str, Any]) -> tuple[dict[str, float], list[str]]:
        return {}, []

    def setup_samples(self, st: dict[str, Any]) -> list[tuple[Any, ...]]:
        for _, net in _stacks(st["dep"]):  # warm-up pass, not timed
            stream_batch_route(net, *st["probe"])
        return _probe(st["dep"], st["probe"], self.p.probe_reps, NULL)[0]

    def _probe_round(self, st: dict[str, Any], rnd: Round, tr: Any) -> None:
        """The round's probe; a traced round leaves it out of the layer figures."""
        dep: SimulationBundle = st["dep"]
        with tr.pause():
            passes, stats = _probe(dep, st["probe"], self.p.probe_reps, NULL)
        rnd.lookup_passes += passes
        if stats["chord"]["owner_checksums"] != stats["hieras"]["owner_checksums"]:
            rnd.errors.append("probe: chord and hieras owner checksums differ")
        rnd.summary.update(_hop_shares(stats["hieras"]["per_layer_hop_sum"]))
        rnd.gauges.update(_cache_gauges(dep.peer_latency.model))


class ServeWorkload(_ProbedWorkload):
    """Open-loop 3:1 get/put mix through ``DHTService`` on both stacks."""

    def __init__(self, params: Params) -> None:
        self.p = params

    def setup(self, seed: int, tr: Any) -> dict[str, Any]:
        dep = deploy(self.p.n_peers, streaming=False)
        rngs = RngFactory(seed)
        with tr.span("loadgen.generate"):
            arrivals = constant_rate(self.p.rate_per_s, self.p.duration_ms).arrival_times(
                rngs.get("bench-arrivals")
            )
            pool = np.arange(dep.chord.n_peers, dtype=np.int64)
            # Every fourth arrival is a put.  Puts hold a worker far longer
            # than a batched get, so the gets queued behind them set the
            # batch size and with it the kernel calls per request; an
            # i.i.d. op draw moves the put share by a few points from seed
            # to seed, which moves the batch size by a third.
            is_put = np.arange(len(arrivals)) % 4 == 3
            gets = generate(_mix(self.p.catalog, 1.0), arrivals[~is_put], pool,
                            seed=rngs.get("bench-mix"))
            puts = generate(_mix(self.p.catalog, 0.0), arrivals[is_put], pool,
                            seed=rngs.get("bench-mix-puts"))
            requests = sorted(gets + puts, key=lambda r: r.at_ms)
            probe = _uniform_trace(dep, self.p.probe_lookups, rngs.get("bench-trace"))
        return {"dep": dep, "requests": requests,
                "names": catalog_names(_mix(self.p.catalog, 1.0)), "probe": probe}

    def round(self, st: dict[str, Any], tr: Any) -> Round:
        dep: SimulationBundle = st["dep"]
        requests = st["requests"]
        rnd = Round()
        out: dict[str, Any] = {}
        batches = lanes = depth = 0.0
        for stack, net in _stacks(dep):
            store = ReplicatedStore(net, POLICY)
            for name in st["names"]:
                store.seed_key(name, "v0")
            clocked = _Clocked(requests)
            with tr.span("serve.run"):
                result = DHTService(net, config=ServiceConfig(), store=store).run(clocked)
            rnd.segment_s += clocked.pieces()
            out[stack] = result
            counters = result.registry.counters
            batches += counters["serve.batches"].value
            lanes += counters["serve.batched_lookups"].value
            depth = max(depth, float(result.max_queue_depth))
            _add_store_gauges(rnd.gauges, store)
            counts = result.counts
            accounted = sum(counts.get(k, 0) for k in ("ok", "rejected", "deadline", "failed"))
            if accounted != len(requests) or len(result.completions) != len(requests):
                rnd.errors.append(f"{stack}: served+rejected+shed+failed != arrivals")
            rnd.failed += len(requests) - counts.get("ok", 0)
            rnd.errors += _served_owner_errors(dep, net, requests, result, stack)
        rnd.requests = 2 * len(requests)
        totals = {s: np.array([c.total_ms for c in r.completions if c.outcome == "ok"])
                  for s, r in out.items()}
        p50, p999 = _percentiles(totals["hieras"])
        rnd.summary = {
            "hieras_latency_ratio": float(totals["hieras"].mean() / totals["chord"].mean()),
            "sim_p50_ms": p50, "sim_p999_ms": p999, "sim_samples": float(len(totals["hieras"])),
            "failed": rnd.failed,
        }
        rnd.gauges["serve.mean_batch_size"] = lanes / batches if batches else 0.0
        rnd.gauges["serve.max_queue_depth"] = depth
        self._probe_round(st, rnd, tr)
        return rnd


def _mix(catalog: int, read_fraction: float) -> WorkloadMix:
    return WorkloadMix(read_fraction=read_fraction, catalog_size=catalog, zipf_exponent=0.95)


class _Clocked(list):  # type: ignore[type-arg]
    """The request list, noting the wall time at every ``SEGMENT_REQUESTS``-th item.

    ``DHTService.run`` walks its arrivals once in order, serving the queue
    between them, so the marks cut one ``run`` into pieces of the same work
    in every round without touching the service.
    """

    def __iter__(self) -> Any:
        self.marks = [time.perf_counter()]
        for i, item in enumerate(super().__iter__()):
            if i and i % SEGMENT_REQUESTS == 0:
                self.marks.append(time.perf_counter())
            yield item

    def pieces(self) -> list[float]:
        """Wall time of each piece; the last runs to now (the final drain)."""
        return np.diff([*self.marks, time.perf_counter()]).tolist()


def _served_owner_errors(dep: SimulationBundle, net: Any, requests: Any, result: Any,
                         stack: str) -> list[str]:
    """Every 50th served get resolved to the key's ``owner_of``."""
    bad = 0
    for c in result.completions[::50]:
        if c.op == "get" and c.outcome == "ok":
            key = int(dep.space.hash_key(requests[c.seq].name))
            bad += int(c.owner != net.owner_of(key))
    return [f"{stack}: {bad} served gets reached a non-owner"] if bad else []


def _add_store_gauges(gauges: dict[str, float], store: ReplicatedStore) -> None:
    s = store.stats
    for name, value in (("replica_contacts", s.replica_contacts),
                        ("contact_failures", s.contact_failures),
                        ("hints_queued", s.hints_queued),
                        ("hints_replayed", s.hints_replayed)):
        key = f"replication.{name}"
        gauges[key] = gauges.get(key, 0.0) + float(value)


# ---------------------------------------------------------------------------
# churn_faults
# ---------------------------------------------------------------------------

#: Simulated instants (ms, closed loop at 1 ms per op) of the fault and
#: membership timeline, as fractions of the op count.
CRASH_AT, GRACEFUL_AT, LOSS_AT, LOSS_FOR, REJOIN_AT, REVIVE_AT = 0.2, 0.3, 0.4, 0.1, 0.6, 0.7
CRASH_FRACTION = 0.10
LOSS_RATE = 0.2
#: Ops per timed segment of a churn round.  Every round does the same ops in
#: the same order, so segment ``i`` is the same work in every round.
SEGMENT_OPS = 10


class ChurnWorkload(_ProbedWorkload):
    """Closed-loop replicated put/get (50:50, Zipf) under faults and churn."""

    def __init__(self, params: Params) -> None:
        self.p = params

    def setup(self, seed: int, tr: Any) -> dict[str, Any]:
        dep = deploy(self.p.n_peers, streaming=False)
        rngs = RngFactory(seed)
        with tr.span("loadgen.generate"):
            timed = self._inputs(dep, rngs, seed, self.p.ops, "")
            sample = self._inputs(dep, rngs, seed, self.p.sample_ops, "-sample")
            probe = _uniform_trace(dep, self.p.probe_lookups, rngs.get("bench-trace"))
        return {"dep": dep, "timed": timed, "sample": sample, "probe": probe,
                "catalog": [f"key-{r + 1}" for r in range(self.p.catalog)]}

    def _inputs(self, dep: SimulationBundle, rngs: RngFactory, seed: int, ops: int,
                tag: str) -> dict[str, Any]:
        """One client's ops with their fault plan and graceful wave, timeline scaled to ``ops``."""
        rng = rngs.get(f"bench-ops{tag}")
        is_put = rng.random(ops) < 0.5
        ranks = rng.choice(self.p.catalog, size=ops, p=zipf_weights(self.p.catalog, 0.95))
        sources = rng.integers(0, dep.chord.n_peers, size=ops, dtype=np.int64)
        crashed = _wave(dep, CRASH_FRACTION, rngs.get(f"bench-crash{tag}"))
        leaving = _wave(dep, WAVE_FRACTION, rngs.get(f"bench-wave{tag}"), frozenset(crashed))
        plan = (FaultPlan(seed=seed)
                .crash_peers(at_ms=CRASH_AT * ops, peers=crashed)
                .loss_burst(at_ms=LOSS_AT * ops, rate=LOSS_RATE, duration_ms=LOSS_FOR * ops)
                .revive_peers(at_ms=REVIVE_AT * ops, peers=crashed))
        return {"ops": ops, "is_put": is_put, "names": [f"key-{r + 1}" for r in ranks],
                "sources": sources, "plan": plan, "leaving": leaving}

    def _run_stack(self, st: dict[str, Any], inp: dict[str, Any], net: Any,
                   tr: Any) -> tuple[ReplicatedStore, list[float], int, int, list[float]]:
        """A fresh store on ``net``, seeded and attached, driven through ``inp``."""
        store = ReplicatedStore(net, POLICY, injector=FaultInjector(inp["plan"], net.n_peers))
        for name in st["catalog"]:
            store.seed_key(name, "v0")
        net.attach_store(store)
        try:
            return (store, *self._drive(st["dep"], inp, net, store, tr))
        finally:
            net.detach_store(store)

    def _drive(self, dep: SimulationBundle, inp: dict[str, Any], net: Any,
               store: ReplicatedStore, tr: Any) -> tuple[list[float], int, int, list[float]]:
        """One client, one op per simulated ms; failed ops retried after revival.

        Also returns the wall time of every ``SEGMENT_OPS`` ops (the retries
        are the last segment).
        """
        n = dep.chord.n_peers
        injector = store.injector
        ops = inp["ops"]
        graceful_t, rejoin_t = int(GRACEFUL_AT * ops), int(REJOIN_AT * ops)
        latencies: list[float] = []
        retry: list[int] = []
        marks = [time.perf_counter()]

        def issue(i: int, t: int) -> bool:
            store.advance_to(float(t))
            src = int(inp["sources"][i])
            while not net.is_alive(src) or injector.state.is_dead(src):
                src = (src + 1) % n
            if inp["is_put"][i]:
                res = store.put(src, inp["names"][i], f"v{i}")
            else:
                res = store.get(src, inp["names"][i])
            latencies.append(res.total_latency_ms)
            return bool(res.success)

        for i in range(ops):
            if i == graceful_t:
                _remove([net], inp["leaving"], tr, graceful=True)
            elif i == rejoin_t:
                _revive([net], inp["leaving"], tr)
            if not issue(i, i + 1):
                retry.append(i)
            if (i + 1) % SEGMENT_OPS == 0 or i + 1 == ops:
                marks.append(time.perf_counter())
        failed = sum(not issue(i, ops + 1 + j) for j, i in enumerate(retry))
        marks.append(time.perf_counter())
        return latencies, len(retry), failed, np.diff(marks).tolist()

    def round(self, st: dict[str, Any], tr: Any) -> Round:
        dep: SimulationBundle = st["dep"]
        rnd = Round()
        before = _membership(dep)
        lat: dict[str, Any] = {}
        first_failures = 0
        st["stores"] = []
        for stack, net in _stacks(dep):
            store, latencies, retried, failed, segments = self._run_stack(st, st["timed"], net, tr)
            rnd.segment_s += segments
            lat[stack] = np.asarray(latencies)
            rnd.requests += len(latencies)
            first_failures += retried
            rnd.failed += failed
            st["stores"].append(store)
            _add_store_gauges(rnd.gauges, store)
        rnd.summary = {
            "hieras_latency_ratio": float(lat["hieras"].mean() / lat["chord"].mean()),
            "failed_fraction": first_failures / (2 * self.p.ops),
            "failed": rnd.failed,
        }
        rnd.gauges.update(_splice_gauges(dep, before))
        if rnd.gauges["ring.full_rebuilds"]:
            rnd.errors.append("membership waves caused a full rebuild")
        self._probe_round(st, rnd, tr)
        return rnd

    def finish(self, st: dict[str, Any]) -> tuple[dict[str, float], list[str]]:
        """Untimed: the HIERAS latency percentiles, the key-loss audit and owners.

        The percentiles come from a separate HIERAS pass over ``sample_ops``
        ops with the same kind of timeline, so the timed rounds can be short
        while p99.9 still rests on a few samples beyond it.  Every round ends
        in the same membership and fault state, so the last round's stores
        stand for all of them in the audit; the owners are checked after the
        percentile pass's waves too.
        """
        dep: SimulationBundle = st["dep"]
        audits = [store.loss_audit() for store in st["stores"]]
        lost = sum(int(a["lost"]) for a in audits)
        keys = sum(int(a["keys"]) for a in audits)
        before = _membership(dep)
        _, latencies, _, failed, _ = self._run_stack(st, st["sample"], dep.hieras, NULL)
        errors = []
        if failed:
            errors.append(f"percentile pass: {failed} ops still failed after the retry")
        if _splice_gauges(dep, before)["ring.full_rebuilds"]:
            errors.append("percentile pass: membership waves caused a full rebuild")
        errors += _owner_errors(dep, *st["probe"], "after the last wave")
        p50, p999 = _percentiles(latencies)
        return {"key_loss_fraction": lost / keys, "sim_p50_ms": p50, "sim_p999_ms": p999,
                "sim_samples": float(len(latencies))}, errors


WORKLOADS: dict[str, Callable[[Params], Any]] = {
    "lookup_streaming": LookupWorkload,
    "serve_mixed": ServeWorkload,
    "churn_faults": ChurnWorkload,
}


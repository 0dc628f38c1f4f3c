"""The saturation experiment: serving-layer capacity under open-loop load.

PR 7 turns the routing library into a service (DESIGN.md §12); this
experiment asks the operator questions: **how much load can one front
door take, where is the knee, and what moves it?**  Each cell wires a
:class:`~repro.serve.service.DHTService` over one trace-driven stack
(writes through a quorum :class:`~repro.replication.store
.ReplicatedStore`), drives it with a deterministic open-loop schedule
from :mod:`repro.loadgen`, and condenses the run into an
:class:`~repro.loadgen.slo.SLOReport`.

Four sections:

1. **sweep** — offered load vs achieved throughput vs p99 at a ladder
   of constant rates on both stacks (3:1 read:write Zipf mix).  The
   **knee** is where achieved throughput stops tracking offered load;
   the cost model predicts it at ``workers / mean_dispatch_cost``.
2. **flash** — a flash-crowd spike (8× base for 2 s) through an
   unbounded queue vs a bounded one: admission control trades a slice
   of goodput for a bounded queue-wait tail.
3. **coalescing** — the same overload cell dispatched per-request
   (``max_batch=1``) vs batch-coalesced: amortizing the dispatch
   overhead across a batch-route call moves the knee.
4. **churn** — the steady mix with a leave wave mid-run and a rejoin
   later, store attached to the network so departures drop disks; the
   service keeps serving through the membership churn.

Output follows the ``BENCH_*`` convention: one JSON document whose
``phases`` section holds nondeterministic wall times and whose
``metrics`` section is byte-reproducible for a fixed seed.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.experiments.bench import PhaseTimer
from repro.experiments.config import SimConfig
from repro.experiments.runner import SimulationBundle, build_bundle
from repro.loadgen import (
    SLOReport,
    WorkloadMix,
    catalog_names,
    constant_rate,
    flash_crowd,
    generate,
)
from repro.replication import ReplicatedStore, ReplicationPolicy
from repro.serve import DHTService, Request, ServiceConfig

__all__ = [
    "SCHEMA",
    "mixed_capacity_per_s",
    "run_serve_cell",
    "run_bench_serve",
]

SCHEMA = "repro.bench_serve/1"

#: Offered-load ladder for the saturation sweep (requests/second).
SWEEP_RATES = (200.0, 400.0, 800.0, 1200.0, 1600.0, 2400.0)
#: The overload rate where the coalescing comparison runs — past the
#: scalar knee (~681/s at default costs) but under the batched one.
COALESCE_RATE = 1600.0
#: Flash-crowd shape: base rate, spiked 8x for a fifth of the window.
FLASH_BASE = 400.0
FLASH_FACTOR = 8.0
#: Bounded-queue depth for the admission-control cell.
FLASH_QUEUE_LIMIT = 256
#: Fraction of peers churned in the membership cell.
CHURN_FRACTION = 0.1


def mixed_capacity_per_s(
    cfg: ServiceConfig, read_fraction: float, *, coalesced: bool = True
) -> float:
    """Cost-model capacity for a read/write mix (requests/second).

    Mean worker cost per request is the read/write-weighted dispatch
    cost; coalesced reads amortize the dispatch overhead across a full
    batch, scalar reads pay it whole.  This is the predicted knee the
    sweep should plateau at.
    """
    overhead = cfg.dispatch_overhead_ms / cfg.max_batch if coalesced else cfg.dispatch_overhead_ms
    per_read = overhead + cfg.per_lookup_ms
    per_write = cfg.dispatch_overhead_ms + cfg.per_write_ms
    mean_cost = read_fraction * per_read + (1.0 - read_fraction) * per_write
    if mean_cost <= 0.0:
        return float("inf")
    return 1000.0 * cfg.workers / mean_cost


def run_serve_cell(
    bundle: SimulationBundle,
    *,
    stack: str,
    rate_per_s: float,
    duration_ms: float,
    mix: WorkloadMix,
    service: ServiceConfig,
    seed: int,
    schedule_kind: str = "constant",
    membership: bool = False,
) -> dict[str, Any]:
    """One load scenario through one serving stack; returns the SLO dict.

    A cell is a pure function of its arguments: the schedule, workload,
    and store are all seeded, and the service clock is simulated.  The
    store is fresh per cell (catalogue pre-seeded onto replica groups),
    so cells don't leak state into each other.  ``membership=True``
    mixes a leave wave at 30% of the window and a rejoin of the same
    peers at 70% into the request stream — the wave peers are disjoint
    from the client source pool, and the network ends the cell fully
    revived.
    """
    net = bundle.chord if stack == "chord" else bundle.hieras
    n_peers = int(net.n_peers)
    store = ReplicatedStore(
        net, ReplicationPolicy(replicas=2, consistency="quorum", placement="successor")
    )
    for name in catalog_names(mix):
        store.seed_key(name, "v0")

    if schedule_kind == "flash":
        sched = flash_crowd(
            rate_per_s,
            duration_ms,
            spike_at_ms=0.3 * duration_ms,
            spike_duration_ms=0.2 * duration_ms,
            spike_factor=FLASH_FACTOR,
        )
    else:
        sched = constant_rate(rate_per_s, duration_ms)

    # Clients issue from the low half of the id range; churn waves take
    # peers from the high half so a departed client never "fails" a get.
    pool_size = n_peers // 2 if membership else n_peers
    pool = np.arange(pool_size, dtype=np.int64)
    requests = generate(mix, sched.arrival_times(seed), pool, seed=seed + 1)

    if membership:
        from repro.util.rng import make_rng

        wave_rng = make_rng(seed + 2)
        n_wave = max(1, int(round(CHURN_FRACTION * n_peers)))
        wave = tuple(
            sorted(
                int(p)
                for p in wave_rng.choice(
                    np.arange(pool_size, n_peers), size=n_wave, replace=False
                )
            )
        )
        requests = sorted(
            requests
            + [
                Request(op="leave", at_ms=0.3 * duration_ms, peers=wave),
                Request(op="join", at_ms=0.7 * duration_ms, peers=wave),
            ],
            key=lambda r: r.at_ms,
        )
        net.attach_store(store)

    try:
        result = DHTService(net, config=service, store=store).run(requests)
    finally:
        if membership:
            net.detach_store(store)

    report = SLOReport.from_result(
        result, offered_per_s=rate_per_s, duration_ms=duration_ms
    )
    cell = report.as_dict()
    if membership:
        reg = result.registry
        cell["leave_peers"] = reg.counters["serve.leave.peers"].value
        cell["join_peers"] = reg.counters["serve.join.peers"].value
    return cell


def run_bench_serve(
    *,
    full: bool = False,
    seed: int = 42,
    n_peers: int | None = None,
    duration_ms: float | None = None,
    rates: tuple[float, ...] = SWEEP_RATES,
) -> dict[str, object]:
    """Run the saturation study once; returns the BENCH document.

    Per stack: the offered-load sweep (batched dispatch), the derived
    knee, the flash-crowd admission pair, the coalescing pair at the
    overload rate, and the churn cell.  Membership cells run last so
    the shared bundle's networks are never mid-churn for another cell.
    """
    if n_peers is None:
        n_peers = 2000 if full else 400
    if duration_ms is None:
        duration_ms = 10_000.0 if full else 5_000.0
    mix = WorkloadMix(catalog_size=512 if full else 128)
    batched = ServiceConfig()
    scalar = ServiceConfig(max_batch=1)

    timer = PhaseTimer()

    with timer.phase("build"):
        bundle = build_bundle(
            SimConfig(model="ts", n_peers=n_peers, n_landmarks=4, depth=2, seed=seed)
        )

    sweep: list[dict[str, Any]] = []
    knee: dict[str, dict[str, float]] = {}
    for stack in ("chord", "hieras"):
        with timer.phase(f"{stack}_sweep"):
            for rate in rates:
                cell = run_serve_cell(
                    bundle,
                    stack=stack,
                    rate_per_s=rate,
                    duration_ms=duration_ms,
                    mix=mix,
                    service=batched,
                    seed=seed,
                )
                sweep.append({"stack": stack, **cell})
        rows = [c for c in sweep if c["stack"] == stack]
        saturated = [
            c["offered_per_s"]
            for c in rows
            if c["achieved_per_s"] < 0.95 * c["offered_per_s"]
        ]
        knee[stack] = {
            "achieved_max_per_s": max(c["achieved_per_s"] for c in rows),
            "first_saturated_rate_per_s": min(saturated) if saturated else float("inf"),
            "model_capacity_per_s": mixed_capacity_per_s(batched, mix.read_fraction),
            "model_scalar_capacity_per_s": mixed_capacity_per_s(
                batched, mix.read_fraction, coalesced=False
            ),
        }

    flash: dict[str, dict[str, Any]] = {}
    with timer.phase("flash_pairs"):
        for stack in ("chord", "hieras"):
            pair: dict[str, Any] = {}
            for label, limit in (("unbounded", None), ("bounded", FLASH_QUEUE_LIMIT)):
                pair[label] = run_serve_cell(
                    bundle,
                    stack=stack,
                    rate_per_s=FLASH_BASE,
                    duration_ms=duration_ms,
                    mix=mix,
                    service=ServiceConfig(queue_limit=limit),
                    seed=seed,
                    schedule_kind="flash",
                )
            flash[stack] = pair

    coalescing: dict[str, dict[str, Any]] = {}
    with timer.phase("coalescing_pairs"):
        for stack in ("chord", "hieras"):
            batched_cell = next(
                c
                for c in sweep
                if c["stack"] == stack and c["offered_per_s"] == COALESCE_RATE
            )
            coalescing[stack] = {
                "batched": {k: v for k, v in batched_cell.items() if k != "stack"},
                "scalar": run_serve_cell(
                    bundle,
                    stack=stack,
                    rate_per_s=COALESCE_RATE,
                    duration_ms=duration_ms,
                    mix=mix,
                    service=scalar,
                    seed=seed,
                ),
            }

    churn: dict[str, Any] = {}
    with timer.phase("churn_cells"):
        for stack in ("chord", "hieras"):
            churn[stack] = run_serve_cell(
                bundle,
                stack=stack,
                rate_per_s=FLASH_BASE,
                duration_ms=duration_ms,
                mix=mix,
                service=batched,
                seed=seed,
                membership=True,
            )

    headline: dict[str, object] = {
        "knee_shift": {
            stack: {
                "scalar_achieved_per_s": coalescing[stack]["scalar"]["achieved_per_s"],
                "batched_achieved_per_s": coalescing[stack]["batched"]["achieved_per_s"],
                "offered_per_s": COALESCE_RATE,
            }
            for stack in ("chord", "hieras")
        },
        "admission": {
            stack: {
                "unbounded_queue_p99_ms": flash[stack]["unbounded"]["phases"]["queue_wait"]["p99"],
                "bounded_queue_p99_ms": flash[stack]["bounded"]["phases"]["queue_wait"]["p99"],
                "unbounded_total_p99_ms": flash[stack]["unbounded"]["phases"]["total"]["p99"],
                "bounded_total_p99_ms": flash[stack]["bounded"]["phases"]["total"]["p99"],
                "rejected": flash[stack]["bounded"]["rejected"],
                "bounded_goodput": flash[stack]["bounded"]["goodput_fraction"],
            }
            for stack in ("chord", "hieras")
        },
        "knee": knee,
    }

    return {
        "schema": SCHEMA,
        "config": {
            "full": full,
            "seed": seed,
            "n_peers": n_peers,
            "duration_ms": duration_ms,
            "rates": list(rates),
            "coalesce_rate": COALESCE_RATE,
            "flash_base_per_s": FLASH_BASE,
            "flash_factor": FLASH_FACTOR,
            "flash_queue_limit": FLASH_QUEUE_LIMIT,
            "churn_fraction": CHURN_FRACTION,
            "mix": {
                "read_fraction": mix.read_fraction,
                "catalog_size": mix.catalog_size,
                "zipf_exponent": mix.zipf_exponent,
            },
            "service": {
                "workers": batched.workers,
                "max_batch": batched.max_batch,
                "dispatch_overhead_ms": batched.dispatch_overhead_ms,
                "per_lookup_ms": batched.per_lookup_ms,
                "per_write_ms": batched.per_write_ms,
                "per_membership_ms": batched.per_membership_ms,
            },
        },
        "phases": timer.finish(),
        "metrics": {
            "sweep": sweep,
            "flash": flash,
            "coalescing": coalescing,
            "churn": churn,
            "headline": headline,
        },
    }


"""Batch-routing benchmark: the vectorized engine vs the scalar loop.

One run builds a deployment per network size, routes the same seeded
trace through both trace-driven stacks twice — once with the scalar
oracle :func:`~repro.engine.scalar_batch_route` (per-request
``route()`` calls), once through :mod:`repro.engine`'s frontier-stepped
batch kernels — and writes ``BENCH_batchroute.json`` in the
``BENCH_baseline.json`` convention:

* ``phases`` — wall-clock milliseconds and lookups/sec per (stack, N)
  cell plus the resulting speedup.  **Nondeterministic** (machine- and
  load-dependent); the headline number (">= 5x at N=4096") lives here.
* ``metrics`` — per-cell route aggregates **and the engines-agree
  bits**: exact array equality (hop counts, bit-identical float
  latencies, layer splits) between the two engines.  **Deterministic**:
  a pure function of the seed.

``python -m repro.experiments bench batch_route`` runs the registered
``batch_route`` experiment and writes this document.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.stats import RouteSample, collect_routes
from repro.engine import scalar_batch_route
from repro.experiments.bench import PhaseTimer
from repro.experiments.config import SimConfig
from repro.experiments.runner import build_bundle, make_trace

__all__ = ["SCHEMA", "run_bench_batchroute"]

SCHEMA = "repro.bench_batchroute/1"

#: The acceptance-gate cell: the batch engine must beat the scalar loop
#: by at least this factor at this network size on at least one stack.
HEADLINE_N = 4096
HEADLINE_SPEEDUP = 5.0


def _samples_agree(a: RouteSample, b: RouteSample) -> bool:
    """Exact equality of every array in two route samples.

    Float arrays are compared with ``==`` (no tolerance): the batch
    engine's contract is *bit-identical* latencies, not merely close.
    """
    return (
        bool(np.array_equal(a.hops, b.hops))
        and bool(np.array_equal(a.latency_ms, b.latency_ms))
        and bool(np.array_equal(a.low_layer_hops, b.low_layer_hops))
        and bool(np.array_equal(a.top_layer_hops, b.top_layer_hops))
        and bool(np.array_equal(a.low_layer_latency_ms, b.low_layer_latency_ms))
    )


def run_bench_batchroute(
    *,
    full: bool = False,
    seed: int = 42,
    sizes: tuple[int, ...] | None = None,
    n_requests: int | None = None,
) -> dict[str, object]:
    """Benchmark both engines on both stacks; returns the document.

    Per (stack, N) cell the same trace is routed scalar-then-batch and
    the two :class:`~repro.analysis.stats.RouteSample`s are compared
    array-for-array — the deterministic ``engines_agree`` bit in
    ``metrics``.  Wall times and speedups land in ``phases``.
    """
    if sizes is None:
        sizes = (1024, 4096, 10_000) if full else (1024, 4096)
    if n_requests is None:
        n_requests = 50_000 if full else 10_000

    timer = PhaseTimer()
    cells: dict[str, dict[str, object]] = {}

    for n_peers in sizes:
        with timer.phase(f"build_n{n_peers}"):
            bundle = build_bundle(SimConfig(model="ts", n_peers=n_peers, seed=seed))
            trace = make_trace(bundle, n_requests)
        for stack, network in (("chord", bundle.chord), ("hieras", bundle.hieras)):
            name = f"{stack}_n{n_peers}"
            with timer.phase(name, key="scalar_wall_ms"):
                scalar = RouteSample.from_batch(
                    scalar_batch_route(network, trace.sources, trace.keys)
                )
            with timer.phase(name, key="batch_wall_ms") as phase:
                batch = collect_routes(network, trace)
            scalar_ms, batch_ms = phase["scalar_wall_ms"], phase["batch_wall_ms"]
            phase["scalar_lookups_per_s"] = n_requests / (scalar_ms / 1000.0)
            phase["batch_lookups_per_s"] = n_requests / (batch_ms / 1000.0)
            phase["speedup"] = scalar_ms / batch_ms if batch_ms else 0.0
            cells[name] = {
                "stack": stack,
                "n_peers": n_peers,
                "lookups": n_requests,
                "engines_agree": _samples_agree(scalar, batch),
                "mean_hops": batch.mean_hops,
                "mean_latency_ms": batch.mean_latency_ms,
                "low_layer_hop_share": batch.low_layer_hop_share,
                "mean_top_layer_hops": batch.mean_top_layer_hops,
            }

    return {
        "schema": SCHEMA,
        "config": {
            "full": full,
            "seed": seed,
            "sizes": list(sizes),
            "n_requests": n_requests,
            "headline_n": HEADLINE_N,
            "headline_speedup": HEADLINE_SPEEDUP,
        },
        "phases": timer.finish(),
        "metrics": {"cells": cells},
    }


"""Span tracing for the benchmark's traced runs.

A :class:`Tracer` records spans around calls into the simulator's layers:
the benchmark's own round code opens spans explicitly,
:func:`instrument_setup` wraps the steps of the program's deployment build,
and :func:`instrument` wraps the public functions that library code calls
internally (routing kernels, latency gathers, scalar and lossy routes,
replicated put/get).  Untraced runs never install a wrapper, so they
execute the unmodified code path.

Each span keeps name, start, end and parent index in memory; the list is
written out once, when the benchmark ends.  A span's *self time* is its
duration minus the time covered by its direct children (spans nest strictly
on one thread).  Very frequent leaf calls (latency gathers) are aggregated
into per-name totals instead of kept as individual spans, so recording them
costs one stack push and pop.
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterator
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any

__all__ = ["NULL", "Tracer", "instrument", "instrument_setup"]


class Tracer:
    """In-memory span recorder with per-name call/time aggregates."""

    def __init__(self) -> None:
        #: Recorded spans: ``[name, start, end, parent]`` (parent -1 = root).
        self.spans: list[list[Any]] = []
        #: ``name -> [calls, total_s, self_s, items]``.
        self.stats: dict[str, list[float]] = {}
        #: Extra per-name counters (lanes routed, hops, timeouts, ...).
        self.counts: dict[str, float] = {}
        self._stack: list[list[Any]] = []  # [name, start, child_s, span index]
        #: Time covered by root spans, and time spent with recording paused.
        self.root_s = 0.0
        self.paused_s = 0.0
        self.paused = False

    def open(self, name: str, *, record: bool = True) -> None:
        idx = -1
        if record:
            parent = next((f[3] for f in reversed(self._stack) if f[3] >= 0), -1)
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append([name, time.perf_counter(), 0.0, idx])

    def close(self, items: float = 0.0) -> None:
        end = time.perf_counter()
        name, start, child_s, idx = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        else:
            self.root_s += dur
        agg = self.stats.get(name)
        if agg is None:
            agg = self.stats[name] = [0, 0.0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child_s
        agg[3] += items
        if idx >= 0:
            self.spans[idx][1] = start
            self.spans[idx][2] = end

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.open(name)
        try:
            yield
        finally:
            self.close()

    @contextmanager
    def pause(self) -> Iterator[None]:
        """Run side measurements unrecorded; their time is set aside."""
        t0 = time.perf_counter()
        self.paused = True
        try:
            yield
        finally:
            self.paused = False
            self.paused_s += time.perf_counter() - t0

    def count(self, name: str, n: float = 1.0) -> None:
        self.counts[name] = self.counts.get(name, 0.0) + n

    # -- queries ---------------------------------------------------------
    def calls(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0, 0.0])[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0, 0.0])[2]

    def items(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0, 0.0])[3]

    def write(self, path: Path, *, offset: int = 0) -> None:
        """Append the recorded spans as JSON lines (parents re-indexed)."""
        with path.open("a", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": offset + i,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": parent + offset if parent >= 0 else -1,
                }) + "\n")


class _NullTracer:
    """Stand-in used by untraced runs: every span is a no-op."""

    def span(self, name: str) -> nullcontext[None]:
        return nullcontext()

    def pause(self) -> nullcontext[None]:
        return nullcontext()


NULL = _NullTracer()


def _wrap(
    tracer: Tracer,
    fn: Callable[..., Any],
    name: str,
    *,
    record: bool,
    after: Callable[[Tracer, tuple[Any, ...], Any], float] | None,
) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if tracer.paused:
            return fn(*args, **kwargs)
        tracer.open(name, record=record)
        items = 0.0
        try:
            result = fn(*args, **kwargs)
            if after is not None:
                items = after(tracer, args, result)
            return result
        finally:
            tracer.close(items)

    wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
    return wrapper


def _kernel_after(stack: str) -> Callable[[Tracer, tuple[Any, ...], Any], float]:
    def after(tracer: Tracer, args: tuple[Any, ...], result: Any) -> float:
        tracer.count(f"engine.{stack}.hops", float(result.hops.sum()))
        return float(len(result))

    return after


def _lanes(tracer: Tracer, args: tuple[Any, ...], result: Any) -> float:
    return float(len(args[1]))


def _timeouts(tracer: Tracer, args: tuple[Any, ...], result: Any) -> float:
    return float(result.timeouts)


@contextmanager
def _patched(tracer: Tracer, targets: list[tuple[Any, str, str, bool, Any]]) -> Iterator[Tracer]:
    """Wrap ``owner.attr`` for each target while the block runs, then restore."""
    saved = []
    try:
        for owner, attr, name, record, after in targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, original, name, record=record, after=after))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def instrument_setup(tracer: Tracer) -> Any:
    """Wrap the steps of ``build_scale_bundle`` as that function sees them.

    The build looks its steps up in :mod:`repro.scale.bundle`'s globals
    (and ``BinningScheme.orders`` / ``OverlayAttachment.landmark_distances``
    on their classes), so a traced set-up times the program's own pipeline,
    one span per layer.  The landmark distances are the binning's input and
    count as binning.
    """
    from repro.core.binning import BinningScheme
    from repro.scale import bundle
    from repro.topology.attach import OverlayAttachment

    return _patched(tracer, [
        (bundle, "generate_transit_stub", "topology.generate", True, None),
        (bundle, "latency_model_for", "topology.latency.build", True, None),
        (bundle, "attach_overlay", "topology.attach", True, None),
        (bundle, "place_landmarks", "topology.landmarks", True, None),
        (bundle, "ChordNetwork", "dht.chord.build", True, None),
        (OverlayAttachment, "landmark_distances", "core.binning.orders", True, None),
        (BinningScheme, "orders", "core.binning.orders", True, None),
        (bundle, "HierasNetwork", "core.hieras.build", True, None),
    ])


def instrument(tracer: Tracer) -> Any:
    """Wrap the layers' internal entry points for the duration of the block.

    Every wrapper is installed on the object the callers look it up from at
    call time (module globals for the kernels, classes for methods), and the
    originals are restored on exit.
    """
    from repro.core.hieras import HierasNetwork
    from repro.dht.chord import ChordNetwork
    from repro.engine import batch as engine_batch
    from repro.replication.store import ReplicatedStore
    from repro.topology import latency as latency_mod

    return _patched(tracer, [
        (engine_batch, "batch_route_chord", "engine.chord", True, _kernel_after("chord")),
        (engine_batch, "batch_route_hieras", "engine.hieras", True, _kernel_after("hieras")),
        (latency_mod.TransitStubLatencyModel, "pairs", "topology.latency.pairs", False, _lanes),
        (latency_mod.StreamingTransitStubLatencyModel, "pairs", "topology.latency.pairs",
         False, _lanes),
        (ChordNetwork, "route", "dht.route", True, None),
        (HierasNetwork, "route", "dht.route", True, None),
        (ChordNetwork, "route_lossy", "faults.route_lossy", True, _timeouts),
        (HierasNetwork, "route_lossy", "faults.route_lossy", True, _timeouts),
        (ReplicatedStore, "put", "replication.put", True, None),
        (ReplicatedStore, "get", "replication.get", True, None),
        (ReplicatedStore, "advance_to", "replication.advance", False, None),
        (ReplicatedStore, "on_graceful_leave", "replication.handoff", True, None),
        (ReplicatedStore, "seed_key", "replication.seed", False, None),
    ])

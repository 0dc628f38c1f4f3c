"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload lookup_streaming --seed 1 --seconds 8 --trace 0

``--trace 0`` sets the deployment up several times (``setup_s`` is the
median) and, spread over the set-ups, repeats the workload's round for
about ``--seconds`` of measured time, with no tracing installed; it reports
every end-to-end metric of ``BENCHMARK.json``.  ``--trace 1`` sets up once
untraced and once traced (the program's build, wrapped step by step),
alternates untraced and traced rounds for the same time, and reports every
per-layer metric, including the tracing overhead and the share of traced
wall time attributed to named layers; the spans go to
``.perfbench/<workload>-seed<seed>.spans.jsonl``.

Every run checks the program's outputs (see ``workloads.py``); a failed
check prints the result with ``"correct": false`` and exits 1.  The last
line of standard output is always the JSON result.  Self-tests:
``python3 -m pytest perfbench -q``.  Comparing two sets of runs:
``python3 perfbench/compare.py --help``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent

def _load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup(wl: Any, seed: int, tr: Any) -> tuple[Any, float]:
    from perfbench.trace import NULL, instrument_setup

    gc.collect()
    t0 = time.perf_counter()
    if tr is NULL:
        state = wl.setup(seed, tr)
    else:
        with instrument_setup(tr):
            state = wl.setup(seed, tr)
    return state, time.perf_counter() - t0


def _rounds(wl: Any, state: Any, until_s: float, tracers: list[Any],
            done: list[tuple[int, Any, float]], at_least: int) -> None:
    """Append ``(tracer index, round, wall s)`` to ``done``, cycling through ``tracers``.

    The call adds at least ``at_least`` rounds; after that a round starts
    while it is expected to bring the measured time of all rounds in
    ``done`` nearer to ``until_s``.
    """
    from perfbench.trace import NULL, instrument

    start = len(done)
    while True:
        spent = sum(dt for _, _, dt in done)
        if len(done) - start >= at_least and spent + spent / len(done) / 2 > until_s:
            return
        idx = len(done) % len(tracers)
        tr = tracers[idx]
        t0 = time.perf_counter()
        if tr is NULL:
            rnd = wl.round(state, tr)
        else:
            with instrument(tr):
                rnd = wl.round(state, tr)
        done.append((idx, rnd, time.perf_counter() - t0))


def _fastest_s(samples: list[Any]) -> float:
    """Sum, over pieces of fixed work, of each piece's fastest time.

    Every sample times the same pieces in the same order.  Other tenants of
    a shared host only ever add time, and they come and go many times within
    a run, so each piece's fastest time is its steadiest estimate; summing
    short pieces keeps one lucky piece from moving the result.
    """
    import numpy as np

    return float(np.asarray(samples, dtype=np.float64).min(axis=0).sum())


def _lookups_per_s(rounds: list[Any], samples: list[Any] | None = None) -> float:
    passes = [p for r in rounds for p in r.lookup_passes] + (samples or [])
    if len({p[0] for p in passes}) != 1:
        raise ValueError("timed lookup passes of one run differ in size")
    return passes[0][0] / _fastest_s([p[1:] for p in passes])


def _requests_per_s(rounds: list[Any]) -> float:
    if len({(r.requests, len(r.segment_s)) for r in rounds}) != 1:
        raise ValueError("rounds of one run differ in their work")
    return rounds[0].requests / _fastest_s([r.segment_s for r in rounds])


def _check_rounds(rounds: list[Any]) -> list[str]:
    errors = [e for r in rounds for e in r.errors]
    if any(r.summary != rounds[0].summary for r in rounds[1:]):
        errors.append("rounds of one seed gave different deterministic results")
    return errors


def _end_to_end(rounds: list[Any], setups: list[float], samples: list[float],
                extra: dict[str, float]) -> dict[str, float]:
    summary = {**rounds[0].summary, **extra}
    return {
        "setup_s": statistics.median(setups),
        "lookups_per_s": _lookups_per_s(rounds, samples),
        "requests_per_s": _requests_per_s(rounds),
        "peak_rss_mb": _peak_rss_mb(),
        "hieras_latency_ratio": summary["hieras_latency_ratio"],
        "sim_p50_ms": summary["sim_p50_ms"],
        "sim_p999_ms": summary["sim_p999_ms"],
    }


def _ring_gauges(hieras: Any) -> dict[str, float]:
    import numpy as np

    out = {"core.hieras.layer1.ring_count": 1.0,
           "core.hieras.layer1.largest_share": 1.0,
           "core.hieras.layer1.median_share": 1.0}
    for layer in range(2, hieras.depth + 1):
        sizes = np.asarray(hieras.ring_sizes(layer), dtype=np.float64)
        sizes = sizes[sizes > 0]
        total = sizes.sum()
        out[f"core.hieras.layer{layer}.ring_count"] = float(len(sizes))
        out[f"core.hieras.layer{layer}.largest_share"] = float(sizes.max() / total)
        out[f"core.hieras.layer{layer}.median_share"] = float(np.median(sizes) / total)
    return out


def _per_layer(s: Any, r: Any, k: int, last: Any, state: Any, summary: dict[str, Any],
               overhead: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics: set-up layers per set-up, round layers per round.

    Every ``_s`` figure is a span's self time; ``s`` traced the set-up and
    ``r`` the ``k`` traced rounds.
    """
    def per(x: float) -> float:
        return x / k

    kernels = ("engine.chord", "engine.hieras")
    calls = sum(r.calls(n) for n in kernels)
    lanes = sum(r.items(n) for n in kernels)
    kernel_s = sum(r.total_s(n) for n in kernels)
    pairs = "topology.latency.pairs"
    g = last.gauges
    out = {
        "topology.generate_s": s.self_s("topology.generate"),
        "topology.latency.build_s": s.self_s("topology.latency.build"),
        "topology.latency.pairs_calls": per(r.calls(pairs)),
        "topology.latency.pairs_per_call": r.items(pairs) / r.calls(pairs) if r.calls(pairs) else 0.0,
        "topology.latency.pairs_s": per(r.self_s(pairs)),
        "topology.latency.cache_hits": g["topology.latency.cache_hits"],
        "topology.latency.cache_misses": g["topology.latency.cache_misses"],
        "topology.latency.hit_rate": g["topology.latency.hit_rate"],
        "topology.latency.blocks_total": g["topology.latency.blocks_total"],
        "topology.attach_s": s.self_s("topology.attach"),
        "topology.landmarks_s": s.self_s("topology.landmarks"),
        "core.binning.orders_s": s.self_s("core.binning.orders"),
        "dht.chord.build_s": s.self_s("dht.chord.build"),
        "core.hieras.build_s": s.self_s("core.hieras.build"),
        "ring.splice.waves": g.get("ring.splice.waves", 0.0),
        "ring.splice.remove_s": per(r.self_s("ring.splice.remove")),
        "ring.splice.revive_s": per(r.self_s("ring.splice.revive")),
        "ring.splice.rings_spliced": g.get("ring.splice.rings_spliced", 0.0),
        "ring.full_rebuilds": g.get("ring.full_rebuilds", 0.0),
        **_ring_gauges(state["dep"].hieras),
        "core.hieras.layer1.hop_share": summary["layer1.hop_share"],
        "core.hieras.layer2.hop_share": summary["layer2.hop_share"],
        "engine.calls": per(calls),
        "engine.lanes_per_call": lanes / calls if calls else 0.0,
        "engine.self_s": per(sum(r.self_s(n) for n in (*kernels, "engine.stream"))),
        "engine.us_per_call": 1e6 * kernel_s / calls if calls else 0.0,
    }
    for stack in ("chord", "hieras"):
        name = f"engine.{stack}"
        out[f"{name}.lookups_per_s"] = r.items(name) / r.total_s(name) if r.total_s(name) else 0.0
        out[f"{name}.mean_hops"] = (r.counts.get(f"{name}.hops", 0.0) / r.items(name)
                                    if r.items(name) else 0.0)
    out.update({
        "replication.put_calls": per(r.calls("replication.put")),
        "replication.put_s": per(r.self_s("replication.put")),
        "replication.get_calls": per(r.calls("replication.get")),
        "replication.get_s": per(r.self_s("replication.get")),
        **{f"replication.{n}": g.get(f"replication.{n}", 0.0)
           for n in ("replica_contacts", "contact_failures", "hints_queued", "hints_replayed")},
        "faults.route_lossy_calls": per(r.calls("faults.route_lossy")),
        "faults.route_lossy_s": per(r.self_s("faults.route_lossy")),
        "faults.timeouts": per(r.items("faults.route_lossy")),
        "dht.route_calls": per(r.calls("dht.route")),
        "dht.route_s": per(r.self_s("dht.route")),
        "serve.run_self_s": per(r.self_s("serve.run")),
        "serve.mean_batch_size": g.get("serve.mean_batch_size", 0.0),
        "serve.max_queue_depth": g.get("serve.max_queue_depth", 0.0),
        "loadgen.generate_s": s.self_s("loadgen.generate"),
        "failed_fraction": summary.get("failed_fraction", last.failed / last.requests),
        "key_loss_fraction": summary.get("key_loss_fraction", 0.0),
        **overhead,
    })
    return out


def _health_line(metrics: dict[str, float], n_rounds: int) -> str:
    keys = ("core.hieras.layer2.ring_count", "core.hieras.layer2.largest_share",
            "core.hieras.layer2.median_share", "core.hieras.layer2.hop_share",
            "topology.latency.cache_hits", "topology.latency.cache_misses")
    return (f"rounds={n_rounds} health: "
            + " ".join(f"{k}={metrics[k]:.4g}" for k in keys if k in metrics))


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 params: Any = None) -> tuple[dict[str, Any], list[str], dict[str, float], int]:
    """Run one workload; returns the result object, gate errors, gauges and round count."""
    from perfbench.trace import NULL, Tracer
    from perfbench.workloads import FULL, WORKLOADS

    wl = WORKLOADS[name](params if params is not None else FULL[name])
    errors: list[str] = []
    if not trace:
        # Rounds are spread over the set-ups, so the timing samples cover the
        # whole run rather than its last ``seconds``.
        setups = []
        samples: list[Any] = []
        done: list[tuple[int, Any, float]] = []
        for i in range(wl.p.setups):
            state = None
            state, dt = _setup(wl, seed, NULL)
            setups.append(dt)
            samples += wl.setup_samples(state)
            # The first set-up is measured, and so is the last, which the
            # final checks run on.
            _rounds(wl, state, seconds * (i + 1) / wl.p.setups, [NULL], done,
                    at_least=int(i in (0, wl.p.setups - 1)))
        rounds = [rnd for _, rnd, _ in done]
        extra, finish_errors = wl.finish(state)
        errors += _check_rounds(rounds) + finish_errors
        metrics = _end_to_end(rounds, setups, samples, extra)
        health = {**_ring_gauges(state["dep"].hieras), **rounds[-1].gauges,
                  "core.hieras.layer2.hop_share": rounds[0].summary["layer2.hop_share"]}
    else:
        state, plain_setup = _setup(wl, seed, NULL)
        state = None
        setup_tr = Tracer()
        state, traced_setup = _setup(wl, seed, setup_tr)
        round_tr = Tracer()
        done = []
        _rounds(wl, state, seconds, [NULL, round_tr], done, at_least=2)
        plain = [rnd for idx, rnd, _ in done if idx == 0]
        traced = [rnd for idx, rnd, _ in done if idx == 1]
        traced_wall = sum(dt for idx, _, dt in done if idx == 1)
        rounds = plain + traced
        extra, finish_errors = wl.finish(state)
        errors += _check_rounds(rounds) + finish_errors

        overhead = {
            "trace.overhead.setup_s": traced_setup / plain_setup - 1.0,
            "trace.overhead.lookups_per_s": 1.0 - _lookups_per_s(traced) / _lookups_per_s(plain),
            "trace.overhead.requests_per_s":
                1.0 - _requests_per_s(traced) / _requests_per_s(plain),
            "trace.attributed_share": (setup_tr.root_s + round_tr.root_s)
                                      / (traced_setup + traced_wall - round_tr.paused_s),
        }
        metrics = _per_layer(setup_tr, round_tr, len(traced), traced[-1], state,
                             {**rounds[0].summary, **extra}, overhead)
        health = metrics
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        spans = out_dir / f"{name}-seed{seed}.spans.jsonl"
        spans.unlink(missing_ok=True)
        setup_tr.write(spans)
        round_tr.write(spans, offset=len(setup_tr.spans))
    spec = _load_spec()
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    result = {
        "correct": not errors,
        "attempted": sum(r.requests for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]}
                    for m in declared},
    }
    return result, errors, health, len(rounds)


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    names = [w["name"] for w in _load_spec()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result, errors, health, n_rounds = run_workload(args.workload, args.seed, args.seconds,
                                                    bool(args.trace))
    for error in errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    print(_health_line(health, n_rounds))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

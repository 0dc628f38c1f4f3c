"""Command-line interface: ``python -m repro.experiments`` / ``hieras-experiments``.

Subcommands
-----------
``list``
    Show every registered experiment with its paper claim.
``run <id> [<id> ...]`` (or ``run all``)
    Run experiments and print their reports.  ``--full`` (or
    ``REPRO_FULL=1``) selects paper-scale parameters; ``--seed`` changes
    the master seed.
``sweep``
    Evaluate a custom parameter grid (models × sizes × landmarks ×
    depths × seeds) and print/write tidy per-cell rows.
``report``
    Run every experiment and write a single markdown report (the
    machinery behind refreshing EXPERIMENTS.md's recorded numbers).
``bench <id>``
    Run one registered experiment whose result is a BENCH document
    (``perf_baseline``, ``cache_effect``, ``batch_route``,
    ``durability``, ``scenarios``, ``saturation``, ``scale``), write it
    to ``--out`` (default: the entry's ``BENCH_*.json`` name) and exit
    1 if any claim diverges.  The format lives in
    ``repro.experiments.bench``.

``run`` additionally drops one ``metrics_<id>.json`` artifact per
experiment (structured result data without wall times, so same-seed
runs byte-compare; directory overridable via ``REPRO_ARTIFACT_DIR``)
so CI can collect machine-readable outputs alongside the printed
reports.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro.experiments.bench import write_json
from repro.experiments.config import is_full_scale
from repro.experiments.figures import EXPERIMENTS, get_experiment

__all__ = ["main"]


def _cmd_list(_args: argparse.Namespace) -> int:
    width = max(len(e) for e in EXPERIMENTS)
    for exp in EXPERIMENTS.values():
        print(f"{exp.id.ljust(width)}  {exp.title}")
        print(f"{' ' * width}  paper: {exp.paper_claim}")
    return 0


def _write_metrics_artifact(result, *, full: bool, seed: int) -> None:
    """Drop one machine-readable artifact per finished experiment.

    Written to ``REPRO_ARTIFACT_DIR`` (default: cwd, gitignored) so CI
    can upload the structured numbers behind each printed report.  The
    artifact is seed-deterministic: wall time stays on the printed
    report and ``data``'s ``phases`` section stays in the ``bench``
    document, so two same-seed runs byte-compare.
    """
    doc = {
        "experiment": result.experiment_id,
        "title": result.title,
        "seed": seed,
        "full": full,
        "diverged": "[DIVERGES]" in result.text,
        "data": {k: v for k, v in result.data.items() if k != "phases"},
    }
    target = Path(os.environ.get("REPRO_ARTIFACT_DIR", ".")) / f"metrics_{result.experiment_id}.json"
    print(f"(wrote {write_json(doc, target)})")


def _run_one(exp, full: bool, seed: int):
    """Print the header, run ``exp``, print its report and wall time."""
    print("=" * 72)
    print(f"{exp.id}: {exp.title}  [{'full' if full else 'reduced'} scale, seed {seed}]")
    print(f"paper claim: {exp.paper_claim}")
    print("-" * 72)
    start = time.perf_counter()  # lint: allow-wallclock -- phase timing; printed only, never written to an artifact
    result = exp.run(full, seed)
    wall_s = time.perf_counter() - start  # lint: allow-wallclock -- phase timing; printed only, never written to an artifact
    print(result.text)
    print(f"({wall_s:.1f}s)")
    return result


def _cmd_run(args: argparse.Namespace) -> int:
    ids = list(EXPERIMENTS) if "all" in args.ids else args.ids
    full = is_full_scale(True if args.full else None)
    failures = 0
    for experiment_id in ids:
        result = _run_one(get_experiment(experiment_id), full, args.seed)
        if "[DIVERGES]" in result.text:
            failures += 1
        _write_metrics_artifact(result, full=full, seed=args.seed)
        print()
    if failures:
        print(f"{failures} experiment(s) diverged from the paper's claims")
    return 1 if failures else 0


def _parse_ints(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.experiments.sweep import SweepSpec, run_sweep, write_csv

    spec = SweepSpec(
        models=tuple(args.models.split(",")),
        sizes=_parse_ints(args.sizes),
        landmarks=_parse_ints(args.landmarks),
        depths=_parse_ints(args.depths),
        seeds=_parse_ints(args.seeds),
        n_requests=args.requests,
    )
    print(f"sweeping {spec.n_cells} cells...")
    rows = run_sweep(spec, progress=print)
    if not rows:
        print("no valid cells")
        return 1
    print()
    print(format_table(rows))
    if args.out:
        n = write_csv(rows, args.out)
        print(f"\nwrote {n} rows to {args.out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    full = is_full_scale(True if args.full else None)
    scale = "full (paper)" if full else "reduced"
    lines = [
        "# HIERAS reproduction report",
        "",
        f"Scale: {scale}.  Master seed: {args.seed}.",
        "",
    ]
    failures = 0
    for exp in EXPERIMENTS.values():
        print(f"running {exp.id}...", flush=True)
        start = time.perf_counter()  # lint: allow-wallclock -- phase timing; reported as nondeterministic wall_s
        result = exp.run(full, args.seed)
        elapsed = time.perf_counter() - start  # lint: allow-wallclock -- phase timing; reported as nondeterministic wall_s
        if "[DIVERGES]" in result.text:
            failures += 1
        lines += [
            f"## {exp.id}: {exp.title}",
            "",
            f"Paper claim: {exp.paper_claim}",
            "",
            "```",
            result.text,
            "```",
            "",
            f"_({elapsed:.1f}s)_",
            "",
        ]
    out = Path(args.out)
    out.write_text("\n".join(lines), encoding="utf-8")
    print(f"wrote {out} ({len(lines)} lines, {failures} divergence(s))")
    return 1 if failures else 0


def _bench_ids() -> list[str]:
    return [e.id for e in EXPERIMENTS.values() if e.bench_out]


def _cmd_bench(args: argparse.Namespace) -> int:
    exp = EXPERIMENTS[args.id]
    full = is_full_scale(True if args.full else None)
    result = _run_one(exp, full, args.seed)
    print(f"wrote {write_json(result.data, args.out or exp.bench_out)}")
    if "[DIVERGES]" in result.text:
        print(f"{exp.id} diverged from its claims")
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="hieras-experiments",
        description="Reproduce the HIERAS paper's tables and figures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list registered experiments").set_defaults(func=_cmd_list)
    run = sub.add_parser("run", help="run experiments by id (or 'all')")
    run.add_argument("ids", nargs="+", help="experiment ids, or 'all'")
    run.add_argument("--full", action="store_true", help="paper-scale parameters")
    run.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    run.set_defaults(func=_cmd_run)
    sweep = sub.add_parser("sweep", help="evaluate a custom parameter grid")
    sweep.add_argument("--models", default="ts", help="comma list: ts,inet,brite")
    sweep.add_argument("--sizes", default="1000", help="comma list of peer counts")
    sweep.add_argument("--landmarks", default="4", help="comma list of landmark counts")
    sweep.add_argument("--depths", default="2", help="comma list of depths (2-4)")
    sweep.add_argument("--seeds", default="42", help="comma list of seeds")
    sweep.add_argument("--requests", type=int, default=10_000, help="requests per cell")
    sweep.add_argument("--out", default=None, help="write rows to this CSV path")
    sweep.set_defaults(func=_cmd_sweep)
    report = sub.add_parser("report", help="run everything, write a markdown report")
    report.add_argument("--out", default="report.md", help="output path (default report.md)")
    report.add_argument("--full", action="store_true", help="paper-scale parameters")
    report.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    report.set_defaults(func=_cmd_report)
    bench = sub.add_parser(
        "bench", help="run a BENCH experiment and write its BENCH_*.json document"
    )
    bench.add_argument("id", choices=_bench_ids(), help="bench experiment id")
    bench.add_argument(
        "--out", default=None, help="output path (default: the experiment's BENCH_*.json)"
    )
    bench.add_argument("--full", action="store_true", help="paper-scale parameters")
    bench.add_argument("--seed", type=int, default=42, help="master seed (default 42)")
    bench.set_defaults(func=_cmd_bench)
    args = parser.parse_args(argv)
    return int(args.func(args))


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Record sets of benchmark runs and compare two of them.

Record runs of the current checkout into a directory (one JSON file per
workload, seed and trace mode)::

    python3 perfbench/compare.py record results/new --seeds 1-10
    python3 perfbench/compare.py record results/new --workloads serve_mixed --seeds 1-5 --trace 1

To compare against another checkout, record both in one pass: each seed
runs on both sides back to back, and which side goes first alternates by
seed, so slow spells of the host fall on both sides alike::

    python3 perfbench/compare.py record results/new --against ../old results/old

Compare two recorded sets, one row per workload and metric::

    python3 perfbench/compare.py diff results/old results/new

Each row gives both sides' median and quartiles, the relative change of the
median (positive = worse), how many seeds present on both sides the new
side won, and a verdict against the metric's bound in ``BENCHMARK.json``:
``regressed`` when the new median is worse by more than the bound,
``improved`` when the new side wins at least 90 % of the shared seeds and
its median is better by more than the old side's quartile spread (or every
new run beats every old run), ``unresolved`` when either side's run-to-run
spread exceeds the bound and the new side has not won like that, else
``within``.  Per-layer metrics have no bound; their rows carry ``-``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent


def _spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list[int]:
    out: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def _run_one(root: Path, out: Path, name: str, seed: int, trace: int, seconds: int) -> bool:
    """Run one workload from the checkout at ``root`` and store its result in ``out``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{root}: {name} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return False
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.seed{seed}.trace{trace}.json").write_text(lines[-1] + "\n")
    print(f"{root}: {name} seed {seed}: recorded")
    return True


def record(sides: list[tuple[Path, Path]], workloads: list[str], seeds: list[int],
           trace: int, seconds: int) -> int:
    """Record every ``(checkout root, output dir)`` side, alternating which goes first."""
    ok = True
    for name in workloads:
        for k, seed in enumerate(seeds):
            for root, out in sides if k % 2 == 0 else sides[::-1]:
                ok &= _run_one(root, out, name, seed, trace, seconds)
    return 0 if ok else 1


def _load(directory: Path) -> dict[tuple[str, str], dict[int, float]]:
    """``(workload, metric) -> {seed: value}`` over every recorded file."""
    values: dict[tuple[str, str], dict[int, float]] = {}
    for path in sorted(directory.glob("*.seed*.trace*.json")):
        name, seed_part, _ = path.name.split(".", 2)
        seed = int(seed_part.removeprefix("seed"))
        result = json.loads(path.read_text())
        for metric, entry in result["metrics"].items():
            values.setdefault((name, metric), {})[seed] = float(entry["value"])
    return values


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


#: Share of the shared seeds the new side must win before a gain is claimed.
WIN_SHARE = 0.9


def verdict(old: dict[int, float], new: dict[int, float], better: str,
            bound: float | None) -> tuple[float, int, int, str]:
    """Relative change of the median (positive = worse), wins, shared seeds, verdict."""
    q1o, mo, q3o = _quartiles(list(old.values()))
    q1n, mn, q3n = _quartiles(list(new.values()))
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (mn - mo) / abs(mo) if mo else 0.0
    shared = sorted(set(old) & set(new))
    wins = sum(sign * (new[s] - old[s]) < 0 for s in shared)
    if bound is None:
        return worse, wins, len(shared), "-"
    won = bool(shared) and wins >= WIN_SHARE * len(shared)
    beats_all = max(sign * v for v in new.values()) < min(sign * v for v in old.values())
    spread_old = (q3o - q1o) / abs(mo) if mo else 0.0
    spread_new = (q3n - q1n) / abs(mn) if mn else 0.0
    if won and (beats_all or -worse > spread_old):
        return worse, wins, len(shared), "improved"
    if max(spread_old, spread_new) > bound:
        return worse, wins, len(shared), "unresolved"
    if worse > bound:
        return worse, wins, len(shared), "regressed"
    return worse, wins, len(shared), "within"


def diff(old_dir: Path, new_dir: Path) -> int:
    spec = _spec()
    meta = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    old, new = _load(old_dir), _load(new_dir)
    header = (f"{'workload':18} {'metric':36} {'old q1/med/q3':>32} {'new q1/med/q3':>32}"
              f" {'worse':>8} {'wins':>6}  verdict")
    print(header)
    regressed = False
    for key in sorted(set(old) & set(new)):
        name, metric = key
        m = meta.get(metric)
        if m is None:
            continue
        a, b = old[key], new[key]
        worse, wins, shared, what = verdict(a, b, m["better"], m.get("bound"))
        fmt = "{:.4g}/{:.4g}/{:.4g}"
        print(f"{name:18} {metric:36} {fmt.format(*_quartiles(list(a.values()))):>32}"
              f" {fmt.format(*_quartiles(list(b.values()))):>32} {worse:+8.2%}"
              f" {wins:>3}/{shared:<2}  {what}")
        regressed |= what == "regressed"
    return 1 if regressed else 0


def main(argv: list[str] | None = None) -> int:
    workloads = [w["name"] for w in _spec()["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    rec = sub.add_parser("record", help="run the benchmark and store each result")
    rec.add_argument("out", type=Path)
    rec.add_argument("--against", nargs=2, type=Path, metavar=("ROOT", "OUT"),
                     help="also record the checkout at ROOT into OUT, alternating per seed")
    rec.add_argument("--workloads", default=",".join(workloads))
    rec.add_argument("--seeds", default="1-10")
    rec.add_argument("--trace", type=int, choices=(0, 1), default=0)
    rec.add_argument("--seconds", type=int, default=_spec()["run_seconds"])
    cmp_ = sub.add_parser("diff", help="compare two recorded result sets")
    cmp_.add_argument("old", type=Path)
    cmp_.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.cmd == "record":
        sides = [(ROOT, args.out.resolve())]
        if args.against:
            sides.append((args.against[0].resolve(), args.against[1].resolve()))
        return record(sides, args.workloads.split(","), _seeds(args.seeds),
                      args.trace, args.seconds)
    return diff(args.old, args.new)


if __name__ == "__main__":
    sys.exit(main())

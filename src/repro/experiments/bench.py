"""The ``BENCH_*.json`` document format, owned in one place.

Every bench document is one JSON object with four sections:

* ``schema`` and ``config`` — what was run;
* ``phases`` — wall-clock milliseconds per pipeline phase plus peak
  RSS.  **Nondeterministic** (machine- and load-dependent), so it is
  reported but never compared;
* ``metrics`` — a pure function of ``(config, seed)``, byte-compared
  across reruns.

:class:`PhaseTimer` builds the ``phases`` section for every bench
runner and :func:`write_json` is the single writer for bench documents
and ``run``'s per-experiment artifacts.  The registered experiment is
the only producer of a bench document: ``python -m repro.experiments
bench <id>`` runs it and writes its ``data``.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterator, Mapping
from contextlib import contextmanager
from pathlib import Path

from repro.util.proc import peak_rss_mb

__all__ = ["PhaseTimer", "wall_times", "write_json"]


class PhaseTimer:
    """Collects the ``phases`` section of one bench document.

    ``with timer.phase("build"):`` stores ``{"wall_ms": ...}`` under
    ``"build"``.  ``key=`` names the timing field instead, so several
    timed blocks can share one entry; ``rss=True`` adds the peak RSS at
    the end of the block; the yielded entry takes any derived fields.
    """

    def __init__(self) -> None:
        self.phases: dict[str, dict[str, float]] = {}

    @contextmanager
    def phase(
        self, name: str, *, key: str = "wall_ms", rss: bool = False
    ) -> Iterator[dict[str, float]]:
        entry = self.phases.setdefault(name, {})
        start = time.perf_counter()  # lint: allow-wallclock -- phase timing; lands in the nondeterministic "phases" key
        yield entry
        entry[key] = (time.perf_counter() - start) * 1000.0  # lint: allow-wallclock -- phase timing; lands in the nondeterministic "phases" key
        if rss:
            entry["peak_rss_mb"] = peak_rss_mb()

    def finish(self) -> dict[str, dict[str, float]]:
        """Close the section with the whole-run ``peak_rss`` entry."""
        self.phases["peak_rss"] = {"peak_rss_mb": peak_rss_mb()}
        return self.phases


def wall_times(phases: Mapping[str, Mapping[str, float]]) -> dict[str, float]:
    """``wall_ms`` of every phase that has one (``peak_rss`` has none)."""
    return {name: p["wall_ms"] for name, p in phases.items() if "wall_ms" in p}


def _json_default(obj: object) -> object:
    """JSON fallback for numpy scalars/arrays inside result data."""
    tolist = getattr(obj, "tolist", None)
    if callable(tolist):
        return tolist()
    return str(obj)


def write_json(doc: Mapping[str, object], out: str | Path) -> Path:
    """Write ``doc`` as stable JSON: sorted keys, indent 2, final newline.

    Missing parent directories are created; any other I/O error
    propagates to the caller.
    """
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=True, default=_json_default) + "\n",
        encoding="utf-8",
    )
    return path

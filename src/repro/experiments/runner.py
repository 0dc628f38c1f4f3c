"""Build simulations from configs and run request traces through them.

The runner is the bridge between configuration and measurement:

* :func:`build_bundle` — the deployment build of
  :mod:`repro.scale.bundle` (topology → latency model → overlay
  attachment → landmarks → binning → Chord + HIERAS, seeded from the
  config) with a substrate cache in front.  Substrates are cached per
  :meth:`~repro.experiments.config.SimConfig.topology_key` so sweeps
  that share a deployment (fig2/fig3; fig4/fig5; fig6/fig7) only build
  it once per process.
* :func:`run_pair` — run one trace through both networks, returning
  :class:`~repro.analysis.stats.RouteSample` pairs ready for the
  figure-level reporting.
"""

from __future__ import annotations

from repro.analysis.stats import RouteSample, collect_routes
from repro.experiments.config import SimConfig
from repro.scale.bundle import SimulationBundle, Substrate, build_stacks, build_substrate
from repro.util.rng import RngFactory
from repro.workloads.requests import RequestTrace, generate_requests

__all__ = ["SimulationBundle", "build_bundle", "run_pair", "clear_cache", "make_trace"]


_SUBSTRATES: dict[tuple, Substrate] = {}

#: Cache ceiling: full-scale Inet/BRITE substrates hold a 200 MB APSP
#: matrix each, so sweeps evict oldest-first beyond this many entries.
_MAX_SUBSTRATES = 6


def clear_cache() -> None:
    """Drop cached substrates (tests; memory pressure in huge sweeps)."""
    _SUBSTRATES.clear()


def build_bundle(config: SimConfig) -> SimulationBundle:
    """Build (or fetch from cache and finish) a full simulation."""
    key = config.topology_key()
    sub = _SUBSTRATES.get(key)
    if sub is None:
        sub = _SUBSTRATES[key] = build_substrate(config)
        while len(_SUBSTRATES) > _MAX_SUBSTRATES:
            _SUBSTRATES.pop(next(iter(_SUBSTRATES)))
    return build_stacks(config, sub)


def make_trace(bundle: SimulationBundle, n_requests: int, *, seed_label: str = "requests") -> RequestTrace:
    """The experiment's request trace (uniform, as in the paper)."""
    rngs = RngFactory(bundle.config.seed)
    return generate_requests(
        n_requests, bundle.config.n_peers, bundle.space, seed=rngs.get(seed_label)
    )


def run_pair(bundle: SimulationBundle, n_requests: int) -> tuple[RouteSample, RouteSample]:
    """Run the trace through Chord and HIERAS; returns both samples."""
    trace = make_trace(bundle, n_requests)
    return collect_routes(bundle.chord, trace), collect_routes(bundle.hieras, trace)

"""The deployment build, and what it takes to run it at a million peers.

:mod:`repro.scale.bundle` holds the repo's one seeded build pipeline
(topology → latency model → attachment → landmarks → binning → Chord
and HIERAS), in two steps, ``build_substrate`` and ``build_stacks``.
The experiment runner's ``build_bundle`` puts a substrate cache in
front of them and :func:`repro.quick_network` calls
:func:`build_scale_bundle` with spread landmarks, so every entry point
builds the same deployment from the same config.  Exports:

* :func:`build_scale_bundle` — both steps, uncached, with latency
  models that stream blocks past ``streaming_threshold_bytes``;
* :func:`scale_ts_params` — transit-stub sizing that keeps per-stub
  APSP blocks small (≈1 MB) no matter how large the internetwork
  grows, so the streaming latency model's working set stays bounded
  (below 10⁵ routers it is ``TransitStubParams.for_size``);
* :func:`hot_state_bytes` — the struct-of-arrays memory audit of both
  routing stacks, reported by ``BENCH_scale.json``.

The routing state itself needs no scale twin: the incremental
membership layer (``SortedRing.splice`` waves) and interned ring-name
codes live in the ordinary :mod:`repro.dht` / :mod:`repro.core`
classes, used by every experiment at every size.
"""

from repro.scale.bundle import build_scale_bundle, hot_state_bytes, scale_ts_params

__all__ = ["build_scale_bundle", "hot_state_bytes", "scale_ts_params"]

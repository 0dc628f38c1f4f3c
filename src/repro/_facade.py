"""Convenience facade: build a ready-to-route HIERAS network in one call.

Most users start with :func:`quick_network`; it runs the repo's one
deployment build (:func:`repro.scale.build_scale_bundle`: transit-stub
topology, overlay attachment, landmark placement, binning, Chord and
HIERAS) and returns its
:class:`~repro.scale.bundle.SimulationBundle`.  Everything the facade
does can be done (and is documented) piecewise in the underlying
packages — this is sugar, not the only entry point.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.scale.bundle import SimulationBundle

__all__ = ["quick_network"]


def quick_network(
    n_peers: int = 256,
    *,
    n_landmarks: int = 4,
    depth: int = 2,
    seed: int = 0,
    bits: int = 32,
    model: str = "ts",
) -> SimulationBundle:
    """Build a small HIERAS network ready for routing.

    Parameters mirror the paper's defaults: 4 landmark nodes, a
    two-layer hierarchy, and the transit-stub topology (§4.1); ``model``
    selects ``"ts"``, ``"inet"`` or ``"brite"`` (Inet requires
    ``n_peers * 1.25 >= 3000``, the generator's floor).  Landmarks are
    placed max–min ("spread") on every model.

    Examples
    --------
    >>> bundle = quick_network(n_peers=128, seed=3)
    >>> r = bundle.route(source=5, key=99)
    >>> r.latency_ms <= bundle.route_chord(source=5, key=99).latency_ms * 3
    True
    """
    # Imported here so `import repro` stays light.
    from repro.experiments.config import SimConfig
    from repro.scale.bundle import build_scale_bundle

    return build_scale_bundle(
        SimConfig(
            model=model,
            n_peers=n_peers,
            n_landmarks=n_landmarks,
            depth=depth,
            seed=seed,
            bits=bits,
            landmark_strategy="spread",
        )
    )

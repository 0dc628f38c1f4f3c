"""HIERAS reproduction: a DHT-based hierarchical P2P routing algorithm.

This package is a full, from-scratch reproduction of

    Zhiyong Xu, Rui Min, Yiming Hu,
    "HIERAS: A DHT Based Hierarchical P2P Routing Algorithm",
    ICPP 2003.

Layout
------
* :mod:`repro.util` — id spaces, circular-interval math, RNG plumbing.
* :mod:`repro.topology` — GT-ITM Transit-Stub / Inet / BRITE topology
  generators, latency models, overlay attachment.
* :mod:`repro.sim` — discrete-event simulation engine and message-level
  network used by the protocol stack.
* :mod:`repro.dht` — flat DHT substrates: Chord (the paper's underlying
  algorithm), CAN and a Pastry baseline.
* :mod:`repro.core` — the paper's contribution: distributed binning,
  hierarchical P2P rings, ring tables, multi-layer finger tables and the
  bottom-up HIERAS routing procedure.
* :mod:`repro.workloads` — request and churn workload generators.
* :mod:`repro.analysis` — PDF/CDF/statistics helpers and table printers.
* :mod:`repro.experiments` — one registered experiment per paper table
  and figure plus ablations; CLI at ``python -m repro.experiments``.

Quickstart
----------
>>> from repro import quick_network
>>> net = quick_network(n_peers=200, n_landmarks=4, seed=1)
>>> result = net.route(source=0, key=123456)
>>> result.hops >= 1
True
"""

from repro._facade import quick_network
from repro.version import __version__

__all__ = ["__version__", "quick_network"]

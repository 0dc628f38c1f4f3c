"""Tests for experiment-registry internals and misc public surface."""

import os
import subprocess
import sys
from pathlib import Path

import repro
from repro.experiments import figures
from repro.experiments.config import SimConfig


class TestHelpers:
    def test_claim_format(self):
        assert figures._claim(True, "yes").strip() == "[ok] yes"
        assert figures._claim(False, "no").strip() == "[DIVERGES] no"

    def test_requests_scales(self):
        assert figures._requests(True) > figures._requests(False)

    def test_sizes_full_vs_reduced(self):
        assert figures._sizes(True, "ts") == list(range(1000, 10_001, 1000))
        assert figures._sizes(False, "ts") == [1000, 2000, 3000, 4000]

    def test_sizes_inet_floor(self):
        for full in (True, False):
            for size in figures._sizes(full, "inet"):
                assert size * 1.25 >= 3000

    def test_pair_caches(self):
        config = SimConfig(n_peers=200, seed=3)
        a = figures._pair(config, 200)
        b = figures._pair(config, 200)
        assert a is b  # exact same tuple from the cache
        c = figures._pair(config, 300)
        assert c is not a


class TestDistConfig:
    def test_reduced_vs_full_scale(self):
        assert figures._dist_config(False, 1).n_peers == 4000
        assert figures._dist_config(True, 1).n_peers == 10_000

    def test_landmark_configs(self):
        counts, n = figures._landmark_configs(False, 1)
        assert 2 in counts and 12 in counts
        full_counts, full_n = figures._landmark_configs(True, 1)
        assert full_n > n
        assert len(full_counts) >= len(counts)


class TestPackageSurface:
    def test_version_string(self):
        assert repro.__version__.count(".") == 2

    def test_public_names(self):
        assert hasattr(repro, "quick_network")
        assert not hasattr(repro, "NetworkBundle")

    def test_import_stays_light(self):
        """`import repro` loads no scientific stack: the facade imports
        the deployment build lazily."""
        subprocess.run(
            [sys.executable, "-c", "import repro, sys; assert 'scipy' not in sys.modules"],
            check=True,
            env={**os.environ, "PYTHONPATH": str(Path(repro.__file__).parent.parent)},
        )

    def test_dht_package_exports(self):
        import repro.dht as dht

        for name in dht.__all__:
            assert hasattr(dht, name), name

    def test_core_package_exports(self):
        import repro.core as core

        for name in core.__all__:
            assert hasattr(core, name), name

    def test_analysis_package_exports(self):
        import repro.analysis as analysis

        for name in analysis.__all__:
            assert hasattr(analysis, name), name

    def test_topology_package_exports(self):
        import repro.topology as topology

        for name in topology.__all__:
            assert hasattr(topology, name), name

    def test_sim_package_exports(self):
        import repro.sim as sim

        for name in sim.__all__:
            assert hasattr(sim, name), name


class TestJoinCostMeasurement:
    def test_join_rows_shape(self):
        rows = figures._measure_join_costs(seed=1)
        assert [r["variant"] for r in rows] == ["chord", "hieras"]
        for row in rows:
            assert row["msgs_per_join"] >= 0

    def test_hieras_join_costs_more(self):
        """§3.4: HIERAS 'needs more operations ... when a node joins'."""
        rows = figures._measure_join_costs(seed=2)
        by = {r["variant"]: r["msgs_per_join"] for r in rows}
        assert by["hieras"] > by["chord"]

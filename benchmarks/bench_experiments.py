"""One benchmark per registered experiment.

Each case runs a registered experiment (every paper table and figure,
the ablations, and the subsystem studies whose ``data`` is a BENCH
document) end to end under the pytest-benchmark timer, prints the
paper-style rows, and fails if any ``[DIVERGES]`` shape check fires —
so this module doubles as the reproduction gate.

Scale: reduced by default; run with ``REPRO_FULL=1`` for the paper's
10000-node / 100000-request parameters.
"""

import pytest

from repro.experiments.config import is_full_scale
from repro.experiments.figures import EXPERIMENTS


@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_experiment(benchmark, experiment_id):
    """Regenerate one experiment and assert its claims hold."""
    result = benchmark.pedantic(
        EXPERIMENTS[experiment_id].run,
        args=(is_full_scale(), 42),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    print()
    print(result.text)
    assert "[DIVERGES]" not in result.text, f"{experiment_id} diverged from the paper"

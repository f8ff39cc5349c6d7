"""Fixtures for the benchmark suite.

Every benchmark regenerates one table or figure of the paper at the ``bench``
scale defined in ``_bench_utils.BENCH_SCALE``: small synthetic datasets, short
training budgets and capped evaluation user counts, so the whole suite
(``pytest benchmarks/ --benchmark-only``) finishes on a laptop CPU in minutes
while preserving the qualitative shape of each result.  The printed rows
mirror the paper's tables; README.md ("Deviations from the paper") records
where the reproduction departs from the paper's method.
"""

from __future__ import annotations

import pytest

from repro.data import load_preset

from _bench_utils import BENCH_SCALE


@pytest.fixture(scope="session")
def bench_scale():
    return BENCH_SCALE


@pytest.fixture(scope="session")
def bench_datasets():
    """The two representative dataset analogs used by most benches.

    ``games-small`` stands in for the sparse Amazon datasets and
    ``ml-1m-small`` for the dense MovieLens datasets; the full four-dataset
    sweep is available through ``repro.experiments.run_table2(scale="full")``.
    """

    return {name: load_preset(name) for name in BENCH_SCALE.datasets}

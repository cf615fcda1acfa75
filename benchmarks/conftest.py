"""Shared fixtures for the figure-regeneration benchmark harness.

One session-wide :class:`~repro.experiments.registry.Runs` memo feeds
every registry entry, so the whole harness costs one suite sweep plus
the entry-specific design points.

Run with::

    pytest benchmarks/ --benchmark-only

Set ``PAC_BENCH_ACCESSES`` to change the trace length (default 16000).
"""

import os

import pytest

from repro.experiments.registry import Runs

BENCH_ACCESSES = int(os.environ.get("PAC_BENCH_ACCESSES", "16000"))


@pytest.fixture(scope="session")
def runs():
    return Runs(n_accesses=BENCH_ACCESSES)

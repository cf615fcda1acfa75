"""One :class:`~repro.experiments.registry.Runs` memo for every
experiments test: 6,000 accesses, the default seed."""

import pytest

from repro.experiments.registry import Runs


@pytest.fixture(scope="session")
def runs():
    return Runs(n_accesses=6000)

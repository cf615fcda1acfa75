"""Tests for NAS-style size classes (the `scale` parameter)."""

import numpy as np
import pytest

from repro.workloads import BENCHMARK_NAMES, get_workload
from repro.workloads.base import SIZE_CLASSES


class TestSizeClasses:
    def test_class_letters_resolve(self):
        gen = get_workload("gs", scale="S")
        assert gen.scale == SIZE_CLASSES["S"]
        assert get_workload("gs", scale="a").scale == 1.0

    def test_unknown_class_rejected(self):
        with pytest.raises(KeyError, match="size class"):
            get_workload("gs", scale="Z")

    def test_numeric_scale(self):
        assert get_workload("gs", scale=2.0).scale == 2.0

    def test_invalid_scale(self):
        for scale in (0, -1, float("inf"), float("nan"), 10**400, True):
            with pytest.raises(ValueError, match="positive finite"):
                get_workload("gs", scale=scale)

    def test_default_is_class_a(self):
        assert get_workload("gs").scale == 1.0

    def test_scale_helper_floor(self):
        gen = get_workload("gs", scale=0.001)
        assert gen._s(100, minimum=10) == 10
        assert gen._s(1_000_000) == 1000


class TestFootprintScaling:
    @pytest.mark.parametrize(
        "name", [n for n in BENCHMARK_NAMES]
    )
    def test_every_workload_runs_at_every_class(self, name):
        for letter in ("S", "A", "B"):
            trace = get_workload(name, seed=2, scale=letter).generate(
                1500, n_cores=2
            )
            assert len(trace) == 1500
            assert np.all(trace.addrs >= 0)

    @pytest.mark.parametrize("name", ["gs", "bfs", "ssca2", "cg"])
    def test_larger_class_wider_footprint(self, name):
        # (SparseLU is excluded: a 3000-access trace holds <1 task, so
        # its touched footprint is task-bound, not matrix-bound.)
        small = get_workload(name, seed=2, scale="S").generate(3000, n_cores=2)
        large = get_workload(name, seed=2, scale="B").generate(3000, n_cores=2)
        assert large.unique_pages() > small.unique_pages()

    def test_class_a_matches_default(self):
        a = get_workload("gs", seed=3, scale="A").generate(1000, n_cores=2)
        default = get_workload("gs", seed=3).generate(1000, n_cores=2)
        assert np.array_equal(a.addrs, default.addrs)

    def test_pattern_shape_scale_invariant(self):
        # GS bursts stay page-local at every class.
        from repro.common.types import PAGE_BYTES

        for letter in ("S", "B"):
            trace = get_workload("gs", seed=2, scale=letter).generate(
                2000, n_cores=1
            )
            # Burst structure: long same-page runs exist.
            pages = trace.addrs // PAGE_BYTES
            runs = np.diff(np.flatnonzero(np.diff(pages) != 0))
            assert runs.max() >= 4

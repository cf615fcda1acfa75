"""Tests for the parallel suite runner."""

import json

import pytest

from repro.engine.driver import run_comparison
from repro.engine.parallel import _BENCH_COST, _grid, run_suite_parallel
from repro.engine.spec import RunSpec
from repro.engine.system import CoalescerKind
from repro.workloads import BENCHMARK_NAMES

TRIO = (CoalescerKind.NONE, CoalescerKind.DMC, CoalescerKind.PAC)


class TestRunSuiteParallel:
    def test_serial_path(self):
        out = run_suite_parallel(
            kinds=(CoalescerKind.PAC,),
            benchmarks=("gs",),
            n_accesses=2000,
            max_workers=1,
        )
        assert ("gs", "pac") in out
        assert out[("gs", "pac")].n_issued > 0

    def test_parallel_matches_serial(self):
        kwargs = dict(
            kinds=(CoalescerKind.NONE, CoalescerKind.PAC),
            benchmarks=("gs", "bfs"),
            n_accesses=2000,
            seed=5,
        )
        serial = run_suite_parallel(max_workers=1, **kwargs)
        parallel = run_suite_parallel(max_workers=2, **kwargs)
        assert set(serial) == set(parallel)
        for key in serial:
            assert (
                serial[key].coalescing_efficiency
                == parallel[key].coalescing_efficiency
            ), key
            assert serial[key].n_raw == parallel[key].n_raw

    def test_all_pairs_present(self):
        out = run_suite_parallel(
            kinds=(CoalescerKind.DMC, CoalescerKind.PAC),
            benchmarks=("gs", "stream", "bfs"),
            n_accesses=2000,
            max_workers=2,
        )
        assert len(out) == 6

    def test_results_picklable_roundtrip(self):
        import pickle

        out = run_suite_parallel(
            kinds=(CoalescerKind.PAC,), benchmarks=("gs",),
            n_accesses=2000, max_workers=1,
        )
        blob = pickle.dumps(out)
        back = pickle.loads(blob)
        assert back[("gs", "pac")].n_issued == out[("gs", "pac")].n_issued


class TestGridInput:
    """Bad grid input fails loudly, before anything runs."""

    @pytest.mark.parametrize("axes", [
        dict(kinds=()),
        dict(benchmarks=()),
        dict(kinds=(CoalescerKind.PAC, CoalescerKind.PAC)),
        dict(benchmarks=("gs", "gs")),
    ])
    def test_empty_or_repeated_axis(self, axes):
        with pytest.raises(ValueError, match="non-empty and distinct"):
            run_suite_parallel(n_accesses=500, max_workers=1, **axes)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_max_workers_below_one(self, workers):
        with pytest.raises(ValueError, match="max_workers"):
            run_suite_parallel(
                benchmarks=("gs",), n_accesses=500, max_workers=workers,
            )

    def test_views_reject_empty_axes(self):
        with pytest.raises(ValueError):
            run_comparison("gs", kinds=(), n_accesses=500)
        with pytest.raises(ValueError):
            run_suite_parallel(
                kinds=(CoalescerKind.PAC,), benchmarks=(), n_accesses=500,
                max_workers=1,
            )


class TestSchedule:
    #: ``_grid``'s order over every benchmark x none/dmc/pac, as the
    #: measured PAC-arm weights of ``_BENCH_COST`` rank it.
    ORDER = [
        ("gs", "pac"), ("sp", "pac"), ("gs", "dmc"), ("ssca2", "pac"),
        ("gs", "none"), ("sp", "dmc"), ("cg", "pac"), ("ssca2", "dmc"),
        ("bfs", "pac"), ("sp", "none"), ("ssca2", "none"), ("cg", "dmc"),
        ("bfs", "dmc"), ("cg", "none"), ("sort", "pac"), ("bfs", "none"),
        ("fft", "pac"), ("stream", "pac"), ("hpcg", "pac"), ("lu", "pac"),
        ("sparselu", "pac"), ("pr", "pac"), ("sort", "dmc"),
        ("fft", "dmc"), ("stream", "dmc"), ("ep", "pac"), ("mg", "pac"),
        ("sort", "none"), ("hpcg", "dmc"), ("lu", "dmc"),
        ("sparselu", "dmc"), ("fft", "none"), ("pr", "dmc"),
        ("stream", "none"), ("hpcg", "none"), ("lu", "none"),
        ("sparselu", "none"), ("ep", "dmc"), ("mg", "dmc"), ("pr", "none"),
        ("ep", "none"), ("mg", "none"),
    ]

    def _order(self):
        specs = [RunSpec((name,), 500) for name in BENCHMARK_NAMES]
        return [(s.benchmarks[0], s.arm.value) for s in _grid(specs, TRIO)]

    def test_table_covers_every_benchmark(self):
        assert set(_BENCH_COST) == set(BENCHMARK_NAMES)

    def test_order_is_pinned(self):
        assert self._order() == self.ORDER

    def test_order_ignores_files_and_environment(
        self, tmp_path, monkeypatch
    ):
        """No file decides the order (and with it each job's fault
        ordinal): not a baseline in the working directory, not the
        variable that once pointed at one."""
        inverted = {
            "end_to_end": {
                name: {"seconds": 1.0 + i}
                for i, name in enumerate(reversed(BENCHMARK_NAMES))
            }
        }
        (tmp_path / "BENCH_baseline.json").write_text(json.dumps(inverted))
        garbage = tmp_path / "garbage.json"
        garbage.write_text("{not json")
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("REPRO_BENCH_BASELINE", str(garbage))
        assert self._order() == self.ORDER

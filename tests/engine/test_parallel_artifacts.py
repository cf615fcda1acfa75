"""The grid pipeline: bit-identity and the parameter-passthrough
contract.

The artifact cache, the shared prefix and the shared-memory fan-out are
pure execution strategies — every RunResult they produce must equal the
cell's standalone ``run_benchmark`` field for field (dataclass ``==``,
so telemetry timelines and span sets participate when attached).
"""

from __future__ import annotations

import inspect
import os

import pytest

from repro.artifacts import get_store
from repro.engine.driver import run_benchmark, run_comparison, run_suite
from repro.engine.parallel import run_suite_parallel
from repro.engine.system import CoalescerKind
from repro.telemetry import events as ev

KINDS = (CoalescerKind.NONE, CoalescerKind.PAC)
BENCHES = ("gs", "stream")
N = 1500
SEED = 9


def _suite(**overrides):
    kwargs = dict(
        kinds=KINDS, benchmarks=BENCHES, n_accesses=N, seed=SEED,
        max_workers=2,
    )
    kwargs.update(overrides)
    return run_suite_parallel(**kwargs)


def _assert_standalone(grid, kinds=KINDS, **kw):
    """Every cell of ``grid`` equals its standalone ``run_benchmark``."""
    assert sorted(grid) == sorted(
        (bench, kind.value) for bench in BENCHES for kind in kinds
    )
    for (bench, kind_value), result in grid.items():
        standalone = run_benchmark(
            bench, coalescer=CoalescerKind(kind_value), n_accesses=N,
            seed=SEED, **kw,
        )
        assert result == standalone, (bench, kind_value)


class TestBitIdentity:
    def test_cold_warm_agree_with_standalone(self):
        cold_stats: dict = {}
        cold = _suite(stats=cold_stats)
        warm_stats: dict = {}
        warm = _suite(stats=warm_stats)
        assert cold_stats["artifact_misses"] == len(BENCHES)
        assert warm_stats["artifact_hits"] == len(BENCHES)
        assert warm_stats["artifact_misses"] == 0
        assert cold == warm
        _assert_standalone(cold)

    def test_cache_disabled_still_identical(self):
        _assert_standalone(_suite(use_artifact_cache=False))

    def test_serial_two_phase_matches_pooled(self):
        serial = _suite(max_workers=1)
        pooled = _suite(max_workers=2)
        for key in serial:
            assert serial[key] == pooled[key], key

    def test_matches_run_benchmark(self):
        """The suite runner is a fan-out of run_benchmark: each cell must
        equal the equivalent standalone call."""
        _assert_standalone(_suite())


class TestProbeRuns:
    def test_probe_grid_shares_the_pass_and_skips_the_store(self):
        """A probe grid computes each pass once, on a probed front-end,
        and neither reads nor writes the store — a warm gs entry
        included: every pass counts as a miss, no store event is
        logged, and the store keeps the entries it had."""
        _suite(kinds=(CoalescerKind.NONE,), benchmarks=("gs",))  # warm gs
        entries = len(list(get_store().entries()))
        stats: dict = {}
        log = ev.EventLog()
        with ev.installed(log):
            out = _suite(telemetry=True, spans=True, stats=stats)
        assert stats["artifact_hits"] == 0
        assert stats["artifact_misses"] == len(BENCHES)
        assert not [
            d for d in log.records
            if d["kind"] in ("cache.hit", "cache.miss", "cache.store")
        ]
        assert len(list(get_store().entries())) == entries
        assert [
            d["phase"] for d in log.records if d["kind"] == "phase.start"
        ] == ["phase1", "phase2"]
        _assert_standalone(out, telemetry=True, spans=True)

    @pytest.mark.parametrize("probe_kw", [
        dict(telemetry=True), dict(spans=True),
        dict(telemetry=True, spans=1),
    ], ids=["telemetry", "spans", "both"])
    def test_prefix_runs_once_per_benchmark(self, monkeypatch, probe_kw):
        """2 benchmarks x 3 arms with probes on: the cache pass runs
        twice, once per benchmark, and every arm still equals its
        standalone run."""
        from repro.cache.batched import BatchedCacheHierarchy

        calls = []
        process = BatchedCacheHierarchy.process

        def counting(self, *args, **kwargs):
            calls.append(1)
            return process(self, *args, **kwargs)

        monkeypatch.setattr(BatchedCacheHierarchy, "process", counting)
        kinds = (CoalescerKind.NONE, CoalescerKind.DMC, CoalescerKind.PAC)
        out = _suite(kinds=kinds, max_workers=1, **probe_kw)
        assert len(calls) == len(BENCHES)
        _assert_standalone(out, kinds=kinds, **probe_kw)

    def test_probe_results_unaffected_by_warm_cache(self):
        """Telemetry and span runs must be bit-identical whether the
        artifact cache is hot, cold, or off — their pass never comes
        from the store."""
        _suite()  # populate the cache
        warm = _suite(
            kinds=(CoalescerKind.PAC,), benchmarks=("gs",),
            telemetry=True, spans=True,
        )
        off = _suite(
            kinds=(CoalescerKind.PAC,), benchmarks=("gs",),
            telemetry=True, spans=True, use_artifact_cache=False,
        )
        assert warm[("gs", "pac")] == off[("gs", "pac")]
        assert warm[("gs", "pac")].spans is not None

    def test_run_comparison_cold_warm_identical(self):
        baseline = run_comparison(
            "gs", kinds=KINDS, n_accesses=N, seed=SEED,
            use_artifact_cache=False,
        )
        cold = run_comparison("gs", kinds=KINDS, n_accesses=N, seed=SEED)
        warm = run_comparison("gs", kinds=KINDS, n_accesses=N, seed=SEED)
        for kind in KINDS:
            assert baseline[kind] == cold[kind]
            assert baseline[kind] == warm[kind]


class _NoRequests:
    """A request-id source that fails the run: every ``MemoryRequest``
    constructor draws its id from ``repro.common.types._req_counter``."""

    def __iter__(self):
        return self

    def __next__(self):
        raise AssertionError("a MemoryRequest was built on the batched path")


class TestNoRequestObjects:
    """The batched production path hands the packed stream from the
    cache front-end to the coalescers: it builds no request object and
    decodes nothing, in the parent or in a pool worker."""

    @pytest.fixture(autouse=True)
    def _forbid_request_objects(self, monkeypatch):
        from repro.artifacts import shm
        from repro.common import types

        def no_decode(array):
            raise AssertionError("the batched path decoded the stream")

        monkeypatch.setattr(types, "_req_counter", _NoRequests())
        monkeypatch.setattr(shm, "decode_requests", no_decode)

    def test_comparison(self):
        trio = run_comparison("gs", n_accesses=2000, use_artifact_cache=False)
        assert len(trio) == 3

    def test_cold_then_warm_pooled_suite(self):
        cold_stats: dict = {}
        cold = _suite(stats=cold_stats)
        warm_stats: dict = {}
        warm = _suite(stats=warm_stats)
        assert cold_stats["artifact_misses"] == len(BENCHES)
        assert warm_stats["artifact_hits"] == len(BENCHES)
        assert cold == warm


class TestArtifactLookups:
    def test_cold_serial_two_phase_looks_up_each_artifact_once(self):
        """Phase 1 probes each pass artifact once; a miss goes straight
        to compute-and-store, which probes nothing."""
        log = ev.EventLog()
        with ev.installed(log):
            _suite(max_workers=1)
        misses = [
            d["artifact"] for d in log.records if d["kind"] == "cache.miss"
        ]
        assert misses == ["pass"] * len(BENCHES)
        assert get_store().stats.misses == len(BENCHES)

    def test_run_suite_fills_the_store_then_reads_it(self):
        cold = run_suite(benchmarks=BENCHES, n_accesses=N, seed=SEED)
        store = get_store()
        assert store.stats.stores == len(BENCHES)
        assert {e.kind for e in store.entries()} == {"pass"}
        warm = run_suite(benchmarks=BENCHES, n_accesses=N, seed=SEED)
        assert store.stats.hits == len(BENCHES)
        assert list(warm) == list(cold) == list(BENCHES)
        for bench in BENCHES:
            assert warm[bench] == cold[bench], bench


class TestStats:
    def test_stats_schema(self):
        stats: dict = {}
        _suite(stats=stats)
        assert "pipeline" not in stats
        assert stats["jobs"] == len(KINDS) * len(BENCHES)
        assert stats["workers"] >= 1
        assert stats["artifact_hits"] + stats["artifact_misses"] == len(BENCHES)
        assert stats["phase1_seconds"] >= 0.0
        assert stats["phase2_seconds"] >= 0.0

    def test_default_workers_follow_cpu_affinity(self, monkeypatch):
        """Under ``taskset -c 0`` a two-CPU host lets the process run on
        one CPU: the default pool has one worker, not ``cpu_count()``."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setattr(
            os, "sched_getaffinity", lambda pid: {0}, raising=False
        )
        stats: dict = {}
        grid = _suite(stats=stats, max_workers=None)
        assert stats["workers"] == 1
        assert len(grid) == stats["jobs"] == len(KINDS) * len(BENCHES)

    def test_unknown_pipeline_rejected(self):
        """One pipeline: there is no knob to select another, so every
        ``pipeline=`` value is rejected."""
        assert "pipeline" not in inspect.signature(
            run_suite_parallel
        ).parameters
        for name in ("three-phase", "per-job", "two-phase"):
            with pytest.raises(TypeError, match="pipeline"):
                _suite(pipeline=name)


class TestFrontendEngineThreading:
    """Phase 1 runs its per-benchmark trace+cache prefix on the batched
    front-end when the engine resolves to batched; ``reference`` forces
    the scalar generators and hierarchy. Both paths are bit-identical,
    and cached pass artifacts are shared across engines."""

    def test_trace_pass_engine_invariant(self):
        import numpy as np

        from repro.artifacts.pipeline import compute_trace_pass
        from repro.engine.spec import RunSpec

        ref = compute_trace_pass(
            RunSpec(("gs",), N, seed=SEED, engine="reference")
        )
        bat = compute_trace_pass(RunSpec(("gs",), N, seed=SEED))
        np.testing.assert_array_equal(ref.raw, bat.raw)
        assert ref.cache_metrics == bat.cache_metrics
        assert ref.trace_end_cycle == bat.trace_end_cycle

    def test_parallel_batched_prefix_matches_serial_reference(self):
        """Satellite gate: pooled phase 1 on the batched front-end ==
        serial phase 1 on the reference front-end, full RunResults."""
        ref = _suite(
            engine="reference", use_artifact_cache=False, max_workers=1,
        )
        bat = _suite(
            engine="auto", use_artifact_cache=False, max_workers=2,
        )
        assert set(ref) == set(bat)
        for key in ref:
            assert ref[key] == bat[key], key

    def test_cached_pass_shared_across_engines(self):
        """Artifact keys ignore the engine (bit-identity makes the pass
        engine-invariant): a prefix computed by one engine must serve
        warm runs of the other."""
        cold_stats: dict = {}
        cold = _suite(engine="reference", stats=cold_stats)
        warm_stats: dict = {}
        warm = _suite(engine="auto", stats=warm_stats)
        assert cold_stats["artifact_misses"] == len(BENCHES)
        assert warm_stats["artifact_hits"] == len(BENCHES)
        assert warm_stats["artifact_misses"] == 0
        for key in cold:
            assert cold[key] == warm[key], key

    def test_run_comparison_engine_reaches_prefix(self):
        ref = run_comparison(
            "gs", kinds=KINDS, n_accesses=N, seed=SEED,
            engine="reference", use_artifact_cache=False,
        )
        bat = run_comparison(
            "gs", kinds=KINDS, n_accesses=N, seed=SEED,
            engine="auto", use_artifact_cache=False,
        )
        for kind in KINDS:
            assert ref[kind] == bat[kind]


class TestParameterParity:
    """run_suite / run_suite_parallel must forward every run_benchmark
    knob (enumerated by inspection, so a knob added to run_benchmark
    without suite plumbing fails here)."""

    #: run_benchmark parameters that the suite runners rename rather
    #: than forward verbatim.
    RENAMED = {"benchmark", "coalescer"}

    def _params(self, fn):
        return inspect.signature(fn).parameters

    @pytest.mark.parametrize("suite_fn", [run_suite, run_suite_parallel])
    def test_suite_forwards_every_benchmark_knob(self, suite_fn):
        bench_params = self._params(run_benchmark)
        suite_params = self._params(suite_fn)
        missing = [
            name
            for name in bench_params
            if name not in self.RENAMED and name not in suite_params
        ]
        assert not missing, (
            f"{suite_fn.__name__} does not forward run_benchmark "
            f"parameter(s): {missing}"
        )

    @pytest.mark.parametrize("suite_fn", [run_suite, run_suite_parallel])
    def test_shared_defaults_agree(self, suite_fn):
        bench_params = self._params(run_benchmark)
        suite_params = self._params(suite_fn)
        for name, param in bench_params.items():
            if name in self.RENAMED or param.default is inspect.Parameter.empty:
                continue
            assert suite_params[name].default == param.default, (
                f"{suite_fn.__name__}.{name} default diverged from "
                f"run_benchmark"
            )

    def test_forwarded_knob_reaches_the_workers(self):
        """Spot-check an end-to-end passthrough: fine_grain selects a
        different hierarchy traversal, so its results must differ from
        the default and match the standalone call."""
        out = _suite(
            kinds=(CoalescerKind.PAC,), benchmarks=("stream",),
            fine_grain=True,
        )
        standalone = run_benchmark(
            "stream", coalescer=CoalescerKind.PAC, n_accesses=N, seed=SEED,
            fine_grain=True,
        )
        assert out[("stream", "pac")] == standalone
        coarse = _suite(kinds=(CoalescerKind.PAC,), benchmarks=("stream",))
        assert out[("stream", "pac")] != coarse[("stream", "pac")]

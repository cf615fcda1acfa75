"""The grid pipeline: bit-identity and the parameter-passthrough
contract.

The artifact cache, the shared prefix and the shared-memory fan-out are
pure execution strategies — every RunResult they produce must equal the
cell's standalone ``run_benchmark`` field for field (dataclass ``==``,
so telemetry timelines and span sets participate when attached).
"""

from __future__ import annotations

import dataclasses
import inspect
import os

import pytest

from repro.artifacts import get_store
from repro.config import TABLE1
from repro.engine import driver, parallel
from repro.engine.driver import run_benchmark, run_comparison
from repro.engine.parallel import run_suite_parallel
from repro.engine.spec import RunSpec
from repro.engine.system import CoalescerKind
from repro.telemetry import events as ev
from tests.artifacts.test_store import _traffic

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
        assert [e.kind for e in get_store().entries()] == (
            ["pass"] * len(BENCHES)
        )

    def test_run_suite_fills_the_store_then_reads_it(self):
        def suite():
            return run_suite_parallel(
                kinds=(CoalescerKind.PAC,), benchmarks=BENCHES, n_accesses=N,
                seed=SEED, max_workers=1,
            )

        cold, seen = _traffic(suite)
        assert seen == {
            "cache.miss": len(BENCHES), "cache.store": len(BENCHES),
        }
        assert [e.kind for e in get_store().entries()] == (
            ["pass"] * len(BENCHES)
        )
        warm, seen = _traffic(suite)
        assert seen == {"cache.hit": len(BENCHES)}
        assert list(warm) == list(cold)
        assert set(cold) == {(bench, "pac") for bench in BENCHES}
        for cell in cold:
            assert warm[cell] == cold[cell], cell


class TestStats:
    def test_stats_schema(self):
        stats: dict = {}
        _suite(stats=stats)
        assert "pipeline" not in stats
        assert stats["jobs"] == len(KINDS) * len(BENCHES)
        assert stats["workers"] >= 1
        assert stats["artifact_hits"] + stats["artifact_misses"] == len(BENCHES)
        # The phase times have one surface, the health snapshot, so
        # ``phase1_seconds``/``phase2_seconds`` are not top-level keys.
        assert set(stats) == {
            "workers", "jobs", "artifact_hits", "artifact_misses", "health",
        }
        assert stats["health"]["phase1_seconds"] >= 0.0
        assert stats["health"]["phase2_seconds"] >= 0.0

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
    """Every entry point passes every RunSpec field it does not set
    itself through to the specs it runs: a spy on ``run_spec`` and
    ``run_arm``, the functions below the entry points, sees them."""

    ENTRIES = ["run_benchmark", "run_comparison", "run_suite_parallel"]
    #: Fields an entry point sets from its own arguments.
    OWN = {"benchmarks", "n_accesses", "arm"}
    #: A non-default value of every other field.
    FIELDS = dict(
        config=TABLE1.with_pac(n_streams=8),
        seed=SEED + 1,
        device="hbm",
        fine_grain=True,
        scale=2.0,
        engine="reference",
        telemetry=512,
        spans=8,
    )

    def _specs(self, entry, monkeypatch, **fields):
        """The specs one small gs run of ``entry`` hands to
        ``run_spec``/``run_arm``."""
        seen = []

        def spy(real):
            def record(spec, *args):
                seen.append(spec)
                return real(spec, *args)
            return record

        monkeypatch.setattr(driver, "run_spec", spy(driver.run_spec))
        monkeypatch.setattr(parallel, "run_arm", spy(parallel.run_arm))
        small = dict(n_accesses=600, **fields)
        {
            "run_benchmark": lambda: run_benchmark("gs", **small),
            "run_comparison": lambda: run_comparison("gs", **small),
            "run_suite_parallel": lambda: run_suite_parallel(
                kinds=KINDS, benchmarks=("gs",), max_workers=1, **small
            ),
        }[entry]()
        assert seen, f"{entry} ran no spec"
        return seen

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_suite_forwards_every_benchmark_knob(self, entry, monkeypatch):
        assert set(self.FIELDS) == {
            f.name for f in dataclasses.fields(RunSpec)
        } - self.OWN
        for spec in self._specs(entry, monkeypatch, **self.FIELDS):
            for name, value in self.FIELDS.items():
                assert getattr(spec, name) == value, (entry, name)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_shared_defaults_agree(self, entry, monkeypatch):
        """Given no fields, every entry point runs RunSpec's defaults."""
        for spec in self._specs(entry, monkeypatch):
            assert spec == RunSpec(("gs",), 600, arm=spec.arm), entry

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

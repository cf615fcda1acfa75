"""Bit-identity contract of the batched cache front-end.

:class:`repro.cache.batched.BatchedCacheHierarchy` is only allowed to
exist because it is indistinguishable from the scalar reference: the
same packed stream (each request's id its ordinal) in the same cycle
order, the same
eager secondaries and streamer-prefetcher decisions, the same LLC
write-back stream, the same ``StatsRegistry`` counters, and therefore
the same full :class:`~repro.engine.results.RunResult` through every
coalescer arm. This suite is the enforcement point for the front-end
half of the engine contract (the coalescer half lives in
``tests/engine/test_engine_parity.py``).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cache.batched import BatchedCacheHierarchy
from repro.cache.hierarchy import CacheHierarchy
from repro.common.types import reset_request_ids
from repro.config import TABLE1
from repro.engine.driver import run_benchmark
from repro.engine.system import CoalescerKind, System
from repro.telemetry import SpanRecorder, TelemetryRegistry

#: The CI parity grid: the paper's most coalescable (gs), least
#: coalescable (bfs), stride-friendly (stream), and mixed (hpcg)
#: workloads — together they exercise every emission path (secondaries,
#: prefetches, write-backs, set conflicts).
BENCHMARKS = ("gs", "hpcg", "stream", "bfs")
N = 4000
SEED = 1234


def _trace(bench, n=N, seed=SEED):
    system = System(coalescer=CoalescerKind.NONE, engine="reference")
    return system.build_trace([bench], n, seed=seed)


def _pair(fine_grain=False):
    cfg = TABLE1
    kw = dict(n_cores=cfg.n_cores, fine_grain=fine_grain)
    return (
        CacheHierarchy(cfg.cache, **kw),
        BatchedCacheHierarchy(cfg.cache, **kw),
    )


def _streams(trace, fine_grain=False):
    ref, bat = _pair(fine_grain)
    reset_request_ids()
    rs = ref.process(trace)
    reset_request_ids()
    bs = bat.process(trace)
    return ref, rs, bat, bs


class TestRawStreamIdentity:
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_requests_and_counters_identical(self, bench):
        trace = _trace(bench)
        ref, rs, bat, bs = _streams(trace)
        assert rs.n_accesses == bs.n_accesses
        assert len(rs.packed) == len(bs.packed)
        # Every field of every row: this pins the whole stream, not
        # aggregates.
        np.testing.assert_array_equal(rs.packed, bs.packed)
        assert rs.stats.as_dict() == bs.stats.as_dict()
        assert ref.summary_metrics(len(rs.packed)) == bat.summary_metrics(
            len(bs.packed)
        )
        for rl1, bl1 in zip(ref.l1s, bat.l1s):
            assert rl1.hit_rate == bl1.hit_rate
        assert ref.llc.hit_rate == bat.llc.hit_rate

    @pytest.mark.parametrize("bench", ("gs", "bfs"))
    def test_fine_grain_stream_identical(self, bench):
        trace = _trace(bench, n=2500)
        _, rs, _, bs = _streams(trace, fine_grain=True)
        np.testing.assert_array_equal(rs.packed, bs.packed)
        assert rs.stats.as_dict() == bs.stats.as_dict()

    def test_multi_process_trace_identical(self):
        """Co-running benchmarks: per-core streams span two page tables."""
        system = System(coalescer=CoalescerKind.NONE, engine="reference")
        trace = system.build_trace(["gs", "bfs"], 3000, seed=9)
        _, rs, _, bs = _streams(trace)
        np.testing.assert_array_equal(rs.packed, bs.packed)
        assert rs.stats.as_dict() == bs.stats.as_dict()

    def test_repeat_process_calls_stay_identical(self):
        """Residual LRU/prefetch state must evolve identically between
        consecutive ``process`` calls on one hierarchy."""
        t1 = _trace("stream", n=1500, seed=3)
        t2 = _trace("gs", n=1500, seed=4)
        ref, bat = _pair()
        reset_request_ids()
        r1 = ref.process(t1)
        r2 = ref.process(t2)
        reset_request_ids()
        b1 = bat.process(t1)
        b2 = bat.process(t2)
        np.testing.assert_array_equal(r1.packed, b1.packed)
        np.testing.assert_array_equal(r2.packed, b2.packed)
        assert ref.stats.as_dict() == bat.stats.as_dict()

    def test_inherited_caches_never_build_their_sets(self):
        """The batched hierarchy's inherited caches carry geometry and
        stats only: a whole pass builds none of their ``OrderedDict``
        sets, and their occupancy reads 0 where the reference's does
        not."""
        ref, rs, bat, bs = _streams(_trace("gs", n=1500))
        caches = [*bat.l1s, bat.llc]
        assert not any("_sets" in vars(cache) for cache in caches)
        assert [cache.occupancy for cache in caches] == [0] * len(caches)
        assert ref.llc.occupancy > 0


class TestRunResultIdentity:
    """Full-``RunResult`` equality, every engine arm — the acceptance
    gate mirrored by the CI front-end parity step."""

    @pytest.mark.parametrize("bench", BENCHMARKS)
    @pytest.mark.parametrize(
        "kind", (CoalescerKind.NONE, CoalescerKind.DMC, CoalescerKind.PAC)
    )
    def test_reference_vs_auto(self, bench, kind):
        ref = run_benchmark(
            bench, coalescer=kind, n_accesses=N, seed=SEED,
            engine="reference",
        )
        auto = run_benchmark(
            bench, coalescer=kind, n_accesses=N, seed=SEED,
            engine="auto",
        )
        assert ref == auto

    def test_reference_vs_explicit_batched_pac(self):
        ref = run_benchmark(
            "gs", coalescer=CoalescerKind.PAC, n_accesses=N, seed=SEED,
            engine="reference",
        )
        bat = run_benchmark(
            "gs", coalescer=CoalescerKind.PAC, n_accesses=N, seed=SEED,
            engine="auto",
        )
        assert ref == bat


class TestFrontendDispatch:
    def test_auto_builds_batched_hierarchy_for_every_arm(self):
        for kind in (CoalescerKind.NONE, CoalescerKind.DMC, CoalescerKind.PAC):
            s = System(coalescer=kind, engine="auto")
            assert s.engine == "batched"
            assert isinstance(s.hierarchy, BatchedCacheHierarchy)

    @pytest.mark.parametrize("cls", [CacheHierarchy, BatchedCacheHierarchy])
    def test_fine_grain_is_fixed_at_construction(self, cls):
        """Fine-grain mode is a constructor switch that also turns the
        prefetcher off, as ``prefetch_regions=0`` does; ``process``
        takes only the trace."""
        assert cls(TABLE1.cache).prefetch_enabled
        assert not cls(TABLE1.cache, fine_grain=True).prefetch_enabled
        no_prefetch = TABLE1.with_cache(prefetch_regions=0).cache
        assert not cls(no_prefetch).prefetch_enabled
        with pytest.raises(TypeError, match="prefetch_enabled"):
            cls(TABLE1.cache, prefetch_enabled=False)
        with pytest.raises(TypeError, match="fine_grain"):
            cls(TABLE1.cache).process(_trace("gs", n=100), fine_grain=True)

    def test_reference_builds_scalar_hierarchy(self):
        s = System(coalescer=CoalescerKind.PAC, engine="reference")
        assert s.engine == "reference"
        assert not isinstance(s.hierarchy, BatchedCacheHierarchy)

    @pytest.mark.parametrize(
        "probe_kw", [
            dict(spans=SpanRecorder), dict(telemetry=TelemetryRegistry),
            dict(telemetry=TelemetryRegistry, spans=SpanRecorder),
        ],
    )
    def test_probes_keep_frontend_batched(self, probe_kw):
        s = System(
            coalescer=CoalescerKind.NONE, engine="auto",
            **{name: make() for name, make in probe_kw.items()},
        )
        assert s.engine == "batched"
        assert isinstance(s.hierarchy, BatchedCacheHierarchy)

    @pytest.mark.parametrize("sample_rate", [1, 3])
    @pytest.mark.parametrize(
        "bench, fine_grain",
        [("gs", False), ("bfs", False), ("gs", True), ("atomichist", False)],
    )
    def test_batched_ctor_accepts_enabled_spans(
        self, bench, fine_grain, sample_rate
    ):
        """The twin stamps the reference's origin on every sampled
        ordinal: demand, secondary and prefetch, plus atomic and fence
        on atomichist (the write-back sites are pinned by
        ``test_prefetch_path_writebacks_feed_probes`` and the
        Hypothesis suite)."""
        from repro.telemetry import SpanRecorder

        trace = _trace(bench, n=3000)
        origins = []
        for cls in (CacheHierarchy, BatchedCacheHierarchy):
            recorder = SpanRecorder(sample_rate=sample_rate, seed=5)
            reset_request_ids()
            cls(
                TABLE1.cache, fine_grain=fine_grain, spans=recorder
            ).process(trace)
            origins.append(recorder._origins)
        ref, bat = origins
        assert ref
        assert ref == bat

    def test_batched_ctor_accepts_enabled_probes(self):
        """The twin feeds the same cache probes as the reference."""
        from repro.telemetry import TelemetryRegistry

        trace = _trace("gs", n=1500)
        registries = []
        for cls in (CacheHierarchy, BatchedCacheHierarchy):
            registry = TelemetryRegistry(window_cycles=64)
            reset_request_ids()
            cls(TABLE1.cache, probes=registry.scope("cache")).process(trace)
            registries.append(registry)
        ref, bat = registries
        assert ref.counter("cache.raw_requests").total > 0
        assert ref == bat
        assert ref.to_json() == bat.to_json()

    def test_prefetch_path_writebacks_feed_probes(self):
        """The two LLC write-back sites on the prefetch path — the LLC
        fill of the prefetched line, and the LLC fill of the dirty L1
        line it evicts — fire at the trace's last access; the twin must
        record both, at that cycle."""
        from repro.common.types import MemOp
        from repro.mem.trace import AccessTrace
        from repro.telemetry import SpanRecorder, TelemetryRegistry

        line = TABLE1.cache.line_bytes
        llc_stride = TABLE1.cache.llc_bytes // TABLE1.cache.llc_ways
        x = 5 * line  # L1 set 5, LLC set 5
        a = line * (3 + 32 * 100)  # misses at a, a+64 prefetch a+128
        pf = a + 2 * line  # L1 set 5 too
        rows = []

        def access(addr, op, core):
            rows.append((addr, 8, int(op), core, len(rows)))

        access(x, MemOp.STORE, 0)  # x dirty in core 0's L1
        for t in range(1, 9):  # core 1 evicts x from the LLC
            access(x + t * llc_stride, MemOp.STORE, 1)
        for t in range(1, 9):  # core 2 fills pf's LLC set with dirty lines
            access(pf + t * llc_stride, MemOp.STORE, 2)
        for k in range(1, 8):  # x becomes LRU in core 0's L1 set
            access(x + 32 * k * line, MemOp.LOAD, 0)
        access(a, MemOp.LOAD, 0)
        access(a + line, MemOp.LOAD, 0)
        trace = AccessTrace.from_rows(rows)
        registries = []
        for cls in (CacheHierarchy, BatchedCacheHierarchy):
            registry = TelemetryRegistry(window_cycles=1)
            reset_request_ids()
            cls(
                TABLE1.cache, n_cores=3, probes=registry.scope("cache")
            ).process(trace)
            registries.append(registry)
        ref, bat = registries
        last = len(rows) - 1
        assert ref.counter("cache.writebacks").windows[last] == 2
        assert ref == bat
        # The same two sites stamp span origins.
        origins = []
        for cls in (CacheHierarchy, BatchedCacheHierarchy):
            recorder = SpanRecorder(sample_rate=1)
            reset_request_ids()
            cls(TABLE1.cache, n_cores=3, spans=recorder).process(trace)
            origins.append(recorder._origins)
        assert list(origins[0].values()).count("writeback") >= 2
        assert origins[0] == origins[1]

    def test_faults_demote_frontend_auto(self):
        # An active fault plan leaves the front-end batched.
        from repro.faults import FaultInjector, installed, resolve_plan

        plan = resolve_plan("artifact.get:corrupt@0")
        with installed(FaultInjector(plan)):
            s = System(coalescer=CoalescerKind.NONE, engine="auto")
            assert s.engine == "batched"

    def test_reference_engine_pins_scalar_trace_generators(self):
        """engine='reference' must also run the retained scalar
        generators — same bits, different code path."""
        from repro.workloads import base as wl_base

        seen = []
        orig = wl_base.reference_trace_gen

        s_ref = System(coalescer=CoalescerKind.NONE, engine="reference")
        s_fast = System(coalescer=CoalescerKind.NONE, engine="auto")
        try:
            def probe():
                seen.append(True)
                return orig()

            wl_base.reference_trace_gen = probe
            # System.build_trace imports the symbol lazily, so the probe
            # observes whether the reference gate was entered.
            t_ref = s_ref.build_trace(["gs"], 600, seed=2)
        finally:
            wl_base.reference_trace_gen = orig
        assert seen, "reference engine must enter the scalar-generator gate"
        t_fast = s_fast.build_trace(["gs"], 600, seed=2)
        assert (t_ref.addrs == t_fast.addrs).all()
        assert (t_ref.cycles == t_fast.cycles).all()

"""Property-based bit-identity of the batched cache front-end.

``tests/cache/test_batched_frontend.py`` pins the engine contract on
the paper's workload traces; this suite attacks it with adversarial
*synthetic* traces the workloads never emit:

- mixed op interleavings — LOADs/STOREs shuffled with ATOMICs (cache
  bypass) and FENCEs (line-granular drain markers) across cores;
- set-conflict-heavy address pools — many tags folded onto one or two
  L1 sets, so LRU evictions and dirty write-backs dominate;
- lookahead-window boundary cases — windows of 0, 1, and exactly the
  per-core stream length, where the eager-secondary scan starts,
  degenerates, or spans the whole trace.

Every example must leave the batched hierarchy indistinguishable from
the scalar reference: same requests (req_ids included), same
``StatsRegistry`` counters, same summary metrics and per-cache hit
rates — including across *consecutive* traces, so residual LRU/stride
state is compared too.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cache.batched import BatchedCacheHierarchy
from repro.cache.hierarchy import CacheHierarchy
from repro.common.types import MemOp, reset_request_ids
from repro.config import TABLE1
from repro.mem.trace import AccessTrace
from repro.telemetry import SpanRecorder, TelemetryRegistry

SETTINGS = dict(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

CFG = TABLE1.cache
LINE = CFG.line_bytes
L1_SETS = CFG.l1_sets  # 32 with Table 1 geometry
LLC_SETS = CFG.llc_bytes // (CFG.llc_ways * LINE)  # 16384

#: Ops the generators emit (LOAD/STORE) plus the bypass/drain kinds the
#: adversarial mixes add, weighted so most examples still miss caches.
OPS = (
    MemOp.LOAD, MemOp.LOAD, MemOp.LOAD,
    MemOp.STORE, MemOp.STORE,
    MemOp.ATOMIC, MemOp.FENCE,
)


@st.composite
def conflict_traces(draw, max_len=80, n_cores=3, n_cache_sets=L1_SETS,
                    max_sets=2, max_tags=12):
    """Cycle-ordered traces over a conflict-heavy address pool.

    Addresses fold ``n_tags`` distinct tags onto ``n_sets`` sets of a
    cache with ``n_cache_sets`` sets (default: the L1's; both levels
    are 8-way), so pools past 8 tags per set force evictions; STOREs
    make those evictions dirty write-backs. With the LLC's set count,
    the tags collide in the LLC as well, so LLC write-backs happen.
    """
    n = draw(st.integers(min_value=0, max_value=max_len))
    n_sets = draw(st.integers(min_value=1, max_value=max_sets))
    n_tags = draw(st.integers(min_value=1, max_value=max_tags))
    rows = []
    cycle = 0
    for _ in range(n):
        cycle += draw(st.integers(min_value=0, max_value=3))
        tag = draw(st.integers(min_value=0, max_value=n_tags - 1))
        set_idx = draw(st.integers(min_value=0, max_value=n_sets - 1))
        addr = (tag * n_cache_sets + set_idx) * LINE + draw(
            st.integers(min_value=0, max_value=LINE - 1)
        )
        rows.append((
            addr,
            draw(st.sampled_from((1, 2, 4, 8, 64))),
            int(draw(st.sampled_from(OPS))),
            draw(st.integers(min_value=0, max_value=n_cores - 1)),
            cycle,
        ))
    return AccessTrace.from_rows(rows)


def _pair(**kw):
    return (
        CacheHierarchy(CFG, **kw),
        BatchedCacheHierarchy(CFG, **kw),
    )


def _probed_pair(**kw):
    """Both hierarchies with enabled probes and span recorders:
    (ref, bat, (registries, recorders)). One-cycle windows pin every
    event to its exact cycle; every ordinal's span origin is sampled."""
    registries = (TelemetryRegistry(window_cycles=1),
                  TelemetryRegistry(window_cycles=1))
    recorders = (SpanRecorder(sample_rate=1), SpanRecorder(sample_rate=1))
    ref, bat = (
        cls(CFG, probes=registry.scope("cache"), spans=recorder, **kw)
        for cls, registry, recorder in zip(
            (CacheHierarchy, BatchedCacheHierarchy), registries, recorders
        )
    )
    return ref, bat, (registries, recorders)


def _assert_identical(ref, bat, traces, fine_grain=False, probes=None):
    """Process ``traces`` consecutively through both hierarchies and
    compare every observable after each one (probe registries and span
    origins too, when given)."""
    for trace in traces:
        reset_request_ids()
        rs = ref.process(trace, fine_grain=fine_grain)
        reset_request_ids()
        bs = bat.process(trace, fine_grain=fine_grain)
        assert rs.requests == bs.requests
        assert rs.n_accesses == bs.n_accesses
        assert rs.stats.as_dict() == bs.stats.as_dict()
        assert ref.summary_metrics(len(rs.requests)) == bat.summary_metrics(
            len(bs.requests)
        )
        for rl1, bl1 in zip(ref.l1s, bat.l1s):
            assert rl1.hit_rate == bl1.hit_rate
        assert ref.llc.hit_rate == bat.llc.hit_rate
        if probes is not None:
            registries, recorders = probes
            assert registries[0] == registries[1]
            assert registries[0].to_json() == registries[1].to_json()
            assert recorders[0]._origins == recorders[1]._origins


class TestAdversarialTraces:
    @given(trace=conflict_traces())
    @settings(**SETTINGS)
    def test_mixed_op_conflict_trace_identical(self, trace):
        ref, bat = _pair(n_cores=3)
        _assert_identical(ref, bat, [trace])

    @given(trace=conflict_traces())
    @settings(**SETTINGS)
    def test_prefetcher_disabled_identical(self, trace):
        ref, bat = _pair(n_cores=3, prefetch_enabled=False)
        _assert_identical(ref, bat, [trace])

    @given(trace=conflict_traces(max_len=60))
    @settings(**SETTINGS)
    def test_fine_grain_identical(self, trace):
        ref, bat = _pair(n_cores=3, prefetch_enabled=False)
        _assert_identical(ref, bat, [trace], fine_grain=True)

    @given(first=conflict_traces(max_len=40), second=conflict_traces(max_len=40))
    @settings(**SETTINGS)
    def test_residual_state_across_traces_identical(self, first, second):
        """LRU recency, dirty bits, and stride tables left by one trace
        must steer the next trace identically on both engines."""
        ref, bat = _pair(n_cores=3)
        _assert_identical(ref, bat, [first, second])

    @given(
        first=st.one_of(
            conflict_traces(),
            conflict_traces(
                max_len=200, n_cache_sets=LLC_SETS, max_sets=4, max_tags=24
            ),
        ),
        second=conflict_traces(max_len=40),
        fine_grain=st.booleans(),
    )
    @settings(**SETTINGS)
    def test_probe_events_identical(self, first, second, fine_grain):
        """With enabled probes the twin's buffered emission events fold
        into a registry equal to the reference's, and it stamps the
        same span origins, trace after trace."""
        ref, bat, probes = _probed_pair(
            n_cores=3, prefetch_enabled=not fine_grain
        )
        _assert_identical(
            ref, bat, [first, second], fine_grain=fine_grain, probes=probes,
        )


class TestLookaheadBoundaries:
    """The eager-secondary scan is the only window-bounded part of the
    front-end; its batched next-occurrence chains must agree with the
    reference's linear scan at every degenerate window size."""

    @given(
        trace=conflict_traces(max_len=60),
        window=st.sampled_from((0, 1, 2, 3)),
        cap=st.sampled_from((0, 1, 2, 4)),
    )
    @settings(**SETTINGS)
    def test_tiny_windows_identical(self, trace, window, cap):
        ref, bat = _pair(
            n_cores=3, lookahead_window=window, secondary_cap=cap
        )
        _assert_identical(ref, bat, [trace])

    @given(trace=conflict_traces(max_len=50))
    @settings(**SETTINGS)
    def test_window_spanning_whole_trace_identical(self, trace):
        """window == len(trace): the scan may run off the end of every
        per-core stream — the boundary the chain encoding must clamp."""
        window = max(1, len(trace))
        ref, bat = _pair(n_cores=2, lookahead_window=window)
        _assert_identical(ref, bat, [trace])

    @given(data=st.data())
    @settings(**SETTINGS)
    def test_window_at_per_core_stream_length(self, data):
        """Single-core trace with window exactly one less than, equal
        to, and one greater than the stream length."""
        trace = data.draw(conflict_traces(max_len=30, n_cores=1))
        n = len(trace)
        for window in (max(0, n - 1), n, n + 1):
            ref, bat = _pair(n_cores=1, lookahead_window=window)
            _assert_identical(ref, bat, [trace])


class TestDegenerateStreams:
    @given(
        op=st.sampled_from((MemOp.ATOMIC, MemOp.FENCE)),
        n=st.integers(min_value=1, max_value=30),
    )
    @settings(**SETTINGS)
    def test_bypass_only_streams_identical(self, op, n):
        """ATOMIC-only and FENCE-only streams never touch the caches;
        both engines must still emit them (and only them) in order."""
        rows = [(i * LINE, 8, int(op), 0, i) for i in range(n)]
        trace = AccessTrace.from_rows(rows)
        ref, bat = _pair(n_cores=1)
        _assert_identical(ref, bat, [trace])
        assert ref.stats.count("demand_misses") == 0

    @given(addr=st.integers(min_value=0, max_value=1 << 24))
    @settings(**SETTINGS)
    def test_single_line_hammer_identical(self, addr):
        """Every access to one line: one demand miss, then pure hits
        (plus whatever the prefetcher did with the first miss)."""
        line_addr = (addr // LINE) * LINE
        rows = [
            (line_addr + (i % LINE), 4, int(MemOp.LOAD), 0, i)
            for i in range(24)
        ]
        trace = AccessTrace.from_rows(rows)
        ref, bat = _pair(n_cores=1)
        _assert_identical(ref, bat, [trace])

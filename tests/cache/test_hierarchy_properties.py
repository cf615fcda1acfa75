"""Property-based invariants of the cache hierarchy's raw stream."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.artifacts.shm import decode_requests
from repro.cache.hierarchy import CacheHierarchy
from repro.common.types import MemOp, PAGE_BYTES
from repro.config import CacheConfig
from repro.mem.trace import AccessTrace

SETTINGS = dict(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def traces(draw):
    n = draw(st.integers(min_value=1, max_value=80))
    n_pages = draw(st.integers(min_value=1, max_value=5))
    addrs, ops, cores, cycles = [], [], [], []
    cycle = 0
    for _ in range(n):
        cycle += draw(st.integers(min_value=0, max_value=30))
        page = draw(st.integers(min_value=0, max_value=n_pages - 1))
        offset = draw(st.integers(min_value=0, max_value=511)) * 8
        addrs.append(page * PAGE_BYTES * 64 + offset)  # spread pages out
        ops.append(draw(st.sampled_from([0, 1])))
        cores.append(draw(st.integers(min_value=0, max_value=1)))
        cycles.append(cycle)
    return AccessTrace(
        addrs=np.array(addrs), sizes=np.full(n, 8),
        ops=np.array(ops), cores=np.array(cores),
        cycles=np.array(cycles),
    )


def small_hierarchy(prefetch=0, cap=2, fine_grain=False):
    cfg = CacheConfig(
        l1_bytes=1024, l1_ways=2, llc_bytes=4096, llc_ways=2,
        prefetch_regions=prefetch,
    )
    return CacheHierarchy(
        cfg, n_cores=2, secondary_cap=cap, fine_grain=fine_grain
    )


class TestRawStreamInvariants:
    @given(traces())
    @settings(**SETTINGS)
    def test_raw_stream_cycle_ordered(self, trace):
        raw = small_hierarchy().process(trace)
        cycles = [r.cycle for r in decode_requests(raw.packed)]
        assert cycles == sorted(cycles)

    @given(traces())
    @settings(**SETTINGS)
    def test_raw_requests_line_aligned(self, trace):
        raw = small_hierarchy().process(trace)
        for req in decode_requests(raw.packed):
            assert req.addr % 64 == 0
            assert req.size == 64

    @given(traces())
    @settings(**SETTINGS)
    def test_raw_never_exceeds_access_count_without_prefetch(self, trace):
        # Each access can produce at most 1 demand + cap secondaries,
        # bounded by total accesses x (1 + cap); write-backs come from
        # previously-written lines, also bounded.
        raw = small_hierarchy(cap=1).process(trace)
        assert len(raw.packed) <= 2 * len(trace) + len(trace)

    @given(traces())
    @settings(**SETTINGS)
    def test_demand_addresses_subset_of_accessed_lines(self, trace):
        h = small_hierarchy(cap=0)
        raw = h.process(trace)
        accessed_lines = {int(a) - int(a) % 64 for a in trace.addrs}
        demand = [
            r for r in decode_requests(raw.packed)
            if r.op in (MemOp.LOAD, MemOp.STORE)
        ]
        # Without prefetching/secondaries, non-WB raws target accessed
        # lines; write-backs target previously-accessed (dirtied) lines.
        for req in demand:
            assert req.addr in accessed_lines

    @given(traces())
    @settings(**SETTINGS)
    def test_stats_consistency(self, trace):
        h = small_hierarchy()
        raw = h.process(trace)
        assert h.stats.count("raw_requests") + h.stats.count(
            "writebacks"
        ) == len(raw.packed)

    @given(traces())
    @settings(**SETTINGS)
    def test_deterministic(self, trace):
        a = small_hierarchy().process(trace)
        b = small_hierarchy().process(trace)
        np.testing.assert_array_equal(a.packed, b.packed)

    @given(traces())
    @settings(**SETTINGS)
    def test_fine_grain_preserves_structure(self, trace):
        coarse = small_hierarchy(cap=0).process(trace)
        fine = small_hierarchy(cap=0, fine_grain=True).process(trace)
        assert len(coarse.packed) == len(fine.packed)
        for c, f in zip(
            decode_requests(coarse.packed), decode_requests(fine.packed)
        ):
            assert f.size <= c.size
            assert c.addr <= f.addr < c.addr + 64 or f.op == MemOp.STORE

    @given(traces(), st.integers(min_value=0, max_value=3))
    @settings(**SETTINGS)
    def test_more_lookahead_never_fewer_requests(self, trace, cap):
        lo = small_hierarchy(cap=cap).process(trace)
        hi = small_hierarchy(cap=cap + 1).process(trace)
        assert len(hi.packed) >= len(lo.packed)

"""Tests for the cache hierarchy and its raw request stream."""

import numpy as np
import pytest

from repro.artifacts.shm import decode_requests
from repro.cache.hierarchy import CacheHierarchy
from repro.common.types import MemOp
from repro.config import CacheConfig
from repro.mem.trace import AccessTrace


def make_trace(addrs, ops=None, cycles=None, sizes=None, cores=None):
    n = len(addrs)
    return AccessTrace(
        addrs=np.array(addrs),
        sizes=np.array(sizes if sizes is not None else [8] * n),
        ops=np.array(ops if ops is not None else [0] * n),
        cores=np.array(cores if cores is not None else [0] * n),
        cycles=np.array(cycles if cycles is not None else np.arange(n) * 4),
    )


def small_hierarchy(**kw):
    cfg = CacheConfig(
        l1_bytes=1024, l1_ways=2, llc_bytes=4096, llc_ways=2,
        prefetch_regions=kw.pop("prefetch_regions", 0),
    )
    return CacheHierarchy(cfg, n_cores=kw.pop("n_cores", 2), **kw)


class TestBasics:
    def test_cold_miss_produces_raw_request(self):
        h = small_hierarchy(secondary_cap=0)
        stream = h.process(make_trace([0]))
        assert len(stream.packed) == 1
        assert decode_requests(stream.packed)[0].addr == 0
        assert decode_requests(stream.packed)[0].size == 64
        assert decode_requests(stream.packed)[0].op == MemOp.LOAD

    def test_spatial_hit_filtered(self):
        h = small_hierarchy(secondary_cap=0)
        stream = h.process(make_trace([i * 8 for i in range(8)]))
        assert len(stream.packed) == 1

    def test_store_miss_tagged_store(self):
        h = small_hierarchy(secondary_cap=0)
        stream = h.process(make_trace([0], ops=[int(MemOp.STORE)]))
        assert decode_requests(stream.packed)[0].op == MemOp.STORE

    def test_llc_hit_absorbed(self):
        h = small_hierarchy(secondary_cap=0)
        trace = make_trace([0, 0], cores=[0, 1])
        stream = h.process(trace)
        assert len(stream.packed) == 1

    def test_miss_rate(self):
        h = small_hierarchy(secondary_cap=0)
        trace = make_trace([0, 0, 4096 * 4])
        stream = h.process(trace)
        assert stream.n_accesses == 3
        assert stream.miss_rate == pytest.approx(2 / 3)


class TestLookahead:
    """The eager OoO-window secondary-miss model."""

    def test_same_line_followup_emits_secondary(self):
        h = small_hierarchy(secondary_cap=2)
        # Accesses 8 and 16 are in line 0's OoO shadow: 2 secondaries.
        stream = h.process(make_trace([0, 8, 16]))
        assert len(stream.packed) == 3
        assert h.stats.count("secondary_raw") == 2
        # Secondaries are back-to-back with the primary (same cycle).
        first, second = decode_requests(stream.packed)[:2]
        assert first.cycle == second.cycle

    def test_cap_bounds_secondaries(self):
        h = small_hierarchy(secondary_cap=1)
        stream = h.process(make_trace([0, 8, 16, 24]))
        assert len(stream.packed) == 2

    def test_zero_cap(self):
        h = small_hierarchy(secondary_cap=0)
        stream = h.process(make_trace([0, 8, 16]))
        assert len(stream.packed) == 1

    def test_lookahead_is_per_core(self):
        # Core 1's access to the same line is not in core 0's load queue.
        h = small_hierarchy(secondary_cap=2)
        stream = h.process(make_trace([0, 8], cores=[0, 1]))
        assert h.stats.count("secondary_raw") == 0

    def test_window_bound(self):
        h = small_hierarchy(secondary_cap=2, lookahead_window=1)
        # Only the immediately-next access is visible.
        stream = h.process(make_trace([0, 4096 * 8, 8]))
        assert h.stats.count("secondary_raw") == 0

    def test_single_touch_lines_have_no_secondaries(self):
        # Sparse probe pattern (BFS-like): one touch per line.
        h = small_hierarchy(secondary_cap=2)
        stream = h.process(make_trace([i * 4096 * 8 for i in range(5)]))
        assert h.stats.count("secondary_raw") == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            small_hierarchy(secondary_cap=-1)
        with pytest.raises(ValueError):
            small_hierarchy(lookahead_window=-1)


class TestPrefetcher:
    """The 256B-region streamer."""

    def _hier(self, regions=1):
        cfg = CacheConfig(
            l1_bytes=8192, l1_ways=2, llc_bytes=32768, llc_ways=2,
            prefetch_regions=regions,
        )
        return CacheHierarchy(cfg, n_cores=1, secondary_cap=0)

    def test_first_miss_does_not_prefetch(self):
        h = self._hier()
        stream = h.process(make_trace([0]))
        assert h.stats.count("prefetch_raw") == 0

    def test_stride_triggers_region_prefetch(self):
        h = self._hier()
        # Misses at lines 0 then 1: the streamer fills the rest of the
        # 256B region (lines 2,3) plus the next region (4..7).
        stream = h.process(make_trace([0, 64]))
        pf_addrs = [
            r.addr for r in decode_requests(stream.packed) if r.addr >= 128
        ]
        assert pf_addrs == [128, 192, 256, 320, 384, 448]
        assert h.stats.count("prefetch_raw") == 6

    def test_prefetch_same_cycle_as_trigger(self):
        h = self._hier()
        stream = h.process(make_trace([0, 64], cycles=[0, 10]))
        assert all(r.cycle == 10 for r in decode_requests(stream.packed)[1:])

    def test_prefetched_lines_hit_later(self):
        h = self._hier()
        stream = h.process(make_trace([0, 64, 128, 192, 256]))
        # Lines 2..4 were prefetched; only 2 demand misses + prefetches.
        demand = len(stream.packed) - h.stats.count("prefetch_raw")
        assert demand == 2

    def test_stops_at_page_boundary(self):
        h = self._hier()
        # Misses at the last two lines of a page.
        stream = h.process(make_trace([4096 - 128, 4096 - 64]))
        assert h.stats.count("prefetch_raw") == 0

    def test_descending_stride_no_prefetch(self):
        h = self._hier()
        stream = h.process(make_trace([128, 64]))
        assert h.stats.count("prefetch_raw") == 0

    def test_disabled_by_config(self):
        h = self._hier(regions=0)
        stream = h.process(make_trace([0, 64, 128]))
        assert h.stats.count("prefetch_raw") == 0

    def test_prefetch_op_follows_trigger(self):
        h = self._hier()
        stream = h.process(
            make_trace([0, 64], ops=[int(MemOp.STORE)] * 2)
        )
        assert all(r.op == MemOp.STORE for r in decode_requests(stream.packed))


class TestWritebacks:
    def _hier(self):
        cfg = CacheConfig(
            l1_bytes=128, l1_ways=1, llc_bytes=128, llc_ways=1,
            prefetch_regions=0,
        )
        return CacheHierarchy(cfg, n_cores=1, secondary_cap=0)

    def test_llc_dirty_eviction_emits_store(self):
        h = self._hier()
        trace = make_trace([0, 2048, 4096], ops=[1, 1, 1])
        stream = h.process(trace)
        assert h.stats.count("writebacks") >= 1

    def test_writeback_is_line_aligned(self):
        h = self._hier()
        trace = make_trace([8, 2056, 4104], ops=[1, 1, 1])
        stream = h.process(trace)
        for req in decode_requests(stream.packed):
            assert req.addr % 64 == 0


class TestMultiCore:
    def test_cores_have_private_l1s(self):
        h = small_hierarchy(secondary_cap=0)
        trace = make_trace([0, 0], cores=[0, 1])
        h.process(trace)
        assert h.l1s[0].stats.count("misses") == 1
        assert h.l1s[1].stats.count("misses") == 1
        assert h.llc.stats.count("hits") == 1

    def test_invalid_cores(self):
        with pytest.raises(ValueError):
            CacheHierarchy(CacheConfig(), n_cores=0)


class TestFineGrain:
    def test_fine_grain_sizes_shrink(self):
        h = small_hierarchy(secondary_cap=0, fine_grain=True)
        trace = make_trace([0], sizes=[4])
        stream = h.process(trace)
        assert decode_requests(stream.packed)[0].size == 4

    def test_fine_grain_same_miss_structure(self):
        h1 = small_hierarchy(secondary_cap=0)
        h2 = small_hierarchy(secondary_cap=0, fine_grain=True)
        trace = make_trace([0, 4096, 0])
        a = h1.process(trace)
        b = h2.process(trace)
        assert len(a.packed) == len(b.packed)

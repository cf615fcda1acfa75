"""Tests for the sorting-network DMC baseline (Wang et al. [32] model)."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.artifacts.shm import encode_requests
from repro.analysis.space import bitonic_costs
from repro.common.types import MemOp, MemoryRequest, PAGE_BYTES
from repro.engine.driver import run_spec
from repro.engine.spec import RunSpec
from repro.engine.system import CoalescerKind
from repro.mshr.dmc import RecordingDevice
from repro.mshr.sorting import SortingNetworkCoalescer
from tests.conftest import FixedLatencyMemory


def req(addr, op=MemOp.LOAD, cycle=0):
    return MemoryRequest(addr=addr, op=op, cycle=cycle)


class TestConstruction:
    def test_window_power_of_two(self):
        SortingNetworkCoalescer(window=16)
        with pytest.raises(ValueError):
            SortingNetworkCoalescer(window=12)
        with pytest.raises(ValueError):
            SortingNetworkCoalescer(window=1)

    def test_timeout_positive(self):
        with pytest.raises(ValueError):
            SortingNetworkCoalescer(timeout_cycles=0)


class TestMerging:
    def test_adjacent_lines_merge(self, fixed_memory):
        stream = [req(b * 64, cycle=b) for b in range(4)]
        out = SortingNetworkCoalescer().process(
            encode_requests(stream), fixed_memory
        )
        assert out.n_issued == 1
        assert fixed_memory.packets[0].size == 256

    def test_out_of_order_arrivals_still_merge(self, fixed_memory):
        # The whole point of sorting: arrival order does not matter
        # inside a window.
        stream = [req(a, cycle=i) for i, a in enumerate([192, 0, 128, 64])]
        out = SortingNetworkCoalescer().process(
            encode_requests(stream), fixed_memory
        )
        assert out.n_issued == 1

    def test_cross_page_contiguity_merges(self, fixed_memory):
        # Unlike PAC, the sorter ignores page boundaries (Section 2.3's
        # rarely-useful capability).
        stream = [
            req(PAGE_BYTES - 64, cycle=0),
            req(PAGE_BYTES, cycle=1),
        ]
        out = SortingNetworkCoalescer().process(
            encode_requests(stream), fixed_memory
        )
        assert out.n_issued == 1
        assert fixed_memory.packets[0].size == 128

    def test_ops_do_not_merge(self, fixed_memory):
        stream = [req(0, MemOp.LOAD, 0), req(64, MemOp.STORE, 1)]
        out = SortingNetworkCoalescer().process(
            encode_requests(stream), fixed_memory
        )
        assert out.n_issued == 2

    def test_duplicates_fold(self, fixed_memory):
        stream = [req(0, cycle=0), req(0, cycle=1)]
        out = SortingNetworkCoalescer().process(
            encode_requests(stream), fixed_memory
        )
        assert out.n_issued == 1
        assert len(fixed_memory.packets[0].constituents) == 2

    def test_run_longer_than_max_packet_splits(self, fixed_memory):
        stream = [req(b * 64, cycle=b) for b in range(6)]
        out = SortingNetworkCoalescer().process(
            encode_requests(stream), fixed_memory
        )
        sizes = sorted(p.size for p in fixed_memory.packets)
        assert sizes == [128, 256]

    def test_window_flush_on_fill(self, fixed_memory):
        # 16 same-cycle requests trigger an immediate window flush.
        stream = [req(i * PAGE_BYTES * 2, cycle=0) for i in range(17)]
        coal = SortingNetworkCoalescer(window=16)
        out = coal.process(encode_requests(stream), fixed_memory)
        assert coal.stats.count("flushes") == 2

    def test_timeout_flush(self, fixed_memory):
        stream = [req(0, cycle=0), req(64, cycle=100)]
        out = SortingNetworkCoalescer(timeout_cycles=16).process(
            encode_requests(stream), fixed_memory
        )
        # The second request arrives long after the first window closed.
        assert out.n_issued == 2


class TestComparatorAccounting:
    def test_fixed_cost_per_flush(self, fixed_memory):
        coal = SortingNetworkCoalescer(window=16)
        stream = [req(i * PAGE_BYTES * 2, cycle=0) for i in range(16)]
        out = coal.process(encode_requests(stream), fixed_memory)
        assert out.comparisons == bitonic_costs(16).comparators

    def test_cost_scales_with_flushes(self, fixed_memory):
        coal = SortingNetworkCoalescer(window=4)
        stream = [req(i * PAGE_BYTES * 2, cycle=0) for i in range(8)]
        out = coal.process(encode_requests(stream), fixed_memory)
        assert out.comparisons == 2 * bitonic_costs(4).comparators


class TestConservation:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=200),
                st.sampled_from([MemOp.LOAD, MemOp.STORE]),
            ),
            min_size=1,
            max_size=50,
        )
    )
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_every_request_serviced(self, specs):
        stream = [
            MemoryRequest(addr=block * 64, op=op, cycle=i)
            for i, (block, op) in enumerate(specs)
        ]
        memory = RecordingDevice(FixedLatencyMemory(30))
        out = SortingNetworkCoalescer().process(
            encode_requests(stream), memory
        )
        serviced = sum(len(p.constituents) for p, _ in memory.submits)
        assert serviced + out.n_merged == len(stream)
        assert out.n_issued == len(memory.submits)
        assert out.payload_bytes == sum(p.size for p, _ in memory.submits)


class TestEngineIntegration:
    def test_sort_arm_runs(self):
        result = run_spec(RunSpec(("gs",), 4000, arm=CoalescerKind.SORT))
        assert result.coalescer == "sortdmc"
        assert 0 < result.coalescing_efficiency < 1

    def test_pac_comparator_work_below_sorter(self):
        # The Figure 11a scalability claim, observed dynamically.
        sort_res = run_spec(RunSpec(("gs",), 4000, arm=CoalescerKind.SORT))
        pac_res = run_spec(RunSpec(("gs",), 4000, arm=CoalescerKind.PAC))
        assert pac_res.comparisons < sort_res.comparisons

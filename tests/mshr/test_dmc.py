"""Tests for the NullCoalescer and MSHR-based DMC baselines."""

import pytest

from repro.artifacts.shm import encode_requests
from repro.common.types import MemOp, MemoryRequest
from repro.mshr.dmc import MSHRBasedDMC, NullCoalescer


def reqs(specs):
    """specs: list of (addr, op, cycle)."""
    return [MemoryRequest(addr=a, op=o, cycle=c) for a, o, c in specs]


class TestNullCoalescer:
    def test_one_packet_per_request(self, fixed_memory):
        stream = reqs([(0, MemOp.LOAD, 0), (0, MemOp.LOAD, 1), (64, MemOp.STORE, 2)])
        out = NullCoalescer(16).process(encode_requests(stream), fixed_memory)
        assert out.n_issued == 3
        assert out.coalescing_efficiency == 0.0
        assert all(p.size == 64 for p in fixed_memory.packets)

    def test_raw_transaction_efficiency_is_two_thirds(self, fixed_memory):
        # Section 5.3.2: 64B payload / 96B transaction = 66.66%.
        stream = reqs([(0, MemOp.LOAD, 0)])
        out = NullCoalescer(16).process(encode_requests(stream), fixed_memory)
        assert out.transaction_efficiency == pytest.approx(2 / 3)

    def test_mshr_pressure_stalls(self, fixed_memory):
        # 17 back-to-back requests vs 16 MSHRs with 186-cycle service:
        # the 17th must wait for a release.
        stream = reqs([(i * 4096, MemOp.LOAD, i) for i in range(17)])
        out = NullCoalescer(16).process(encode_requests(stream), fixed_memory)
        assert out.stall_cycles > 0

    def test_no_stall_when_spread_out(self, fast_memory):
        stream = reqs([(i * 4096, MemOp.LOAD, i * 100) for i in range(20)])
        out = NullCoalescer(16).process(encode_requests(stream), fast_memory)
        assert out.stall_cycles == 0


class TestMSHRBasedDMC:
    def test_same_line_merges(self, fixed_memory):
        stream = reqs([(0, MemOp.LOAD, 0), (8, MemOp.LOAD, 2)])
        # Both map to line 0 (the second is already line-aligned input in
        # practice; use same line addr).
        stream = reqs([(0, MemOp.LOAD, 0), (0, MemOp.LOAD, 2)])
        out = MSHRBasedDMC(16).process(encode_requests(stream), fixed_memory)
        assert out.n_issued == 1
        assert out.n_merged == 1
        assert out.coalescing_efficiency == pytest.approx(0.5)

    def test_adjacent_lines_do_not_merge(self, fixed_memory):
        # The defining limitation vs PAC (Section 2.2.2): adjacency is
        # invisible to conventional MSHRs.
        stream = reqs([(0, MemOp.LOAD, 0), (64, MemOp.LOAD, 1)])
        out = MSHRBasedDMC(16).process(encode_requests(stream), fixed_memory)
        assert out.n_issued == 2

    def test_op_mismatch_does_not_merge(self, fixed_memory):
        stream = reqs([(0, MemOp.LOAD, 0), (0, MemOp.STORE, 1)])
        out = MSHRBasedDMC(16).process(encode_requests(stream), fixed_memory)
        assert out.n_issued == 2

    def test_merge_window_closes_after_release(self, fast_memory):
        # Response at cycle +5 releases the entry; a request at cycle 100
        # re-misses and issues again.
        stream = reqs([(0, MemOp.LOAD, 0), (0, MemOp.LOAD, 100)])
        out = MSHRBasedDMC(16).process(encode_requests(stream), fast_memory)
        assert out.n_issued == 2

    def test_packets_fixed_64B(self, fixed_memory):
        stream = reqs([(i * 64, MemOp.LOAD, i) for i in range(8)])
        MSHRBasedDMC(16).process(encode_requests(stream), fixed_memory)
        assert all(p.size == 64 for p in fixed_memory.packets)

    def test_full_file_waits_then_may_merge(self, fixed_memory):
        # Fill all 2 MSHRs, then a same-line request arrives while full:
        # after waiting for a release it still merges if its line remains.
        stream = reqs(
            [(0, MemOp.LOAD, 0), (64, MemOp.LOAD, 1), (64, MemOp.LOAD, 2)]
        )
        out = MSHRBasedDMC(2).process(encode_requests(stream), fixed_memory)
        assert out.n_issued == 2
        assert out.n_merged == 1

    def test_comparisons_counted(self, fixed_memory):
        stream = reqs([(0, MemOp.LOAD, 0), (64, MemOp.LOAD, 1), (128, MemOp.LOAD, 2)])
        out = MSHRBasedDMC(16).process(encode_requests(stream), fixed_memory)
        # 0 + 1 + 2 occupied entries at each insert.
        assert out.comparisons == 3

    def test_stall_cycles_accumulate_as_skew(self, fixed_memory):
        stream = reqs([(i * 64, MemOp.LOAD, 0) for i in range(20)])
        out = MSHRBasedDMC(4).process(encode_requests(stream), fixed_memory)
        assert out.stall_cycles >= fixed_memory.latency
        assert out.last_completion_cycle > fixed_memory.latency

    def test_service_accounting_covers_every_request(self, fixed_memory):
        stream = reqs(
            [(0, MemOp.LOAD, 0), (0, MemOp.LOAD, 1), (64, MemOp.LOAD, 2)]
        )
        out = MSHRBasedDMC(16).process(encode_requests(stream), fixed_memory)
        assert out.raw_serviced == 3
        # Each request's data returns no sooner than the device latency.
        assert out.mean_raw_service_cycles >= fixed_memory.latency * 0.5

    def test_null_service_equals_device_latency(self, fixed_memory):
        stream = reqs([(i * 4096, MemOp.LOAD, i * 500) for i in range(4)])
        out = NullCoalescer(16).process(encode_requests(stream), fixed_memory)
        assert out.raw_serviced == 4
        assert out.mean_raw_service_cycles == pytest.approx(
            fixed_memory.latency
        )

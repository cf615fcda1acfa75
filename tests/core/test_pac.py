"""End-to-end tests for the paged adaptive coalescer."""

import pytest

from repro.artifacts.shm import encode_requests
from repro.common.types import MemOp, MemoryRequest, PAGE_BYTES
from repro.config import PACConfig
from repro.core.pac import PagedAdaptiveCoalescer
from repro.core.protocols import HBM, HMC2, HMC2_FINE
from repro.mshr.dmc import MSHRBasedDMC


def req(page, block=0, op=MemOp.LOAD, cycle=0, size=64):
    return MemoryRequest(
        addr=page * PAGE_BYTES + block * 64, op=op, cycle=cycle, size=size
    )


def pac(**kw):
    idle = kw.pop("idle_bypass", False)
    protocol = kw.pop("protocol", None)
    return PagedAdaptiveCoalescer(
        PACConfig(idle_bypass=idle, **kw), protocol=protocol
    )


class TestBasicCoalescing:
    def test_adjacent_blocks_coalesce(self, fixed_memory):
        stream = [req(1, b, cycle=b) for b in range(4)]
        out = pac().process(encode_requests(stream), fixed_memory)
        assert out.n_issued == 1
        assert fixed_memory.packets[0].size == 256
        assert out.coalescing_efficiency == pytest.approx(0.75)

    def test_pac_beats_dmc_on_adjacency(self, fixed_memory):
        # The defining advantage (Figure 1): adjacency is invisible to
        # conventional MSHRs but captured by PAC.
        stream = [req(1, b, cycle=b) for b in range(4)]
        pac_out = pac().process(encode_requests(stream), fixed_memory)
        dmc_out = MSHRBasedDMC(16).process(
            encode_requests([req(1, b, cycle=b) for b in range(4)]),
            fixed_memory,
        )
        assert pac_out.n_issued < dmc_out.n_issued

    def test_distinct_pages_do_not_coalesce(self, fixed_memory):
        stream = [req(p, 0, cycle=p) for p in range(4)]
        out = pac().process(encode_requests(stream), fixed_memory)
        assert out.n_issued == 4

    def test_loads_and_stores_separate(self, fixed_memory):
        stream = [
            req(1, 0, MemOp.LOAD, 0),
            req(1, 2, MemOp.STORE, 1),
            req(1, 1, MemOp.LOAD, 2),
            req(1, 3, MemOp.STORE, 3),
        ]
        out = pac().process(encode_requests(stream), fixed_memory)
        # Loads cover blocks 0-1, stores cover 2-3: one packet each.
        assert out.n_issued == 2
        ops = sorted(p.op for p in fixed_memory.packets)
        assert ops == [MemOp.LOAD, MemOp.STORE]

    def test_same_line_duplicates_fold(self, fixed_memory):
        stream = [req(1, 0, cycle=0), req(1, 0, cycle=1)]
        out = pac().process(encode_requests(stream), fixed_memory)
        assert out.n_issued == 1
        assert out.coalescing_efficiency == pytest.approx(0.5)

    def test_timeout_bounds_latency(self, fixed_memory):
        # Requests beyond the 16-cycle window land in a later flush.
        stream = [req(1, 0, cycle=0), req(1, 1, cycle=100)]
        out = pac(timeout_cycles=16).process(
            encode_requests(stream), fixed_memory
        )
        assert out.n_issued == 2

    def test_transaction_efficiency_improves_with_coalescing(self, fixed_memory):
        stream = [req(1, b, cycle=b) for b in range(4)]
        out = pac().process(encode_requests(stream), fixed_memory)
        assert out.transaction_efficiency == pytest.approx(256 / 288)


class TestSpecialOps:
    def test_atomic_bypasses_everything(self, fixed_memory):
        stream = [
            MemoryRequest(addr=PAGE_BYTES, op=MemOp.ATOMIC, cycle=0, size=8)
        ]
        out = pac().process(encode_requests(stream), fixed_memory)
        assert out.n_issued == 1
        assert fixed_memory.packets[0].source == "atomic"

    def test_fence_flushes_aggregation(self, fixed_memory):
        stream = [
            req(1, 0, cycle=0),
            MemoryRequest(addr=0, op=MemOp.FENCE, cycle=1),
            req(1, 1, cycle=2),
        ]
        out = pac().process(encode_requests(stream), fixed_memory)
        # The fence separates blocks 0 and 1 into two packets.
        assert out.n_issued == 2


class TestIdleBypass:
    def test_direct_path_when_idle(self, fixed_memory):
        p = pac(idle_bypass=True)
        stream = [req(1, b, cycle=b * 500) for b in range(4)]
        out = p.process(encode_requests(stream), fixed_memory)
        # Sparse arrivals with free MSHRs: the network stays disabled and
        # nothing coalesces — matching the paper's I/O-bound rationale.
        assert p.stats.count("direct_requests") == 4
        assert out.n_issued == 4

    def test_network_enables_under_pressure(self, fast_memory):
        p = pac(idle_bypass=True, n_mshrs=2, maq_entries=2)

        class SlowMemory:
            def __init__(self):
                self.packets = []

            def submit(self, packet, cycle):
                self.packets.append(packet)
                return cycle + 10_000

        mem = SlowMemory()
        stream = [req(page, 0, cycle=page) for page in range(6)]
        p.process(encode_requests(stream), mem)
        assert p.stats.count("network_enables") >= 1

    def test_direct_requests_have_unit_latency(self, fixed_memory):
        p = pac(idle_bypass=True)
        p.process(encode_requests([req(1, 0, cycle=0)]), fixed_memory)
        assert p.mean_request_latency == 1.0


class TestLatencies:
    def test_aggregated_latency_near_timeout(self, fixed_memory):
        p = pac(timeout_cycles=16)
        stream = [req(1, b, cycle=b) for b in range(4)]
        p.process(encode_requests(stream), fixed_memory)
        # First request waits the full 16 cycles; later ones less.
        assert 10 <= p.mean_request_latency <= 16

    def test_bypass_fraction(self, fixed_memory):
        p = pac()
        stream = [req(1, 0, cycle=0), req(1, 1, cycle=1), req(9, 0, cycle=2)]
        p.process(encode_requests(stream), fixed_memory)
        # Page 9's lone request bypasses: 1 of 3.
        assert p.bypass_fraction == pytest.approx(1 / 3)

    def test_stage_latencies_populated(self, fixed_memory):
        p = pac()
        stream = [req(1, b, cycle=b) for b in range(4)]
        p.process(encode_requests(stream), fixed_memory)
        assert p.mean_stage2_cycles >= 2
        assert p.mean_stage3_cycles >= 2


class TestMSHRInteraction:
    def test_packet_merges_into_covering_entry(self, fixed_memory):
        # A 256B packet in flight; a later 64B packet inside its span
        # merges instead of re-requesting.
        p = pac(timeout_cycles=4)
        stream = [req(1, b, cycle=b) for b in range(4)]
        stream.append(req(1, 1, cycle=30))  # within MSHR residency (186)
        out = p.process(encode_requests(stream), fixed_memory)
        assert out.n_issued == 1
        assert p.stats.count("mshr_packet_merges") == 1

    def test_mshr_pressure_stalls(self):
        class Slow:
            def __init__(self):
                self.packets = []

            def submit(self, packet, cycle):
                self.packets.append(packet)
                return cycle + 100_000

        p = pac(n_mshrs=2, maq_entries=2, timeout_cycles=2)
        stream = [req(page, 0, cycle=page * 3) for page in range(8)]
        out = p.process(encode_requests(stream), Slow())
        assert out.stall_cycles > 0

    def test_efficiency_counts_mshr_merges(self, fixed_memory):
        p = pac(timeout_cycles=4)
        stream = [req(1, b, cycle=b) for b in range(4)]
        stream.append(req(1, 1, cycle=30))
        out = p.process(encode_requests(stream), fixed_memory)
        # 5 raw -> 1 issued.
        assert out.coalescing_efficiency == pytest.approx(0.8)


class TestProtocolPortability:
    def test_hbm_row_sized_packets(self, fixed_memory):
        # Section 4.1: with the HBM protocol the same logic emits packets
        # up to the 1KB row.
        p = pac(protocol=HBM, timeout_cycles=64)
        stream = [
            MemoryRequest(addr=PAGE_BYTES + g * 32, size=32, cycle=g)
            for g in range(32)
        ]
        out = p.process(encode_requests(stream), fixed_memory)
        assert out.n_issued == 1
        assert fixed_memory.packets[0].size == 1024

    def test_fine_grain_small_packets(self, fixed_memory):
        # Figure 10b mode: 8B raw requests -> 16B packets.
        p = pac(protocol=HMC2_FINE)
        stream = [
            MemoryRequest(addr=PAGE_BYTES, size=8, cycle=0),
            MemoryRequest(addr=PAGE_BYTES + 512, size=8, cycle=1),
        ]
        out = p.process(encode_requests(stream), fixed_memory)
        assert out.n_issued == 2
        assert all(pk.size == 16 for pk in fixed_memory.packets)

    def test_fine_grain_adjacent_flits_merge(self, fixed_memory):
        p = pac(protocol=HMC2_FINE)
        stream = [
            MemoryRequest(addr=PAGE_BYTES + i * 16, size=8, cycle=i)
            for i in range(4)
        ]
        out = p.process(encode_requests(stream), fixed_memory)
        assert out.n_issued == 1
        assert fixed_memory.packets[0].size == 64

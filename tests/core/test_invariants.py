"""Property-based invariants of the coalescing pipeline.

Hypothesis drives randomized raw request streams through PAC and the
baselines against a fixed-latency memory stub, checking conservation
laws that must hold for *any* input:

* every raw request is serviced exactly once (appears in an issued
  packet's constituents or is accounted as a merge);
* packets of one flush never overlap;
* every packet size is protocol-legal and within one page;
* efficiency bounds: 0 <= Eq.1 < 1; Eq.2 in (0, 1);
* DMC conservation: issued + merged == raw.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.artifacts.shm import encode_requests
from repro.common.types import MemOp, MemoryRequest, PAGE_BYTES
from repro.config import PACConfig
from repro.core.pac import PagedAdaptiveCoalescer
from repro.core.protocols import HBM, HMC1, HMC2
from repro.mshr.dmc import MSHRBasedDMC, NullCoalescer, RecordingDevice
from tests.conftest import FixedLatencyMemory


def recording_memory(latency=50):
    """A fixed-latency stub whose ``submits`` keep every packet."""
    return RecordingDevice(FixedLatencyMemory(latency))


def packets(memory):
    return [packet for packet, _ in memory.submits]


def assert_totals_match(out, memory):
    """The outcome's totals count what the device received."""
    assert out.n_issued == len(memory.submits)
    assert out.payload_bytes == sum(p.size for p in packets(memory))


@st.composite
def request_streams(draw):
    """Randomized line-granular raw request streams (cycle-ordered)."""
    n = draw(st.integers(min_value=1, max_value=60))
    n_pages = draw(st.integers(min_value=1, max_value=6))
    pages = draw(
        st.lists(
            st.integers(min_value=0, max_value=1 << 20),
            min_size=n_pages, max_size=n_pages, unique=True,
        )
    )
    reqs = []
    cycle = 0
    for _ in range(n):
        cycle += draw(st.integers(min_value=0, max_value=20))
        page = draw(st.sampled_from(pages))
        block = draw(st.integers(min_value=0, max_value=63))
        op = draw(st.sampled_from([MemOp.LOAD, MemOp.STORE]))
        reqs.append(
            MemoryRequest(
                addr=page * PAGE_BYTES + block * 64,
                size=64, op=op, cycle=cycle,
            )
        )
    return reqs


def fresh_pac(protocol=HMC2, idle_bypass=False, timeout=16):
    return PagedAdaptiveCoalescer(
        PACConfig(idle_bypass=idle_bypass, timeout_cycles=timeout),
        protocol=protocol,
    )


COMMON_SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestPACConservation:
    @given(request_streams())
    @settings(**COMMON_SETTINGS)
    def test_every_request_serviced_exactly_once(self, reqs):
        memory = recording_memory()
        pac = fresh_pac()
        out = pac.process(encode_requests(reqs), memory)
        serviced = Counter()
        for packet in packets(memory):
            serviced.update(packet.constituents)
        # Merged requests are satisfied by an in-flight packet; they do
        # not appear in issued constituents.
        assert sum(serviced.values()) + out.n_merged == len(reqs)
        assert all(count == 1 for count in serviced.values())

    @given(request_streams())
    @settings(**COMMON_SETTINGS)
    def test_issued_counts_consistent(self, reqs):
        memory = recording_memory()
        out = fresh_pac().process(encode_requests(reqs), memory)
        assert_totals_match(out, memory)
        assert out.n_raw == len(reqs)
        assert 0 <= out.coalescing_efficiency < 1

    @given(request_streams())
    @settings(**COMMON_SETTINGS)
    def test_packets_legal_and_in_page(self, reqs):
        memory = recording_memory()
        fresh_pac().process(encode_requests(reqs), memory)
        for packet, _ in memory.submits:
            assert packet.size in HMC2.legal_packet_bytes
            assert packet.addr % HMC2.grain_bytes == 0
            # Never crosses a page boundary.
            assert packet.addr // PAGE_BYTES == (
                (packet.addr + packet.size - 1) // PAGE_BYTES
            )

    @given(request_streams())
    @settings(**COMMON_SETTINGS)
    def test_packets_never_overlap_per_op(self, reqs):
        # Two in-flight packets of the same op never cover the same
        # block twice *within one flush group* — and globally, any two
        # issued packets with a common constituent are impossible.
        memory = recording_memory()
        fresh_pac().process(encode_requests(reqs), memory)
        seen_ids = set()
        for packet, _ in memory.submits:
            for rid in packet.constituents:
                assert rid not in seen_ids
                seen_ids.add(rid)

    @given(request_streams())
    @settings(**COMMON_SETTINGS)
    def test_transaction_efficiency_bounds(self, reqs):
        out = fresh_pac().process(encode_requests(reqs), recording_memory())
        if out.n_issued:
            assert 0 < out.transaction_efficiency < 1

    @given(request_streams(), st.sampled_from([HMC1, HMC2, HBM]))
    @settings(**COMMON_SETTINGS)
    def test_protocol_legality_portable(self, reqs, protocol):
        memory = recording_memory()
        fresh_pac(protocol=protocol).process(encode_requests(reqs), memory)
        for packet, _ in memory.submits:
            assert packet.size in protocol.legal_packet_bytes

    @given(request_streams())
    @settings(**COMMON_SETTINGS)
    def test_idle_bypass_conserves_too(self, reqs):
        memory = recording_memory()
        out = fresh_pac(idle_bypass=True).process(
            encode_requests(reqs), memory
        )
        serviced = sum(len(p.constituents) for p in packets(memory))
        assert serviced + out.n_merged == len(reqs)
        assert_totals_match(out, memory)

    @given(request_streams(), st.integers(min_value=1, max_value=64))
    @settings(**COMMON_SETTINGS)
    def test_timeout_invariance_of_conservation(self, reqs, timeout):
        memory = recording_memory()
        out = fresh_pac(timeout=timeout).process(
            encode_requests(reqs), memory
        )
        serviced = sum(len(p.constituents) for p in packets(memory))
        assert serviced + out.n_merged == len(reqs)
        assert_totals_match(out, memory)


class TestBaselineConservation:
    @given(request_streams())
    @settings(**COMMON_SETTINGS)
    def test_null_is_identity(self, reqs):
        memory = recording_memory()
        out = NullCoalescer(16).process(encode_requests(reqs), memory)
        assert out.n_issued == len(reqs)
        assert out.coalescing_efficiency == 0.0
        assert_totals_match(out, memory)

    @given(request_streams())
    @settings(**COMMON_SETTINGS)
    def test_dmc_conservation(self, reqs):
        memory = recording_memory()
        out = MSHRBasedDMC(16).process(encode_requests(reqs), memory)
        assert out.n_issued + out.n_merged == len(reqs)
        assert all(p.size == 64 for p in packets(memory))
        assert_totals_match(out, memory)

    @given(request_streams())
    @settings(**COMMON_SETTINGS)
    def test_pac_never_issues_more_than_null(self, reqs):
        pac_out = fresh_pac().process(
            encode_requests(reqs), recording_memory()
        )
        null_out = NullCoalescer(16).process(
            encode_requests(reqs), recording_memory()
        )
        assert pac_out.n_issued <= null_out.n_issued

    @given(request_streams())
    @settings(**COMMON_SETTINGS)
    def test_completion_cycles_monotone(self, reqs):
        memory = recording_memory()
        out = fresh_pac().process(encode_requests(reqs), memory)
        assert out.last_completion_cycle >= 0
        for packet, cycle in memory.submits:
            assert cycle >= 0

"""White-box tests for PAC internals: controller hysteresis, MAQ
backpressure, occupancy sampling, and the private-coalescer variant."""

import pytest

from repro.artifacts.shm import encode_requests
from repro.common.types import MemOp, MemoryRequest, PAGE_BYTES
from repro.config import PACConfig
from repro.core.pac import PagedAdaptiveCoalescer
from repro.core.private import PrivateCoalescerArray


class SlowMemory:
    def __init__(self, latency=100_000):
        self.latency = latency
        self.packets = []

    def submit(self, packet, cycle):
        self.packets.append(packet)
        return cycle + self.latency


class FastMemory(SlowMemory):
    def __init__(self):
        super().__init__(latency=5)


def req(page, block=0, cycle=0, core=0):
    return MemoryRequest(
        addr=page * PAGE_BYTES + block * 64, cycle=cycle, core_id=core
    )


class TestControllerHysteresis:
    def test_starts_disabled_with_idle_bypass(self):
        pac = PagedAdaptiveCoalescer(PACConfig(idle_bypass=True))
        assert not pac.network_enabled

    def test_starts_enabled_without(self):
        pac = PagedAdaptiveCoalescer(PACConfig(idle_bypass=False))
        assert pac.network_enabled

    def test_enable_then_disable_cycle(self):
        pac = PagedAdaptiveCoalescer(
            PACConfig(idle_bypass=True, n_mshrs=2, maq_entries=2)
        )
        # Burst fills the 2 MSHRs -> network enables; after the lull the
        # MAQ drains, MSHRs free -> network disables again.
        stream = [req(p, cycle=p) for p in range(6)]
        stream.append(req(99, cycle=10_000_000))
        pac.process(encode_requests(stream), SlowMemory(latency=50))
        assert pac.stats.count("network_enables") >= 1
        assert pac.stats.count("network_disables") >= 1

    def test_disabled_network_never_aggregates(self):
        pac = PagedAdaptiveCoalescer(PACConfig(idle_bypass=True))
        # Sparse arrivals: always direct, aggregator untouched.
        stream = [req(p, cycle=p * 10_000) for p in range(5)]
        pac.process(encode_requests(stream), FastMemory())
        assert pac.aggregator.stats.count("allocations") == 0
        assert pac.stats.count("direct_requests") == 5


class TestMAQBackpressure:
    def test_pipeline_stall_counted(self):
        pac = PagedAdaptiveCoalescer(
            PACConfig(idle_bypass=False, n_mshrs=1, maq_entries=1,
                      timeout_cycles=1)
        )
        stream = [req(p, cycle=p * 2) for p in range(8)]
        out = pac.process(encode_requests(stream), SlowMemory())
        assert pac.stats.count("pipeline_stall_cycles") > 0
        assert out.stall_cycles > 0

    def test_forced_drain_preserves_conservation(self):
        pac = PagedAdaptiveCoalescer(
            PACConfig(idle_bypass=False, n_mshrs=1, maq_entries=1,
                      timeout_cycles=1)
        )
        stream = [req(p, cycle=p * 2) for p in range(8)]
        out = pac.process(encode_requests(stream), SlowMemory())
        serviced = sum(len(p.constituents) for p in out.issued)
        assert serviced + out.n_merged == len(stream)


class TestOccupancySampling:
    def test_samples_every_16_cycles(self):
        pac = PagedAdaptiveCoalescer(PACConfig(idle_bypass=False))
        stream = [req(1, b, cycle=b * 4) for b in range(4)]
        stream.append(req(2, cycle=160))
        pac.process(encode_requests(stream), FastMemory())
        hist = pac.aggregator.stats.histogram("occupancy_samples")
        assert hist.total >= 10  # 160 cycles / 16

    def test_mean_active_streams_excludes_idle(self):
        pac = PagedAdaptiveCoalescer(PACConfig(idle_bypass=False))
        # One short burst then a very long idle stretch of zero samples.
        stream = [req(1, b, cycle=b) for b in range(3)]
        stream.append(req(2, cycle=100_000))
        pac.process(encode_requests(stream), FastMemory())
        assert pac.mean_active_streams >= 1.0


class TestFlushOrdering:
    def test_streams_flush_in_deadline_order(self):
        issued_order = []

        class OrderMemory(FastMemory):
            def submit(self, packet, cycle):
                issued_order.append(packet.addr // PAGE_BYTES)
                return super().submit(packet, cycle)

        pac = PagedAdaptiveCoalescer(
            PACConfig(idle_bypass=False, timeout_cycles=8)
        )
        stream = [req(1, cycle=0), req(2, cycle=4), req(3, cycle=6)]
        pac.process(encode_requests(stream), OrderMemory())
        assert issued_order == [1, 2, 3]

    def test_forced_flush_is_oldest_stream(self):
        pac = PagedAdaptiveCoalescer(
            PACConfig(idle_bypass=False, n_streams=2, timeout_cycles=1000)
        )
        stream = [req(1, cycle=0), req(2, cycle=1), req(3, cycle=2)]
        memory = FastMemory()
        pac.process(encode_requests(stream), memory)
        # Page 1's stream (oldest) was force-flushed first.
        assert memory.packets[0].addr // PAGE_BYTES == 1


class TestPrivateCoalescerArray:
    def test_invalid_cores(self):
        with pytest.raises(ValueError):
            PrivateCoalescerArray(n_cores=0)

    def test_hardware_split(self):
        arr = PrivateCoalescerArray(n_cores=8, config=PACConfig())
        assert arr.coalescers[0].config.n_streams == 2
        assert arr.coalescers[0].config.n_mshrs == 2
        assert len(arr.coalescers) == 8

    def test_partition_by_core(self):
        arr = PrivateCoalescerArray(n_cores=2, config=PACConfig())
        stream = [
            req(1, 0, cycle=0, core=0),
            req(1, 1, cycle=1, core=1),  # same page, different core
        ]
        out = arr.process(encode_requests(stream), FastMemory())
        # Private coalescers cannot merge across cores.
        assert out.n_issued == 2

    def test_conservation(self):
        arr = PrivateCoalescerArray(n_cores=4, config=PACConfig())
        stream = [
            req(p % 3, b % 4, cycle=i, core=i % 4)
            for i, (p, b) in enumerate((i * 7 % 5, i) for i in range(40))
        ]
        out = arr.process(encode_requests(stream), FastMemory())
        serviced = sum(len(p.constituents) for p in out.issued)
        assert serviced + out.n_merged == len(stream)

    def test_shared_merges_what_private_cannot(self):
        shared = PagedAdaptiveCoalescer(PACConfig(idle_bypass=False))
        private = PrivateCoalescerArray(n_cores=2, config=PACConfig())
        stream = [
            req(1, 0, cycle=0, core=0),
            req(1, 1, cycle=1, core=1),
        ]
        shared_out = shared.process(encode_requests(stream), FastMemory())
        private_out = private.process(encode_requests(stream), FastMemory())
        assert shared_out.n_issued == 1
        assert private_out.n_issued == 2

"""HMC per-packet latency breakdown, recorded as device spans.

With a :class:`~repro.telemetry.SpanRecorder`, the device records one
:class:`~repro.telemetry.PacketSpan` per packet that carries a tracked
request: its vault, link, and the link_wait/route/vault_wait/dram/
response segments between submission and completion.
"""

from repro.common.types import CoalescedRequest, MemOp
from repro.hmc.device import HMCDevice
from repro.telemetry import SpanRecorder


def traced_device(recorder=None):
    recorder = recorder if recorder is not None else SpanRecorder(
        sample_rate=1, seed=1
    )
    return HMCDevice(spans=recorder), recorder


def submit_tracked(dev, recorder, addr=0, cycle=0, size=64):
    """Admit one request into ``recorder`` and submit it as a packet."""
    index = len(recorder._by_req)
    recorder.admit(index, addr, 0, MemOp.LOAD, cycle, cycle)
    packet = CoalescedRequest(
        addr=addr, size=size, op=MemOp.LOAD, constituents=(index,)
    )
    return dev.submit(packet, cycle)


def packet_spans(recorder):
    """Packet spans in submission order (each carries one request)."""
    return sorted(recorder.finalize().packets, key=lambda p: p.tracked)


class TestDeviceIntegration:
    def test_disabled_by_default(self):
        dev = HMCDevice()
        assert not dev._spans_on
        dev.submit(
            CoalescedRequest(addr=0, size=64, op=MemOp.LOAD,
                             constituents=(1,)),
            0,
        )

    def test_enabled_records_every_packet(self):
        dev, recorder = traced_device()
        for i in range(5):
            submit_tracked(dev, recorder, addr=i * 256)
        assert len(packet_spans(recorder)) == 5

    def test_breakdown_sums_to_latency(self):
        """The segments tile [start, completion]: contiguous, in order,
        and summing to the packet's latency."""
        dev, recorder = traced_device()
        completions = [
            submit_tracked(dev, recorder, addr=i * 64, cycle=i)
            for i in range(40)
        ]
        spans = packet_spans(recorder)
        assert [s.completion for s in spans] == completions
        for span in spans:
            names = [name for name, _, _ in span.segments]
            assert names == [
                "link_wait", "route", "vault_wait", "dram", "response"
            ]
            cursor = span.start
            for _, start, end in span.segments:
                assert start == cursor and end >= start
                cursor = end
            assert cursor == span.completion

    def test_vault_heat_matches_address_map(self):
        dev, recorder = traced_device()
        addrs = [0, 256, 4096, 1 << 20, (1 << 20) + 256]
        for addr in addrs:
            submit_tracked(dev, recorder, addr=addr)
        vaults = [span.vault for span in packet_spans(recorder)]
        assert vaults == [dev.address_map.locate(a).vault for a in addrs]
        assert {0, 1} <= set(vaults)

    def test_dram_component_dominates_unloaded(self):
        dev, recorder = traced_device()
        submit_tracked(dev, recorder)
        (span,) = packet_spans(recorder)
        cycles = {name: end - start for name, start, end in span.segments}
        assert cycles["dram"] >= max(
            cycles["link_wait"], cycles["route"], cycles["response"]
        )

    def test_custom_recorder_instance(self):
        recorder = SpanRecorder(sample_rate=1, seed=5)
        dev, same = traced_device(recorder)
        assert same is recorder
        for i in range(4):
            submit_tracked(dev, recorder, addr=i * 256)
        assert len(recorder._packets) == 4

"""The flat null and DMC arms equal a per-request loop over MSHRFile.

:class:`ReferenceArm` is the arms' specification: one request at a time
through :class:`~repro.mshr.file.MSHRFile`'s public methods, with an
entry object per miss and a subentry per merge. The property below
holds both flat arms equal to it on packed raw streams that carry
atomics, fences, same-line load/store pairs and MSHR-full stalls, on a
fixed-latency stub and on the reference :class:`HMCDevice`: the same
outcome totals, packets submitted to the device (with their cycles),
coalescer counters, ``*.mshr.*`` probes and spans.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.artifacts.shm import decode_requests, encode_requests
from repro.common.types import (
    CACHE_LINE_BYTES,
    CoalescedRequest,
    MemOp,
    MemoryRequest,
)
from repro.hmc.device import HMCDevice
from repro.mshr.dmc import (
    Coalescer,
    CoalesceOutcome,
    MSHRBasedDMC,
    NullCoalescer,
    RecordingDevice,
)
from repro.mshr.file import MSHRFile
from repro.telemetry import (
    NULL_SPANS,
    NULL_TELEMETRY,
    SpanRecorder,
    TelemetryRegistry,
)
from tests.conftest import FixedLatencyMemory


class ReferenceArm(Coalescer):
    """Null (``merging=False``) or DMC arm, request by request."""

    def __init__(
        self, merging: bool, n_mshrs: int, probes=NULL_TELEMETRY,
        spans=NULL_SPANS,
    ) -> None:
        super().__init__("dmc" if merging else "null")
        self.merging = merging
        self.mshrs = MSHRFile(n_mshrs)
        self._probes_on = probes.enabled
        mshr_probes = probes.scope("mshr")
        self._t_occupancy = mshr_probes.gauge("occupancy")
        if merging:
            self._t_merges = mshr_probes.counter("merges")
        self._spans = spans
        self._spans_on = spans.enabled

    def _merge(self, req, line, now, out, probe: bool) -> bool:
        """Attach ``req`` to a same-line, same-op in-flight entry."""
        entry = self.mshrs.lookup(line)
        if entry is None or entry.op != req.op:
            return False
        self.mshrs.attach(entry, req.req_id, line)
        self.stats.counter("merged").add()
        if probe and self._probes_on:
            self._t_merges.add(now)
        out.n_merged += 1
        out.stall_cycles += now - req.cycle
        out.account_service(now, entry.release_cycle)
        if self._spans_on:
            self._spans.admit(
                req.req_id, req.addr, req.core_id, req.op, req.cycle, now
            )
            self._spans.mark(req.req_id, "mshr", entry.release_cycle)
        return True

    def process(self, raw, memory) -> CoalesceOutcome:
        out = CoalesceOutcome()
        mshrs = self.mshrs
        if self.merging:
            self.stats.counter("merged")
        entry_clock = 0
        for req in decode_requests(raw):
            now = max(req.cycle, entry_clock)
            if req.op is MemOp.ATOMIC:
                if self._spans_on:
                    self._spans.admit(
                        req.req_id, req.addr, req.core_id, req.op,
                        req.cycle, now,
                    )
                self._submit_atomic(
                    req.addr, req.size, req.req_id, now, memory, out
                )
                entry_clock = now + 1
                continue
            if req.op is MemOp.FENCE:
                continue
            mshrs.advance(now)
            line = req.addr - req.addr % CACHE_LINE_BYTES
            if self.merging:
                out.comparisons += mshrs.occupancy + mshrs.n_subentries
                if self._probes_on:
                    self._t_occupancy.observe(now, mshrs.occupancy)
                if self._merge(req, line, now, out, probe=True):
                    entry_clock = now + 1
                    continue
            if mshrs.full:
                now = max(now, mshrs.next_release_cycle())
                mshrs.advance(now)
                if self.merging and self._merge(
                    req, line, now, out, probe=False
                ):
                    entry_clock = now + 1
                    continue
            out.stall_cycles += now - req.cycle
            entry_clock = now + 1
            if self._spans_on:
                self._spans.admit(
                    req.req_id, req.addr, req.core_id, req.op, req.cycle, now
                )
            slot, _ = mshrs.allocate(line, req.op, now)
            if self._probes_on and not self.merging:
                self._t_occupancy.observe(now, mshrs.occupancy)
            packet = CoalescedRequest(
                addr=line, size=CACHE_LINE_BYTES, op=req.op,
                constituents=(req.req_id,), issue_cycle=now,
                source="dmc" if self.merging else "null",
            )
            completion = memory.submit(packet, now)
            mshrs.schedule_release(slot, completion)
            out.n_issued += 1
            out.payload_bytes += packet.size
            out.last_completion_cycle = max(
                out.last_completion_cycle, completion
            )
            out.account_service(now, completion)
            if self._spans_on:
                self._spans.mark(req.req_id, "device", completion)
        out.n_raw = len(raw)
        return out


_OPS = [MemOp.LOAD] * 5 + [MemOp.STORE] * 3 + [MemOp.ATOMIC, MemOp.FENCE]


@st.composite
def raw_streams(draw):
    """Bursty requests over a few lines: same-line load/store pairs,
    atomics, fences and, with few MSHRs, full-file stalls."""
    n = draw(st.integers(1, 80))
    cycle = 0
    reqs = []
    for _ in range(n):
        cycle += draw(st.integers(0, 40))
        page = draw(st.integers(0, 3))
        reqs.append(
            MemoryRequest(
                addr=page * 4096 + draw(st.integers(0, 1)) * 64
                + draw(st.integers(0, 7)) * 8,
                size=draw(st.sampled_from((8, 16, 64))),
                op=draw(st.sampled_from(_OPS)),
                core_id=draw(st.integers(0, 3)),
                cycle=cycle,
            )
        )
    return encode_requests(reqs)


def _run(arm_cls, raw, device, n_mshrs, merging):
    registry = TelemetryRegistry()
    recorder = SpanRecorder(sample_rate=1, seed=3)
    scope = registry.scope("dmc" if merging else "none")
    if arm_cls is ReferenceArm:
        arm = ReferenceArm(merging, n_mshrs, probes=scope, spans=recorder)
    else:
        arm = arm_cls(n_mshrs, probes=scope, spans=recorder)
    memory = RecordingDevice(device(recorder))
    out = arm.process(raw, memory)
    assert out.n_issued == len(memory.submits)
    assert out.payload_bytes == sum(p.size for p, _ in memory.submits)
    mshr_probes = {
        name: probe for name, probe in registry.as_dict()["probes"].items()
        if ".mshr." in name
    }
    return (
        out, memory.submits, arm.stats.as_dict(), mshr_probes,
        recorder.finalize(),
    )


@settings(max_examples=150, deadline=None)
@given(
    raw=raw_streams(),
    n_mshrs=st.integers(1, 4),
    merging=st.booleans(),
    latency=st.one_of(st.none(), st.integers(1, 300)),
)
def test_flat_arm_equals_reference_loop(raw, n_mshrs, merging, latency):
    if latency is None:
        device = lambda spans: HMCDevice(spans=spans)  # noqa: E731
    else:
        device = lambda spans: FixedLatencyMemory(latency)  # noqa: E731
    flat_cls = MSHRBasedDMC if merging else NullCoalescer
    flat = _run(flat_cls, raw, device, n_mshrs, merging)
    ref = _run(ReferenceArm, raw, device, n_mshrs, merging)
    assert flat[0] == ref[0]  # outcome totals
    assert flat[1] == ref[1]  # submitted packets and their cycles
    assert flat[2:] == ref[2:]  # counters, mshr probes, spans

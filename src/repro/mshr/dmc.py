"""Coalescer interface and the two baselines from the paper's evaluation.

* :class:`NullCoalescer` — "a standard HMC controller without request
  aggregation" (Section 5.3.6): every raw request becomes one 64B packet.
* :class:`MSHRBasedDMC` — the conventional dynamic memory coalescing
  model: misses to a line already held by an in-flight MSHR entry are
  attached as subentries; every new entry immediately dispatches a fixed
  64B request (Section 2.2.2).

Timing model
------------
Coalescers consume the raw request stream in cycle order and drive the
memory device directly. Admission into the miss-handling structure is
paced at one request per cycle; when a structural hazard blocks progress
(all MSHRs busy with nothing to merge into), the *entry clock* advances
to the next release and the backlog of raw requests bunches up behind
it — exactly how a blocked cache's miss queue drains in a burst when the
stall clears. ``stall_cycles`` accumulates the total exposed queueing
delay (entry time minus trace arrival time); the run's effective runtime
is the later of the trace end and the last memory response, which is
what the Figure 15 performance comparison uses.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from heapq import heappush
from typing import List, Protocol

import numpy as np

from repro.artifacts.shm import OPS, columns
from repro.common.stats import StatsRegistry
from repro.common.types import (
    CACHE_LINE_BYTES,
    HMC_CONTROL_OVERHEAD_BYTES,
    CoalescedRequest,
    MemOp,
    new_packet,
)
from repro.mshr.entry import new_entry
from repro.mshr.file import MSHRFile
from repro.telemetry import NULL_SPANS, NULL_TELEMETRY


class MemoryDevice(Protocol):
    """What a coalescer needs from the memory side: submit a packet at a
    cycle, get back the response-arrival cycle."""

    def submit(self, packet: CoalescedRequest, cycle: int) -> int: ...


@dataclass
class CoalesceOutcome:
    """Aggregate result of streaming one raw request stream through a
    coalescer into a memory device."""

    n_raw: int = 0
    n_issued: int = 0
    n_merged: int = 0
    issued: List[CoalescedRequest] = field(default_factory=list)
    last_completion_cycle: int = 0
    stall_cycles: int = 0
    comparisons: int = 0
    #: Exact per-raw service accounting: sum over raw requests of
    #: (covering packet's completion - the raw request's trace arrival),
    #: and how many raw requests were so accounted. Feeds the
    #: latency-bound runtime model.
    raw_service_cycles: int = 0
    raw_serviced: int = 0

    @property
    def coalescing_efficiency(self) -> float:
        """Equation 1: reduced requests / total raw requests."""
        if self.n_raw == 0:
            return 0.0
        return (self.n_raw - self.n_issued) / self.n_raw

    @property
    def payload_bytes(self) -> int:
        return sum(p.size for p in self.issued)

    @property
    def transaction_bytes(self) -> int:
        # Every transaction moves its payload plus the fixed 32B of
        # request+response control headers, so the per-packet
        # ``transaction_bytes()`` sum collapses to one multiply.
        return self.payload_bytes + HMC_CONTROL_OVERHEAD_BYTES * len(
            self.issued
        )

    @property
    def transaction_efficiency(self) -> float:
        """Equation 2 over the whole run."""
        total = self.transaction_bytes
        return self.payload_bytes / total if total else 0.0

    @property
    def mean_raw_service_cycles(self) -> float:
        """Mean cycles from a raw request's arrival to its data return."""
        if not self.raw_serviced:
            return 0.0
        return self.raw_service_cycles / self.raw_serviced

    def account_service(self, arrival: int, completion: int) -> None:
        self.raw_service_cycles += max(0, completion - arrival)
        self.raw_serviced += 1


class Coalescer(abc.ABC):
    """Streams raw LLC requests into coalesced packets on a memory device."""

    def __init__(self, name: str) -> None:
        self.stats = StatsRegistry(name)
        # Span tracer wiring; subclasses overwrite when handed a live
        # recorder. Kept on the base so `_submit_atomic` can stamp.
        self._spans = NULL_SPANS
        self._spans_on = False

    @abc.abstractmethod
    def process(
        self, raw: np.ndarray, memory: MemoryDevice
    ) -> CoalesceOutcome:
        """Stream ``raw`` — a packed :data:`~repro.artifacts.shm.REQ_DTYPE`
        array, each request's id its ordinal — into ``memory``."""

    def _submit_atomic(
        self, addr: int, size: int, req_id: int, now: int,
        memory: MemoryDevice, out: CoalesceOutcome,
    ) -> None:
        """Route an atomic straight to the memory controller, uncoalesced
        (Section 3.3.1) — common to every miss-handling arm."""
        packet = CoalescedRequest(
            addr=addr - (addr % 16), size=max(16, size), op=MemOp.STORE,
            constituents=(req_id,), issue_cycle=now, source="atomic",
        )
        completion = memory.submit(packet, now)
        out.issued.append(packet)
        out.n_issued += 1
        out.last_completion_cycle = max(out.last_completion_cycle, completion)
        out.account_service(now, completion)
        if self._spans_on:
            self._spans.mark(req_id, "device", completion)
        self.stats.counter("atomics").add()


class NullCoalescer(Coalescer):
    """Pass-through controller: one fixed-size packet per raw request,
    gated only by MSHR availability."""

    def __init__(
        self, n_mshrs: int = 16, probes=NULL_TELEMETRY, spans=NULL_SPANS
    ) -> None:
        super().__init__("null")
        self.mshrs = MSHRFile(n_mshrs, name="null.mshr")
        self._probes_on = probes.enabled
        self._t_occupancy = probes.scope("mshr").gauge("occupancy")
        self._spans = spans
        self._spans_on = spans.enabled

    def process(self, raw, memory) -> CoalesceOutcome:
        out = CoalesceOutcome()
        entry_clock = 0
        spans = self._spans
        spans_on = self._spans_on
        mshrs = self.mshrs
        probes_on = self._probes_on
        submit = memory.submit
        issued_append = out.issued.append
        atomic_op = int(MemOp.ATOMIC)
        fence_op = int(MemOp.FENCE)
        line_bytes = CACHE_LINE_BYTES
        # Peek at the release heap before calling advance: a no-release
        # advance has no side effects, and most cycles have none due.
        # Allocation and release scheduling are inlined below (same state
        # transitions as MSHRFile.allocate / schedule_release, which stay
        # canonical for direct users): the line address is aligned by
        # construction, so the file's alignment check is redundant here.
        release_heap = mshrs._release_heap
        slots = mshrs._slots
        line_index = mshrs._line_index
        next_slot = mshrs._next_slot
        c_allocations = mshrs._c_allocations
        n_entries = mshrs.n_entries
        # Outcome counters run as locals (a per-request dataclass
        # attribute update costs a dict store each); written back below.
        stall_cycles = 0
        n_issued = 0
        last_completion = out.last_completion_cycle
        raw_service = 0
        raw_serviced = 0
        addrs, sizes, ops, cores, cycles = columns(raw)
        for rid, (addr, op, cycle) in enumerate(zip(addrs, ops, cycles)):
            now = cycle if cycle > entry_clock else entry_clock
            if op == atomic_op:
                if spans_on:
                    spans.admit(rid, addr, cores[rid], op, cycle, now)
                # _submit_atomic works on `out` directly: sync the local
                # counters around it (atomics are rare).
                out.n_issued = n_issued
                out.last_completion_cycle = last_completion
                out.raw_service_cycles = raw_service
                out.raw_serviced = raw_serviced
                self._submit_atomic(addr, sizes[rid], rid, now, memory, out)
                n_issued = out.n_issued
                last_completion = out.last_completion_cycle
                raw_service = out.raw_service_cycles
                raw_serviced = out.raw_serviced
                entry_clock = now + 1
                continue
            if op == fence_op:
                continue  # ordering only; nothing buffered to drain
            if release_heap and release_heap[0][0] <= now:
                mshrs.advance(now)
            if len(slots) >= n_entries:
                release = mshrs.next_release_cycle()
                assert release is not None, "full MSHR file with no releases"
                if release > now:
                    now = release
                mshrs.advance(now)
            stall_cycles += now - cycle
            entry_clock = now + 1  # one admission per cycle
            if spans_on:
                # Queue span covers trace arrival through the MSHR-full
                # wait; allocation+dispatch are same-cycle.
                spans.admit(rid, addr, cores[rid], op, cycle, now)
            line_addr = addr - addr % line_bytes
            op = OPS[op]
            entry = new_entry(line_addr, op, 1, now)
            slot = next(next_slot)
            slots[slot] = entry
            line_index[line_addr] = slot
            c_allocations.value += 1
            if probes_on:
                self._t_occupancy.observe(now, len(slots))
            packet = new_packet(
                line_addr, line_bytes, op, (rid,), now, "null"
            )
            completion = submit(packet, now)
            entry.release_cycle = completion
            heappush(release_heap, (completion, slot))
            issued_append(packet)
            n_issued += 1
            if completion > last_completion:
                last_completion = completion
            if completion > now:
                raw_service += completion - now
            raw_serviced += 1
            if spans_on:
                spans.mark(rid, "device", completion)
        out.n_raw = len(raw)
        out.stall_cycles += stall_cycles
        out.n_issued = n_issued
        out.last_completion_cycle = last_completion
        out.raw_service_cycles = raw_service
        out.raw_serviced = raw_serviced
        return out


class MSHRBasedDMC(Coalescer):
    """Conventional MSHR-based dynamic memory coalescing.

    Same-line, same-op misses merge into the in-flight entry; everything
    else allocates and immediately dispatches a fixed 64B request —
    "these coalesced requests are always fixed at 64B, regardless of any
    adjacency between the raw requests" (Section 2.2.2).
    """

    def __init__(
        self, n_mshrs: int = 16, probes=NULL_TELEMETRY, spans=NULL_SPANS
    ) -> None:
        super().__init__("dmc")
        self.mshrs = MSHRFile(n_mshrs, name="dmc.mshr")
        self._probes_on = probes.enabled
        mshr_probes = probes.scope("mshr")
        self._t_occupancy = mshr_probes.gauge("occupancy")
        self._t_merges = mshr_probes.counter("merges")
        self._spans = spans
        self._spans_on = spans.enabled

    def _try_merge(self, req_id: int, op: MemOp, line_addr: int):
        """Attach request ``req_id`` to a same-line, same-op in-flight
        entry; returns the entry merged into, or None. Goes through the
        file-level attach so the cached subentry count stays exact."""
        entry = self.mshrs.lookup(line_addr)
        if entry is not None and entry.op == op:
            self.mshrs.attach(entry, req_id, line_addr)
            return entry
        return None

    def process(self, raw, memory) -> CoalesceOutcome:
        out = CoalesceOutcome()
        entry_clock = 0
        merged_counter = self.stats.counter("merged")
        spans = self._spans
        spans_on = self._spans_on
        mshrs = self.mshrs
        probes_on = self._probes_on
        submit = memory.submit
        issued_append = out.issued.append
        attach = mshrs.attach
        atomic_op = int(MemOp.ATOMIC)
        fence_op = int(MemOp.FENCE)
        line_bytes = CACHE_LINE_BYTES
        # Same no-op-advance peek and inlined allocate/schedule_release
        # as the null arm; same localized outcome counters (synced
        # around the rare atomic path).
        release_heap = mshrs._release_heap
        slots = mshrs._slots
        line_index = mshrs._line_index
        next_slot = mshrs._next_slot
        c_allocations = mshrs._c_allocations
        n_entries = mshrs.n_entries
        stall_cycles = 0
        n_issued = 0
        n_merged = 0
        comparisons = 0
        last_completion = out.last_completion_cycle
        raw_service = 0
        raw_serviced = 0
        addrs, sizes, ops, cores, cycles = columns(raw)
        for rid, (addr, op, cycle) in enumerate(zip(addrs, ops, cycles)):
            now = cycle if cycle > entry_clock else entry_clock
            if op == atomic_op:
                if spans_on:
                    spans.admit(rid, addr, cores[rid], op, cycle, now)
                out.n_issued = n_issued
                out.last_completion_cycle = last_completion
                out.raw_service_cycles = raw_service
                out.raw_serviced = raw_serviced
                self._submit_atomic(addr, sizes[rid], rid, now, memory, out)
                n_issued = out.n_issued
                last_completion = out.last_completion_cycle
                raw_service = out.raw_service_cycles
                raw_serviced = out.raw_serviced
                entry_clock = now + 1
                continue
            if op == fence_op:
                continue  # ordering only; MSHRs are not drained
            if release_heap and release_heap[0][0] <= now:
                mshrs.advance(now)
            line_addr = addr - addr % line_bytes
            op = OPS[op]

            # CAM comparison against every buffered miss: entries plus
            # their subentries (the unpaged per-request comparison cost
            # that the Figure 7 reduction is measured against).
            comparisons += len(slots) + mshrs._n_sub
            if probes_on:
                self._t_occupancy.observe(now, len(slots))

            # _try_merge inlined: same-line, same-op in-flight entry.
            slot = line_index.get(line_addr)
            entry = slots.get(slot) if slot is not None else None
            if entry is not None and entry.op == op:
                attach(entry, rid, line_addr)
                merged_counter.value += 1
                if probes_on:
                    self._t_merges.add(now)
                n_merged += 1
                stall_cycles += now - cycle
                entry_clock = now + 1
                release = entry.release_cycle
                if release is not None:
                    if release > now:
                        raw_service += release - now
                    raw_serviced += 1
                    if spans_on:
                        # Merged miss rides the in-flight entry: its wait
                        # is an MSHR span ending at the entry's release.
                        spans.admit(rid, addr, cores[rid], op, cycle, now)
                        spans.mark(rid, "mshr", release)
                continue
            if len(slots) >= n_entries:
                release = mshrs.next_release_cycle()
                assert release is not None, "full MSHR file with no releases"
                if release > now:
                    now = release
                mshrs.advance(now)
                entry = self._try_merge(rid, op, line_addr)
                if entry is not None:
                    merged_counter.value += 1
                    n_merged += 1
                    stall_cycles += now - cycle
                    entry_clock = now + 1
                    release = entry.release_cycle
                    if release is not None:
                        if release > now:
                            raw_service += release - now
                        raw_serviced += 1
                        if spans_on:
                            spans.admit(rid, addr, cores[rid], op, cycle, now)
                            spans.mark(rid, "mshr", release)
                    continue
            stall_cycles += now - cycle
            entry_clock = now + 1
            if spans_on:
                spans.admit(rid, addr, cores[rid], op, cycle, now)
            entry = new_entry(line_addr, op, 1, now)
            slot = next(next_slot)
            slots[slot] = entry
            line_index[line_addr] = slot
            c_allocations.value += 1
            packet = new_packet(
                line_addr, line_bytes, op, (rid,), now, "dmc"
            )
            completion = submit(packet, now)
            entry.release_cycle = completion
            heappush(release_heap, (completion, slot))
            issued_append(packet)
            n_issued += 1
            if completion > last_completion:
                last_completion = completion
            if completion > now:
                raw_service += completion - now
            raw_serviced += 1
            if spans_on:
                spans.mark(rid, "device", completion)
        out.n_raw = len(raw)
        out.stall_cycles += stall_cycles
        out.n_issued = n_issued
        out.n_merged = n_merged
        out.comparisons = comparisons
        out.last_completion_cycle = last_completion
        out.raw_service_cycles = raw_service
        out.raw_serviced = raw_serviced
        return out

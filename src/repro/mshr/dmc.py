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

Flat in-flight state
--------------------
Neither arm builds :class:`~repro.mshr.entry.MSHREntry` objects: within a
run nothing reads an entry's subentries, slot number or allocation
cycle back. The null arm never merges, so its MSHR file is a heap of
release cycles and its occupancy is the heap's size. The DMC arm keeps
one ``[op, release, n_sub, line]`` record per in-flight entry (the
merged misses are a count), a line -> slot index, a ``(release, slot)``
heap and the in-flight subentry total that the CAM comparison count
reads. The index holds a line's latest entry: a load and a store to one
line take separate slots, and the older one drops out of the index.
Every entry is scheduled for release once, when its packet is
submitted, so the heaps hold no stale slots.
:class:`~repro.mshr.file.MSHRFile` stays the reference:
``tests/mshr/test_flat_arms.py`` holds both arms equal to a
per-request loop over its public methods.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Dict, List, Protocol, Tuple

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
from repro.telemetry import NULL_SPANS, NULL_TELEMETRY


class MemoryDevice(Protocol):
    """What a coalescer needs from the memory side: submit a packet at a
    cycle, get back the response-arrival cycle."""

    def submit(self, packet: CoalescedRequest, cycle: int) -> int: ...


class RecordingDevice:
    """A memory device that keeps the packets crossing it: ``submits``
    lists every ``(packet, cycle)`` in submission order. An arm's
    outcome keeps totals only, so a reader that needs the packets
    themselves wraps the device in this. Every other attribute (``sync``,
    ``stats``, ``energy``, ...) reads through to the wrapped device."""

    def __init__(self, device: MemoryDevice) -> None:
        self.device = device
        self.submits: List[Tuple[CoalescedRequest, int]] = []

    def submit(self, packet: CoalescedRequest, cycle: int) -> int:
        self.submits.append((packet, cycle))
        return self.device.submit(packet, cycle)

    def __getattr__(self, name: str):
        # ``vars`` keeps a wrapper without a device (a half-built copy)
        # from recursing here.
        return getattr(vars(self).get("device"), name)


@dataclass
class CoalesceOutcome:
    """Aggregate result of streaming one raw request stream through a
    coalescer into a memory device: totals only. The packets end at the
    device (:class:`RecordingDevice` keeps them)."""

    n_raw: int = 0
    n_issued: int = 0
    n_merged: int = 0
    #: Sum of the issued packets' sizes (Equation 2's numerator).
    payload_bytes: int = 0
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
    def transaction_bytes(self) -> int:
        # Every transaction moves its payload plus the fixed 32B of
        # request+response control headers, so the per-packet
        # ``transaction_bytes()`` sum collapses to one multiply.
        return self.payload_bytes + HMC_CONTROL_OVERHEAD_BYTES * self.n_issued

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
        out.n_issued += 1
        out.payload_bytes += packet.size
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
        if n_mshrs <= 0:
            raise ValueError("need at least one MSHR")
        self.n_mshrs = n_mshrs
        self._probes_on = probes.enabled
        self._t_occupancy = probes.scope("mshr").gauge("occupancy")
        self._spans = spans
        self._spans_on = spans.enabled

    def process(self, raw, memory) -> CoalesceOutcome:
        out = CoalesceOutcome()
        spans = self._spans
        spans_on = self._spans_on
        probes_on = self._probes_on
        observe_occupancy = self._t_occupancy.observe
        n_mshrs = self.n_mshrs
        submit = memory.submit
        atomic_op = int(MemOp.ATOMIC)
        fence_op = int(MemOp.FENCE)
        line_bytes = CACHE_LINE_BYTES
        releases: List[int] = []  # the MSHR file (module docstring)
        entry_clock = 0
        # Outcome fields run as locals and are added to ``out`` at the
        # end, on top of what the atomic path wrote there directly.
        stall_cycles = 0
        n_issued = 0
        last_completion = 0
        raw_service = 0
        addrs, sizes, ops, cores, cycles = columns(raw)
        for rid, (addr, op, cycle) in enumerate(zip(addrs, ops, cycles)):
            now = cycle if cycle > entry_clock else entry_clock
            if op == atomic_op:
                if spans_on:
                    spans.admit(rid, addr, cores[rid], op, cycle, now)
                self._submit_atomic(addr, sizes[rid], rid, now, memory, out)
                entry_clock = now + 1
                continue
            if op == fence_op:
                continue  # ordering only; nothing buffered to drain
            while releases and releases[0] <= now:
                heappop(releases)
            if len(releases) >= n_mshrs:
                # Full: admission waits for the earliest release.
                now = heappop(releases)
                while releases and releases[0] <= now:
                    heappop(releases)
            stall_cycles += now - cycle
            entry_clock = now + 1  # one admission per cycle
            if spans_on:
                # Queue span covers trace arrival through the MSHR-full
                # wait; allocation+dispatch are same-cycle.
                spans.admit(rid, addr, cores[rid], op, cycle, now)
            if probes_on:
                observe_occupancy(now, len(releases) + 1)
            packet = new_packet(
                addr - addr % line_bytes, line_bytes, OPS[op], (rid,), now,
                "null",
            )
            completion = submit(packet, now)
            heappush(releases, completion)
            n_issued += 1
            if completion > last_completion:
                last_completion = completion
            if completion > now:
                raw_service += completion - now
            if spans_on:
                spans.mark(rid, "device", completion)
        out.n_raw = len(raw)
        out.stall_cycles = stall_cycles
        out.n_issued += n_issued
        out.payload_bytes += line_bytes * n_issued
        out.last_completion_cycle = max(
            out.last_completion_cycle, last_completion
        )
        out.raw_service_cycles += raw_service
        out.raw_serviced += n_issued
        return out


#: Fields of a DMC in-flight record (module docstring).
_OP, _RELEASE, _NSUB, _LINE = range(4)


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
        if n_mshrs <= 0:
            raise ValueError("need at least one MSHR")
        self.n_mshrs = n_mshrs
        self._probes_on = probes.enabled
        mshr_probes = probes.scope("mshr")
        self._t_occupancy = mshr_probes.gauge("occupancy")
        self._t_merges = mshr_probes.counter("merges")
        self._spans = spans
        self._spans_on = spans.enabled

    def process(self, raw, memory) -> CoalesceOutcome:
        out = CoalesceOutcome()
        merged_counter = self.stats.counter("merged")
        spans = self._spans
        spans_on = self._spans_on
        probes_on = self._probes_on
        observe_occupancy = self._t_occupancy.observe
        add_merge = self._t_merges.add
        n_mshrs = self.n_mshrs
        submit = memory.submit
        atomic_op = int(MemOp.ATOMIC)
        fence_op = int(MemOp.FENCE)
        line_bytes = CACHE_LINE_BYTES
        # The MSHR file (module docstring).
        slots: Dict[int, list] = {}
        line_slot: Dict[int, int] = {}
        releases: List[Tuple[int, int]] = []
        n_sub = 0
        next_slot = 0
        entry_clock = 0
        # Outcome fields run as locals, as in the null arm.
        stall_cycles = 0
        n_issued = 0
        n_merged = 0
        comparisons = 0
        last_completion = 0
        raw_service = 0
        addrs, sizes, ops, cores, cycles = columns(raw)
        for rid, (addr, op, cycle) in enumerate(zip(addrs, ops, cycles)):
            now = cycle if cycle > entry_clock else entry_clock
            if op == atomic_op:
                if spans_on:
                    spans.admit(rid, addr, cores[rid], op, cycle, now)
                self._submit_atomic(addr, sizes[rid], rid, now, memory, out)
                entry_clock = now + 1
                continue
            if op == fence_op:
                continue  # ordering only; MSHRs are not drained
            while releases and releases[0][0] <= now:
                slot = heappop(releases)[1]
                record = slots.pop(slot)
                n_sub -= record[_NSUB]
                line = record[_LINE]
                if line_slot.get(line) == slot:
                    del line_slot[line]
            line_addr = addr - addr % line_bytes

            # CAM comparison against every buffered miss: entries plus
            # their subentries (the unpaged per-request comparison cost
            # that the Figure 7 reduction is measured against).
            comparisons += len(slots) + n_sub
            if probes_on:
                observe_occupancy(now, len(slots))

            slot = line_slot.get(line_addr)
            if slot is not None:
                record = slots[slot]
                if record[_OP] == op:
                    # Same-line, same-op in-flight entry: ride it.
                    record[_NSUB] += 1
                    n_sub += 1
                    if probes_on:
                        add_merge(now)
                    n_merged += 1
                    stall_cycles += now - cycle
                    entry_clock = now + 1
                    release = record[_RELEASE]
                    if release > now:
                        raw_service += release - now
                    if spans_on:
                        # Merged miss rides the in-flight entry: its wait
                        # is an MSHR span ending at the entry's release.
                        spans.admit(rid, addr, cores[rid], op, cycle, now)
                        spans.mark(rid, "mshr", release)
                    continue
            if len(slots) >= n_mshrs:
                # Full: admission waits for the earliest release. That
                # can never open a merge (a release only drops index
                # entries), and nothing reads the file again before the
                # next request's release pass frees the entries due.
                now = releases[0][0]
            stall_cycles += now - cycle
            entry_clock = now + 1
            if spans_on:
                spans.admit(rid, addr, cores[rid], op, cycle, now)
            packet = new_packet(
                line_addr, line_bytes, OPS[op], (rid,), now, "dmc"
            )
            completion = submit(packet, now)
            slots[next_slot] = [op, completion, 0, line_addr]
            line_slot[line_addr] = next_slot
            heappush(releases, (completion, next_slot))
            next_slot += 1
            n_issued += 1
            if completion > last_completion:
                last_completion = completion
            if completion > now:
                raw_service += completion - now
            if spans_on:
                spans.mark(rid, "device", completion)
        merged_counter.value += n_merged
        out.n_raw = len(raw)
        out.stall_cycles = stall_cycles
        out.n_issued += n_issued
        out.payload_bytes += line_bytes * n_issued
        out.n_merged = n_merged
        out.comparisons = comparisons
        out.last_completion_cycle = max(
            out.last_completion_cycle, last_completion
        )
        out.raw_service_cycles += raw_service
        out.raw_serviced += n_issued + n_merged
        return out

"""The paged adaptive coalescer — end-to-end (Figure 3).

:class:`PagedAdaptiveCoalescer` implements the
:class:`repro.mshr.dmc.Coalescer` interface: it consumes the LLC's raw
request stream in cycle order and drives the memory device, modelling

* stage 1 aggregation with the 16-cycle timeout and fence handling,
* stages 2–3 via :class:`repro.core.network.CoalescingNetwork`,
* the MAQ between the network and the MSHRs,
* the adaptive MSHRs (multi-block spans, OP bit, packet merging),
* the network controller's idle bypass — while the MAQ is empty and
  MSHRs are free the whole network is disabled and raw requests go
  straight into the MSHRs; it re-enables once every MSHR is occupied
  (Section 3.2),
* atomics routed around the coalescer (Section 3.3.1).

Admission into stage 1 is paced at one request per cycle; structural
stalls push the *entry clock* back so the backlog bunches into shared
aggregation windows — the blocked-cache cascade (see ARCHITECTURE.md,
"Timing model").
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.artifacts import shm as shm_codec
from repro.common.types import (
    CACHE_LINE_BYTES,
    CoalescedRequest,
    MemOp,
    MemoryRequest,
)
from repro.config import PACConfig
from repro.core.aggregator import PagedRequestAggregator
from repro.core.maq import MemoryAccessQueue
from repro.core.network import CoalescingNetwork
from repro.core.protocols import HMC2, HMC2_FINE, MemoryProtocol
from repro.mshr.adaptive import AdaptiveMSHRFile
from repro.mshr.dmc import Coalescer, CoalesceOutcome, MemoryDevice
from repro.telemetry import NULL_SPANS, NULL_TELEMETRY

#: Sampling period for coalescing-stream occupancy (Figure 11b: "we
#: accumulate the number of occupied coalescing streams every 16 cycles").
OCCUPANCY_SAMPLE_CYCLES = 16


class PagedAdaptiveCoalescer(Coalescer):
    """PAC: stage-1 aggregator + pipelined network + MAQ + adaptive MSHRs."""

    def __init__(
        self,
        config: Optional[PACConfig] = None,
        protocol: Optional[MemoryProtocol] = None,
        probes=NULL_TELEMETRY,
        spans=NULL_SPANS,
    ) -> None:
        super().__init__("pac")
        self.config = config if config is not None else PACConfig()
        if protocol is None:
            protocol = HMC2_FINE if self.config.fine_grain else HMC2
        self.protocol = protocol
        self.aggregator = PagedRequestAggregator(
            protocol,
            n_streams=self.config.n_streams,
            timeout_cycles=self.config.timeout_cycles,
            probes=probes.scope("stage1"),
        )
        self.network = CoalescingNetwork(protocol, probes=probes)
        maq_probes = probes.scope("maq")
        self.maq = MemoryAccessQueue(self.config.maq_entries, probes=maq_probes)
        self.mshrs = AdaptiveMSHRFile(
            self.config.n_mshrs, name="pac.amshr", probes=probes.scope("mshr")
        )
        # Peeked before each advance() call: a no-release advance has no
        # side effects, and most events have nothing due. The aggregator
        # deadline heap, MAQ deque, and MSHR slot table are likewise
        # bound once so `_advance` (run per raw request) can guard each
        # sub-step without a call: all three containers are mutated in
        # place and never rebound by their owners.
        self._mshr_heap = self.mshrs._release_heap
        self._mshr_slots = self.mshrs._slots
        self._mshr_cover = self.mshrs._cover
        self._agg_heap = self.aggregator._deadline_heap
        self._maq_items = self.maq._fifo._items
        self._idle_bypass = self.config.idle_bypass
        self._n_mshrs = self.config.n_mshrs
        #: Earliest cycle at which the MAQ head could possibly drain
        #: again after a failed attempt (the MSHRs were full with no
        #: release due). Until then the head/MSHR state is frozen — no
        #: release, merge, or allocation can happen — so `_advance`
        #: skips the poll and only replays its CAM-comparison count.
        self._maq_stall_until = 0
        #: Network controller state: disabled while idle (Section 3.2).
        self.network_enabled = not self.config.idle_bypass
        self._last_sample = 0
        # Controller-level probes (the `repro trace` bypass-rate series
        # joins direct_requests with the network's bypass counters).
        ctrl = probes.scope("controller")
        self._probes_on = probes.enabled
        #: Span tracer: stage boundaries are stamped as sampled requests
        #: cross admission, stage-1 flush, network exit, MAQ pop, MSHR
        #: merge release, and device completion.
        self._spans = spans
        self._spans_on = spans.enabled
        self._t_direct = ctrl.counter("direct_requests")
        self._t_enables = ctrl.counter("network_enables")
        self._t_disables = ctrl.counter("network_disables")
        self._t_entry_wait = ctrl.gauge("entry_wait")
        self._t_maq_occupancy = maq_probes.gauge("occupancy")
        # Pre-resolved stat handles for the per-request hot path.
        stats = self.stats
        self._c_atomics = stats.counter("atomics")
        self._c_fences = stats.counter("fences")
        self._c_net_enables = stats.counter("network_enables")
        self._c_net_disables = stats.counter("network_disables")
        self._c_pipeline_stalls = stats.counter("pipeline_stall_cycles")
        self._c_mshr_cam = stats.counter("mshr_cam_comparisons")
        self._c_mshr_merges = stats.counter("mshr_packet_merges")
        self._c_direct = stats.counter("direct_requests")
        self._c_direct_cam = stats.counter("direct_cam_comparisons")
        self._acc_latency = stats.accumulator("request_latency")
        self._h_occupancy = self.aggregator.stats.histogram(
            "occupancy_samples"
        )

    # ------------------------------------------------------------------ #
    # main loop

    def process(
        self, raw: np.ndarray, memory: MemoryDevice
    ) -> CoalesceOutcome:
        """Stream the packed ``raw`` array into ``memory``. The reference
        engine works on request objects, so it decodes the array first
        (each request's id is its ordinal)."""
        out = CoalesceOutcome()
        self._out = out
        self._memory = memory
        #: Cycle at which stage 1 can next accept a request: one admission
        #: per cycle, pushed back whenever the MAQ backpressures the
        #: pipeline. A stalled pipeline makes the backlog *bunch up*, so
        #: queued requests land in shared aggregation windows — the
        #: behaviour that lets PAC mine a congested miss queue.
        self._entry_clock = 0
        self._arrivals = {}
        latency_add = self._acc_latency.add

        spans = self._spans
        spans_on = self._spans_on
        probes_on = self._probes_on
        aggregator_insert = self.aggregator.insert
        flush_stream = self._flush_stream
        advance = self._advance
        atomic_op = MemOp.ATOMIC
        fence_op = MemOp.FENCE

        arrivals = self._arrivals
        mshr_slots = self._mshr_slots
        n_mshrs = self._n_mshrs
        n_raw = 0
        stall_cycles = 0
        for req in shm_codec.decode_requests(raw):
            n_raw += 1
            cycle = req.cycle
            now = self._entry_clock
            if cycle > now:
                now = cycle
            # Service accounting measures from *entry* into the miss
            # path — the moment an in-order core would have issued the
            # miss — so the open-loop backlog does not inflate it.
            arrivals[req.req_id] = now
            stall_cycles += now - cycle
            if probes_on:
                self._t_entry_wait.observe(now, now - cycle)
            if spans_on:
                # index = raw-stream ordinal (== req_id): deterministic
                # across serial/parallel runs.
                out.n_raw = n_raw
                spans.admit(
                    n_raw - 1, req.addr, req.core_id, req.op, req.cycle, now
                )
            self._entry_clock = now + 1
            advance(now)

            if req.op == atomic_op:
                # Atomics go straight to the memory controller,
                # uncoalesced, not even via the MSHRs (Section 3.3.1).
                packet = CoalescedRequest(
                    addr=req.line_addr, size=max(req.size, 16), op=MemOp.STORE,
                    constituents=(req.req_id,), issue_cycle=now,
                    source="atomic",
                )
                completion = memory.submit(packet, now)
                out.n_issued += 1
                out.payload_bytes += packet.size
                out.last_completion_cycle = max(
                    out.last_completion_cycle, completion
                )
                out.account_service(now, completion)
                if spans_on:
                    spans.mark(req.req_id, "device", completion)
                self._c_atomics.value += 1
                continue

            if req.op == fence_op:
                for stream in self.aggregator.fence(now):
                    flush_stream(stream, now)
                self._c_fences.value += 1
                continue

            if not self.network_enabled:
                # Idle bypass: straight into the MSHRs with ~1 cycle of
                # latency; the network stays off until the MSHRs fill.
                if len(mshr_slots) >= n_mshrs:
                    self.network_enabled = True
                    self._c_net_enables.value += 1
                    if probes_on:
                        self._t_enables.add(now)
                else:
                    self._direct_to_mshr(req, now)
                    latency_add(1.0)
                    continue

            flushed = aggregator_insert(req, now)
            if flushed:
                for stream in flushed:
                    flush_stream(stream, now)
        out.n_raw = n_raw
        out.stall_cycles += stall_cycles

        # End of stream: drain everything that is still buffered; each
        # remaining stream flushes at its own timeout deadline.
        for stream in sorted(
            self.aggregator.drain(),
            key=lambda s: s.deadline(self.config.timeout_cycles),
        ):
            self._flush_stream(
                stream, stream.deadline(self.config.timeout_cycles)
            )
        self._drain_maq(until_empty=True)

        # Figure 7 accounting: the comparisons of the *coalescing
        # procedure* — the stage-1 page-granular CAM (plus the direct
        # path's CAM, which serves as its aggregation check). The
        # packet-dispatch MSHR CAM is common to every design and is
        # tracked separately in ``stats['mshr_cam_comparisons']``.
        out.comparisons = self.aggregator.stats.count(
            "comparisons"
        ) + self.stats.count("direct_cam_comparisons")
        return out

    # ------------------------------------------------------------------ #
    # internals

    def _advance(self, now: int) -> None:
        """Process all timeout flushes due at or before ``now`` and drain
        the MAQ into the MSHRs; also take occupancy samples.

        Runs once per raw request, so every sub-step is guarded by a
        container peek before paying its call: ``expire`` by the deadline
        heap, the MAQ drain by the head's ready cycle, the MSHR advance
        by the release heap, and the idle-disable check is inlined from
        :meth:`_maybe_disable` (which stays the canonical definition).
        """
        agg_heap = self._agg_heap
        if agg_heap and agg_heap[0][0] <= now:
            due = self.aggregator.expire(now)
        else:
            due = None
        if due:
            timeout = self.config.timeout_cycles
            # expire() pops its heap in (deadline, alloc) order, so the
            # due list arrives already deadline-sorted.
            deadlines = [s.deadline(timeout) for s in due]
            self._sample_windows(now, deadlines)
            for stream in due:
                self._flush_stream(stream, stream.deadline(timeout))
        elif self._last_sample + OCCUPANCY_SAMPLE_CYCLES <= now:
            # Guard inlined from _sample_windows: most calls have no
            # sample window due.
            self._sample_windows(now, ())
        maq_items = self._maq_items
        if maq_items and maq_items[0][1] <= now:
            if now < self._maq_stall_until:
                # The head is ready but the MSHRs are provably still
                # full (no release before _maq_stall_until): the drain
                # attempt would fail exactly as before. Its only side
                # effect is the MAQ->MSHR CAM sweep over the (full)
                # slot file — replay that and skip the poll.
                self._c_mshr_cam.value += self._n_mshrs
            else:
                self._drain_maq(now=now)
        # Apply any memory responses due by now even when the MAQ is
        # empty — the controller's disable condition reads MSHR occupancy.
        heap = self._mshr_heap
        if heap and heap[0][0] <= now:
            self.mshrs.advance(now)
        if (
            self._idle_bypass
            and self.network_enabled
            and not maq_items
            and len(self._mshr_slots) < self._n_mshrs
            and not self.aggregator.streams
        ):
            self.network_enabled = False
            self._c_net_disables.value += 1
            if self._probes_on:
                self._t_disables.add(now)

    def _sample_windows(self, now: int, expired_deadlines) -> None:
        """Record the per-16-cycle occupancy samples elapsed up to
        ``now`` (Figure 11b). Occupancy is piecewise constant: the
        just-expired streams were still resident until their deadlines,
        so windows before a deadline see them. Windows past the last
        deadline all sample the same surviving occupancy and are recorded
        in one shot — long idle gaps stay O(1).
        """
        if self._last_sample + OCCUPANCY_SAMPLE_CYCLES > now:
            return
        hist = self._h_occupancy
        base = self.aggregator.occupancy  # survivors (already expired out)
        last_deadline = expired_deadlines[-1] if expired_deadlines else None
        while (
            last_deadline is not None
            and self._last_sample + OCCUPANCY_SAMPLE_CYCLES
            <= min(now, last_deadline)
        ):
            window_start = self._last_sample
            self._last_sample += OCCUPANCY_SAMPLE_CYCLES
            # A stream counts for a window if it was still resident when
            # the window opened.
            still_resident = sum(
                1 for d in expired_deadlines if d > window_start
            )
            hist.add(base + still_resident)
        remaining = (now - self._last_sample) // OCCUPANCY_SAMPLE_CYCLES
        if remaining > 0:
            hist.add(base, int(remaining))
            self._last_sample += remaining * OCCUPANCY_SAMPLE_CYCLES

    def _maybe_disable(self, now: int) -> None:
        if (
            self.config.idle_bypass
            and self.network_enabled
            and self.maq.empty
            and self.mshrs.has_free
            and self.aggregator.occupancy == 0
        ):
            self.network_enabled = False
            self._c_net_disables.value += 1
            if self._probes_on:
                self._t_disables.add(now)

    def _flush_stream(self, stream, flush_cycle: int) -> None:
        """Send a stage-1 stream through the network and into the MAQ."""
        # Stage-1 residency: the paper reports the overall PAC latency as
        # timeout-dominated; we record the stream's aggregation residency
        # per request it carried. Cycle samples are integral floats, so
        # the O(1) repeated-add is bit-identical to per-request add()s.
        sample = float(max(1, flush_cycle - stream.alloc_cycle))
        self._acc_latency.add_repeat(sample, stream.n_requests)
        if self._spans_on:
            # Stage-1 residency ends at the flush; the grain lists repeat
            # multi-grain req_ids, which mark_many de-duplicates.
            for rids in stream.grain_requests.values():
                self._spans.mark_many(rids, "stage1", flush_cycle)
        packets = self.network.flush_stream(stream, flush_cycle)
        for packet in packets:
            if self._spans_on:
                self._spans.mark_many(
                    packet.constituents, "network", packet.issue_cycle
                )
            self._enqueue_packet(packet)

    def _enqueue_packet(self, packet: CoalescedRequest) -> None:
        ready = packet.issue_cycle
        if not self.maq.push(packet, ready):
            # MAQ full: the pipeline stalls and the cache blocks until the
            # head drains (Section 3.2). Force one drain; stage 1 cannot
            # admit new requests until then (backpressure).
            waited = self._drain_one(force=True)
            self._entry_clock = max(self._entry_clock, waited)
            self._c_pipeline_stalls.value += max(0, waited - ready)
            if not self.maq.push(packet, max(ready, waited)):
                raise AssertionError("MAQ still full after forced drain")

    def _account_packet(self, packet, completion: int) -> None:
        """Exact service accounting: every raw request covered by this
        packet is satisfied when the packet's response returns."""
        arrivals = self._arrivals
        pop = arrivals.pop
        served = 0
        cycles = 0
        for rid in packet.constituents:
            arrival = pop(rid, None)
            if arrival is not None:
                if completion > arrival:
                    cycles += completion - arrival
                served += 1
        if served:
            out = self._out
            out.raw_service_cycles += cycles
            out.raw_serviced += served

    def _complete_merge(
        self, packet: CoalescedRequest, merged, cycle: int,
        from_maq: bool = True,
    ) -> None:
        """Shared tail of every packet-merge site: service accounting
        against the owning entry's release, span stamps, merge counter.

        ``from_maq`` distinguishes the MAQ drain sites (which also pop
        the MAQ and stamp the ``maq`` span stage) from the direct path.
        """
        if from_maq:
            self.maq.pop()
            if self._probes_on:
                self._t_maq_occupancy.observe(cycle, len(self.maq))
        self._out.n_merged += packet.n_raw
        if merged.release_cycle is not None:
            self._account_packet(packet, merged.release_cycle)
            if self._spans_on:
                if from_maq:
                    self._spans.mark_many(packet.constituents, "maq", cycle)
                self._spans.mark_many(
                    packet.constituents, "mshr", merged.release_cycle
                )
        self._c_mshr_merges.value += 1

    def _issue_packet(self, packet: CoalescedRequest, t: int) -> int:
        """Allocate an MSHR for ``packet``, submit it to the device, and
        do the issue-side accounting; returns the completion cycle."""
        out = self._out
        slot, _ = self.mshrs.allocate_packet(packet, t)
        completion = self._memory.submit(packet, t)
        self.mshrs.schedule_release(slot, completion)
        out.n_issued += 1
        out.payload_bytes += packet.size
        if completion > out.last_completion_cycle:
            out.last_completion_cycle = completion
        self._account_packet(packet, completion)
        if self._spans_on:
            self._spans.mark_many(packet.constituents, "device", completion)
        return completion

    def _drain_maq(self, now: Optional[int] = None, until_empty: bool = False) -> None:
        """Pop MAQ entries whose ready time has come and hand them to the
        adaptive MSHRs (merge or allocate+dispatch). Entries whose turn
        has come but that find the MSHRs full simply wait in the MAQ —
        that is the MAQ's purpose (Section 3.1.2)."""
        maq_items = self._maq_items
        while maq_items:
            if not until_empty and now is not None and maq_items[0][1] > now:
                break
            if self._drain_one(now=now, force=until_empty) is None:
                break

    def _drain_one(
        self, now: Optional[int] = None, force: bool = False
    ) -> Optional[int]:
        """Pop the MAQ head into the MSHRs; returns the cycle at which the
        pop happened (>= the packet's ready cycle), or None when the
        MSHRs stay full through ``now`` and ``force`` is False (the
        packet waits in the MAQ)."""
        packet, ready = self._maq_items[0]
        heap = self._mshr_heap
        if heap and heap[0][0] <= ready:
            self.mshrs.advance(ready)

        # MAQ->MSHR CAM comparison (contiguity by PPN, Section 3.2) —
        # common to all designs, excluded from the Figure 7 count.
        self._c_mshr_cam.value += len(self._mshr_slots)

        # Peek the covered-block index before paying the merge call:
        # an empty bucket for the packet's first block is exactly
        # try_merge_packet's find_covering fast-fail.
        if self._mshr_cover.get(packet.addr // CACHE_LINE_BYTES):
            merged = self.mshrs.try_merge_packet(packet)
        else:
            merged = None
        if merged is not None:
            self._maq_stall_until = 0
            self._complete_merge(packet, merged, ready)
            return ready

        t = ready
        if len(self._mshr_slots) >= self._n_mshrs:
            # Apply any releases that happened between the packet's ready
            # time and the present; the pop occurs the moment a slot
            # freed, not at `now`.
            horizon = ready if now is None or now < ready else now
            released = self.mshrs.advance(horizon)
            if released:
                freed_at = min(
                    e.release_cycle for e in released
                    if e.release_cycle is not None
                )
                t = max(ready, freed_at)
            elif not force:
                # Nothing can move before the next scheduled release:
                # remember it so per-request polls skip ahead.
                release = self.mshrs.next_release_cycle()
                self._maq_stall_until = release if release is not None else 0
                return None
            else:
                release = self.mshrs.next_release_cycle()
                assert release is not None, (
                    "full adaptive MSHRs with no releases"
                )
                t = max(t, release)
                self.mshrs.advance(t)
            merged = self.mshrs.try_merge_packet(packet)
            if merged is not None:
                self._maq_stall_until = 0
                self._complete_merge(packet, merged, t)
                return t

        self._maq_stall_until = 0
        self._maq_items.popleft()  # the head we peeked above
        if self._probes_on:
            self._t_maq_occupancy.observe(t, len(self.maq))
        if self._spans_on:
            self._spans.mark_many(packet.constituents, "maq", t)
        self._issue_packet(packet, t)
        return t

    def _direct_to_mshr(self, req: MemoryRequest, now: int) -> None:
        """Network-disabled fast path: raw request straight to the MSHRs."""
        heap = self._mshr_heap
        if heap and heap[0][0] <= now:
            self.mshrs.advance(now)
        self._c_direct.value += 1
        if self._probes_on:
            self._t_direct.add(now)
        self._c_direct_cam.value += len(self._mshr_slots)
        grain = self.protocol.grain_bytes
        base = req.addr - (req.addr % grain)
        packet = CoalescedRequest(
            addr=base,
            size=grain,
            op=MemOp.STORE if req.op == MemOp.STORE else MemOp.LOAD,
            constituents=(req.req_id,),
            issue_cycle=now,
            source="pac-direct",
        )
        merged = self.mshrs.try_merge_packet(packet)
        if merged is not None:
            self._complete_merge(packet, merged, now, from_maq=False)
            return
        # The caller guarantees a free MSHR (it flips to enabled when
        # full), so allocation cannot fail here.
        self._issue_packet(packet, now)

    # ------------------------------------------------------------------ #
    # derived metrics

    @property
    def bypass_fraction(self) -> float:
        """Fraction of aggregated raw requests that skipped stages 2–3 via
        the C-bit bypass (Figure 12c)."""
        bypassed = self.network.stats.count("bypassed_requests")
        coalesced = self.network.stats.count("coalesced_requests")
        total = bypassed + coalesced
        return bypassed / total if total else 0.0

    @property
    def mean_active_streams(self) -> float:
        """Average occupied coalescing streams over non-idle samples
        (Figure 11c)."""
        hist = self.aggregator.stats.histogram("occupancy_samples")
        busy = {k: v for k, v in hist.bins.items() if k > 0}
        total = sum(busy.values())
        if not total:
            return 0.0
        return sum(k * v for k, v in busy.items()) / total

    @property
    def mean_request_latency(self) -> float:
        return self.stats.accumulator("request_latency").mean

    @property
    def mean_maq_fill_cycles(self) -> float:
        return self.maq.mean_fill_cycles

    @property
    def mean_stage2_cycles(self) -> float:
        return self.network.decoder.stats.accumulator("stage2_cycles").mean

    @property
    def mean_stage3_cycles(self) -> float:
        return self.network.assembler.stats.accumulator("stage3_cycles").mean

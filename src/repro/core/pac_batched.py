"""Batched coalescer kernel — the array-backed PAC execution path.

:class:`BatchedPagedAdaptiveCoalescer` is a drop-in replacement for
:class:`repro.core.pac.PagedAdaptiveCoalescer` that produces **bit-
identical** results (same :class:`~repro.mshr.dmc.CoalesceOutcome`, same
stats registries, same device interaction sequence: the same packets
submitted at the same cycles) while replacing the reference path's
per-request object churn with flat state:

* the raw stream is the packed array's column lists, zipped, and split
  into **quiescent windows** — the fence-delimited segments of the
  stream (:func:`window_bounds`, over the op column). A
  fence drains stage 1 completely, so no request after a fence can
  aggregate with one before it: each window's stage-1 coalescing
  decisions depend only on requests inside the window, which is the
  invariant that makes the batched sweep sound. Cross-window state (MSHR
  slots, MAQ backlog, device timing) persists and is advanced in order.
* the aggregator's coalescing table becomes a deque of plain list
  records ``[tag, deadline, ppn, op, alloc_cycle, block_map,
  grain_requests, n_requests]`` plus a tag dict. Admission times are
  strictly increasing, so deadlines are monotone in allocation order and
  the deque **is** the deadline heap: timeout expiry pops from the head,
  the force-flush victim is the head, and the end-of-run drain is the
  deque in order (the reference's stable sort by deadline is the
  identity on an already-deadline-ordered list).
* the MAQ runs on a preallocated ring inlined into kernel locals (slot
  arrays + head/count cursors), so push/pop are index stores;
  fill-episode accounting is reproduced inline and the occupancy
  counters of the MAQ's :class:`repro.common.fifo.BoundedFIFO` are
  merged back at the end.
* stages 2–3 (block-map decode + packet assembly) are inlined over the
  flat records: same chunk walk, same table lookups, same per-packet
  cycle arithmetic — packets enqueue as they assemble, which is
  equivalent because assembly never reads MAQ/MSHR state.
* per-request counters accumulate in local integers and merge into the
  real :class:`~repro.common.stats.StatsRegistry` objects once per run.
  Counter sums are order-free; latency/stage accumulators carry
  integral-float cycle samples below 2**53, for which addition is
  associative-exact, so deferred accumulation is bit-identical.

* telemetry probes (when a registry is enabled) see the same events,
  cycles and values as in the reference: each probe site appends to the
  bounded columns of a :class:`~repro.telemetry.ProbeBuffer`, folded
  into the probes whenever the entry or MAQ column reaches
  :data:`~repro.telemetry.FOLD_EVENTS` and at the end of the call.
  Every PAC probe carries integer events, so the fold order is free.

* span tracing calls the same :class:`~repro.telemetry.SpanRecorder`
  methods at the same sites as the reference — ``admit`` at entry,
  ``stage1`` at a stream's flush, ``network`` at each packet's issue
  cycle, ``maq`` at pop, ``mshr`` at the owning entry's release and
  ``device`` at completion (also on the atomic path) — with the same
  arguments, so each request sees its stamps in the same order. It pays
  only for sampled requests: admission keeps a set of the sampled
  req_ids, and a site calls the recorder only when that set is not
  disjoint from the packet's constituents. At 1-in-16 sampling, 85-90%
  of gs's and bfs's packets carry no sampled request.

The engine dispatch in :class:`repro.engine.system.System` selects this
class when ``engine`` resolves to ``"batched"``.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from itertools import islice
from typing import List, Optional, Tuple

import numpy as np

from repro.artifacts.shm import OPS, columns
from repro.common.types import (
    CACHE_LINE_BYTES,
    MemOp,
    PAGE_BYTES,
    new_packet,
)
from repro.config import PACConfig
from repro.core.pac import OCCUPANCY_SAMPLE_CYCLES, PagedAdaptiveCoalescer
from repro.core.protocols import MemoryProtocol
from repro.mshr.dmc import CoalesceOutcome, MemoryDevice
from repro.mshr.entry import MAX_SPAN_BLOCKS
from repro.telemetry import FOLD_EVENTS, NULL_SPANS, NULL_TELEMETRY, ProbeBuffer

# Stream-record slots (a plain list is ~3x cheaper than a slotted
# dataclass to allocate, and these are born/die once per page stream).
_TAG, _DEADLINE, _PPN, _OP, _ALLOC, _BMAP, _GREQ, _NREQ = range(8)

#: Probe-buffer columns, in the order ``process`` binds their appends.
_PROBE_COLUMNS = (
    "entry_cycle", "entry_wait",  # controller.entry_wait
    "enables", "disables", "direct",  # controller counters
    "insert_cycle", "insert_occupancy",  # stage1.occupancy
    "merged", "allocated", "forced",  # stage1 counters
    "bypass_cycle", "bypass_requests",  # network.bypassed_requests
    # One row per coalesced stream: network.coalesced_requests,
    # network.stream_pipeline_cycles, stage2.sequences, stage2.cycles.
    "stream_cycle", "stream_requests", "stream_pipeline",
    "stream_sequences", "stream_decode",
    # One row per block sequence: stage3.packets, stage3.cycles.
    "sequence_cycle", "sequence_packets", "sequence_assembly",
    "packet_bytes",  # stage3.packet_bytes
    "maq_cycle", "maq_occupancy",  # maq.occupancy (push and pop)
    "maq_full",  # maq.full_stalls
    "fill_cycle", "fill_cycles",  # maq.fill_cycles
    "mshr_merge",  # mshr.packet_merges
    # One row per allocation: mshr.allocations, mshr.occupancy,
    # mshr.span_blocks.
    "alloc_cycle", "alloc_occupancy", "alloc_span",
)


def window_bounds(op: np.ndarray) -> List[Tuple[int, int]]:
    """Split a raw stream into its quiescent windows, given its op column.

    A window is a maximal fence-free run of ordinals ``[start, stop)``:
    every window ends with the FENCE that closes it (the fence belongs
    to the window it drains), except possibly the last. Invariants,
    property-tested in ``tests/core/test_window_property.py``:

    * the windows tile ``[0, len(op))`` in order, none empty;
    * no window holds a FENCE anywhere but its last ordinal;
    * stage-1 aggregation state is empty at every window boundary, so
      per-window stage-1 decisions are independent.
    """
    stops = (np.flatnonzero(op == int(MemOp.FENCE)) + 1).tolist()
    if len(op) and (not stops or stops[-1] != len(op)):
        stops.append(len(op))
    return list(zip([0] + stops[:-1], stops))


class BatchedPagedAdaptiveCoalescer(PagedAdaptiveCoalescer):
    """Array-backed PAC kernel; bit-identical to the reference engine."""

    def __init__(
        self,
        config: Optional[PACConfig] = None,
        protocol: Optional[MemoryProtocol] = None,
        probes=NULL_TELEMETRY,
        spans=NULL_SPANS,
    ) -> None:
        super().__init__(config, protocol=protocol, probes=probes, spans=spans)
        if self._probes_on:
            self._init_probe_buffer()

    def _init_probe_buffer(self) -> None:
        """Wire the :data:`_PROBE_COLUMNS` to the probes the reference
        components registered in ``PagedAdaptiveCoalescer.__init__``."""
        buf = self._probe_buf = ProbeBuffer()
        col = self._probe_cols = {name: buf.column() for name in _PROBE_COLUMNS}
        agg = self.aggregator
        net = self.network
        dec = net.decoder
        asm = net.assembler
        maq = self.maq
        mshrs = self.mshrs
        for probe, events, values in (
            (self._t_entry_wait, "entry_cycle", "entry_wait"),
            (self._t_enables, "enables", None),
            (self._t_disables, "disables", None),
            (self._t_direct, "direct", None),
            (agg._t_occupancy, "insert_cycle", "insert_occupancy"),
            (agg._t_merge, "merged", None),
            (agg._t_alloc, "allocated", None),
            (agg._t_forced, "forced", None),
            (net._t_bypassed, "bypass_cycle", "bypass_requests"),
            (net._t_coalesced, "stream_cycle", "stream_requests"),
            (net._t_pipeline_cycles, "stream_cycle", "stream_pipeline"),
            (dec._t_sequences, "stream_cycle", "stream_sequences"),
            (dec._t_cycles, "stream_cycle", "stream_decode"),
            (asm._t_packets, "sequence_cycle", "sequence_packets"),
            (asm._t_cycles, "sequence_cycle", "sequence_assembly"),
            (asm._t_packet_bytes, "packet_bytes", None),
            (self._t_maq_occupancy, "maq_cycle", "maq_occupancy"),
            (maq._t_full_stalls, "maq_full", None),
            (maq._t_fill_cycles, "fill_cycle", "fill_cycles"),
            (mshrs._t_merges, "mshr_merge", None),
            (mshrs._t_allocations, "alloc_cycle", None),
            (mshrs._t_occupancy, "alloc_cycle", "alloc_occupancy"),
            (mshrs._t_span_blocks, "alloc_span", None),
        ):
            buf.feed(probe, col[events], col[values] if values else None)

    def process(
        self, raw: np.ndarray, memory: MemoryDevice
    ) -> CoalesceOutcome:
        out = CoalesceOutcome()
        self._out = out
        self._memory = memory
        addrs, sizes, ops, cores, cycles = columns(raw)
        stream = zip(range(len(addrs)), addrs, sizes, ops, cycles)

        # ---- flat state ------------------------------------------------
        arrivals = self._arrivals = {}
        arrivals_pop = arrivals.pop
        entry_clock = 0
        #: Allocation-ordered (== deadline-ordered) stage-1 records.
        agg: deque = deque()
        by_tag: dict = {}
        # The MAQ ring, inlined into kernel locals: a preallocated slot
        # array plus head/count cursors, so push/pop are index stores
        # instead of method calls.
        maq_cap = self.config.maq_entries
        # Parallel slot arrays (packet / ready-cycle) instead of one
        # array of tuples: enqueue skips a tuple allocation per packet
        # and head peeks are single index loads.
        maq_pkt: list = [None] * maq_cap
        maq_rdy: list = [0] * maq_cap
        maq_head = 0
        maq_count = 0
        maq_pushed = 0
        maq_peak = 0
        episode_start = None  # MAQ fill episode (Figure 12b)
        maq_stall_until = self._maq_stall_until
        network_enabled = self.network_enabled
        last_sample = self._last_sample
        sample_period = OCCUPANCY_SAMPLE_CYCLES

        # ---- locally accumulated counters ------------------------------
        stall_cycles = 0
        n_issued = 0
        payload = 0
        n_merged = 0
        last_completion = out.last_completion_cycle
        svc_cycles = 0
        svc_served = 0
        c_atomics = c_fences = 0
        c_net_enables = c_net_disables = 0
        c_pipe_stalls = 0
        c_cam = 0
        c_merges = 0
        c_direct = c_direct_cam = 0
        lat_direct = 0
        c_comparisons = c_merged = c_forced = c_alloc = c_fence_flush = 0
        c_byp_streams = c_byp_reqs = 0
        c_coal_streams = c_coal_reqs = 0
        dec_streams = dec_sequences = 0
        asm_sequences = asm_packets = 0
        c_full_stalls = 0

        # ---- bound shared structures ------------------------------------
        config = self.config
        timeout = config.timeout_cycles
        n_streams = config.n_streams
        idle_bypass = self._idle_bypass
        n_mshrs = self._n_mshrs
        hpush = heappush
        hpop = heappop
        # Flat MSHR file: slot -> [base_block, span_blocks, op,
        # release_cycle] records, a (release, slot) heap, and the
        # covered-block CAM index — the same three structures
        # AdaptiveMSHRFile keeps, minus the entry/subentry objects
        # (subentries are write-only bookkeeping within a run).
        mshr_heap: list = []
        mshr_slots: dict = {}
        mshr_cover: dict = {}
        mshr_next_slot = 0
        mshr_allocs = 0
        mshr_merges = 0
        memory_submit = memory.submit
        proto = self.protocol
        grain_bytes = proto.grain_bytes
        chunk_width = proto.chunk_width
        network = self.network
        # Stage-3 table, memo-direct: patterns are masked to chunk_width
        # so the bounds check in ``lookup`` can never fire, and the
        # ``lookups`` counter is reconciled in the sync block (exactly
        # one lookup per nonzero chunk == dec_sequences).
        table = network.table
        table_memo = table._table
        table_compute = table._compute
        chunk_mask = (1 << chunk_width) - 1
        size_memo = network.assembler._packet_bytes_memo
        packet_bytes = proto.packet_bytes
        # Deferred accumulators as [count, total, min, max, sumsq]
        # lists; cycle-valued samples are integral floats below 2**53,
        # so the end-of-run merge is bit-identical to per-sample adds.
        inf = float("inf")
        acc_s2 = [0, 0, inf, -inf, 0]
        acc_s3 = [0, 0, inf, -inf, 0]
        acc_pipe = [0, 0, inf, -inf, 0]
        acc_fill = [0, 0, inf, -inf, 0]
        acc_lat = [0, 0, inf, -inf, 0]
        # Insert-time occupancy histogram as a flat list (occupancy is
        # bounded by n_streams); merged into the aggregator's dict bins
        # at the end — pure counter sums, order-free.
        occ_ins_counts = [0] * (n_streams + 1)
        # Sampled-occupancy histogram, also bounded by n_streams.
        occ_samp_counts = [0] * (n_streams + 1)
        store_val = int(MemOp.STORE)
        atomic_val = int(MemOp.ATOMIC)
        fence_val = int(MemOp.FENCE)
        store_op = MemOp.STORE
        LINE = CACHE_LINE_BYTES
        PAGE = PAGE_BYTES
        STORE_BIT = 1 << 52
        # Probe sites append to the probe-buffer columns (bound below
        # only when probes are on; every site tests ``probes_on`` first).
        probes_on = self._probes_on
        if probes_on:
            cols = self._probe_cols
            (on_entry_cycle, on_entry_wait, on_enable, on_disable, on_direct,
             on_insert_cycle, on_insert_occupancy, on_merged, on_allocated,
             on_forced, on_bypass_cycle, on_bypass_requests,
             on_stream_cycle, on_stream_requests, on_stream_pipeline,
             on_stream_sequences, on_stream_decode, on_sequence_cycle,
             on_sequence_packets, on_sequence_assembly, on_packet_bytes,
             on_maq_cycle, on_maq_occupancy, on_maq_full, on_fill_cycle,
             on_fill_cycles, on_mshr_merge, on_alloc_cycle,
             on_alloc_occupancy, on_alloc_span) = [
                cols[name].append for name in _PROBE_COLUMNS
            ]
            entry_events = cols["entry_cycle"]
            maq_events = cols["maq_cycle"]
            fold_probes = self._probe_buf.fold
        # Span sites call the recorder where the reference does, but
        # only for sampled requests: ``tracked`` holds the req_ids
        # admitted as sampled, and ``untracked(constituents)`` (a set
        # ``isdisjoint``, run in C) skips every packet that carries none.
        spans_on = self._spans_on
        if spans_on:
            spans = self._spans
            span_rate = spans.sample_rate
            span_offset = spans.sample_offset
            span_admit = spans.admit
            span_mark = spans.mark
            span_mark_many = spans.mark_many
            tracked: set = set()
            untracked = tracked.isdisjoint

        # ---- closures (transliterated reference internals) --------------

        def account(constituents, completion):
            # PagedAdaptiveCoalescer._account_packet
            nonlocal svc_cycles, svc_served
            pop = arrivals.pop
            served = 0
            cycles = 0
            for rid in constituents:
                arrival = pop(rid, None)
                if arrival is not None:
                    if completion > arrival:
                        cycles += completion - arrival
                    served += 1
            if served:
                svc_cycles += cycles
                svc_served += served

        def mshr_advance(now_):
            # AdaptiveMSHRFile.advance: apply releases due by now_.
            released = None
            while mshr_heap and mshr_heap[0][0] <= now_:
                slot = hpop(mshr_heap)[1]
                entry = mshr_slots.pop(slot, None)
                if entry is not None:
                    if released is None:
                        released = [entry]
                    else:
                        released.append(entry)
                    b0 = entry[0]
                    span = entry[1]
                    if span == 1:
                        bucket = mshr_cover[b0]
                        if len(bucket) == 1:
                            del mshr_cover[b0]
                        else:
                            bucket.remove(slot)
                    else:
                        for b in range(b0, b0 + span):
                            bucket = mshr_cover[b]
                            if len(bucket) == 1:
                                del mshr_cover[b]
                            else:
                                bucket.remove(slot)
            return released

        def mshr_next_release():
            # AdaptiveMSHRFile.next_release_cycle
            while mshr_heap:
                cycle_, slot = mshr_heap[0]
                if slot in mshr_slots:
                    return cycle_
                hpop(mshr_heap)
            return None

        def mshr_try_merge(packet, bucket):
            # AdaptiveMSHRFile.try_merge_packet: find a live same-op
            # entry whose span covers every block of the packet. The
            # caller already looked up the first-block cover bucket (so
            # the common miss costs no call); a bucket hit guarantees
            # the first block is covered, leaving only the last block's
            # range check.
            nonlocal mshr_merges
            for slot in bucket:
                entry = mshr_slots[slot]
                if entry[2] == packet.op:
                    break
            else:
                return None
            first_block = packet.addr // LINE
            if first_block - (-packet.size // LINE) - 1 >= entry[0] + entry[1]:
                return None
            mshr_merges += 1
            if probes_on:
                on_mshr_merge(packet.issue_cycle)
            return entry

        def issue(packet, t):
            # PagedAdaptiveCoalescer._issue_packet with the MSHR
            # allocation (AdaptiveMSHRFile.allocate_packet) and the
            # service accounting (_account_packet) inlined.
            nonlocal n_issued, payload, last_completion, mshr_next_slot
            nonlocal mshr_allocs
            nonlocal svc_cycles, svc_served
            addr = packet.addr
            b0 = addr // LINE
            span = (addr + packet.size - 1) // LINE - b0 + 1
            if span > MAX_SPAN_BLOCKS:
                raise ValueError(
                    f"entry span is 1..{MAX_SPAN_BLOCKS} blocks"
                )
            slot = mshr_next_slot
            mshr_next_slot += 1
            entry = [b0, span, packet.op, None]
            mshr_slots[slot] = entry
            if span == 1:
                bucket = mshr_cover.get(b0)
                if bucket is None:
                    mshr_cover[b0] = [slot]
                else:
                    bucket.append(slot)
            else:
                for b in range(b0, b0 + span):
                    bucket = mshr_cover.get(b)
                    if bucket is None:
                        mshr_cover[b] = [slot]
                    else:
                        bucket.append(slot)
            mshr_allocs += 1
            if probes_on:
                on_alloc_cycle(t)
                on_alloc_occupancy(len(mshr_slots))
                on_alloc_span(span)
            completion = memory_submit(packet, t)
            entry[3] = completion
            hpush(mshr_heap, (completion, slot))
            n_issued += 1
            payload += packet.size
            if completion > last_completion:
                last_completion = completion
            cons = packet.constituents
            if len(cons) == 1:
                arrival = arrivals_pop(cons[0], None)
                if arrival is not None:
                    if completion > arrival:
                        svc_cycles += completion - arrival
                    svc_served += 1
            else:
                served = 0
                cycles = 0
                for rid in cons:
                    arrival = arrivals_pop(rid, None)
                    if arrival is not None:
                        if completion > arrival:
                            cycles += completion - arrival
                        served += 1
                if served:
                    svc_cycles += cycles
                    svc_served += served
            if spans_on and not untracked(cons):
                span_mark_many(cons, "device", completion)

        def complete_merge(packet, merged, from_maq, cycle):
            # PagedAdaptiveCoalescer._complete_merge
            nonlocal n_merged, c_merges, maq_head, maq_count
            if from_maq:
                maq_pkt[maq_head] = None
                maq_head = (maq_head + 1) % maq_cap
                maq_count -= 1
                if probes_on:
                    on_maq_cycle(cycle)
                    on_maq_occupancy(maq_count)
            n_merged += packet.n_raw
            release = merged[3]
            if release is not None:
                cons = packet.constituents
                account(cons, release)
                if spans_on and not untracked(cons):
                    if from_maq:
                        span_mark_many(cons, "maq", cycle)
                    span_mark_many(cons, "mshr", release)
            c_merges += 1

        def drain_maq(now_, until_empty):
            # PagedAdaptiveCoalescer._drain_maq with _drain_one's
            # common case (head ready, MSHRs not full, no merge hit)
            # inlined: pop + issue without the per-packet call chain.
            nonlocal maq_stall_until, c_cam, maq_head, maq_count
            while maq_count:
                ready = maq_rdy[maq_head]
                if not until_empty and now_ is not None and ready > now_:
                    break
                packet = maq_pkt[maq_head]
                if mshr_heap and mshr_heap[0][0] <= ready:
                    mshr_advance(ready)
                c_cam += len(mshr_slots)
                bucket = mshr_cover.get(packet.addr // LINE)
                merged = mshr_try_merge(packet, bucket) if bucket else None
                if merged is not None:
                    maq_stall_until = 0
                    complete_merge(packet, merged, True, ready)
                    continue
                if len(mshr_slots) >= n_mshrs:
                    # Full file: same release-wait dance as _drain_one.
                    t = ready
                    horizon = ready if now_ is None or now_ < ready else now_
                    released = (
                        mshr_advance(horizon)
                        if mshr_heap and mshr_heap[0][0] <= horizon
                        else None
                    )
                    if released:
                        freed_at = min(
                            e[3] for e in released if e[3] is not None
                        )
                        if freed_at > t:
                            t = freed_at
                    elif not until_empty:
                        release = mshr_next_release()
                        maq_stall_until = (
                            release if release is not None else 0
                        )
                        break
                    else:
                        release = mshr_next_release()
                        assert release is not None, (
                            "full adaptive MSHRs with no releases"
                        )
                        if release > t:
                            t = release
                        mshr_advance(t)
                    bucket = mshr_cover.get(packet.addr // LINE)
                    merged = (
                        mshr_try_merge(packet, bucket) if bucket else None
                    )
                    if merged is not None:
                        maq_stall_until = 0
                        complete_merge(packet, merged, True, t)
                        continue
                    maq_stall_until = 0
                    maq_pkt[maq_head] = None
                    maq_head = (maq_head + 1) % maq_cap
                    maq_count -= 1
                    if probes_on:
                        on_maq_cycle(t)
                        on_maq_occupancy(maq_count)
                    if spans_on and not untracked(packet.constituents):
                        span_mark_many(packet.constituents, "maq", t)
                    issue(packet, t)
                    continue
                maq_stall_until = 0
                maq_pkt[maq_head] = None
                maq_head = (maq_head + 1) % maq_cap
                maq_count -= 1
                if probes_on:
                    on_maq_cycle(ready)
                    on_maq_occupancy(maq_count)
                if spans_on and not untracked(packet.constituents):
                    span_mark_many(packet.constituents, "maq", ready)
                issue(packet, ready)

        def enqueue(packet):
            # PagedAdaptiveCoalescer._enqueue_packet with the MAQ push
            # (MemoryAccessQueue.push) and the forced head drain
            # (_drain_one(None, force=True)) inlined on the ring slot
            # array — the MAQ runs full through flush bursts, so this
            # is the kernel's hottest path.
            nonlocal entry_clock, c_pipe_stalls, episode_start
            nonlocal maq_head, maq_count, maq_pushed, maq_peak
            nonlocal c_full_stalls, maq_stall_until, c_cam
            ready = packet.issue_cycle
            count = maq_count
            if count >= maq_cap:
                c_full_stalls += 1
                if probes_on:
                    on_maq_full(ready)
                head_pkt = maq_pkt[maq_head]
                head_ready = maq_rdy[maq_head]
                if mshr_heap and mshr_heap[0][0] <= head_ready:
                    mshr_advance(head_ready)
                c_cam += len(mshr_slots)
                bucket = mshr_cover.get(head_pkt.addr // LINE)
                merged = (
                    mshr_try_merge(head_pkt, bucket) if bucket else None
                )
                if merged is not None:
                    maq_stall_until = 0
                    complete_merge(head_pkt, merged, True, head_ready)
                    waited = head_ready
                else:
                    waited = head_ready
                    if len(mshr_slots) >= n_mshrs:
                        released = (
                            mshr_advance(head_ready)
                            if mshr_heap and mshr_heap[0][0] <= head_ready
                            else None
                        )
                        if released:
                            freed_at = min(
                                e[3] for e in released if e[3] is not None
                            )
                            if freed_at > waited:
                                waited = freed_at
                        else:
                            release = mshr_next_release()
                            assert release is not None, (
                                "full adaptive MSHRs with no releases"
                            )
                            if release > waited:
                                waited = release
                            mshr_advance(waited)
                        bucket = mshr_cover.get(head_pkt.addr // LINE)
                        merged = (
                            mshr_try_merge(head_pkt, bucket)
                            if bucket else None
                        )
                    if merged is not None:
                        maq_stall_until = 0
                        complete_merge(head_pkt, merged, True, waited)
                    else:
                        maq_stall_until = 0
                        maq_pkt[maq_head] = None
                        maq_head = (maq_head + 1) % maq_cap
                        maq_count -= 1
                        if probes_on:
                            on_maq_cycle(waited)
                            on_maq_occupancy(maq_count)
                        if spans_on and not untracked(head_pkt.constituents):
                            span_mark_many(
                                head_pkt.constituents, "maq", waited
                            )
                        issue(head_pkt, waited)
                if waited > entry_clock:
                    entry_clock = waited
                if waited > ready:
                    c_pipe_stalls += waited - ready
                count = maq_count
                if count >= maq_cap:
                    raise AssertionError("MAQ still full after forced drain")
                if waited > ready:
                    ready = waited
            if not count:
                episode_start = ready
            slot = (maq_head + count) % maq_cap
            maq_pkt[slot] = packet
            maq_rdy[slot] = ready
            count += 1
            maq_count = count
            maq_pushed += 1
            if count > maq_peak:
                maq_peak = count
            if probes_on:
                on_maq_cycle(ready)
                on_maq_occupancy(count)
                if len(maq_events) >= FOLD_EVENTS:
                    fold_probes()
            if count >= maq_cap and episode_start is not None:
                fill = ready - episode_start
                if fill < 0:
                    fill = 0
                if probes_on:
                    on_fill_cycle(ready)
                    on_fill_cycles(fill)
                acc_fill[0] += 1
                acc_fill[1] += fill
                acc_fill[4] += fill * fill
                if fill < acc_fill[2]:
                    acc_fill[2] = fill
                if fill > acc_fill[3]:
                    acc_fill[3] = fill
                episode_start = None

        def flush(rec, flush_cycle):
            # _flush_stream + CoalescingNetwork.flush_stream + stages 2-3
            # inlined over the flat record.
            nonlocal c_byp_streams, c_byp_reqs, c_coal_streams, c_coal_reqs
            nonlocal dec_streams, dec_sequences, asm_sequences, asm_packets
            nreq = rec[7]
            residency = flush_cycle - rec[4]
            r = float(residency) if residency > 1 else 1.0
            acc_lat[0] += nreq
            acc_lat[1] += r * nreq
            acc_lat[4] += r * r * nreq
            if r < acc_lat[2]:
                acc_lat[2] = r
            if r > acc_lat[3]:
                acc_lat[3] = r
            greq = rec[6]
            op = rec[3]
            page_base = rec[2] * PAGE
            if spans_on:
                # Stage-1 residency ends at the flush; multi-grain
                # req_ids repeat across lists, and mark_many keeps the
                # first stamp.
                for rids in greq.values():
                    if not untracked(rids):
                        span_mark_many(rids, "stage1", flush_cycle)
            if nreq <= 1:
                # C = 0: single request — bypass stages 2-3.
                c_byp_streams += 1
                c_byp_reqs += nreq
                if probes_on:
                    on_bypass_cycle(flush_cycle)
                    on_bypass_requests(nreq)
                if len(greq) == 1:
                    first = last = next(iter(greq))
                else:
                    grains = sorted(greq)
                    first = grains[0]
                    last = grains[-1]
                rids = greq[first]
                cons = (
                    (rids[0],) if len(rids) == 1
                    else tuple(dict.fromkeys(rids))
                )
                if spans_on and not untracked(cons):
                    span_mark_many(cons, "network", flush_cycle + 1)
                enqueue(new_packet(
                    page_base + first * grain_bytes,
                    (last - first + 1) * grain_bytes,
                    op,
                    cons,
                    flush_cycle + 1,  # BYPASS_CYCLES
                    "pac-bypass",
                ))
                return
            c_coal_streams += 1
            c_coal_reqs += nreq
            greq_get = greq.get
            stage3_free = flush_cycle
            ready = flush_cycle + 2  # DECODE_CYCLES; j-th chunk at +j
            n_seq = 0
            # Walk nonzero chunks by mask/shift directly over the block
            # map (same ascending order as bitops.nonzero_chunks, minus
            # the three intermediate lists).
            bmap = rec[5]
            chunk_index = 0
            while bmap:
                pattern = bmap & chunk_mask
                bmap >>= chunk_width
                if not pattern:
                    chunk_index += 1
                    continue
                start = ready if ready > stage3_free else stage3_free
                layout = table_memo.get(pattern)
                if layout is None:
                    layout = table_compute(pattern)
                    table_memo[pattern] = layout
                cycle = start + 1  # LOOKUP_CYCLES
                chunk_base = chunk_index * chunk_width
                for grain_offset, n_grains in layout:
                    cycle += 1  # ASSEMBLE_CYCLES
                    base_g = chunk_base + grain_offset
                    if n_grains == 1:
                        rids = greq_get(base_g, ())
                    else:
                        rids = [
                            rid
                            for g in range(base_g, base_g + n_grains)
                            for rid in greq_get(g, ())
                        ]
                    if len(rids) > 1:
                        cons = tuple(dict.fromkeys(rids))
                    elif rids:
                        cons = (rids[0],)
                    else:
                        raise AssertionError(
                            "coalescing table produced a packet over "
                            "empty grains"
                        )
                    size = size_memo.get(n_grains)
                    if size is None:
                        size = packet_bytes(n_grains)
                        size_memo[n_grains] = size
                    if spans_on and not untracked(cons):
                        span_mark_many(cons, "network", cycle)
                    enqueue(new_packet(
                        page_base + base_g * grain_bytes,
                        size, op, cons, cycle, "pac",
                    ))
                    asm_packets += 1
                asm_sequences += 1
                d = cycle - start
                if probes_on:
                    on_sequence_cycle(start)
                    on_sequence_packets(len(layout))
                    on_sequence_assembly(d)
                    for _, n_grains in layout:
                        on_packet_bytes(size_memo[n_grains])
                acc_s3[0] += 1
                acc_s3[1] += d
                acc_s3[4] += d * d
                if d < acc_s3[2]:
                    acc_s3[2] = d
                if d > acc_s3[3]:
                    acc_s3[3] = d
                stage3_free = cycle
                ready += 1
                n_seq += 1
                chunk_index += 1
            dec_streams += 1
            dec_sequences += n_seq
            if n_seq:
                d = 2 + n_seq - 1  # DECODE_CYCLES + stores
                acc_s2[0] += 1
                acc_s2[1] += d
                acc_s2[4] += d * d
                if d < acc_s2[2]:
                    acc_s2[2] = d
                if d > acc_s2[3]:
                    acc_s2[3] = d
            d = stage3_free - flush_cycle
            acc_pipe[0] += 1
            acc_pipe[1] += d
            acc_pipe[4] += d * d
            if d < acc_pipe[2]:
                acc_pipe[2] = d
            if d > acc_pipe[3]:
                acc_pipe[3] = d
            if probes_on:
                # A coalesced stream holds >= 2 requests, so its block
                # map is nonzero and n_seq >= 1: the decoder's
                # ``if n_seq`` probe guard always passes here.
                on_stream_cycle(flush_cycle)
                on_stream_requests(nreq)
                on_stream_pipeline(d)
                on_stream_sequences(n_seq)
                on_stream_decode(2 + n_seq - 1)

        def sample_windows(now_, expired_deadlines):
            # PagedAdaptiveCoalescer._sample_windows
            nonlocal last_sample
            if last_sample + sample_period > now_:
                return
            base = len(agg)  # survivors (already expired out)
            if expired_deadlines:
                last_deadline = expired_deadlines[-1]
                limit = now_ if now_ < last_deadline else last_deadline
                while last_sample + sample_period <= limit:
                    window_start = last_sample
                    last_sample += sample_period
                    still = 0
                    for d in expired_deadlines:
                        if d > window_start:
                            still += 1
                    occ_samp_counts[base + still] += 1
            remaining = (now_ - last_sample) // sample_period
            if remaining > 0:
                occ_samp_counts[base] += remaining
                last_sample += remaining * sample_period

        # ---- main sweep --------------------------------------------------
        for start, stop in window_bounds(raw["op"]):
            for rid, addr, size, op, cycle in islice(stream, stop - start):
                now = entry_clock
                if cycle > now:
                    now = cycle
                arrivals[rid] = now
                stall_cycles += now - cycle
                entry_clock = now + 1
                if probes_on:
                    if len(entry_events) >= FOLD_EVENTS:
                        fold_probes()
                    on_entry_cycle(now)
                    on_entry_wait(now - cycle)
                if spans_on and rid % span_rate == span_offset:
                    # index = raw-stream ordinal, as in the reference.
                    tracked.add(rid)
                    span_admit(rid, addr, cores[rid], op, cycle, now)

                # -- inlined _advance(now) --
                if agg and agg[0][1] <= now:
                    if last_sample + sample_period <= now:
                        due = []
                        due_append = due.append
                        while agg and agg[0][1] <= now:
                            rec = agg.popleft()
                            del by_tag[rec[0]]
                            due_append(rec)
                        sample_windows(now, [rec[1] for rec in due])
                        for rec in due:
                            flush(rec, rec[1])
                    else:
                        # Sampling not due: flush each expiry as it is
                        # popped. ``flush`` never touches agg/by_tag, so
                        # this is order-identical to collect-then-flush.
                        while agg and agg[0][1] <= now:
                            rec = agg.popleft()
                            del by_tag[rec[0]]
                            flush(rec, rec[1])
                elif last_sample + sample_period <= now:
                    # sample_windows(now, ()) inlined: no expiries, so
                    # every elapsed window saw the current occupancy.
                    remaining = (now - last_sample) // sample_period
                    occ_samp_counts[len(agg)] += remaining
                    last_sample += remaining * sample_period
                if maq_count and maq_rdy[maq_head] <= now:
                    if now < maq_stall_until:
                        # Head ready but MSHRs provably full: replay the
                        # CAM sweep, skip the poll.
                        c_cam += n_mshrs
                    else:
                        drain_maq(now, False)
                if mshr_heap and mshr_heap[0][0] <= now:
                    mshr_advance(now)
                if (
                    idle_bypass
                    and network_enabled
                    and not maq_count
                    and not agg
                    and len(mshr_slots) < n_mshrs
                ):
                    network_enabled = False
                    c_net_disables += 1
                    if probes_on:
                        on_disable(now)

                # -- op dispatch --
                if op < atomic_val:  # LOAD or STORE
                    if not network_enabled:
                        if len(mshr_slots) >= n_mshrs:
                            network_enabled = True
                            c_net_enables += 1
                            if probes_on:
                                on_enable(now)
                        else:
                            # _direct_to_mshr: straight into the MSHRs.
                            if mshr_heap and mshr_heap[0][0] <= now:
                                mshr_advance(now)
                            c_direct += 1
                            if probes_on:
                                on_direct(now)
                            c_direct_cam += len(mshr_slots)
                            packet = new_packet(
                                addr - (addr % grain_bytes),
                                grain_bytes,
                                OPS[op],
                                (rid,),
                                now,
                                "pac-direct",
                            )
                            bucket = mshr_cover.get(packet.addr // LINE)
                            merged = (
                                mshr_try_merge(packet, bucket)
                                if bucket else None
                            )
                            if merged is not None:
                                complete_merge(packet, merged, False, now)
                            else:
                                issue(packet, now)
                            lat_direct += 1
                            continue
                    # -- aggregator.insert, inlined --
                    n_active = len(agg)
                    c_comparisons += n_active
                    occ_ins_counts[n_active] += 1
                    if probes_on:
                        on_insert_cycle(now)
                        on_insert_occupancy(n_active)
                    page = addr // PAGE
                    tag = (STORE_BIT | page) if op == store_val else page
                    rec = by_tag.get(tag)
                    forced = None
                    if rec is None:
                        if n_active >= n_streams:
                            forced = agg.popleft()
                            del by_tag[forced[0]]
                            c_forced += 1
                            if probes_on:
                                on_forced(now)
                        rec = [
                            tag, now + timeout, page, OPS[op], now,
                            0, {}, 0,
                        ]
                        agg.append(rec)
                        by_tag[tag] = rec
                        c_alloc += 1
                        if probes_on:
                            on_allocated(now)
                    else:
                        c_merged += 1
                        if probes_on:
                            on_merged(now)
                    # -- CoalescingStream.add, inlined --
                    offset = addr % PAGE
                    first = offset // grain_bytes
                    last_off = offset + size - 1
                    if last_off >= PAGE:
                        last_off = PAGE - 1
                    last = last_off // grain_bytes
                    greq = rec[6]
                    if first == last:
                        rec[5] |= 1 << first
                        bucket = greq.get(first)
                        if bucket is None:
                            greq[first] = [rid]
                        else:
                            bucket.append(rid)
                    else:
                        bmap = rec[5]
                        for g in range(first, last + 1):
                            bmap |= 1 << g
                            bucket = greq.get(g)
                            if bucket is None:
                                greq[g] = [rid]
                            else:
                                bucket.append(rid)
                        rec[5] = bmap
                    rec[7] += 1
                    if forced is not None:
                        flush(forced, now)
                elif op == atomic_val:
                    # Atomics bypass PAC entirely (Section 3.3.1).
                    packet = new_packet(
                        addr - (addr % LINE),
                        size if size > 16 else 16,
                        store_op,
                        (rid,),
                        now,
                        "atomic",
                    )
                    completion = memory_submit(packet, now)
                    n_issued += 1
                    payload += packet.size
                    if completion > last_completion:
                        last_completion = completion
                    if completion > now:
                        svc_cycles += completion - now
                    svc_served += 1
                    if spans_on and rid in tracked:
                        span_mark(rid, "device", completion)
                    c_atomics += 1
                elif op == fence_val:
                    # aggregator.fence: flush everything at `now`.
                    if agg:
                        flushed = list(agg)
                        agg.clear()
                        by_tag.clear()
                        c_fence_flush += len(flushed)
                        for rec in flushed:
                            flush(rec, now)
                    c_fences += 1
                else:
                    raise ValueError(
                        f"non-coalescable op in aggregator: {op}"
                    )

        out.n_raw = len(raw)
        out.stall_cycles += stall_cycles

        # End of stream: the deque is deadline-ordered, so draining in
        # order matches the reference's stable sort by deadline.
        if agg:
            for rec in agg:
                flush(rec, rec[1])
            agg.clear()
            by_tag.clear()
        drain_maq(None, True)

        # ---- merge local accumulation into the shared registries --------
        out.n_issued += n_issued
        out.payload_bytes += payload
        out.n_merged += n_merged
        if last_completion > out.last_completion_cycle:
            out.last_completion_cycle = last_completion
        out.raw_service_cycles += svc_cycles
        out.raw_serviced += svc_served
        if lat_direct:
            # Direct-path requests each record a 1-cycle residency.
            acc_lat[0] += lat_direct
            acc_lat[1] += 1.0 * lat_direct
            acc_lat[4] += 1.0 * lat_direct
            if 1.0 < acc_lat[2]:
                acc_lat[2] = 1.0
            if 1.0 > acc_lat[3]:
                acc_lat[3] = 1.0
        self._c_atomics.value += c_atomics
        self._c_fences.value += c_fences
        self._c_net_enables.value += c_net_enables
        self._c_net_disables.value += c_net_disables
        self._c_pipeline_stalls.value += c_pipe_stalls
        self._c_mshr_cam.value += c_cam
        self._c_mshr_merges.value += c_merges
        mshrs = self.mshrs
        mshrs._c_allocations.value += mshr_allocs
        mshrs._c_packet_merges.value += mshr_merges
        self._c_direct.value += c_direct
        self._c_direct_cam.value += c_direct_cam
        aggregator = self.aggregator
        occ_ins_bins = aggregator._occ_bins
        for occ, n in enumerate(occ_ins_counts):
            if n:
                occ_ins_bins[occ] = occ_ins_bins.get(occ, 0) + n
        occ_samp_bins = self._h_occupancy.bins
        for occ, n in enumerate(occ_samp_counts):
            if n:
                occ_samp_bins[occ] = occ_samp_bins.get(occ, 0) + n
        aggregator._c_comparisons.value += c_comparisons
        aggregator._c_merged.value += c_merged
        aggregator._c_forced.value += c_forced
        aggregator._c_alloc.value += c_alloc
        aggregator._c_fence.value += c_fence_flush
        network._c_bypassed_streams.value += c_byp_streams
        network._c_bypassed_requests.value += c_byp_reqs
        network._c_coalesced_streams.value += c_coal_streams
        network._c_coalesced_requests.value += c_coal_reqs
        decoder = network.decoder
        decoder._c_streams.value += dec_streams
        decoder._c_sequences.value += dec_sequences
        # Memo-direct stage-3 lookups: one per nonzero chunk, which is
        # exactly what dec_sequences counted.
        table.lookups += dec_sequences
        assembler = network.assembler
        assembler._c_sequences.value += asm_sequences
        assembler._c_packets.value += asm_packets
        for acc, loc in (
            (network.decoder._a_stage2, acc_s2),
            (network.assembler._a_stage3, acc_s3),
            (network._a_pipeline_cycles, acc_pipe),
            (self.maq._a_fill_cycles, acc_fill),
            (self._acc_latency, acc_lat),
        ):
            if loc[0]:
                acc.count += loc[0]
                acc.total += loc[1]
                acc._sumsq += loc[4]
                if loc[2] < acc.min:
                    acc.min = loc[2]
                if loc[3] > acc.max:
                    acc.max = loc[3]
        maq = self.maq
        maq._c_full_stalls.value += c_full_stalls
        maq._episode_start = episode_start
        fifo = maq._fifo
        fifo.total_pushed += maq_pushed
        if maq_peak > fifo.peak_occupancy:
            fifo.peak_occupancy = maq_peak
        self._entry_clock = entry_clock
        self._maq_stall_until = maq_stall_until
        self._last_sample = last_sample
        self.network_enabled = network_enabled
        if probes_on:
            fold_probes()

        out.comparisons = aggregator.stats.count(
            "comparisons"
        ) + self.stats.count("direct_cam_comparisons")
        return out

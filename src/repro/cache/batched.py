"""Batched cache front-end: the array-backed twin of `CacheHierarchy`.

:class:`BatchedCacheHierarchy` consumes a whole :class:`AccessTrace` and
produces the *identical* :class:`~repro.cache.hierarchy.RawStream` the
scalar reference produces — same requests in the same cycle order, same
eager OoO secondaries, same streamer-prefetcher decisions, same LLC
write-back stream, same ``StatsRegistry`` counters. The bit-identity
contract is enforced by ``tests/cache/test_batched_frontend.py``, the
Hypothesis suite next to it, and the CI front-end parity step; the
engine is only allowed to exist while those pass.

Where the time goes, and how this file wins it back
---------------------------------------------------
The reference loop pays, per access: a numpy-scalar unboxing, two
method calls into :class:`SetAssociativeCache`, an ``OrderedDict``
probe + ``move_to_end``, and per-emission ``MemoryRequest`` dataclass
``__init__``/``__post_init__``. This implementation:

* decomposes the whole trace up front with the vectorized shift/mask
  kernels (:func:`repro.mem.address.line_addresses` /
  :func:`~repro.mem.address.set_slot_bases`) and converts every column
  to native Python lists once;
* replaces each per-set ``OrderedDict`` with the flat way arrays of
  :class:`repro.cache.setassoc.FlatLRU` — a dict residency probe plus
  age-stamp arrays, shared across the L1s and the LLC via one
  monotonic tick (min-stamp victim scan ≡ ``popitem(last=False)``);
* emits no request objects: each emission appends its five fields to
  column lists, packed once into the
  :data:`~repro.artifacts.shm.REQ_DTYPE` array the coalescers read;
* accumulates all counters in local ints and merges them into the real
  ``StatsRegistry`` objects once per :meth:`process` call — the same
  pattern :mod:`repro.core.pac_batched` established.

Telemetry probes see every emission the reference reports: with an
enabled registry each emission site appends its cycle to the bounded
columns of a :class:`~repro.telemetry.ProbeBuffer` (``raw_requests``
plus the kind counter — demand, secondary, prefetch or write-back),
folded into the probes whenever the raw column reaches
:data:`~repro.telemetry.FOLD_EVENTS` and at the end of :meth:`process`.
Span tracing stamps the same origins: each emission site calls
:meth:`~repro.telemetry.SpanRecorder.origin` with its kind (demand,
secondary, prefetch, write-back, atomic or fence) when the ordinal the
request is about to take is sampled, as the reference ``emit`` does.
With spans off each site costs one local flag test.

One observable difference is documented and accepted: the inherited
``SetAssociativeCache`` objects serve as geometry + stats carriers only
— they never build their ``OrderedDict`` sets (a cache builds them on
first use), so ``occupancy`` reads zero.
Hit rates, ``summary_metrics`` and every engine-facing consumer go
through the merged stats, which are identical.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.artifacts.shm import REQ_DTYPE
from repro.cache.hierarchy import (
    PREFETCH_REGION_BYTES,
    CacheHierarchy,
    RawStream,
)
from repro.cache.setassoc import FlatLRU
from repro.common.types import MemOp, PAGE_BYTES
from repro.mem.address import line_addresses
from repro.mem.trace import AccessTrace
from repro.telemetry import FOLD_EVENTS, NULL_SPANS, NULL_TELEMETRY, ProbeBuffer


class BatchedCacheHierarchy(CacheHierarchy):
    """Array-backed front-end, bit-identical to :class:`CacheHierarchy`."""

    def __init__(
        self,
        config,
        n_cores: int = 8,
        secondary_cap: int = CacheHierarchy.DEFAULT_SECONDARY_CAP,
        lookahead_window: int = CacheHierarchy.DEFAULT_LOOKAHEAD,
        prefetch_enabled: bool = True,
        probes=NULL_TELEMETRY,
        spans=NULL_SPANS,
    ) -> None:
        super().__init__(
            config,
            n_cores=n_cores,
            secondary_cap=secondary_cap,
            lookahead_window=lookahead_window,
            prefetch_enabled=prefetch_enabled,
            probes=probes,
            spans=spans,
        )
        #: Flat LRU state shadowing the (empty) OrderedDict caches.
        self._flat_l1s: List[FlatLRU] = [FlatLRU(l1) for l1 in self.l1s]
        self._flat_llc = FlatLRU(self.llc)
        #: One monotonic age-stamp counter shared by every cache level —
        #: LRU order only compares stamps within one set of one cache,
        #: so uniqueness + monotonicity is all that matters.
        self._tick = 0
        if self._probes_on:
            # Emission cycles for the probes CacheHierarchy registered:
            # every emission lands in the raw column, so it bounds the
            # four kind columns too.
            buf = self._probe_buf = ProbeBuffer()
            self._probe_raw = raw = buf.column()
            cols = [buf.column() for _ in range(4)]
            self._probe_appends = (raw.append, *(c.append for c in cols))
            buf.feed(self._t_raw, raw)
            for probe, col in zip(
                (self._t_demand, self._t_secondary, self._t_prefetch,
                 self._t_writebacks),
                cols,
            ):
                buf.feed(probe, col)

    # ------------------------------------------------------------------ #

    def process(self, trace: AccessTrace, fine_grain: bool = False) -> RawStream:
        """Single-pass batched replay of the reference ``process`` loop.

        The control flow below is a line-for-line mirror of
        ``CacheHierarchy.process`` + ``_prefetch`` — every branch in the
        same order, so the emission stream and the LRU state evolve
        identically — with the per-access object machinery replaced by
        flat arrays and local ints. Resist "obvious" reorderings: the
        victim chosen by a full set depends on every prior touch.
        """
        config = self.config
        line = config.line_bytes
        n_cores = self.n_cores
        n = len(trace)

        # ---- vectorized trace decomposition (one pass per column) ---- #
        # Only the columns the *hit path* reads are materialized as
        # full lists (line address, core, op — see the loop header);
        # everything the miss path needs (cycle, exact address, set slot
        # base, page) is fetched or computed lazily per miss. On the
        # hit-dominated traces (hpcg, stream) the per-iteration tuple
        # unpack is the loop's fixed cost, and three columns beat nine.
        addrs_arr = np.asarray(trace.addrs, dtype=np.int64)
        line_arr = line_addresses(addrs_arr, line)
        l1_geom = self._flat_l1s[0]
        llc_geom = self._flat_llc
        l1_ways = l1_geom.ways
        llc_ways = llc_geom.ways

        ops_arr = np.asarray(trace.ops)
        prefetch_on = self.prefetch_enabled
        line_addrs = line_arr.tolist()
        ops = ops_arr.tolist()
        cycles = np.asarray(trace.cycles).tolist()
        atomic_val = int(MemOp.ATOMIC)
        fence_val = int(MemOp.FENCE)
        store_val = int(MemOp.STORE)
        sizes = None
        addrs = None
        if fine_grain or bool((ops_arr == atomic_val).any()):
            sizes = np.asarray(trace.sizes).tolist()
            addrs = addrs_arr.tolist()

        # Per-core next-same-line-occurrence chains for the OoO
        # lookahead. The reference scans the next ``window`` accesses of
        # the issuing core for the missing line on every primary miss;
        # here a stable argsort groups each core's equal line addresses
        # in position order, giving ``nxt[p]`` = the next position after
        # ``p`` touching the same line (−1 if none). A lookahead is then
        # at most ``secondary_cap`` chain hops and window compares —
        # no per-miss scan, and no ``ValueError`` for the (common)
        # no-secondary case.
        core_mod = np.asarray(trace.cores) % n_cores
        cores = core_mod.tolist()
        # pos0[i]: this access's 0-based position within its core's
        # stream — precomputed so the loop never maintains per-core
        # position counters (read only on primary misses).
        pos0_arr = np.empty(n, dtype=np.int64)
        core_nxt = []
        core_idx_lists = []
        for c in range(n_cores):
            idx = np.flatnonzero(core_mod == c)
            pos0_arr[idx] = np.arange(len(idx), dtype=np.int64)
            lines_c = line_arr[idx]
            m = len(lines_c)
            nxt = np.full(m, -1, dtype=np.int64)
            if m > 1:
                order = np.argsort(lines_c, kind="stable")
                same = lines_c[order][1:] == lines_c[order][:-1]
                nxt[order[:-1][same]] = order[1:][same]
            core_nxt.append(nxt.tolist())
            core_idx_lists.append(idx.tolist() if fine_grain else None)
        pos0 = pos0_arr.tolist()

        # ---- flat LRU state, bound to locals ---- #
        l1_slots = [f.slots for f in self._flat_l1s]
        l1_getters = [f.slots.get for f in self._flat_l1s]
        l1_tags = [f.tags for f in self._flat_l1s]
        l1_stamps = [f.stamps for f in self._flat_l1s]
        l1_dirty = [f.dirty for f in self._flat_l1s]
        l1_lens = [f.lens for f in self._flat_l1s]
        llc_slots = llc_geom.slots
        llc_get = llc_slots.get
        llc_tags = llc_geom.tags
        llc_stamps = llc_geom.stamps
        llc_dirt = llc_geom.dirty
        llc_lens = llc_geom.lens
        tick = self._tick

        l1_shift = l1_geom._line_shift
        l1_mask = l1_geom._set_mask
        llc_shift = llc_geom._line_shift
        llc_mask = llc_geom._set_mask
        l1_n_sets = l1_geom.n_sets
        llc_n_sets = llc_geom.n_sets

        if l1_shift is not None:
            def l1_base(a):
                return ((a >> l1_shift) & l1_mask) * l1_ways
        else:
            def l1_base(a):
                return ((a // line) % l1_n_sets) * l1_ways

        if llc_shift is not None:
            def llc_base(a):
                return ((a >> llc_shift) & llc_mask) * llc_ways
        else:
            def llc_base(a):
                return ((a // line) % llc_n_sets) * llc_ways

        # Every fill site — this closure, both demand-miss sites, and
        # the three inlined prefetch-path installs in the main loop —
        # carries its own copy of the :meth:`FlatLRU.fill` body:
        # min-stamp victim == OrderedDict.popitem(last=False), with the
        # slice+min+index scan running at C speed (~2x a Python scan).
        # A shared closure was measurably slower at gs's fill volume.
        # ``llc_install`` remains a closure only for the cold demand-
        # side L1-victim write-back path.

        def llc_install(line_addr, dirty_flag):
            """``llc.install``: touch if present, else fill (no counters)."""
            nonlocal tick
            slot = llc_get(line_addr)
            if slot is not None:
                llc_stamps[slot] = tick
                tick += 1
                if dirty_flag:
                    llc_dirt[slot] = True
                return None
            base = llc_base(line_addr)
            end = base + llc_ways
            writeback = None
            if llc_lens[base] >= llc_ways:
                set_stamps = llc_stamps[base:end]
                slot = base + set_stamps.index(min(set_stamps))
                victim = llc_tags[slot]
                del llc_slots[victim]
                if llc_dirt[slot]:
                    writeback = victim
            else:
                llc_lens[base] += 1
                slot = base + llc_tags[base:end].index(-1)
            llc_tags[slot] = line_addr
            llc_dirt[slot] = dirty_flag
            llc_stamps[slot] = tick
            tick += 1
            llc_slots[line_addr] = slot
            return writeback

        # ---- locally-accumulated counters (merged once at the end) ---- #
        raw_n = sec_n = pf_n = wb_n = atom_n = fence_n = 0
        # Per-core L1 *demand* probes (every LOAD/STORE probes its L1
        # exactly once) — hits come out as ``demand - misses``, so the
        # hot hit path carries no counter at all.
        l1_demand_n = np.bincount(
            core_mod[ops_arr < atomic_val], minlength=n_cores
        ).tolist()
        l1_miss_n = [0] * n_cores
        l1_dev_n = [0] * n_cores
        llc_hit_n = llc_miss_n = llc_dev_n = 0

        # The raw stream as five columns, packed into the REQ_DTYPE
        # array at the end. Hot emission sites inline the five appends;
        # cold ones (atomics, fences, fine-grain payloads, prefetch-path
        # write-backs) call ``emit``.
        out_cols: List[list] = [[] for _ in REQ_DTYPE.names]
        out = out_cols[0]  # the address column: its length is the ordinal
        o_addr, o_size, o_op, o_core, o_cycle = (c.append for c in out_cols)

        def emit(addr, size, op_value, core, cycle):
            o_addr(addr)
            o_size(size)
            o_op(op_value)
            o_core(core)
            o_cycle(cycle)

        secondary_cap = self.secondary_cap
        window = self.lookahead_window
        stride_tables = self._stride_tables
        probes_on = self._probes_on
        if probes_on:
            (on_raw, on_demand, on_secondary, on_prefetch,
             on_writeback) = self._probe_appends
            raw_events = self._probe_raw
            fold_probes = self._probe_buf.fold
        # Span origins: each emission site stamps its kind when the
        # ordinal it is about to take (``len(out)``) is sampled.
        spans_on = self._spans_on
        if spans_on:
            spans_origin = self._spans.origin
            span_rate = self._spans.sample_rate
            span_offset = self._spans.sample_offset
        stride_cap = self._stride_table_cap
        region_span = PREFETCH_REGION_BYTES * (1 + config.prefetch_regions)

        # The zip carries only the three hit-path columns; ``enumerate``
        # supplies the index for the lazy miss-path reads. On an L1 hit
        # the loop body is: position bump, op compare, dict probe, stamp
        # refresh, counter — nothing else.
        for i, (line_addr, core, op_val) in enumerate(zip(line_addrs, cores, ops)):
            if op_val >= atomic_val:
                cycle = cycles[i]
                if probes_on:
                    if len(raw_events) >= FOLD_EVENTS:
                        fold_probes()
                    on_raw(cycle)
                if op_val == atomic_val:
                    # Atomics bypass the caches and invalidate the line.
                    # (The evicted slot's stale dirty bit is never read:
                    # `fill` overwrites it when the slot is re-claimed.)
                    slot = l1_slots[core].pop(line_addr, None)
                    if slot is not None:
                        l1_tags[core][slot] = -1
                        l1_lens[core][slot - slot % l1_ways] -= 1
                    slot = llc_slots.pop(line_addr, None)
                    if slot is not None:
                        llc_tags[slot] = -1
                        llc_lens[slot - slot % llc_ways] -= 1
                    atom_n += 1
                    if spans_on and len(out) % span_rate == span_offset:
                        spans_origin(len(out), "atomic")
                    emit(addrs[i], sizes[i], atomic_val, core, cycle)
                else:
                    # Fences propagate as line-aligned drain markers.
                    fence_n += 1
                    if spans_on and len(out) % span_rate == span_offset:
                        spans_origin(len(out), "fence")
                    emit(line_addr, line, fence_val, core, cycle)
                continue

            # L1 access (inlined FlatLRU hit path). ``op_val`` is 0/1
            # here (atomics/fences peeled off above), so its truthiness
            # IS the store bit — no compare on the hit path. Hits are
            # not counted per access either: every LOAD/STORE probes the
            # L1 exactly once, so per-core hits are derived after the
            # loop as demand accesses minus misses.
            slot = l1_getters[core](line_addr)
            if slot is not None:
                l1_stamps[core][slot] = tick
                tick += 1
                if op_val:
                    l1_dirty[core][slot] = True
                continue
            is_store = op_val == store_val
            cycle = cycles[i]
            l1_miss_n[core] += 1
            if probes_on and len(raw_events) >= FOLD_EVENTS:
                fold_probes()
            # Demand-miss fill, inlined (the `fill` closure body over
            # this core's L1 state — the call frame is measurable at
            # this miss volume).
            tags_c = l1_tags[core]
            stamps_c = l1_stamps[core]
            dirt_c = l1_dirty[core]
            lens_c = l1_lens[core]
            slots_c = l1_slots[core]
            base = l1_base(line_addr)
            end = base + l1_ways
            victim = None
            if lens_c[base] >= l1_ways:
                set_stamps = stamps_c[base:end]
                slot = base + set_stamps.index(min(set_stamps))
                v = tags_c[slot]
                del slots_c[v]
                if dirt_c[slot]:
                    victim = v
            else:
                lens_c[base] += 1
                slot = base + tags_c[base:end].index(-1)
            tags_c[slot] = line_addr
            dirt_c[slot] = is_store
            stamps_c[slot] = tick
            tick += 1
            slots_c[line_addr] = slot
            if victim is not None:
                l1_dev_n[core] += 1
                llc_wb = llc_install(victim, True)
                if llc_wb is not None:
                    wb_n += 1
                    if probes_on:
                        on_raw(cycle)
                        on_writeback(cycle)
                    if spans_on and len(out) % span_rate == span_offset:
                        spans_origin(len(out), "writeback")
                    o_addr(llc_wb)
                    o_size(line)
                    o_op(store_val)
                    o_core(core)
                    o_cycle(cycle)

            # LLC access (inlined).
            slot = llc_get(line_addr)
            if slot is not None:
                llc_stamps[slot] = tick
                tick += 1
                if is_store:
                    llc_dirt[slot] = True
                llc_hit_n += 1
                continue
            llc_miss_n += 1
            # Demand-miss fill into the LLC, inlined as above.
            base = llc_base(line_addr)
            end = base + llc_ways
            llc_wb = None
            if llc_lens[base] >= llc_ways:
                set_stamps = llc_stamps[base:end]
                slot = base + set_stamps.index(min(set_stamps))
                v = llc_tags[slot]
                del llc_slots[v]
                if llc_dirt[slot]:
                    llc_wb = v
            else:
                llc_lens[base] += 1
                slot = base + llc_tags[base:end].index(-1)
            llc_tags[slot] = line_addr
            llc_dirt[slot] = is_store
            llc_stamps[slot] = tick
            tick += 1
            llc_slots[line_addr] = slot
            if llc_wb is not None:
                llc_dev_n += 1
                wb_n += 1
                if probes_on:
                    on_raw(cycle)
                    on_writeback(cycle)
                if spans_on and len(out) % span_rate == span_offset:
                    spans_origin(len(out), "writeback")
                o_addr(llc_wb)
                o_size(line)
                o_op(store_val)
                o_core(core)
                o_cycle(cycle)

            # LLC demand miss -> primary raw request (``op_val`` is the
            # LOAD/STORE value here).
            raw_n += 1
            if probes_on:
                on_raw(cycle)
                on_demand(cycle)
            if spans_on and len(out) % span_rate == span_offset:
                spans_origin(len(out), "demand")
            if fine_grain:
                emit(addrs[i], sizes[i], op_val, core, cycle)
            else:
                o_addr(line_addr)
                o_size(line)
                o_op(op_val)
                o_core(core)
                o_cycle(cycle)

            # OoO lookahead: eager same-line secondaries via the
            # next-occurrence chain. ``k`` starts at this access's own
            # per-core position; each hop lands on the next future
            # access of the same line, accepted while inside the window.
            if secondary_cap:
                nxt = core_nxt[core]
                k = pos0[i]
                stop = k + 1 + window
                emitted = 0
                while True:
                    k = nxt[k]
                    if k < 0 or k >= stop:
                        break
                    sec_n += 1
                    raw_n += 1
                    if probes_on:
                        on_raw(cycle)
                        on_secondary(cycle)
                    if spans_on and len(out) % span_rate == span_offset:
                        spans_origin(len(out), "secondary")
                    if fine_grain:
                        j = core_idx_lists[core][k]
                        emit(addrs[j], sizes[j], op_val, core, cycle)
                    else:
                        o_addr(line_addr)
                        o_size(line)
                        o_op(op_val)
                        o_core(core)
                        o_cycle(cycle)
                    emitted += 1
                    if emitted >= secondary_cap:
                        break

            # Region streamer prefetch (inlined `_prefetch`).
            if prefetch_on:
                page = line_addr // PAGE_BYTES
                table = stride_tables[core]
                last = table.get(page)
                table[page] = line_addr
                if len(table) > stride_cap:
                    del table[next(iter(table))]
                if last is not None and 0 < line_addr - last <= 2 * PREFETCH_REGION_BYTES:
                    region_end = (
                        line_addr - line_addr % PREFETCH_REGION_BYTES + region_span
                    )
                    page_end = page * PAGE_BYTES + PAGE_BYTES
                    stop_pf = region_end if region_end < page_end else page_end
                    pf = line_addr + line
                    # The three install sites below are the FlatLRU
                    # install bodies inlined — at gs's fill volume
                    # (~14k L1 + ~18k LLC installs per 20k accesses)
                    # closure call frames alone were ~1/3 of the
                    # stage. The `pf` LLC fill also skips its residency
                    # probe: the loop guard just established
                    # ``pf not in llc_slots``, and the victim install in
                    # between only ever inserts the (distinct) evicted
                    # L1 tag.
                    while pf < stop_pf:
                        if pf not in llc_slots:
                            # l1.install(pf): touch if present, else
                            # clean fill with min-stamp victim scan.
                            l1_victim = None
                            slot = l1_getters[core](pf)
                            if slot is not None:
                                l1_stamps[core][slot] = tick
                                tick += 1
                            else:
                                tags_c = l1_tags[core]
                                stamps_c = l1_stamps[core]
                                dirt_c = l1_dirty[core]
                                lens_c = l1_lens[core]
                                slots_c = l1_slots[core]
                                base = l1_base(pf)
                                end = base + l1_ways
                                if lens_c[base] >= l1_ways:
                                    set_stamps = stamps_c[base:end]
                                    slot = base + set_stamps.index(
                                        min(set_stamps)
                                    )
                                    v = tags_c[slot]
                                    del slots_c[v]
                                    if dirt_c[slot]:
                                        l1_victim = v
                                else:
                                    lens_c[base] += 1
                                    slot = base + tags_c[base:end].index(-1)
                                tags_c[slot] = pf
                                dirt_c[slot] = False
                                stamps_c[slot] = tick
                                tick += 1
                                slots_c[pf] = slot
                            if l1_victim is not None:
                                # llc.install(victim, dirty): full probe
                                # + fill — the victim may be resident.
                                llc_wb = None
                                slot = llc_get(l1_victim)
                                if slot is not None:
                                    llc_stamps[slot] = tick
                                    tick += 1
                                    llc_dirt[slot] = True
                                else:
                                    base = llc_base(l1_victim)
                                    end = base + llc_ways
                                    if llc_lens[base] >= llc_ways:
                                        set_stamps = llc_stamps[base:end]
                                        slot = base + set_stamps.index(
                                            min(set_stamps)
                                        )
                                        v = llc_tags[slot]
                                        del llc_slots[v]
                                        if llc_dirt[slot]:
                                            llc_wb = v
                                    else:
                                        llc_lens[base] += 1
                                        slot = base + llc_tags[
                                            base:end
                                        ].index(-1)
                                    llc_tags[slot] = l1_victim
                                    llc_dirt[slot] = True
                                    llc_stamps[slot] = tick
                                    tick += 1
                                    llc_slots[l1_victim] = slot
                                if llc_wb is not None:
                                    wb_n += 1
                                    if probes_on:
                                        on_raw(cycle)
                                        on_writeback(cycle)
                                    if spans_on and (
                                        len(out) % span_rate == span_offset
                                    ):
                                        spans_origin(len(out), "writeback")
                                    emit(llc_wb, line, store_val, core, cycle)
                            # llc.install(pf, clean): fill only — not
                            # resident by the loop guard above.
                            llc_wb = None
                            base = llc_base(pf)
                            end = base + llc_ways
                            if llc_lens[base] >= llc_ways:
                                set_stamps = llc_stamps[base:end]
                                slot = base + set_stamps.index(min(set_stamps))
                                v = llc_tags[slot]
                                del llc_slots[v]
                                if llc_dirt[slot]:
                                    llc_wb = v
                            else:
                                llc_lens[base] += 1
                                slot = base + llc_tags[base:end].index(-1)
                            llc_tags[slot] = pf
                            llc_dirt[slot] = False
                            llc_stamps[slot] = tick
                            tick += 1
                            llc_slots[pf] = slot
                            if llc_wb is not None:
                                wb_n += 1
                                if probes_on:
                                    on_raw(cycle)
                                    on_writeback(cycle)
                                if spans_on and (
                                    len(out) % span_rate == span_offset
                                ):
                                    spans_origin(len(out), "writeback")
                                emit(llc_wb, line, store_val, core, cycle)
                            pf_n += 1
                            raw_n += 1
                            if probes_on:
                                on_raw(cycle)
                                on_prefetch(cycle)
                            if spans_on and (
                                len(out) % span_rate == span_offset
                            ):
                                spans_origin(len(out), "prefetch")
                            o_addr(pf)
                            o_size(line)
                            o_op(op_val)
                            o_core(core)
                            o_cycle(cycle)
                        pf += line

        # ---- merge local counters into the real registries ---- #
        self._tick = tick
        for f in self._flat_l1s:
            f.tick = tick
        self._flat_llc.tick = tick
        stats = self.stats
        stats.counter("raw_requests").value += raw_n
        stats.counter("secondary_raw").value += sec_n
        stats.counter("prefetch_raw").value += pf_n
        stats.counter("writebacks").value += wb_n
        # Atomics/fences counters are created lazily in the reference —
        # only merge (and thereby create) them when they occurred.
        if atom_n:
            stats.counter("atomics").value += atom_n
        if fence_n:
            stats.counter("fences").value += fence_n
        for c in range(n_cores):
            l1 = self.l1s[c]
            l1._c_hits.value += l1_demand_n[c] - l1_miss_n[c]
            l1._c_misses.value += l1_miss_n[c]
            l1._c_dirty_evictions.value += l1_dev_n[c]
        llc = self.llc
        llc._c_hits.value += llc_hit_n
        llc._c_misses.value += llc_miss_n
        llc._c_dirty_evictions.value += llc_dev_n
        if probes_on:
            fold_probes()
        packed = np.empty(len(out), dtype=REQ_DTYPE)
        for name, col in zip(REQ_DTYPE.names, out_cols):
            packed[name] = col
        return RawStream(packed=packed, n_accesses=n, stats=stats)

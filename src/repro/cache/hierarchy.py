"""Per-core L1 + shared LLC hierarchy producing the raw request stream.

The hierarchy turns a CPU access trace into the *raw request stream* the
coalescers consume — the paper's "cache misses (load/store) and
write-back requests from the LLC" (Section 3.2).

Out-of-order lookahead (secondary misses)
-----------------------------------------
The paper's architecture places the only MSHRs *below* the LLC
(Figure 3), so a miss to a line whose fill is outstanding cannot be
merged above the coalescer — it propagates downstream as another raw
request, and merging it is precisely the job of the MSHR-based DMC
baseline (and of PAC's adaptive MSHRs). An out-of-order core has those
follow-up accesses *already in its load queue* when the primary miss
issues, so we model them eagerly: on a demand miss, the core's next
``lookahead_window`` accesses are scanned and up to ``secondary_cap``
same-line accesses issue immediately as *secondary* raw requests,
back-to-back with the primary. Dense scans (several touches per line)
produce same-line duplicates the DMC can merge; sparse single-touch
probes (graph workloads) produce none — matching the paper's
benchmark-to-benchmark DMC spread.

Region streamer prefetcher
--------------------------
On a demand miss that continues an ascending stride within a page, the
streamer fetches the remaining lines of the current 256B-aligned region
plus the next ``prefetch_regions`` whole regions (stopping at the page
boundary) — the adjacent-line/streamer behaviour of contemporary cores.
Prefetch raw requests are real memory traffic in every evaluation arm;
PAC additionally coalesces them (Section 4.2: "PAC can coalesce not only
raw requests but also the prefetch requests").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from repro.artifacts import shm as shm_codec
from repro.common.stats import StatsRegistry
from repro.common.types import MemOp, MemoryRequest, PAGE_BYTES
from repro.config import CacheConfig
from repro.cache.setassoc import SetAssociativeCache
from repro.mem.trace import AccessTrace
from repro.telemetry import NULL_SPANS, NULL_TELEMETRY

#: Streamer prefetch region: matches the HMC row / maximum packet size.
PREFETCH_REGION_BYTES = 256


@dataclass
class RawStream:
    """The coalescer-facing output of the cache hierarchy.

    ``packed`` is the raw request stream as a
    :data:`~repro.artifacts.shm.REQ_DTYPE` array, each request's id its
    ordinal. It is ordered by cycle and mixes demand misses (tagged with
    the op that triggered them), eager secondaries, prefetches, and LLC
    write-backs (always stores).
    """

    packed: np.ndarray
    n_accesses: int
    stats: StatsRegistry

    @property
    def miss_rate(self) -> float:
        return len(self.packed) / self.n_accesses if self.n_accesses else 0.0


class CacheHierarchy:
    """N private L1s over one shared LLC; produces the raw request stream.

    The scalar reference engine: it builds one ``MemoryRequest`` per raw
    request and packs the list once, at the end of :meth:`process`.

    ``fine_grain`` fixes the Figure 10b mode for every :meth:`process`
    call: demand and secondary raw requests carry the triggering
    access's exact address and size (1-8B) instead of whole cache lines,
    and the prefetcher is off (line-granular prefetch traffic would
    drown the size distribution). ``config.prefetch_regions=0`` is the
    other way to turn the prefetcher off.
    """

    #: Same-line secondary raw requests emitted per demand miss.
    DEFAULT_SECONDARY_CAP = 2
    #: How far ahead (in the same core's accesses) the OoO window looks.
    DEFAULT_LOOKAHEAD = 64

    def __init__(
        self,
        config: CacheConfig,
        n_cores: int = 8,
        secondary_cap: int = DEFAULT_SECONDARY_CAP,
        lookahead_window: int = DEFAULT_LOOKAHEAD,
        fine_grain: bool = False,
        probes=NULL_TELEMETRY,
        spans=NULL_SPANS,
    ) -> None:
        if n_cores <= 0:
            raise ValueError("need at least one core")
        if secondary_cap < 0:
            raise ValueError("secondary_cap must be >= 0")
        if lookahead_window < 0:
            raise ValueError("lookahead_window must be >= 0")
        self.config = config
        self.n_cores = n_cores
        self.secondary_cap = secondary_cap
        self.lookahead_window = lookahead_window
        self.fine_grain = fine_grain
        self.prefetch_enabled = not fine_grain and config.prefetch_regions > 0
        #: Per-core stride detector: last demand-missed line per page
        #: (bounded table — real streamers track a handful of concurrent
        #: streams per core).
        self._stride_tables: List[Dict[int, int]] = [
            dict() for _ in range(n_cores)
        ]
        self._stride_table_cap = 16
        self.l1s = [
            SetAssociativeCache(
                config.l1_bytes, config.l1_ways, config.line_bytes, f"l1.{i}"
            )
            for i in range(n_cores)
        ]
        self.llc = SetAssociativeCache(
            config.llc_bytes, config.llc_ways, config.line_bytes, "llc"
        )
        self.stats = StatsRegistry("hierarchy")
        self._probes_on = probes.enabled
        #: Span tracer: the hierarchy stamps each sampled raw request's
        #: *origin* (demand/secondary/prefetch/writeback/atomic/fence) at
        #: emission time, keyed by its raw-stream ordinal.
        self._spans = spans
        self._spans_on = spans.enabled
        #: `raw_requests` counts *every* request entering the coalescer
        #: (demand + secondary + prefetch + write-back + atomic + fence) —
        #: the per-window load the `repro trace` timeline leads with.
        self._t_raw = probes.counter("raw_requests")
        self._t_demand = probes.counter("demand_misses")
        self._t_secondary = probes.counter("secondary_raw")
        self._t_prefetch = probes.counter("prefetch_raw")
        self._t_writebacks = probes.counter("writebacks")

    # ------------------------------------------------------------------ #

    def process(self, trace: AccessTrace) -> RawStream:
        """Run the whole trace through the hierarchy.

        Returns the ordered raw request stream for the coalescer. The
        trace must already be in cycle order (as produced by
        :meth:`WorkloadGenerator.generate`). In fine-grain mode the
        miss/hit structure is unchanged and write-backs still flush
        whole dirty lines.
        """
        fine_grain = self.fine_grain
        line = self.config.line_bytes
        out: List[MemoryRequest] = []
        raw_count = self.stats.counter("raw_requests")
        secondary_count = self.stats.counter("secondary_raw")
        prefetch_count = self.stats.counter("prefetch_raw")
        wb_count = self.stats.counter("writebacks")

        # Convert the trace columns to native Python ints once — the per
        # element ``int(arr[i])`` pattern costs a numpy scalar box per
        # access in the hot loop below.
        addrs = np.asarray(trace.addrs).tolist()
        ops = np.asarray(trace.ops).tolist()
        cycles = np.asarray(trace.cycles).tolist()
        store_val = int(MemOp.STORE)
        n = len(trace)

        # Per-core future-access lists for the OoO lookahead scan (one
        # vectorized modulo pass shared by all cores).
        core_mod = np.asarray(trace.cores) % self.n_cores
        core_lists = [
            np.flatnonzero(core_mod == c).tolist()
            for c in range(self.n_cores)
        ]
        cores = core_mod.tolist()
        core_pos = [0] * self.n_cores

        t_raw = self._t_raw
        probes_on = self._probes_on
        spans = self._spans
        spans_on = self._spans_on

        def emit(addr, op, core, cycle, size=None, kind="demand"):
            raw_count.value += 1
            if probes_on:
                t_raw.add(cycle)
            if spans_on and spans.is_sampled(len(out)):
                spans.origin(len(out), kind)
            out.append(
                MemoryRequest(addr=addr, size=size if size else line,
                              op=op, core_id=core, cycle=cycle)
            )

        def emit_wb(addr, core, cycle):
            wb_count.value += 1
            if probes_on:
                t_raw.add(cycle)
                self._t_writebacks.add(cycle)
            if spans_on and spans.is_sampled(len(out)):
                spans.origin(len(out), "writeback")
            out.append(
                MemoryRequest(addr=addr, size=line, op=MemOp.STORE,
                              core_id=core, cycle=cycle)
            )

        atomic_val = int(MemOp.ATOMIC)
        fence_val = int(MemOp.FENCE)
        for i in range(n):
            addr = addrs[i]
            cycle = cycles[i]
            core = cores[i]
            op_val = ops[i]
            is_store = op_val == store_val
            line_addr = addr - (addr % line)
            core_pos[core] += 1

            if op_val == atomic_val:
                # Atomics bypass the caches entirely and are routed to
                # the memory controller uncoalesced (Section 3.3.1); the
                # line is invalidated to keep coherence trivially.
                self.l1s[core].invalidate(line_addr)
                self.llc.invalidate(line_addr)
                self.stats.counter("atomics").add()
                if probes_on:
                    t_raw.add(cycle)
                if spans_on and spans.is_sampled(len(out)):
                    spans.origin(len(out), "atomic")
                out.append(
                    MemoryRequest(
                        addr=addr, size=int(trace.sizes[i]),
                        op=MemOp.ATOMIC, core_id=core, cycle=cycle,
                    )
                )
                continue
            if op_val == fence_val:
                # Fences carry no data; they propagate as markers that
                # drain the coalescer's stage 1 (Section 3.3.1).
                self.stats.counter("fences").add()
                if probes_on:
                    t_raw.add(cycle)
                if spans_on and spans.is_sampled(len(out)):
                    spans.origin(len(out), "fence")
                out.append(
                    MemoryRequest(
                        addr=line_addr, size=line, op=MemOp.FENCE,
                        core_id=core, cycle=cycle,
                    )
                )
                continue

            l1 = self.l1s[core]
            res = l1.access(line_addr, is_store)
            if res.hit:
                continue
            if res.writeback is not None:
                llc_wb = self.llc.install(res.writeback, dirty=True)
                if llc_wb is not None:
                    emit_wb(llc_wb, core, cycle)

            llc_res = self.llc.access(line_addr, is_store)
            if llc_res.writeback is not None:
                emit_wb(llc_res.writeback, core, cycle)
            if llc_res.hit:
                continue

            # LLC demand miss -> primary raw request.
            op = MemOp.STORE if is_store else MemOp.LOAD
            if probes_on:
                self._t_demand.add(cycle)
            if fine_grain:
                emit(addr, op, core, cycle, size=int(trace.sizes[i]))
            else:
                emit(line_addr, op, core, cycle)

            # OoO lookahead: same-line accesses already in the core's
            # load queue issue immediately as secondaries.
            if self.secondary_cap:
                lst = core_lists[core]
                start = core_pos[core]
                stop = min(len(lst), start + self.lookahead_window)
                emitted = 0
                for j in lst[start:stop]:
                    future = addrs[j]
                    if future - (future % line) == line_addr:
                        secondary_count.value += 1
                        if probes_on:
                            self._t_secondary.add(cycle)
                        if fine_grain:
                            emit(future, op, core, cycle,
                                 size=int(trace.sizes[j]), kind="secondary")
                        else:
                            emit(line_addr, op, core, cycle,
                                 kind="secondary")
                        emitted += 1
                        if emitted >= self.secondary_cap:
                            break

            # Region streamer prefetch.
            if self.prefetch_enabled:
                self._prefetch(
                    l1, line_addr, op, core, cycle, emit, emit_wb,
                    prefetch_count,
                )

        return RawStream(
            packed=shm_codec.encode_requests(out), n_accesses=n,
            stats=self.stats,
        )

    def _prefetch(
        self, l1, line_addr, op, core, cycle, emit, emit_wb, prefetch_count
    ) -> None:
        line = self.config.line_bytes
        table = self._stride_tables[core]
        page = line_addr // PAGE_BYTES
        last = table.get(page)
        table[page] = line_addr
        if len(table) > self._stride_table_cap:
            table.pop(next(iter(table)))
        # Ascending within two regions counts as stride continuation.
        if last is None or not (
            0 < line_addr - last <= 2 * PREFETCH_REGION_BYTES
        ):
            return
        region_end = (
            line_addr
            - (line_addr % PREFETCH_REGION_BYTES)
            + PREFETCH_REGION_BYTES * (1 + self.config.prefetch_regions)
        )
        page_end = page * PAGE_BYTES + PAGE_BYTES
        stop = min(region_end, page_end)
        pf = line_addr + line
        while pf < stop:
            if not self.llc.contains(pf):
                l1_victim = l1.install(pf)
                if l1_victim is not None:
                    llc_wb = self.llc.install(l1_victim, dirty=True)
                    if llc_wb is not None:
                        emit_wb(llc_wb, core, cycle)
                wb = self.llc.install(pf)
                if wb is not None:
                    emit_wb(wb, core, cycle)
                prefetch_count.value += 1
                if self._probes_on:
                    self._t_prefetch.add(cycle)
                emit(pf, op, core, cycle, kind="prefetch")
            pf += line

    # ------------------------------------------------------------------ #

    def summary_metrics(self, n_raw_total: int) -> Dict[str, float]:
        """Hit rates and raw-stream composition for ``RunResult``.

        Must be read off a *populated* hierarchy (after :meth:`process`);
        the artifact pipeline captures these at cache-pass time so
        phase-2 coalescer jobs never need the hierarchy at all.
        """
        n_raw_total = max(1, n_raw_total)
        return {
            "l1_hit_rate": (
                sum(l1.hit_rate for l1 in self.l1s) / len(self.l1s)
            ),
            "llc_hit_rate": self.llc.hit_rate,
            "secondary_fraction": (
                self.stats.count("secondary_raw") / n_raw_total
            ),
            "prefetch_fraction": (
                self.stats.count("prefetch_raw") / n_raw_total
            ),
            "writeback_fraction": (
                self.stats.count("writebacks") / n_raw_total
            ),
        }

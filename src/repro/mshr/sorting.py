"""Sorting-network DMC — the prior-art coalescer PAC displaces.

Wang et al. (ICPP'18, reference [32]) coalesce for HMC with a parallel
request *sorting network*: raw requests buffer in a fixed window, a
bitonic sorter orders them by address, and adjacent requests combine —
page boundaries are ignored, so (unlike PAC) cross-page contiguity can
merge. The paper's Figure 11a argues this design does not scale: the
sorter needs O(N log^2 N) comparators and buffers whole request
descriptors at every stage.

This implementation makes the comparison concrete: a window of
``window`` requests (flushed on fill or timeout) is sorted and merged
into protocol-legal packets; comparator work is charged at the bitonic
network's fixed per-flush cost. Packets dispatch through multi-block
MSHRs like PAC's.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.space import bitonic_costs
from repro.artifacts import shm as shm_codec
from repro.common.types import (
    CACHE_LINE_BYTES,
    CoalescedRequest,
    MemOp,
    MemoryRequest,
)
from repro.core.protocols import HMC2, MemoryProtocol
from repro.mshr.adaptive import AdaptiveMSHRFile
from repro.mshr.dmc import Coalescer, CoalesceOutcome, MemoryDevice


class SortingNetworkCoalescer(Coalescer):
    """Window-sort-merge coalescer with bitonic comparator accounting."""

    def __init__(
        self,
        window: int = 16,
        timeout_cycles: int = 16,
        n_mshrs: int = 16,
        protocol: MemoryProtocol = HMC2,
    ) -> None:
        super().__init__("sortdmc")
        if window < 2 or window & (window - 1):
            raise ValueError("window must be a power of two >= 2")
        if timeout_cycles <= 0:
            raise ValueError("timeout must be positive")
        self.window = window
        self.timeout_cycles = timeout_cycles
        self.protocol = protocol
        self.mshrs = AdaptiveMSHRFile(n_mshrs, name="sortdmc.mshr")
        self._comparators_per_flush = bitonic_costs(window).comparators
        self._buffer: List[MemoryRequest] = []
        self._buffer_open_cycle: Optional[int] = None

    # ------------------------------------------------------------------ #

    def process(
        self, raw: np.ndarray, memory: MemoryDevice
    ) -> CoalesceOutcome:
        """Stream the packed ``raw`` array into ``memory``, over request
        objects decoded from it (each id its ordinal)."""
        out = CoalesceOutcome()
        self._out = out
        self._memory = memory
        self._arrivals = {}
        entry_clock = 0
        for req in shm_codec.decode_requests(raw):
            out.n_raw += 1
            now = max(req.cycle, entry_clock)
            out.stall_cycles += now - req.cycle
            entry_clock = now + 1
            self._expire(now)
            if req.op == MemOp.ATOMIC:
                self._submit_atomic(
                    req.addr, req.size, req.req_id, now, memory, out
                )
                continue
            if req.op == MemOp.FENCE:
                # A fence drains the sorting window to preserve order.
                if self._buffer:
                    self._flush(now)
                continue
            if not self._buffer:
                self._buffer_open_cycle = now
            self._arrivals[req.req_id] = now
            self._buffer.append(req)
            if len(self._buffer) >= self.window:
                self._flush(now)
        if self._buffer:
            self._flush(
                (self._buffer_open_cycle or 0) + self.timeout_cycles
            )
        return out

    def _expire(self, now: int) -> None:
        if (
            self._buffer
            and self._buffer_open_cycle is not None
            and now - self._buffer_open_cycle >= self.timeout_cycles
        ):
            self._flush(self._buffer_open_cycle + self.timeout_cycles)

    # ------------------------------------------------------------------ #

    def _flush(self, flush_cycle: int) -> None:
        """Sort the window and merge address-adjacent requests."""
        batch = self._buffer
        self._buffer = []
        self._buffer_open_cycle = None
        # One pass through the sorting network: fixed comparator cost.
        self._out.comparisons += self._comparators_per_flush
        self.stats.counter("flushes").add()

        # Sort by (op, line address); merge contiguous runs, page
        # boundaries ignored — the design's distinguishing (and per
        # Figure 2, rarely useful) capability.
        batch.sort(key=lambda r: (int(r.op == MemOp.STORE), r.line_addr))
        for packet in self._merge_runs(batch, flush_cycle):
            self._dispatch(packet)

    def _merge_runs(
        self, batch: List[MemoryRequest], flush_cycle: int
    ) -> List[CoalescedRequest]:
        line = CACHE_LINE_BYTES
        max_blocks = self.protocol.max_packet_bytes // line
        legal_blocks = sorted(
            {s // line for s in self.protocol.legal_packet_bytes if s >= line},
            reverse=True,
        )
        packets: List[CoalescedRequest] = []
        i = 0
        issue = flush_cycle + 1
        while i < len(batch):
            # Gather one maximal run: same op, contiguous (or duplicate)
            # line addresses, capped at the device's maximum packet.
            op = batch[i].op
            run: List[Tuple[int, List[int]]] = [
                (batch[i].line_addr, [batch[i].req_id])
            ]
            j = i + 1
            while j < len(batch) and batch[j].op == op:
                delta = batch[j].line_addr - run[-1][0]
                if delta == 0:
                    run[-1][1].append(batch[j].req_id)
                elif delta == line and len(run) < max_blocks:
                    run.append((batch[j].line_addr, [batch[j].req_id]))
                else:
                    break
                j += 1
            # Split the run into legal packet sizes (greedy, like PAC's
            # table, but without the chunk-alignment constraint); each
            # packet carries the constituents of the lines it covers.
            pos = 0
            while pos < len(run):
                remaining = len(run) - pos
                size = next(s for s in legal_blocks if s <= remaining)
                covered = run[pos : pos + size]
                issue += 1
                packets.append(
                    CoalescedRequest(
                        addr=covered[0][0],
                        size=size * line,
                        op=op,
                        constituents=tuple(
                            rid for _, ids in covered for rid in ids
                        ),
                        issue_cycle=issue,
                        source="sortdmc",
                    )
                )
                pos += size
            i = j
        return packets

    def _account(self, packet: CoalescedRequest, completion: int) -> None:
        for rid in packet.constituents:
            arrival = self._arrivals.pop(rid, None)
            if arrival is not None:
                self._out.account_service(arrival, completion)

    def _dispatch(self, packet: CoalescedRequest) -> None:
        t = packet.issue_cycle
        self.mshrs.advance(t)
        merged = self.mshrs.try_merge_packet(packet)
        if merged is not None:
            self._out.n_merged += packet.n_raw
            if merged.release_cycle is not None:
                self._account(packet, merged.release_cycle)
            return
        if self.mshrs.full:
            release = self.mshrs.next_release_cycle()
            assert release is not None, "full MSHRs with no releases"
            t = max(t, release)
            self.mshrs.advance(t)
        slot, _ = self.mshrs.allocate_packet(packet, t)
        completion = self._memory.submit(packet, t)
        self.mshrs.schedule_release(slot, completion)
        self._out.issued.append(packet)
        self._out.n_issued += 1
        self._out.last_completion_cycle = max(
            self._out.last_completion_cycle, completion
        )
        self._account(packet, completion)

"""Private per-core coalescers — the design PAC's sharing argument rejects.

Section 3.1: "a memory coalescer shared by multiple cores, as opposed to
a private coalescer for each core, is desirable to further exploit the
potential spatial locality from multiple processes and threads."

:class:`PrivateCoalescerArray` makes that argument testable: one
independent PAC instance per core, each with a proportional share of the
coalescing streams and MSHRs, no cross-core merging. The
``shared_vs_private`` ablation bench runs both designs on the same
traces.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.config import PACConfig
from repro.core.pac import PagedAdaptiveCoalescer
from repro.core.protocols import MemoryProtocol
from repro.mshr.dmc import Coalescer, CoalesceOutcome, MemoryDevice


class PrivateCoalescerArray(Coalescer):
    """N per-core PACs over one shared memory device."""

    def __init__(
        self,
        n_cores: int = 8,
        config: Optional[PACConfig] = None,
        protocol: Optional[MemoryProtocol] = None,
    ) -> None:
        super().__init__("private-pac")
        if n_cores <= 0:
            raise ValueError("need at least one core")
        base = config if config is not None else PACConfig()
        # Equal-hardware comparison: split the shared design's streams,
        # MAQ entries and MSHRs across the cores.
        per_core = PACConfig(
            n_streams=max(1, base.n_streams // n_cores),
            timeout_cycles=base.timeout_cycles,
            maq_entries=max(1, base.maq_entries // n_cores),
            n_mshrs=max(1, base.n_mshrs // n_cores),
            idle_bypass=base.idle_bypass,
        )
        self.n_cores = n_cores
        self.coalescers: List[PagedAdaptiveCoalescer] = [
            PagedAdaptiveCoalescer(per_core, protocol=protocol)
            for _ in range(n_cores)
        ]

    def process(
        self, raw: np.ndarray, memory: MemoryDevice
    ) -> CoalesceOutcome:
        # Partition the packed stream by core, run each private
        # coalescer, and merge the outcomes. Each partition preserves
        # its cycle order; the shared device sees submissions in
        # per-coalescer order, which is the right approximation for
        # independent pipelines.
        core = raw["core"] % self.n_cores
        merged = CoalesceOutcome()
        merged.n_raw = len(raw)
        for c, coalescer in enumerate(self.coalescers):
            part = raw[core == c]
            if not len(part):
                continue
            out = coalescer.process(part, memory)
            merged.n_issued += out.n_issued
            merged.n_merged += out.n_merged
            merged.payload_bytes += out.payload_bytes
            merged.stall_cycles += out.stall_cycles
            merged.comparisons += out.comparisons
            merged.raw_service_cycles += out.raw_service_cycles
            merged.raw_serviced += out.raw_serviced
            merged.last_completion_cycle = max(
                merged.last_completion_cycle, out.last_completion_cycle
            )
        return merged

    @property
    def mean_active_streams(self) -> float:
        values = [c.mean_active_streams for c in self.coalescers]
        busy = [v for v in values if v > 0]
        return sum(busy) / len(busy) if busy else 0.0

"""Virtual-to-physical page mapping.

Workload generators emit *virtual* addresses with the locality structure
of the modeled benchmark. The OS layer is modeled by a per-process
:class:`PageTable` backed by a shared :class:`FrameAllocator`: contiguity
*within* a page survives translation, contiguity *across* pages generally
does not (frames are handed out in allocation order with optional
shuffling). This is what makes the paper's Figure 2 observation — almost
no cross-page coalescing opportunity — emerge naturally, and what makes
the multiprocessing experiment (Figure 6b) meaningful: two processes'
pages land in disjoint frames.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.common.rng import make_rng
from repro.common.types import PAGE_BYTES


class OutOfFramesError(RuntimeError):
    """The physical frame pool is exhausted."""


class FrameAllocator:
    """Hands out physical frame numbers from a finite pool.

    With ``shuffle=True`` (default) the pool is a random permutation, so
    virtually-contiguous pages map to scattered frames — the common case
    on a long-running system and the conservative case for PAC (no
    accidental cross-page physical adjacency).
    """

    def __init__(
        self,
        total_frames: int = 1 << 21,  # 8GB of 4KB frames, matching Table 1
        shuffle: bool = True,
        seed: int = 0,
    ) -> None:
        if total_frames <= 0:
            raise ValueError("total_frames must be positive")
        self.total_frames = total_frames
        self._next = 0
        if shuffle:
            # Permute lazily in fixed-size batches to avoid materializing
            # millions of frame numbers for short runs.
            self._rng = make_rng(seed, "frame-allocator")
            self._batch: list = []
            self._batch_base = 0
            self._batch_size = 4096
            self._shuffled = True
        else:
            self._shuffled = False

    def allocate(self) -> int:
        """Return the next free physical frame number."""
        if self._next >= self.total_frames:
            raise OutOfFramesError(
                f"all {self.total_frames} physical frames allocated"
            )
        if not self._shuffled:
            frame = self._next
        else:
            if not self._batch:
                remaining = self.total_frames - self._batch_base
                size = min(self._batch_size, remaining)
                perm = self._rng.permutation(size) + self._batch_base
                self._batch = list(perm)
                self._batch_base += size
            frame = int(self._batch.pop())
        self._next += 1
        return frame

    @property
    def allocated(self) -> int:
        return self._next


class PageTable:
    """Per-process demand-populated page table.

    Translation allocates a frame on first touch. Shared pages between
    processes are not modeled (the paper notes they are the exception).
    """

    def __init__(self, allocator: FrameAllocator, pid: int = 0) -> None:
        self.allocator = allocator
        self.pid = pid
        self._map: Dict[int, int] = {}

    def translate(self, vaddr: int) -> int:
        """Translate a virtual address to a physical address."""
        if vaddr < 0:
            raise ValueError("virtual addresses are non-negative")
        vpn, offset = divmod(vaddr, PAGE_BYTES)
        frame = self._map.get(vpn)
        if frame is None:
            frame = self.allocator.allocate()
            self._map[vpn] = frame
        return frame * PAGE_BYTES + offset

    def translate_array(self, vaddrs: np.ndarray) -> np.ndarray:
        """Vectorized translation of a whole virtual address trace.

        Pages are populated in first-touch order, then the translation is
        a single gather — the per-element Python loop only runs once per
        *page*, not once per access.
        """
        vaddrs = np.asarray(vaddrs, dtype=np.int64)
        if vaddrs.size == 0:
            return vaddrs.copy()
        if np.any(vaddrs < 0):
            raise ValueError("virtual addresses are non-negative")
        vpns = vaddrs // PAGE_BYTES
        offsets = vaddrs % PAGE_BYTES
        # Populate in first-touch order, then translate with one gather.
        # A single np.unique call yields both the gather index and (via
        # the first-occurrence positions) the first-touch order.
        uniq, first_idx, inverse = np.unique(
            vpns, return_index=True, return_inverse=True
        )
        page_map = self._map
        allocate = self.allocator.allocate
        for key in uniq[np.argsort(first_idx, kind="stable")].tolist():
            if key not in page_map:
                page_map[key] = allocate()
        frame_for_uniq = np.array(
            [page_map[v] for v in uniq.tolist()], dtype=np.int64
        )
        frames = frame_for_uniq[inverse]
        return frames * PAGE_BYTES + offsets

    @property
    def resident_pages(self) -> int:
        return len(self._map)

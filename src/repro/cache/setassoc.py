"""Set-associative cache with LRU replacement and write-back semantics.

Used for both the per-core L1s and the shared LLC (Table 1: 8-way, 16KB
L1, 8MB L2). The cache operates at line granularity; byte offsets are
stripped by the hierarchy before lookup.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

from repro.common.stats import StatsRegistry


@dataclass(frozen=True, slots=True)
class AccessResult:
    """Outcome of a single cache lookup."""

    hit: bool
    #: Line address of a dirty victim evicted by this access (write-back
    #: traffic), or None.
    writeback: Optional[int] = None


#: Shared no-writeback results — the overwhelmingly common outcomes, so
#: the hot path avoids allocating a fresh (frozen, identical) object.
_HIT = AccessResult(hit=True)
_MISS_CLEAN = AccessResult(hit=False)


class SetAssociativeCache:
    """LRU set-associative cache over line addresses.

    ``access`` performs lookup + allocate-on-miss in one step
    (write-allocate for stores, fetch-on-miss for loads). Dirty victims
    are surfaced to the caller as write-back line addresses.
    """

    def __init__(
        self,
        total_bytes: int,
        ways: int,
        line_bytes: int = 64,
        name: str = "cache",
    ) -> None:
        if total_bytes <= 0 or ways <= 0 or line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        if total_bytes % (ways * line_bytes):
            raise ValueError("total size must divide into ways * line size")
        self.line_bytes = line_bytes
        self.ways = ways
        self.n_sets = total_bytes // (ways * line_bytes)
        self.name = name
        self.stats = StatsRegistry(name)
        self._c_hits = self.stats.counter("hits")
        self._c_misses = self.stats.counter("misses")
        self._c_dirty_evictions = self.stats.counter("dirty_evictions")
        # Shift/mask set indexing when the geometry allows it (always, for
        # the power-of-two Table 1 caches): for non-negative line-aligned
        # addresses, ``(a >> shift) & mask`` == ``(a // line) % n_sets``.
        pow2 = not (self.line_bytes & (self.line_bytes - 1)) and not (
            self.n_sets & (self.n_sets - 1)
        )
        self._line_shift = self.line_bytes.bit_length() - 1 if pow2 else None
        self._set_mask = self.n_sets - 1

    @cached_property
    def _sets(self) -> List[OrderedDict]:
        """sets[i]: OrderedDict line_addr -> dirty flag, LRU first.

        Built on first use: a cache that only carries geometry and stats
        (each cache of the batched hierarchy) never builds them."""
        return [OrderedDict() for _ in range(self.n_sets)]

    def _set_index(self, line_addr: int) -> int:
        if self._line_shift is not None:
            return (line_addr >> self._line_shift) & self._set_mask
        return (line_addr // self.line_bytes) % self.n_sets

    def access(self, line_addr: int, is_store: bool = False) -> AccessResult:
        """Look up ``line_addr``; allocate on miss. Returns hit status and
        any dirty victim's line address."""
        if line_addr % self.line_bytes:
            raise ValueError(
                f"{self.name}: unaligned line address {line_addr:#x}"
            )
        shift = self._line_shift
        if shift is not None:
            cache_set = self._sets[(line_addr >> shift) & self._set_mask]
        else:
            cache_set = self._sets[self._set_index(line_addr)]
        if line_addr in cache_set:
            cache_set.move_to_end(line_addr)
            if is_store:
                cache_set[line_addr] = True
            self._c_hits.value += 1
            return _HIT

        self._c_misses.value += 1
        writeback = None
        if len(cache_set) >= self.ways:
            victim, dirty = cache_set.popitem(last=False)
            if dirty:
                writeback = victim
                self._c_dirty_evictions.value += 1
        cache_set[line_addr] = is_store
        if writeback is None:
            return _MISS_CLEAN
        return AccessResult(hit=False, writeback=writeback)

    def contains(self, line_addr: int) -> bool:
        """Non-destructive presence probe (no LRU update)."""
        shift = self._line_shift
        if shift is not None:
            return line_addr in self._sets[(line_addr >> shift) & self._set_mask]
        return line_addr in self._sets[self._set_index(line_addr)]

    def install(self, line_addr: int, dirty: bool = False) -> Optional[int]:
        """Insert a line without counting a demand access (fills from the
        level below). Returns a dirty victim if one was evicted."""
        shift = self._line_shift
        if shift is not None:
            cache_set = self._sets[(line_addr >> shift) & self._set_mask]
        else:
            cache_set = self._sets[self._set_index(line_addr)]
        if line_addr in cache_set:
            cache_set.move_to_end(line_addr)
            if dirty:
                cache_set[line_addr] = True
            return None
        writeback = None
        if len(cache_set) >= self.ways:
            victim, was_dirty = cache_set.popitem(last=False)
            if was_dirty:
                writeback = victim
        cache_set[line_addr] = dirty
        return writeback

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line if present; returns whether it was present."""
        cache_set = self._sets[self._set_index(line_addr)]
        return cache_set.pop(line_addr, None) is not None

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    @property
    def hit_rate(self) -> float:
        hits = self.stats.count("hits")
        misses = self.stats.count("misses")
        total = hits + misses
        return hits / total if total else 0.0


class FlatLRU:
    """Flat-array LRU state for the batched front-end engine.

    Replaces the per-set ``OrderedDict`` with four flat parallel way
    arrays plus one residency dict:

    * ``tags[slot]``  — line address resident in ``slot`` (−1 = empty),
      where ``slot = set_index * ways + way``.
    * ``stamps[slot]`` — monotonic age stamp, refreshed on every touch.
    * ``dirty[slot]`` — write-back flag.
    * ``lens[base]``  — live lines in the set whose first slot is
      ``base`` (indexed by slot base, so callers never divide by
      ``ways``; only multiples of ``ways`` are used).
    * ``slots``       — dict line_addr → slot, the O(1) residency probe.

    LRU equivalence with :class:`SetAssociativeCache`: an ``OrderedDict``
    keeps lines in last-touch order (``move_to_end`` on hit/re-install,
    ``popitem(last=False)`` victim). Unique monotonically increasing
    stamps reproduce exactly that order, so the min-stamp way of a full
    set *is* the OrderedDict's first entry. Stamps come from a single
    shared counter (``tick``) advanced by the caller; only uniqueness
    and monotonicity matter, so one counter can serve every cache in a
    hierarchy. Property-tested against the reference in
    ``tests/cache/test_batched_frontend_properties.py``.

    The methods below are the readable reference implementation of the
    update rules; the batched hierarchy inlines the same logic over
    locally-bound state for speed.
    """

    def __init__(self, cache: SetAssociativeCache) -> None:
        n_slots = cache.n_sets * cache.ways
        self.ways = cache.ways
        self.line_bytes = cache.line_bytes
        self.n_sets = cache.n_sets
        self.tags: List[int] = [-1] * n_slots
        self.stamps: List[int] = [0] * n_slots
        self.dirty: List[bool] = [False] * n_slots
        self.lens: List[int] = [0] * n_slots
        self.slots: dict = {}
        # Shift/mask set indexing mirrors the wrapped cache exactly.
        self._line_shift = cache._line_shift
        self._set_mask = cache._set_mask
        self.tick = 0

    def slot_base(self, line_addr: int) -> int:
        """First slot of the set holding ``line_addr``."""
        if self._line_shift is not None:
            return ((line_addr >> self._line_shift) & self._set_mask) * self.ways
        return ((line_addr // self.line_bytes) % self.n_sets) * self.ways

    def touch(self, slot: int, dirty: bool) -> None:
        """Refresh a resident line's age (OrderedDict ``move_to_end``)."""
        self.stamps[slot] = self.tick
        self.tick += 1
        if dirty:
            self.dirty[slot] = True

    def fill(self, line_addr: int, dirty: bool) -> Optional[int]:
        """Insert a line known to be absent; returns any dirty victim.

        Mirrors the miss arm of :meth:`SetAssociativeCache.access` /
        :meth:`~SetAssociativeCache.install`: evict the min-stamp way
        when the set is full, otherwise claim the first empty way.
        """
        base = self.slot_base(line_addr)
        end = base + self.ways
        tags, stamps = self.tags, self.stamps
        writeback = None
        if self.lens[base] >= self.ways:
            set_stamps = stamps[base:end]
            slot = base + set_stamps.index(min(set_stamps))
            victim = tags[slot]
            del self.slots[victim]
            if self.dirty[slot]:
                writeback = victim
        else:
            self.lens[base] += 1
            slot = base + tags[base:end].index(-1)
        tags[slot] = line_addr
        self.dirty[slot] = dirty
        stamps[slot] = self.tick
        self.tick += 1
        self.slots[line_addr] = slot
        return writeback

    def access(self, line_addr: int, is_store: bool = False) -> AccessResult:
        """Reference-equivalent demand access (hit/allocate-on-miss)."""
        slot = self.slots.get(line_addr)
        if slot is not None:
            self.touch(slot, is_store)
            return _HIT
        writeback = self.fill(line_addr, is_store)
        if writeback is None:
            return _MISS_CLEAN
        return AccessResult(hit=False, writeback=writeback)

    def install(self, line_addr: int, dirty: bool = False) -> Optional[int]:
        """Reference-equivalent fill from below (no demand counting)."""
        slot = self.slots.get(line_addr)
        if slot is not None:
            self.touch(slot, dirty)
            return None
        return self.fill(line_addr, dirty)

    def contains(self, line_addr: int) -> bool:
        return line_addr in self.slots

    def invalidate(self, line_addr: int) -> bool:
        slot = self.slots.pop(line_addr, None)
        if slot is None:
            return False
        self.tags[slot] = -1
        self.dirty[slot] = False
        self.lens[slot - slot % self.ways] -= 1
        return True

    @property
    def occupancy(self) -> int:
        return len(self.slots)

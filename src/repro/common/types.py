"""Core request types and architectural constants.

The constants follow the paper's configuration (Section 5, Table 1):
64-byte cache lines, 4KB physical pages (hence 64 blocks per page and a
64-bit block-map), and 16-byte HMC FLITs.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

#: Cache line (block) size in bytes. All raw LLC miss/write-back traffic is
#: at this granularity (Section 2.2.2).
CACHE_LINE_BYTES = 64

#: Physical page size in bytes; PAC aggregates within page frames (Sec. 3.3.1).
PAGE_BYTES = 4096

#: Number of cache blocks per physical page — the width of the block-map.
BLOCKS_PER_PAGE = PAGE_BYTES // CACHE_LINE_BYTES  # 64

#: HMC FLow-control unIT size (Section 2.1.1).
FLIT_BYTES = 16

#: Control overhead per HMC transaction: one 16B request header plus one
#: 16B response header (Section 5.3.2, Equation 2).
HMC_CONTROL_OVERHEAD_BYTES = 2 * FLIT_BYTES

_req_counter = itertools.count()


class MemOp(enum.IntEnum):
    """Memory operation kind.

    ``LOAD``/``STORE`` match the paper's OP bit encoding (0 = read,
    1 = write, Section 3.1.3). ``ATOMIC`` operations bypass the coalescer
    entirely and go straight to the memory controller (Section 3.3.1);
    ``FENCE`` drains stage 1 of the pipeline.
    """

    LOAD = 0
    STORE = 1
    ATOMIC = 2
    FENCE = 3

    @property
    def coalescable(self) -> bool:
        """Whether PAC may merge this operation with neighbours."""
        return self in (MemOp.LOAD, MemOp.STORE)


@dataclass(frozen=True, slots=True)
class MemoryRequest:
    """A raw memory request as flushed from the last-level cache.

    Addresses are *physical*. ``size`` is the payload in bytes — 64 for
    cache-line-granular miss handling, 1–8 when the engine runs in
    fine-grain mode (the Figure 10b experiment coalesces on the actual
    CPU-requested data size).
    """

    addr: int
    size: int = CACHE_LINE_BYTES
    op: MemOp = MemOp.LOAD
    core_id: int = 0
    cycle: int = 0
    req_id: int = field(default_factory=lambda: next(_req_counter))

    def __post_init__(self) -> None:
        if self.addr < 0:
            raise ValueError(f"negative physical address: {self.addr:#x}")
        if self.size <= 0:
            raise ValueError(f"non-positive request size: {self.size}")

    @property
    def ppn(self) -> int:
        """Physical page number."""
        return self.addr // PAGE_BYTES

    @property
    def page_offset(self) -> int:
        return self.addr % PAGE_BYTES

    @property
    def block_id(self) -> int:
        """Cache-block index within the page (bits 5..11 of the address)."""
        return (self.addr % PAGE_BYTES) // CACHE_LINE_BYTES

    @property
    def line_addr(self) -> int:
        """Address aligned down to the cache-line boundary."""
        return self.addr - (self.addr % CACHE_LINE_BYTES)

    @property
    def is_store(self) -> bool:
        return self.op == MemOp.STORE

    def tag(self) -> int:
        """Combined comparator key used by the paged request aggregator.

        Implements the paper's T-bit trick (Section 3.3.1): the request
        type bit is placed *above* the PPN so that one hardware comparison
        covers both the page number and the load/store distinction.
        """
        return (int(self.op == MemOp.STORE) << 52) | self.ppn


@dataclass(slots=True, unsafe_hash=True)
class CoalescedRequest:
    """A request produced by a coalescer and issued toward the memory device.

    ``addr`` is block-aligned; ``size`` is a protocol-legal packet size
    (e.g. 64/128/256B for HMC 2.1). ``constituents`` holds the ``req_id``
    values of every raw request satisfied by this packet; the service
    accounting and span stamps walk it. The result metrics come from the
    totals the arm keeps (:class:`~repro.mshr.dmc.CoalesceOutcome`), not
    from kept packets: a packet ends at the device.

    Not frozen: coalescers create one packet per issued transaction, so
    construction is on the simulator's hot path and the frozen-dataclass
    ``object.__setattr__`` init costs ~4x a plain one. Packets are owned
    by the arm that created them and treated as immutable by convention;
    ``MemoryRequest`` stays frozen.
    """

    addr: int
    size: int
    op: MemOp
    constituents: Tuple[int, ...]
    issue_cycle: int = 0
    source: str = "pac"

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("coalesced request must have positive size")
        if not self.constituents:
            raise ValueError("coalesced request must cover >=1 raw request")

    @property
    def ppn(self) -> int:
        return self.addr // PAGE_BYTES

    @property
    def n_blocks(self) -> int:
        """Number of 64B cache blocks covered (rounded up)."""
        return max(1, -(-self.size // CACHE_LINE_BYTES))

    @property
    def n_raw(self) -> int:
        """Number of raw requests folded into this packet."""
        return len(self.constituents)

    @property
    def end_addr(self) -> int:
        return self.addr + self.size

    def payload_flits(self) -> int:
        """Number of data FLITs carried by this packet (stores carry data
        in the request; loads carry data in the response — either way the
        payload crosses the link once)."""
        return -(-self.size // FLIT_BYTES)

    def transaction_bytes(self) -> int:
        """Total bytes moved for this transaction, including the 32B of
        request+response control headers (Equation 2's denominator)."""
        return self.size + HMC_CONTROL_OVERHEAD_BYTES

    def transaction_efficiency(self) -> float:
        """Equation 2: payload / total transaction size."""
        return self.size / self.transaction_bytes()


def new_packet(
    addr: int,
    size: int,
    op: MemOp,
    constituents: Tuple[int, ...],
    issue_cycle: int,
    source: str,
) -> CoalescedRequest:
    """Fast :class:`CoalescedRequest` constructor for per-request hot
    paths (the baseline coalescer loops build one packet per raw or
    issued request).

    Bypasses the dataclass ``__init__``/``__post_init__`` (~2.5x
    cheaper); the caller must guarantee ``size > 0`` and a non-empty
    ``constituents`` tuple — trivially true where the packet wraps one
    row of a checked packed stream.
    """
    packet = CoalescedRequest.__new__(CoalescedRequest)
    packet.addr = addr
    packet.size = size
    packet.op = op
    packet.constituents = constituents
    packet.issue_cycle = issue_cycle
    packet.source = source
    return packet


def new_request(
    addr: int,
    size: int,
    op: MemOp,
    core_id: int,
    cycle: int,
    req_id: int,
) -> MemoryRequest:
    """Fast :class:`MemoryRequest` constructor for decoding a packed
    stream (:func:`repro.artifacts.shm.decode_requests`), whose ids are
    ordinals rather than draws from the global counter.

    Bypasses the frozen-dataclass ``__init__``/``__post_init__``: the
    caller must guarantee ``addr >= 0`` and ``size > 0`` — the decoder
    checks the whole array first.
    """
    req = _mr_new(MemoryRequest)
    _set_addr(req, addr)
    _set_size(req, size)
    _set_op(req, op)
    _set_core(req, core_id)
    _set_cycle(req, cycle)
    _set_req_id(req, req_id)
    return req


# Pre-bound slot descriptors for ``new_request``: a ``slots=True``
# dataclass stores each field as a member_descriptor on the class, and
# calling its ``__set__`` directly bypasses the frozen ``__setattr__``
# without the per-call name lookup ``object.__setattr__`` pays.
_mr_new = MemoryRequest.__new__
_set_addr = MemoryRequest.__dict__["addr"].__set__
_set_size = MemoryRequest.__dict__["size"].__set__
_set_op = MemoryRequest.__dict__["op"].__set__
_set_core = MemoryRequest.__dict__["core_id"].__set__
_set_cycle = MemoryRequest.__dict__["cycle"].__set__
_set_req_id = MemoryRequest.__dict__["req_id"].__set__


def reset_request_ids() -> None:
    """Restart the global request id counter (test isolation helper)."""
    global _req_counter
    _req_counter = itertools.count()

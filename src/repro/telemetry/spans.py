"""Per-request span tracing — sampled lifecycle spans with cycle stamps.

Where :mod:`repro.telemetry.probe` answers *when* questions with windowed
aggregates, the span tracer answers *where did this request's cycles go*:
each tracked raw request is stamped as it crosses every pipeline stage

    queue   trace arrival -> admission into the miss path (backlog wait)
    stage1  residency in the paged request aggregator
    network stages 2-3 of the coalescing network (or the C=0 bypass)
    maq     residency in the memory access queue
    mshr    wait on an in-flight MSHR entry (merges, full-file stalls)
    device  memory-device service (submit -> response arrival)

and the resulting per-request spans are, by construction, non-overlapping
and contiguous: they partition ``[arrival, completion]`` so their
durations sum exactly to the request's end-to-end latency. A stage a
request never visits (e.g. ``stage1`` on the idle-bypass direct path)
simply contributes a zero-width gap-free hole — it is absent from the
span list, not present with garbage bounds.

Sampling is **deterministic and seed-derived**: request ``i`` of the raw
stream is tracked iff ``i % sample_rate == offset`` where ``offset``
derives from ``derive_seed(seed, "spans")``. Tracked requests are keyed
by their raw-stream ordinal (never by the process-global ``req_id``), so
serial and parallel suite runs produce bit-identical span sets.

Disabled runs follow PR 1's null-object pattern: components fetch the
recorder once at construction; :data:`NULL_SPANS` answers every call
with an empty method, so the hot path pays one flag check per event and
the golden wall-clock is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.rng import DEFAULT_SEED, derive_seed

__all__ = [
    "NULL_SPANS",
    "NullSpanRecorder",
    "PacketSpan",
    "RequestSpan",
    "STAGES",
    "SpanRecorder",
    "SpanTrace",
    "TERMINAL_STAGES",
]

#: Pipeline stages in flow order; a request's stamps must strictly
#: ascend through this order (later stamps for earlier stages are
#: ignored, which also de-duplicates multi-grain constituent lists).
STAGES = ("queue", "stage1", "network", "maq", "mshr", "device")

_STAGE_ORDER = {name: i for i, name in enumerate(STAGES)}

#: Stages that end a request's lifecycle: device response arrival, or
#: release of the in-flight MSHR entry the request merged into.
TERMINAL_STAGES = frozenset({"mshr", "device"})


@dataclass(frozen=True, slots=True)
class RequestSpan:
    """One tracked request's finalized lifecycle.

    ``spans`` holds ``(stage, start, end)`` triples in stage order with
    ``start <= end``; consecutive spans share a boundary and the last
    ``end`` equals :attr:`end`, so durations sum to ``end - arrival``.
    """

    index: int  # raw-stream ordinal (the deterministic sample key)
    addr: int
    core: int
    op: str  # "load" / "store" / "atomic" / "fence"
    origin: str  # "demand" / "secondary" / "prefetch" / "writeback" / ...
    arrival: int
    end: int
    spans: Tuple[Tuple[str, int, int], ...]

    @property
    def total_cycles(self) -> int:
        return self.end - self.arrival

    def stage_cycles(self, stage: str) -> int:
        for name, start, stop in self.spans:
            if name == stage:
                return stop - start
        return 0

    def durations(self) -> Dict[str, int]:
        """Per-stage durations, absent stages reported as 0."""
        out = {stage: 0 for stage in STAGES}
        for name, start, stop in self.spans:
            out[name] = stop - start
        return out

    def dominant_stage(self) -> str:
        """The stage that consumed the most cycles (earliest wins ties)."""
        best, best_cycles = STAGES[0], -1
        for name, start, stop in self.spans:
            if stop - start > best_cycles:
                best, best_cycles = name, stop - start
        return best

    def as_dict(self) -> Dict:
        return {
            "index": self.index,
            "addr": self.addr,
            "core": self.core,
            "op": self.op,
            "origin": self.origin,
            "arrival": self.arrival,
            "end": self.end,
            "spans": [list(s) for s in self.spans],
        }


@dataclass(frozen=True, slots=True)
class PacketSpan:
    """Device-side service breakdown of one packet covering tracked
    requests — feeds the per-vault Perfetto tracks."""

    vault: int
    link: int
    start: int
    completion: int
    size: int
    n_raw: int
    #: Raw-stream ordinals of the tracked constituents (the join key back
    #: to :class:`RequestSpan.index`).
    tracked: Tuple[int, ...]
    #: ``(segment, start, end)`` triples: link_wait/route/vault_wait/
    #: dram/response for HMC-likes, bank/bus for DDR.
    segments: Tuple[Tuple[str, int, int], ...]

    def as_dict(self) -> Dict:
        return {
            "vault": self.vault,
            "link": self.link,
            "start": self.start,
            "completion": self.completion,
            "size": self.size,
            "n_raw": self.n_raw,
            "tracked": list(self.tracked),
            "segments": [list(s) for s in self.segments],
        }


@dataclass(frozen=True, slots=True)
class SpanTrace:
    """The finalized, picklable span set of one run.

    Plain data keyed by raw-stream ordinals: two runs of the same
    ``(trace, seed, sample_rate)`` compare ``==`` regardless of worker
    count, and the determinism harness relies on exactly that.
    """

    requests: Tuple[RequestSpan, ...]
    packets: Tuple[PacketSpan, ...]
    sample_rate: int
    sample_offset: int
    #: Run metadata (benchmark, seed, n_raw, ...) — every export leads
    #: with it so files are self-describing.
    meta: Tuple[Tuple[str, object], ...]

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def meta_dict(self) -> Dict[str, object]:
        return dict(self.meta)

    def as_dict(self) -> Dict:
        return {
            "sample_rate": self.sample_rate,
            "sample_offset": self.sample_offset,
            "meta": self.meta_dict,
            "requests": [r.as_dict() for r in self.requests],
            "packets": [p.as_dict() for p in self.packets],
        }


class _Tracked:
    """Mutable in-flight record; frozen into a RequestSpan at finalize."""

    __slots__ = ("index", "addr", "core", "op", "arrival", "marks")

    def __init__(
        self, index: int, addr: int, core: int, op: str, arrival: int
    ) -> None:
        self.index = index
        self.addr = addr
        self.core = core
        self.op = op
        self.arrival = arrival
        #: ordered (stage, boundary_cycle) stamps, strictly ascending in
        #: stage order and monotone in cycle.
        self.marks: List[Tuple[str, int]] = []

    def mark(self, stage: str, cycle: int) -> None:
        order = _STAGE_ORDER[stage]
        if self.marks:
            last_stage, last_cycle = self.marks[-1]
            if _STAGE_ORDER[last_stage] >= order:
                return  # duplicate or out-of-order stamp: first wins
            if cycle < last_cycle:
                cycle = last_cycle  # clamp: spans never run backwards
        elif cycle < self.arrival:
            cycle = self.arrival
        self.marks.append((stage, cycle))

    @property
    def finished(self) -> bool:
        return bool(self.marks) and self.marks[-1][0] in TERMINAL_STAGES


class NullSpanRecorder:
    """Disabled recorder: every call is an empty method, every query is
    False. Components wire it unconditionally and pay one flag check per
    event when tracing is off."""

    enabled = False

    __slots__ = ()

    def is_sampled(self, index: int) -> bool:
        return False

    def origin(self, index: int, kind: str) -> None:
        pass

    def admit(self, index: int, req, now: int) -> None:
        pass

    def mark(self, req_id: int, stage: str, cycle: int) -> None:
        pass

    def mark_many(self, req_ids, stage: str, cycle: int) -> None:
        pass

    def device_span(self, packet, **kwargs) -> None:
        pass

    def bind(self, **kwargs) -> None:
        pass


#: Module-level singleton every component defaults to.
NULL_SPANS = NullSpanRecorder()


class SpanRecorder:
    """Live span recorder — one per :class:`repro.engine.system.System`.

    ``sample_rate`` tracks one raw request in N (1 = every request).
    The sampling offset derives from the run seed via :meth:`bind`; the
    engine binds the resolved seed before the coalescer runs so serial
    and parallel executions pick identical ordinals.
    """

    enabled = True

    DEFAULT_SAMPLE_RATE = 16

    def __init__(
        self,
        sample_rate: int = DEFAULT_SAMPLE_RATE,
        seed: Optional[int] = None,
    ) -> None:
        if sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        self.sample_rate = sample_rate
        self._meta: Dict[str, object] = {}
        self.bind(seed=seed if seed is not None else DEFAULT_SEED)
        #: req_id -> in-flight tracked record (drained at finalize).
        self._by_req: Dict[int, _Tracked] = {}
        #: raw-stream ordinal -> origin kind (stamped by the hierarchy).
        self._origins: Dict[int, str] = {}
        self._done: List[_Tracked] = []
        self._packets: List[PacketSpan] = []

    # -- configuration ------------------------------------------------------ #

    def bind(self, seed: Optional[int] = None, **meta) -> None:
        """Fix the seed-derived sampling offset and attach run metadata
        (benchmark name, n_accesses, ...). Called by the engine after the
        run seed resolves; harmless to call repeatedly."""
        if seed is not None:
            self.seed = int(seed)
            self.sample_offset = (
                derive_seed(self.seed, "spans") % self.sample_rate
            )
            self._meta["seed"] = self.seed
        self._meta.update(meta)

    # -- hot path ----------------------------------------------------------- #

    def is_sampled(self, index: int) -> bool:
        return index % self.sample_rate == self.sample_offset

    def origin(self, index: int, kind: str) -> None:
        """Record the raw stream composition kind of sampled ordinal
        ``index`` (the cache hierarchy calls this at emission time)."""
        self._origins[index] = kind

    def admit(self, index: int, req, now: int) -> None:
        """A raw request enters the miss path at ``now``; opens the span
        record and closes its ``queue`` span. No-op unless sampled."""
        if index % self.sample_rate != self.sample_offset:
            return
        tracked = _Tracked(
            index=index,
            addr=req.addr,
            core=req.core_id,
            op=req.op.name.lower(),
            arrival=req.cycle,
        )
        tracked.mark("queue", now)
        self._by_req[req.req_id] = tracked

    def mark(self, req_id: int, stage: str, cycle: int) -> None:
        tracked = self._by_req.get(req_id)
        if tracked is not None:
            tracked.mark(stage, cycle)

    def mark_many(self, req_ids: Iterable[int], stage: str, cycle: int) -> None:
        by_req = self._by_req
        for rid in req_ids:
            tracked = by_req.get(rid)
            if tracked is not None:
                tracked.mark(stage, cycle)

    def device_span(
        self,
        packet,
        vault: int,
        link: int,
        start: int,
        completion: int,
        segments: Tuple[Tuple[str, int, int], ...],
    ) -> None:
        """Record the device-side breakdown of ``packet`` if it covers at
        least one tracked request (called by the memory devices)."""
        by_req = self._by_req
        if by_req.keys().isdisjoint(packet.constituents):
            return  # most packets: one C-level test, nothing built
        tracked = tuple(
            sorted(
                by_req[rid].index
                for rid in set(packet.constituents)
                if rid in by_req
            )
        )
        self._packets.append(
            PacketSpan(
                vault=vault,
                link=link,
                start=start,
                completion=completion,
                size=packet.size,
                n_raw=packet.n_raw,
                tracked=tracked,
                segments=segments,
            )
        )

    # -- finalize ----------------------------------------------------------- #

    def finalize(self, **meta) -> SpanTrace:
        """Freeze into a :class:`SpanTrace`; requests still in flight
        (e.g. merged into an entry that never released) are dropped.
        Callable once per run; ``meta`` merges into the bound metadata."""
        self._meta.update(meta)
        for tracked in self._by_req.values():
            if tracked.finished:
                self._done.append(tracked)
        self._by_req.clear()
        self._done.sort(key=lambda t: t.index)

        requests = []
        for t in self._done:
            spans: List[Tuple[str, int, int]] = []
            cursor = t.arrival
            for stage, boundary in t.marks:
                spans.append((stage, cursor, boundary))
                cursor = boundary
            requests.append(
                RequestSpan(
                    index=t.index,
                    addr=t.addr,
                    core=t.core,
                    op=t.op,
                    origin=self._origins.get(t.index, "raw"),
                    arrival=t.arrival,
                    end=cursor,
                    spans=tuple(spans),
                )
            )
        self._packets.sort(key=lambda p: (p.start, p.vault, p.tracked))
        return SpanTrace(
            requests=tuple(requests),
            packets=tuple(self._packets),
            sample_rate=self.sample_rate,
            sample_offset=self.sample_offset,
            meta=tuple(sorted(self._meta.items(), key=lambda kv: kv[0])),
        )

    def __repr__(self) -> str:
        return (
            f"SpanRecorder(rate={self.sample_rate}, "
            f"offset={self.sample_offset}, "
            f"{len(self._by_req)} in flight, {len(self._done)} done)"
        )

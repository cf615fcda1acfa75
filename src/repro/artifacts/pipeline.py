"""Trace-pass pipeline: compute / cache / reload the per-benchmark prefix.

A suite run factors into a deterministic, coalescer-independent prefix
(trace generation + cache-hierarchy pass — "phase 1") and a per-arm
suffix (coalescer + device — "phase 2"). :class:`TracePass` is the
hand-off value between them: everything phase 2 needs, with the raw
stream already packed into the :data:`repro.artifacts.shm.REQ_DTYPE`
layout so it pickles as one buffer and maps straight into shared
memory.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.artifacts import shm as shm_codec
from repro.artifacts.store import ArtifactStore, cache_enabled, get_store
from repro.mem.trace import AccessTrace

if TYPE_CHECKING:
    from repro.engine.spec import RunSpec


@dataclass
class TracePass:
    """The per-benchmark deterministic prefix, ready for phase 2.

    ``raw`` is the packed request stream; :meth:`requests` decodes it
    lazily and memoizes the list (dropped from pickles, so shipping a
    ``TracePass`` between processes costs one contiguous buffer).
    """

    benchmark: str
    n_accesses: int
    trace_end_cycle: int
    raw: np.ndarray
    cache_metrics: dict
    key: str = ""
    cached: bool = False
    _requests: Optional[list] = field(
        default=None, repr=False, compare=False
    )

    @property
    def n_raw(self) -> int:
        return int(len(self.raw))

    def requests(self) -> list:
        """Decoded request list. Memoized per content key, so repeated
        warm runs in one process (bench loops, sweep scripts) decode a
        given stream once. Consumers share the list and must not mutate
        it — the same contract :func:`repro.engine.driver.run_comparison`
        has always had for its shared raw stream."""
        if self._requests is None:
            if self.key:
                cached = _DECODED_MEMO.get(self.key)
                if cached is not None and len(cached) == len(self.raw):
                    _DECODED_MEMO.move_to_end(self.key)
                    self._requests = cached
                    return cached
            self._requests = shm_codec.decode_requests(self.raw)
            if self.key:
                _memoize(self.key, self._requests)
        return self._requests

    def release(self) -> None:
        """Drop the decoded list, here and in the memo; ``raw`` stays,
        so a later :meth:`requests` decodes again. Long-lived holders of
        many passes call this after each consumer to keep only the
        packed streams resident."""
        self._requests = None
        if self.key:
            _DECODED_MEMO.pop(self.key, None)

    def __getstate__(self):
        state = self.__dict__.copy()
        state["_requests"] = None
        return state


#: In-process decoded-stream memo (entries are request lists; bounded
#: because a decoded 60k-request stream is ~15MB of objects).
_DECODED_MEMO: "OrderedDict[str, list]" = OrderedDict()
_DECODED_MEMO_CAP = 8


def _memoize(key: str, requests: list) -> None:
    _DECODED_MEMO[key] = requests
    _DECODED_MEMO.move_to_end(key)
    while len(_DECODED_MEMO) > _DECODED_MEMO_CAP:
        _DECODED_MEMO.popitem(last=False)


def _compute(
    spec: "RunSpec", trace: Optional[AccessTrace] = None
) -> Tuple[AccessTrace, TracePass]:
    """Trace generation (unless ``trace`` is given) and the cache pass,
    on one front-end :class:`~repro.engine.system.System`."""
    from repro.engine.system import CoalescerKind

    system = spec.for_arm(CoalescerKind.NONE).system()
    if trace is None:
        trace = system.build_trace(
            spec.benchmarks, spec.n_accesses, seed=spec.seed,
            scale=spec.scale,
        )
    if spec.fine_grain:
        raw = system.hierarchy.fine_grain_stream(trace)
    else:
        raw = system.hierarchy.process(trace)
    packed = shm_codec.encode_requests(raw.requests)
    tp = TracePass(
        benchmark=spec.label,
        n_accesses=len(trace),
        trace_end_cycle=int(trace.cycles[-1]) if len(trace) else 0,
        raw=packed,
        cache_metrics=system.hierarchy.summary_metrics(len(raw.requests)),
    )
    # The freshly built MemoryRequest list is the one phase 2 wants —
    # keep it so a same-process consumer never pays the decode.
    tp._requests = raw.requests
    return trace, tp


def compute_trace_pass(spec: "RunSpec") -> TracePass:
    """Run trace generation + the cache pass for ``spec`` (no cache
    lookups).

    The front-end runs on the spec's ``engine``; the resulting pass is
    bit-identical either way (the batched front-end's contract), so the
    artifact keys deliberately ignore the knob.
    """
    return _compute(spec)[1]


def try_load_trace_pass(
    spec: "RunSpec", store: Optional[ArtifactStore] = None
) -> Optional[TracePass]:
    """Load ``spec``'s cached pass artifact, or None (never computes)."""
    if not cache_enabled():
        return None
    store = store if store is not None else get_store()
    pkey = spec.pass_key()
    payload = store.get("pass", pkey)
    if payload is None:
        return None
    meta = payload["meta"]
    try:
        return TracePass(
            benchmark=meta["benchmark"],
            n_accesses=int(meta["n_accesses"]),
            trace_end_cycle=int(meta["trace_end_cycle"]),
            raw=np.ascontiguousarray(
                payload["requests"], dtype=shm_codec.REQ_DTYPE
            ),
            cache_metrics=dict(meta["cache_metrics"]),
            key=pkey,
            cached=True,
        )
    except (KeyError, TypeError, ValueError):
        # Structurally valid npz with unexpected contents: recompute.
        store.stats.errors += 1
        return None


def load_or_compute_trace_pass(
    spec: "RunSpec",
    use_cache: bool = True,
    store: Optional[ArtifactStore] = None,
) -> TracePass:
    """Cache-aware trace-pass front door.

    Lookup order: pass artifact (whole prefix skipped), then
    :func:`compute_and_store_trace_pass`. The spec's ``engine`` selects
    the front-end path on compute; cached artifacts are engine-invariant
    (bit-identity), so hits ignore it.
    """
    if not (use_cache and cache_enabled()):
        return compute_trace_pass(spec)
    store = store if store is not None else get_store()
    hit = try_load_trace_pass(spec, store=store)
    if hit is not None:
        return hit
    return compute_and_store_trace_pass(spec, store)


def compute_and_store_trace_pass(
    spec: "RunSpec", store: Optional[ArtifactStore] = None
) -> TracePass:
    """The miss half of :func:`load_or_compute_trace_pass`.

    Reuses a cached trace artifact (generation skipped, hierarchy
    re-run) or generates the trace, runs the cache pass, and writes both
    artifacts back. It never probes the pass artifact: a caller that
    already missed on it (phase 1 of the suite) calls this directly, so
    each pass is looked up once.
    """
    store = store if store is not None else get_store()
    tkey = spec.trace_key()
    trace: Optional[AccessTrace] = None
    tpayload = store.get("trace", tkey)
    if tpayload is not None:
        try:
            trace = AccessTrace(
                tpayload["addrs"], tpayload["sizes"], tpayload["ops"],
                tpayload["cores"], tpayload["cycles"],
            )
        except (KeyError, ValueError):
            store.stats.errors += 1
    trace_was_cached = trace is not None
    trace, tp = _compute(spec, trace)
    tp.key = spec.pass_key()
    _memoize(tp.key, tp._requests)
    ident = {
        "benchmark": tp.benchmark,
        "n_accesses": tp.n_accesses,
        "seed": spec.seed,
        "config_hash": spec.config.config_hash(),
        "device": spec.device,
        "scale": repr(spec.scale),
        "extra_benchmarks": list(spec.benchmarks[1:]),
    }
    if not trace_was_cached:
        store.put(
            "trace",
            tkey,
            ident,
            addrs=trace.addrs,
            sizes=trace.sizes,
            ops=trace.ops,
            cores=trace.cores,
            cycles=trace.cycles,
        )
    # The pass artifact always goes back (it may have missed while the
    # trace hit).
    store.put(
        "pass",
        tp.key,
        {
            **ident,
            "fine_grain": spec.fine_grain,
            "trace_end_cycle": tp.trace_end_cycle,
            "n_raw": tp.n_raw,
            "cache_metrics": tp.cache_metrics,
        },
        requests=tp.raw,
    )
    return tp

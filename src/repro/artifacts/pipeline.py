"""Trace-pass pipeline: compute / cache / reload the per-benchmark prefix.

A suite run factors into a deterministic, coalescer-independent prefix
(trace generation + cache-hierarchy pass — "phase 1") and a per-arm
suffix (coalescer + device — "phase 2"). :class:`TracePass` is the
hand-off value between them: everything phase 2 needs, with the raw
stream as the :data:`repro.artifacts.shm.REQ_DTYPE` array the cache
front-end emitted — it pickles as one buffer, maps straight into shared
memory, and is what the coalescers read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.artifacts import shm as shm_codec
from repro.artifacts.store import ArtifactStore, cache_enabled, get_store

if TYPE_CHECKING:
    from repro.engine.spec import RunSpec
    from repro.engine.system import System


@dataclass
class TracePass:
    """The per-benchmark deterministic prefix, ready for phase 2.

    ``raw`` is the packed request stream. ``probes`` is what the cache
    pass observed, for a spec with probe settings (None otherwise, and
    always None on a stored pass): ``(registry, recorder)``, the
    registry holding only the pass's ``cache.*`` probes and the recorder
    bound to the spec seed with the span origins the pass stamped,
    either None when its facility is off. Consumers share both and must
    not mutate them; :func:`repro.engine.driver.run_arm` folds a copy
    of ``probes`` into each arm.
    """

    benchmark: str
    n_accesses: int
    trace_end_cycle: int
    raw: np.ndarray
    cache_metrics: dict
    key: str = ""
    cached: bool = False
    probes: Optional[tuple] = None

    @property
    def n_raw(self) -> int:
        return int(len(self.raw))


def build_trace_pass(spec: "RunSpec", system: "System") -> TracePass:
    """Generate ``spec``'s trace and run it through ``system``'s cache
    hierarchy: the one place a :class:`TracePass` is built from a trace.

    The hierarchy's mode (fine-grain or not) was fixed when ``system``
    built it, from the spec. :func:`compute_trace_pass` runs this on a
    front-end system; :func:`repro.engine.driver.run_spec` on the
    system that then runs the arm.
    """
    trace = system.build_trace(
        spec.benchmarks, spec.n_accesses, seed=spec.seed, scale=spec.scale,
    )
    raw = system.hierarchy.process(trace).packed
    return TracePass(
        benchmark=spec.label,
        n_accesses=len(trace),
        trace_end_cycle=int(trace.cycles[-1]) if len(trace) else 0,
        raw=raw,
        cache_metrics=system.hierarchy.summary_metrics(len(raw)),
    )


def compute_trace_pass(spec: "RunSpec") -> TracePass:
    """Run trace generation + the cache pass for ``spec`` on one
    front-end :class:`~repro.engine.system.System` (no cache lookups).

    The front-end runs on the spec's ``engine``; the resulting pass is
    bit-identical either way (the batched front-end's contract), so the
    artifact keys deliberately ignore the knob. With the spec's probe
    settings on, the front-end's registry and recorder observe the pass
    and become :attr:`TracePass.probes`.
    """
    from repro.engine.system import CoalescerKind

    system = spec.for_arm(CoalescerKind.NONE).system()
    tp = build_trace_pass(spec, system)
    registry = system.telemetry
    if registry is not None:
        # The front-end's device and coalescer registered empty probes
        # too; only the cache pass's may travel into the arms.
        for probes in (
            registry.counters, registry.gauges, registry.histograms
        ):
            for name in [n for n in probes if not n.startswith("cache.")]:
                del probes[name]
    if registry is not None or system.spans is not None:
        tp.probes = (registry, system.spans)
    return tp


def _from_payload(payload: dict, key: str = "") -> TracePass:
    """The pass a stored payload holds. Raises ``KeyError``,
    ``TypeError`` or ``ValueError`` on one phase 2 could not run: missing
    meta, or a stream that fails
    :func:`~repro.artifacts.shm.check_requests`."""
    meta = payload["meta"]
    shm_codec.check_requests(payload["requests"])
    return TracePass(
        benchmark=meta["benchmark"],
        n_accesses=int(meta["n_accesses"]),
        trace_end_cycle=int(meta["trace_end_cycle"]),
        raw=payload["requests"],
        cache_metrics=dict(meta["cache_metrics"]),
        key=key,
        cached=True,
    )


def try_load_trace_pass(
    spec: "RunSpec", store: Optional[ArtifactStore] = None
) -> Optional[TracePass]:
    """Load ``spec``'s cached pass artifact, or None (never computes).

    An entry :func:`_from_payload` rejects counts as corrupt: the store
    unlinks it and reports a miss, so the caller recomputes.
    """
    if not cache_enabled():
        return None
    store = store if store is not None else get_store()
    pkey = spec.pass_key()
    payload = store.get("pass", pkey, check=_from_payload)
    return None if payload is None else _from_payload(payload, pkey)


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
    """The miss half of :func:`load_or_compute_trace_pass`: compute the
    pass and write its artifact back.

    It never probes the pass artifact: a caller that already missed on
    it (phase 1 of the suite) calls this directly, so each pass is
    looked up once.
    """
    store = store if store is not None else get_store()
    tp = compute_trace_pass(spec)
    tp.key = spec.pass_key()
    store.put(
        "pass",
        tp.key,
        {
            "benchmark": tp.benchmark,
            "n_accesses": tp.n_accesses,
            "seed": spec.seed,
            "config_hash": spec.config.config_hash(),
            "device": spec.device,
            "scale": repr(spec.scale),
            "extra_benchmarks": list(spec.benchmarks[1:]),
            "fine_grain": spec.fine_grain,
            "trace_end_cycle": tp.trace_end_cycle,
            "n_raw": tp.n_raw,
            "cache_metrics": tp.cache_metrics,
        },
        requests=tp.raw,
    )
    return tp

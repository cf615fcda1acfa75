"""Run drivers: one-call benchmark execution and the comparison view.

This is the primary user-facing API::

    from repro.engine.driver import run_benchmark, run_comparison, CoalescerKind

    result = run_benchmark("gs", coalescer=CoalescerKind.PAC)
    trio = run_comparison("gs")   # none / dmc / pac on the same trace

A run is its :class:`~repro.engine.spec.RunSpec`. The entry points set
its benchmarks and arm from their own arguments and pass every other
field (``config``, ``seed``, ``device``, ``fine_grain``, ``scale``,
``engine``, ``telemetry``, ``spans``) through ``**fields`` unchanged;
``RunSpec`` documents them. :func:`run_comparison` (one benchmark,
several arms) is a serial view of
:func:`repro.engine.parallel.run_suite_parallel`, the one grid runner.
Below them every run goes through :func:`run_spec` (end to end) or
:func:`run_arm` (over a shared trace + cache-pass prefix), and both
bracket the run with ``run.start``/``run.end`` in the active event log.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Sequence

from repro.artifacts import build_trace_pass
from repro.engine.results import RunResult
from repro.engine.spec import RunSpec
from repro.engine.system import CoalescerKind
from repro.telemetry import events as ev
from repro.workloads.base import workload_key

if TYPE_CHECKING:
    from repro.artifacts import TracePass

#: Default trace length: long enough for steady-state coalescing
#: behaviour, short enough for interactive runs.
DEFAULT_ACCESSES = 60_000


def _log_run(spec: RunSpec, result: Optional[RunResult] = None) -> None:
    """Emit ``run.start`` (before ``result`` exists) or ``run.end``."""
    log = ev.active()
    if not log.enabled:
        return
    if result is None:
        log.emit(ev.RunStarted(
            benchmark=spec.benchmarks[0], coalescer=spec.arm.value,
            n_accesses=spec.n_accesses, seed=spec.seed, device=spec.device,
        ))
    else:
        log.emit(ev.RunCompleted(
            benchmark=spec.benchmarks[0], coalescer=spec.arm.value,
            n_raw=result.n_raw, n_issued=result.n_issued,
            runtime_cycles=result.runtime_cycles,
        ))


def run_spec(spec: RunSpec) -> RunResult:
    """Run ``spec`` end to end on one system: trace, cache pass,
    coalescer, device, with fresh probes on the cache pass where the
    spec's probe settings call for them.

    This is the path of :func:`run_benchmark`, and the reference every
    arm of a grid (:func:`run_arm` over a shared prefix) equals. No
    fault site lies on this path: they sit on pool jobs, shared memory
    and the artifact store, which only the grids reach.
    """
    _log_run(spec)
    system = spec.system()
    result = system.run_raw(build_trace_pass(spec, system))
    _log_run(spec, result)
    return result


def run_arm(spec: RunSpec, tp: "TracePass") -> RunResult:
    """Run the coalescer and device of ``spec`` over a shared prefix:
    ``tp`` is the trace + cache pass computed once for every arm of the
    spec's benchmark mix, its packed raw stream the coalescer's input.

    A probe spec's arm folds in what the pass observed: its system is
    built on a copy of ``tp.probes`` — the ``cache.*`` probes and the
    recorder, bound to the spec seed with its span origins — so every
    arm, retried or not, starts from its own copy and its telemetry and
    spans equal those of its standalone :func:`run_spec`. A pass that
    did not observe the spec's probe settings raises ``ValueError``.
    """
    telemetry, spans = copy.deepcopy(tp.probes) if tp.probes else (None, None)
    observed = (
        None if telemetry is None else telemetry.window_cycles,
        None if spans is None else spans.sample_rate,
    )
    if observed != (spec.telemetry, spec.spans):
        raise ValueError(
            "the trace pass did not observe this spec's probes; compute "
            "it with compute_trace_pass(spec)"
        )
    _log_run(spec)
    result = spec.system(telemetry=telemetry, spans=spans).run_raw(tp)
    _log_run(spec, result)
    return result


def run_benchmark(
    benchmark: str,
    coalescer: CoalescerKind = CoalescerKind.PAC,
    n_accesses: int = DEFAULT_ACCESSES,
    *,
    extra_benchmarks: Sequence[str] = (),
    **fields,
) -> RunResult:
    """Run one benchmark through one coalescer configuration.

    ``extra_benchmarks`` adds co-running processes (the paper's
    multiprocessing mode). ``fields`` are the other
    :class:`~repro.engine.spec.RunSpec` fields, passed unchanged:
    ``telemetry=True`` collects the windowed probe timeline onto
    ``result.telemetry`` and ``spans=True`` (or an int sample rate)
    traces sampled per-request lifecycle spans onto ``result.spans``.
    A field this call sets itself (``benchmarks``, ``arm``) raises
    :class:`TypeError` before anything runs. The run logs
    ``run.start``/``run.end`` to the active event log
    (:mod:`repro.telemetry.events`).
    """
    return run_spec(RunSpec.entry(
        (benchmark, *extra_benchmarks), n_accesses, fields, arm=coalescer,
    ))


def run_comparison(
    benchmark: str,
    kinds: Iterable[CoalescerKind] = (
        CoalescerKind.NONE,
        CoalescerKind.DMC,
        CoalescerKind.PAC,
    ),
    n_accesses: int = DEFAULT_ACCESSES,
    *,
    extra_benchmarks: Sequence[str] = (),
    use_artifact_cache: bool = True,
    **fields,
) -> Dict[CoalescerKind, RunResult]:
    """Run the same trace through several coalescer configurations.

    The one-benchmark view of
    :func:`~repro.engine.parallel.run_suite_parallel` at
    ``max_workers=1``, keyed by kind in ``kinds`` order; every argument
    means what it means there. Every arm sees the identical trace and
    raw request stream: the trace and the cache-hierarchy pass are
    computed once and shared, which is bit-identical to regenerating
    them per arm. A fault plan reaches the comparison through
    ``$REPRO_FAULTS``. Each result carries the grid's
    :class:`~repro.engine.health.RunHealth` on ``.health``.
    """
    from repro.engine.parallel import run_suite_parallel

    kinds = list(kinds)
    grid = run_suite_parallel(
        kinds, (benchmark,), n_accesses, max_workers=1,
        extra_benchmarks=extra_benchmarks,
        use_artifact_cache=use_artifact_cache, **fields,
    )
    name = workload_key(benchmark)
    return {kind: grid[(name, kind.value)] for kind in kinds}

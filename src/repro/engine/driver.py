"""Run drivers: one-call benchmark execution and the grid views.

This is the primary user-facing API::

    from repro.engine.driver import run_benchmark, run_comparison, CoalescerKind

    result = run_benchmark("gs", coalescer=CoalescerKind.PAC)
    trio = run_comparison("gs")   # none / dmc / pac on the same trace

:func:`run_comparison` (one benchmark, several arms) and
:func:`run_suite` (one arm, several benchmarks) are serial views of
:func:`repro.engine.parallel.run_suite_parallel`, the one grid runner.
Below them every run goes through :func:`run_spec` (end to end) or
:func:`run_arm` (over a shared trace + cache-pass prefix), and both
bracket the run with ``run.start``/``run.end`` in the active event log.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Dict, Iterable, Optional, Sequence

from repro.config import SimulationConfig, TABLE1
from repro.core.protocols import MemoryProtocol
from repro.engine.results import RunResult
from repro.engine.spec import RunSpec
from repro.engine.system import CoalescerKind
from repro.telemetry import events as ev
from repro.telemetry import SpanRecorder, TelemetryRegistry
from repro.workloads import BENCHMARK_NAMES
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


def run_spec(spec: RunSpec, telemetry=None, spans=None) -> RunResult:
    """Run ``spec`` end to end on one system: trace, cache pass,
    coalescer, device, with live probes on the cache pass.

    This is the path of :func:`run_benchmark`, and the reference every
    arm of a grid (:func:`run_arm` over a shared prefix) equals.
    ``telemetry``/``spans`` hand in a live registry/recorder to fill;
    by default the spec's probe settings build fresh ones. No fault
    site lies on this path: they sit on pool jobs, shared memory and
    the artifact store, which only the grids reach.
    """
    _log_run(spec)
    system = spec.system(telemetry=telemetry, spans=spans)
    trace = system.build_trace(
        spec.benchmarks, spec.n_accesses, seed=spec.seed, scale=spec.scale
    )
    result = system.run_trace(trace, benchmark=spec.label)
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
    if RunSpec.probe_settings(telemetry, spans) != {
        "telemetry_window": spec.telemetry_window, "span_rate": spec.span_rate,
    }:
        raise ValueError(
            "the trace pass did not observe this spec's probes; compute "
            "it with compute_trace_pass(spec)"
        )
    _log_run(spec)
    result = spec.system(telemetry=telemetry, spans=spans).run_raw(
        tp.raw,
        benchmark=tp.benchmark,
        n_accesses=tp.n_accesses,
        trace_end_cycle=tp.trace_end_cycle,
        cache_metrics=tp.cache_metrics,
    )
    _log_run(spec, result)
    return result


def run_benchmark(
    benchmark: str,
    coalescer: CoalescerKind = CoalescerKind.PAC,
    n_accesses: int = DEFAULT_ACCESSES,
    config: SimulationConfig = TABLE1,
    seed: Optional[int] = None,
    protocol: Optional[MemoryProtocol] = None,
    device: str = "hmc",
    fine_grain: bool = False,
    extra_benchmarks: Sequence[str] = (),
    scale=1.0,
    telemetry=False,
    spans=False,
    engine: str = "auto",
) -> RunResult:
    """Run one benchmark through one coalescer configuration.

    ``extra_benchmarks`` adds co-running processes (the paper's
    multiprocessing mode); ``fine_grain`` enables the Figure 10b
    data-size coalescing mode; ``device`` selects ``"hmc"`` or ``"hbm"``.
    ``telemetry=True`` (or a :class:`repro.telemetry.TelemetryRegistry`,
    which this call fills) collects the windowed probe timeline onto
    ``result.telemetry``. ``spans=True`` (or an int sample rate, or a
    :class:`repro.telemetry.SpanRecorder`, which this call fills)
    traces sampled per-request lifecycle spans onto ``result.spans``.
    The run logs ``run.start``/``run.end`` to the active event log
    (:mod:`repro.telemetry.events`). ``engine`` is an oracle hook:
    ``"auto"`` (default) runs the production path — the batched
    front-end, PAC kernel and HMC/HBM device twins, whatever the probes
    or spans — and ``"reference"`` runs the scalar per-request classes
    they are bit-identical to. NONE, DMC and SORT run their one
    coalescer, and DDR its one device class, on either engine.
    """
    spec = RunSpec(
        (benchmark, *extra_benchmarks), n_accesses, arm=coalescer,
        config=config, seed=seed, device=device, protocol=protocol,
        fine_grain=fine_grain, scale=scale, engine=engine,
        **RunSpec.probe_settings(telemetry, spans),
    )
    return run_spec(
        spec,
        telemetry=(
            telemetry if isinstance(telemetry, TelemetryRegistry) else None
        ),
        spans=spans if isinstance(spans, SpanRecorder) else None,
    )


def run_comparison(
    benchmark: str,
    kinds: Iterable[CoalescerKind] = (
        CoalescerKind.NONE,
        CoalescerKind.DMC,
        CoalescerKind.PAC,
    ),
    n_accesses: int = DEFAULT_ACCESSES,
    config: SimulationConfig = TABLE1,
    seed: Optional[int] = None,
    device: str = "hmc",
    extra_benchmarks: Sequence[str] = (),
    telemetry=False,
    spans=False,
    use_artifact_cache: bool = True,
    faults=None,
    engine: str = "auto",
) -> Dict[CoalescerKind, RunResult]:
    """Run the same trace through several coalescer configurations.

    The one-benchmark view of
    :func:`~repro.engine.parallel.run_suite_parallel` at
    ``max_workers=1``, keyed by kind in ``kinds`` order. Every arm sees
    the identical trace and raw request stream. The trace and the
    cache-hierarchy pass — both deterministic in (seed, config) and
    independent of the coalescer arm — are computed once and shared,
    which is bit-identical to regenerating them per arm. Without probes
    the prefix goes through the content-addressed artifact cache
    (:mod:`repro.artifacts`), so a repeated comparison reloads it from
    disk (``use_artifact_cache=False`` opts out). With telemetry or
    spans on, the shared pass carries what its probes observed into
    every arm and skips the store; a registry or recorder passed in is
    a template — each arm gets a fresh one with its window or sample
    rate. ``faults`` installs a process-scoped fault injector
    for the duration of the comparison (the artifact-store sites are
    live on the cached path). ``engine`` is :func:`run_benchmark`'s
    oracle hook, applied to every arm and to the shared trace+cache
    prefix. Each result carries the grid's
    :class:`~repro.engine.health.RunHealth` on ``.health``.
    """
    from repro.engine.parallel import run_suite_parallel

    kinds = list(kinds)
    grid = run_suite_parallel(
        kinds, benchmarks=(benchmark,), n_accesses=n_accesses,
        config=config, seed=seed, device=device, max_workers=1,
        telemetry=telemetry, spans=spans, extra_benchmarks=extra_benchmarks,
        use_artifact_cache=use_artifact_cache, faults=faults, engine=engine,
    )
    name = workload_key(benchmark)
    return {kind: grid[(name, kind.value)] for kind in kinds}


def run_suite(
    coalescer: CoalescerKind = CoalescerKind.PAC,
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
    n_accesses: int = DEFAULT_ACCESSES,
    config: SimulationConfig = TABLE1,
    seed: Optional[int] = None,
    device: str = "hmc",
    protocol: Optional[MemoryProtocol] = None,
    fine_grain: bool = False,
    extra_benchmarks: Sequence[str] = (),
    scale=1.0,
    telemetry=False,
    spans=False,
    faults=None,
    engine: str = "auto",
) -> Dict[str, RunResult]:
    """Run every benchmark through one coalescer configuration.

    The one-arm view of :func:`~repro.engine.parallel.run_suite_parallel`
    at ``max_workers=1``, keyed by lowercase benchmark name in
    ``benchmarks`` order.
    Every knob of :func:`run_benchmark` forwards, so a whole-suite sweep
    can target HBM/DDR, the fine-grain mode, or co-running mixes without
    dropping down to per-benchmark calls. Each benchmark's prefix goes
    through the artifact cache, as in :func:`run_comparison`. A registry
    or recorder passed in is a template: each benchmark gets a fresh one
    with its window or sample rate. ``faults`` installs one
    process-scoped injector spanning the whole sweep.
    """
    from repro.engine.parallel import run_suite_parallel

    grid = run_suite_parallel(
        (coalescer,), benchmarks=benchmarks, n_accesses=n_accesses,
        config=config, seed=seed, device=device, max_workers=1,
        telemetry=telemetry, spans=spans, protocol=protocol,
        fine_grain=fine_grain, scale=scale,
        extra_benchmarks=extra_benchmarks, faults=faults, engine=engine,
    )
    return {
        name: grid[(name, coalescer.value)]
        for name in map(workload_key, benchmarks)
    }

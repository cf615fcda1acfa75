"""Run drivers: one-call benchmark execution and suite sweeps.

This is the primary user-facing API::

    from repro.engine.driver import run_benchmark, run_comparison, CoalescerKind

    result = run_benchmark("gs", coalescer=CoalescerKind.PAC)
    trio = run_comparison("gs")   # none / dmc / pac on the same trace
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, Optional, Sequence

from repro.config import SimulationConfig, TABLE1
from repro.core.protocols import MemoryProtocol
from repro.engine.results import RunResult
from repro.engine.spec import RunSpec
from repro.engine.system import CoalescerKind
from repro.faults import FaultInjector, NullInjector, installed, resolve_plan
from repro.telemetry import events as ev
from repro.telemetry import SpanRecorder, TelemetryRegistry
from repro.workloads import BENCHMARK_NAMES

if TYPE_CHECKING:
    from repro.artifacts import TracePass

#: Default trace length: long enough for steady-state coalescing
#: behaviour, short enough for interactive runs.
DEFAULT_ACCESSES = 60_000


def _fault_scope(faults):
    """Resolve a ``faults=`` argument into an installed-injector scope.

    A resolved plan installs a process-scoped
    :class:`~repro.faults.FaultInjector` for the duration of the call;
    no plan installs a *fresh* :class:`~repro.faults.NullInjector`,
    which both disables injection and (by displacing the pristine
    singleton) stops ``$REPRO_FAULTS`` from auto-installing underneath
    an explicit ``faults=False``.
    """
    plan = resolve_plan(faults)
    return installed(
        FaultInjector(plan) if plan is not None else NullInjector()
    )


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


def run_spec(
    spec: RunSpec, faults=None, telemetry=None, spans=None
) -> RunResult:
    """Run ``spec`` end to end: trace, cache pass, coalescer, device.

    ``faults`` scopes injection as on :func:`run_benchmark`; the
    multi-run entry points pass ``False``, so each run sits under a
    fresh :class:`~repro.faults.NullInjector` (the suite-wide plan
    targets their pool and store sites, not the run itself).
    ``telemetry``/``spans`` hand in a live registry/recorder to fill;
    by default the spec's probe settings build fresh ones.
    """
    with _fault_scope(faults):
        _log_run(spec)
        system = spec.system(telemetry=telemetry, spans=spans)
        trace = system.build_trace(
            spec.benchmarks, spec.n_accesses, seed=spec.seed, scale=spec.scale
        )
        result = system.run_trace(trace, benchmark=spec.label)
        _log_run(spec, result)
        return result


def run_arm(
    spec: RunSpec, tp: "TracePass", requests: Optional[list] = None
) -> RunResult:
    """Run the coalescer and device of ``spec`` over a shared prefix.

    ``tp`` is the trace + cache pass computed once for every arm of the
    spec's benchmark mix; ``requests`` supplies its decoded raw stream
    when the caller already has one (a pool worker mapping shared
    memory), else :meth:`TracePass.requests` decodes it.
    """
    return spec.system().run_raw(
        tp.requests() if requests is None else requests,
        benchmark=tp.benchmark,
        n_accesses=tp.n_accesses,
        trace_end_cycle=tp.trace_end_cycle,
        cache_metrics=tp.cache_metrics,
    )


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
    faults=None,
    events=None,
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
    ``faults`` activates
    deterministic fault injection (:mod:`repro.faults`): a plan, a spec
    string, ``None`` (consult ``$REPRO_FAULTS``), or ``False`` to
    force-disable; a single in-process run has no instrumented sites of
    its own, so plans only matter here through code this call reaches
    (e.g. the artifact store in cached flows). ``events`` selects the
    structured event log (:mod:`repro.telemetry.events`): ``None``
    keeps whatever is active (including a ``$REPRO_EVENTS`` sink), a
    path or :class:`~repro.telemetry.events.EventLog` installs one for
    the call, ``False`` force-disables. ``engine`` selects the
    execution path per component — the coalescer kernel (``"batched"``
    is the bit-identical array-backed kernel, PAC-only), the cache
    front-end, and the memory-device back-end (every protocol has a
    batched twin): ``"reference"`` pins all three to the per-request
    object pipelines, ``"auto"`` (default) resolves each component to
    its batched engine when applicable, demoting to reference — with
    one ``demote`` event per component — when spans or a non-PAC arm
    (coalescer only) make the batched path inapplicable. Telemetry
    probes and fault plans run on the batched engines.
    """
    spec = RunSpec(
        (benchmark, *extra_benchmarks), n_accesses, arm=coalescer,
        config=config, seed=seed, device=device, protocol=protocol,
        fine_grain=fine_grain, scale=scale, engine=engine,
        **RunSpec.probe_settings(telemetry, spans),
    )
    with ev.installed(ev.resolve_events(events)):
        return run_spec(
            spec, faults=faults,
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
    events=None,
    engine: str = "auto",
) -> Dict[CoalescerKind, RunResult]:
    """Run the same trace through several coalescer configurations.

    Every arm sees the identical trace and raw request stream. With
    telemetry and spans off (the common sweep configuration) the trace
    and the cache-hierarchy pass — both deterministic in (seed, config)
    and independent of the coalescer arm — are computed once via the
    content-addressed artifact cache (:mod:`repro.artifacts`) and
    shared, which is bit-identical to regenerating them per arm; a
    repeated comparison reloads the prefix from disk instead of
    recomputing it (``use_artifact_cache=False`` opts out). When either
    probe facility is on, each arm runs end-to-end so its registry /
    recorder observes its own cache pass; a registry or recorder passed
    in is a template — each arm gets a fresh one with its window or
    sample rate. ``faults`` installs a
    process-scoped fault injector for the duration of the comparison
    (the artifact-store sites are live on the cached path). ``engine``
    applies per arm (:meth:`RunSpec.for_arm`): ``"batched"`` pins the
    PAC arms to the fast kernel while non-PAC arms resolve ``"auto"``.
    The shared trace+cache prefix resolves the same knob for its
    front-end (``"reference"`` forces the scalar generators and
    hierarchy; the default takes the batched front-end — bit-identical
    either way, so cached artifacts are engine-invariant). Each arm's
    back-end resolves likewise: the default runs the batched device
    twin, bit-identical by the same contract.
    """
    spec = RunSpec(
        (benchmark, *extra_benchmarks), n_accesses, config=config,
        seed=seed, device=device, engine=engine,
        **RunSpec.probe_settings(telemetry, spans),
    )
    out: Dict[CoalescerKind, RunResult] = {}
    with ev.installed(ev.resolve_events(events)), _fault_scope(faults):
        if telemetry or spans:
            for kind in kinds:
                out[kind] = run_spec(spec.for_arm(kind), faults=False)
            return out

        from repro.artifacts import load_or_compute_trace_pass

        tp = load_or_compute_trace_pass(spec, use_cache=use_artifact_cache)
        for kind in kinds:
            arm = spec.for_arm(kind)
            _log_run(arm)
            out[kind] = run_arm(arm, tp)
            _log_run(arm, out[kind])
        return out


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
    events=None,
    engine: str = "auto",
) -> Dict[str, RunResult]:
    """Run every benchmark through one coalescer configuration.

    Every knob of :func:`run_benchmark` forwards (``device``,
    ``protocol``, ``fine_grain``, ``extra_benchmarks``, ``scale``,
    ``telemetry``, ``spans``, ``faults``, ``events``), so a
    whole-suite sweep can target HBM/DDR, the fine-grain mode, or
    co-running mixes without dropping down to per-benchmark calls.
    A registry or recorder passed in is a template: each benchmark
    gets a fresh one with its window or sample rate.
    ``faults`` installs one process-scoped injector spanning the whole
    sweep; ``events`` likewise installs one suite-wide event-log scope.
    """
    specs = [
        RunSpec(
            (name, *extra_benchmarks), n_accesses, arm=coalescer,
            config=config, seed=seed, device=device, protocol=protocol,
            fine_grain=fine_grain, scale=scale, engine=engine,
            **RunSpec.probe_settings(telemetry, spans),
        )
        for name in benchmarks
    ]
    with ev.installed(ev.resolve_events(events)), _fault_scope(faults):
        return {
            spec.benchmarks[0]: run_spec(spec, faults=False) for spec in specs
        }

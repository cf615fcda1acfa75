"""Grid execution: the one runner behind every multi-run entry point.

The paper's evaluation is a grid, benchmarks × coalescer arms.
:func:`run_suite_parallel` runs it; :func:`repro.engine.driver.run_comparison`
(one benchmark, several arms) and :func:`repro.engine.driver.run_suite`
(one arm, several benchmarks) are views of it at ``max_workers=1``.
Only the coalescer+device half differs between arms — the trace and the
cache-hierarchy pass are deterministic in (seed, config) and identical
across arms — so the grid runs in two phases:

* **Phase 1** computes each benchmark's trace + cache pass exactly once
  (per benchmark, not per arm), consulting the content-addressed
  artifact cache (:mod:`repro.artifacts`) so repeated suites skip the
  prefix entirely. Each pass artifact is looked up once; a miss goes
  straight to :func:`repro.artifacts.compute_and_store_trace_pass`.
* **Phase 2** runs the (benchmark × arm) coalescer+device jobs: in the
  parent over one shared request list at one worker, else over a
  persistent process pool. There each benchmark's raw request stream
  is packed once into an array-of-structs buffer and published through
  ``multiprocessing.shared_memory`` — workers map the parent's pages
  instead of unpickling tens of thousands of request objects per job.

Pooled phases run under :class:`repro.engine.supervisor.PoolSupervisor`:
per-job wall-clock timeouts, bounded deterministic-backoff retries, and
crashed-worker pool rebuilds. When the fast path faults, execution
walks a degradation ladder —

    shm fan-out  →  pickled per-job transport  →  in-parent serial

— per benchmark (transport demotion on segment loss or publish
failure) and per job (serial fallback once retries exhaust). Every job
is a pure function of its arguments, so recovered runs are bit-identical
to fault-free runs; everything supervision did is reported on the
:class:`repro.engine.health.RunHealth` attached to each result and to
``stats["health"]``. Deterministic fault injection for all of the above
lives in :mod:`repro.faults` (``$REPRO_FAULTS`` / ``faults=``).

Every run still derives its RNG from ``(seed, benchmark)``, and probes
(telemetry/spans) force the one-job-per-arm end-to-end path, so results
are bit-identical across serial / pooled / cached / degraded execution.
Every arm, on every path, is bracketed by ``run.start``/``run.end`` in
the active event log (:mod:`repro.telemetry.events`).
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.config import SimulationConfig, TABLE1
from repro.engine.driver import DEFAULT_ACCESSES, run_arm, run_spec
from repro.engine.health import RunHealth
from repro.engine.results import RunResult
from repro.engine.supervisor import (
    PoolSupervisor,
    SuiteExecutionError,
    SupervisedJob,
    run_serial_with_retries,
)
from repro.engine.spec import RunSpec
from repro.engine.system import CoalescerKind
from repro.faults import (
    FaultInjector,
    NullInjector,
    installed,
    job_scope,
    resolve_plan,
)
from repro.telemetry import events as ev
from repro.workloads import BENCHMARK_NAMES

__all__ = ["run_suite_parallel", "SuiteExecutionError"]


#: Relative host cost of each benchmark's jobs, for longest-first
#: scheduling. Results are keyed, so order never changes them; it fixes
#: each job's fault-plan ordinal, which is why it is a constant and not
#: read from a measurement file. gs, bfs, stream and hpcg are end-to-end
#: seconds from ``BENCH_baseline.json`` relative to hpcg, ssca2 is an
#: older estimate, and the rest (and any workload registered at run
#: time) weigh 2.0.
_BENCH_COST = {
    "gs": 11.44, "bfs": 3.30, "ssca2": 3.0, "stream": 1.15, "hpcg": 1.0,
    "cg": 2.0, "ep": 2.0, "fft": 2.0, "lu": 2.0, "mg": 2.0, "pr": 2.0,
    "sort": 2.0, "sp": 2.0, "sparselu": 2.0,
}
_ARM_COST = {"pac": 3.0, "sortdmc": 2.0, "dmc": 1.5, "none": 1.0}


def _bench_cost(spec: RunSpec) -> float:
    return _BENCH_COST.get(spec.benchmarks[0], 2.0)


# --------------------------------------------------------------------- #
# per-job path (probe runs, and explicit pipeline="per-job")


def _run_one(args: tuple) -> Tuple[Tuple[str, str], RunResult]:
    spec, fault_ctx = args
    with job_scope(fault_ctx, "perjob.job"):
        # faults=False: the job-entry fault already fired above, and the
        # run must not resolve $REPRO_FAULTS into a second
        # (process-scoped) injector inside the worker.
        result = run_spec(spec, faults=False)
    return (spec.benchmarks[0], spec.arm.value), result


# --------------------------------------------------------------------- #
# two-phase path


def _phase1_job(args: tuple):
    """Pool worker: compute one benchmark's missed trace pass.

    ``compute`` is :func:`~repro.artifacts.compute_and_store_trace_pass`
    (artifact writes happen in the worker) or, with the cache off,
    :func:`~repro.artifacts.compute_trace_pass`; the packed stream
    returns to the parent as a single contiguous buffer.
    """
    spec, compute, fault_ctx = args
    with job_scope(fault_ctx, "phase1.job"):
        tp = compute(spec)
    return spec.benchmarks[0], tp


#: Worker-side decoded-stream memo, keyed by shared-memory segment name.
#: A pool worker runs several arms of the same benchmark back to back;
#: decoding the stream once per segment (not once per job) makes the
#: extra arms nearly free. Bounded: a suite fans out over only a handful
#: of distinct segments at a time.
_DECODE_MEMO: "OrderedDict[str, list]" = OrderedDict()
_DECODE_MEMO_CAP = 4


def _decode_shared(shm_name: str, n_items: int) -> list:
    from repro.artifacts import shm as shm_codec

    cached = _DECODE_MEMO.get(shm_name)
    if cached is not None:
        _DECODE_MEMO.move_to_end(shm_name)
        return cached
    handle, view = shm_codec.attach(shm_name, n_items)
    try:
        requests = shm_codec.decode_requests(view)
    finally:
        shm_codec.detach(handle)
    _DECODE_MEMO[shm_name] = requests
    _DECODE_MEMO.move_to_end(shm_name)
    while len(_DECODE_MEMO) > _DECODE_MEMO_CAP:
        _DECODE_MEMO.popitem(last=False)
    return requests


def _phase2_job(args: tuple) -> Tuple[Tuple[str, str], RunResult]:
    """Pool worker: one coalescer arm against a shared raw stream.

    ``header`` is the benchmark's trace pass without its packed stream;
    ``payload`` selects the transport rung for the stream:
    ``("shm", name, n_raw)`` maps the parent's shared pages;
    ``("pickle", raw_array)`` carries the packed stream in the job args
    (the degraded per-job transport used when shared memory is
    unavailable or faulting).
    """
    spec, header, payload, fault_ctx = args
    from repro.artifacts import shm as shm_codec

    with job_scope(fault_ctx, "phase2.job"):
        if payload[0] == "shm":
            requests = _decode_shared(payload[1], payload[2])
        else:
            requests = shm_codec.decode_requests(payload[1])
        result = run_arm(spec, header, requests)
    return (spec.benchmarks[0], spec.arm.value), result


def run_suite_parallel(
    kinds: Iterable[CoalescerKind] = (
        CoalescerKind.NONE, CoalescerKind.DMC, CoalescerKind.PAC
    ),
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
    n_accesses: int = DEFAULT_ACCESSES,
    config: SimulationConfig = TABLE1,
    seed: Optional[int] = None,
    device: str = "hmc",
    max_workers: Optional[int] = None,
    telemetry: bool = False,
    spans=False,
    protocol=None,
    fine_grain: bool = False,
    scale=1.0,
    extra_benchmarks: Sequence[str] = (),
    use_artifact_cache: bool = True,
    stats: Optional[dict] = None,
    pipeline: str = "auto",
    faults=None,
    job_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    backoff_base: Optional[float] = None,
    engine: str = "auto",
) -> Dict[Tuple[str, str], RunResult]:
    """Run every (benchmark, kind) pair concurrently, supervised.

    Returns ``{(benchmark, kind.value): RunResult}``. ``max_workers``
    defaults to the CPU count; pass 1 to force serial execution
    (useful under debuggers and in constrained CI). An empty or
    repeating ``kinds`` or ``benchmarks``, or ``max_workers`` below 1,
    raises :class:`ValueError`.

    ``pipeline`` selects the execution strategy: ``"two-phase"`` (the
    artifact-cached prefix-sharing pipeline described in the module
    docstring), ``"per-job"`` (every job runs end-to-end — the pre-cache
    behaviour), or ``"auto"`` (two-phase unless probes are on).
    ``use_artifact_cache=False`` keeps the two-phase structure but skips
    all cache reads/writes. ``stats``, if given a dict, is populated
    with the phase timing split, artifact hit/miss counts, and a
    JSON-safe ``"health"`` snapshot.

    Self-healing: pooled jobs run under per-job wall-clock timeouts
    (``job_timeout``, default ``$REPRO_JOB_TIMEOUT`` or 300s), bounded
    retries with deterministic backoff (``max_retries``/``backoff_base``,
    env ``$REPRO_MAX_RETRIES``/``$REPRO_BACKOFF``), crashed-worker pool
    rebuilds, and the shm → per-job → serial degradation ladder. The
    :class:`~repro.engine.health.RunHealth` report lands on every
    result's ``.health`` (excluded from ``==``). ``faults`` accepts a
    :class:`~repro.faults.FaultPlan`, a spec string, ``None`` (consult
    ``$REPRO_FAULTS``), or ``False`` (force-disable injection).

    ``telemetry=True`` attaches a windowed-probe registry to each result
    (registries pickle back from workers bit-identically);
    ``spans=True`` (or an int sample rate) attaches a span trace the
    same way — each job builds its own recorder, and sampling keys on
    the raw-stream ordinal, so span sets are bit-identical to serial
    runs. A registry or recorder passed in is a template: every job
    gets a fresh one with its window or sample rate, at any worker
    count. Probe runs must observe the cache pass, so they always take
    the per-job path.

    Suite/phase boundaries, supervisor retries/timeouts/rebuilds and
    transport demotions go to the active event log
    (:func:`repro.telemetry.events.active`: ``ev.installed(...)``,
    ``$REPRO_EVENTS`` or the CLI's ``--events``); forked pool workers
    inherit the sink and append their own ``run.*`` lines,
    distinguished by ``pid``.

    ``engine`` forwards the oracle hook of
    :func:`~repro.engine.driver.run_benchmark` to every arm and to
    phase 1's per-benchmark trace+cache prefix: the default (``"auto"``,
    or its spelling ``"batched"``) runs the batched twins — with probes,
    spans or a fault plan too — and ``engine="reference"`` the scalar
    classes, bit-identically, so artifact keys and cached passes are
    shared across engines. Each job constructs its own ``System``
    inside its worker process.
    """
    if pipeline not in ("auto", "two-phase", "per-job"):
        raise ValueError(f"unknown pipeline {pipeline!r}")
    kinds = list(kinds)
    benchmarks = list(benchmarks)
    for axis, values in (("kinds", kinds), ("benchmarks", benchmarks)):
        if not values or len(set(values)) != len(values):
            raise ValueError(
                f"{axis} must be non-empty and distinct, got {values!r}"
            )
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    # Specs resolve the default seed HERE, not in the workers: every job
    # carries the same concrete seed so per-benchmark seeds derive
    # identically regardless of worker count or config pickling.
    specs = [
        RunSpec(
            (bench, *extra_benchmarks), n_accesses, config=config,
            seed=seed, device=device, protocol=protocol,
            fine_grain=fine_grain, scale=scale, engine=engine,
            **RunSpec.probe_settings(telemetry, spans),
        )
        for bench in benchmarks
    ]
    n_jobs = len(specs) * len(kinds)
    workers = max_workers or min(n_jobs, os.cpu_count() or 2)
    probes_on = bool(telemetry) or bool(spans)
    two_phase = pipeline == "two-phase" or (
        pipeline == "auto" and not probes_on
    )
    if probes_on and two_phase:
        raise ValueError(
            "pipeline='two-phase' cannot observe the cache pass — "
            "telemetry/spans runs need pipeline='per-job' (or 'auto')"
        )

    plan = resolve_plan(faults)
    spec_text = plan.to_spec() if plan is not None else ""
    health = RunHealth(jobs=n_jobs, faults_enabled=plan is not None)
    # A *fresh* NullInjector (not the shared singleton) marks injection
    # as explicitly resolved for this run: active() only auto-installs
    # from $REPRO_FAULTS while the pristine singleton is in place, so a
    # run with faults disabled stays disabled even when the variable is
    # set — in this process and (via fork) in its pool workers.
    parent_injector = (
        FaultInjector(plan) if plan is not None else NullInjector()
    )

    if stats is not None:
        stats.update(
            pipeline="two-phase" if two_phase else "per-job",
            workers=workers,
            jobs=n_jobs,
            artifact_hits=0,
            artifact_misses=0,
            phase1_seconds=0.0,
            phase2_seconds=0.0,
        )

    supervisor = (
        PoolSupervisor(
            workers=workers,
            health=health,
            job_timeout=job_timeout,
            max_retries=max_retries,
            backoff_base=backoff_base,
        )
        if workers > 1 and n_jobs > 1
        else None
    )

    t_start = time.perf_counter()
    elog = ev.active()
    if elog.enabled:
        elog.emit(ev.SuiteStarted(
            benchmarks=benchmarks,
            arms=[kind.value for kind in kinds],
            jobs=n_jobs,
            pipeline="two-phase" if two_phase else "per-job",
            workers=workers,
        ))
    try:
        with installed(parent_injector):
            if two_phase:
                out = _run_two_phase(
                    specs, kinds, use_artifact_cache, stats, supervisor,
                    spec_text, health,
                )
            else:
                out = _run_per_job(
                    specs, kinds, supervisor, spec_text, health,
                    max_retries, backoff_base,
                )
    finally:
        if supervisor is not None:
            supervisor.shutdown()
    health.completed = len(out)
    health.wall_seconds = time.perf_counter() - t_start
    if elog.enabled:
        elog.emit(ev.SuiteCompleted(
            jobs=n_jobs,
            completed=health.completed,
            healthy=health.healthy,
        ))
    if stats is not None:
        stats["phase1_seconds"] = health.phase1_seconds
        stats["phase2_seconds"] = health.phase2_seconds
        stats["health"] = health.as_dict()
    for result in out.values():
        result.health = health
    return out


def _grid(specs: Sequence[RunSpec], kinds: Sequence[CoalescerKind]):
    """Every (benchmark, arm) spec, longest-expected first.

    The grid is benchmarks × arms, stable-sorted by expected cost; the
    resulting order fixes each job's fault-plan ordinal. Longest first
    keeps the pool's tail short — a big job started last would otherwise
    run alone while every other worker idles.
    """
    grid = [spec.for_arm(kind) for spec in specs for kind in kinds]
    grid.sort(
        key=lambda s: _bench_cost(s) * _ARM_COST[s.arm.value], reverse=True
    )
    return grid


def _run_two_phase(
    specs: Sequence[RunSpec],
    kinds: Sequence[CoalescerKind],
    use_artifact_cache: bool,
    stats: Optional[dict],
    supervisor: Optional[PoolSupervisor],
    spec_text: str,
    health: RunHealth,
) -> Dict[Tuple[str, str], RunResult]:
    from repro.artifacts import (
        cache_enabled,
        compute_and_store_trace_pass,
        compute_trace_pass,
        shm as shm_codec,
        try_load_trace_pass,
    )

    use_cache = use_artifact_cache and cache_enabled()
    compute = compute_and_store_trace_pass if use_cache else compute_trace_pass
    elog = ev.active()

    # ---- phase 1: one trace+cache pass per benchmark ------------------
    t0 = time.perf_counter()
    if elog.enabled:
        elog.emit(ev.PhaseStarted(phase="phase1", jobs=len(specs)))
    passes: Dict[str, object] = {}
    pending: List[RunSpec] = []
    for spec in specs:
        tp = try_load_trace_pass(spec) if use_cache else None
        if tp is not None:
            passes[spec.benchmarks[0]] = tp
        else:
            pending.append(spec)
    if stats is not None:
        stats["artifact_hits"] = len(passes)
        stats["artifact_misses"] = len(pending)

    if supervisor is not None and len(pending) > 1:
        ordered = sorted(pending, key=_bench_cost, reverse=True)

        def _p1_build(spec: RunSpec, ordinal: int):
            def build(attempt: int) -> tuple:
                ctx = (spec_text, ordinal, attempt) if spec_text else None
                return spec, compute, ctx
            return build

        def _p1_fallback(job: SupervisedJob):
            return job.key.benchmarks[0], compute(job.key)

        p1_jobs = [
            SupervisedJob(
                key=spec,
                label=f"phase1:{spec.benchmarks[0]}",
                build_args=_p1_build(spec, i),
            )
            for i, spec in enumerate(ordered)
        ]
        for bench, tp in supervisor.run(
            _phase1_job, p1_jobs,
            fallback=_p1_fallback, fallback_label="phase1-serial",
        ).values():
            passes[bench] = tp
    else:
        for spec in pending:
            passes[spec.benchmarks[0]] = compute(spec)
    t1 = time.perf_counter()
    health.phase1_seconds = t1 - t0
    if elog.enabled:
        elog.emit(ev.PhaseCompleted(phase="phase1", completed=len(passes)))

    # ---- phase 2: (benchmark × arm) coalescer+device jobs -------------
    n_arm_jobs = len(specs) * len(kinds)
    if elog.enabled:
        elog.emit(ev.PhaseStarted(phase="phase2", jobs=n_arm_jobs))
    out: Dict[Tuple[str, str], RunResult] = {}
    shm_handles: List[object] = []
    try:
        if supervisor is None:
            # In-process: every arm shares one decoded request list.
            for spec in specs:
                for kind in kinds:
                    arm = spec.for_arm(kind)
                    out[(spec.benchmarks[0], kind.value)] = run_arm(
                        arm, passes[spec.benchmarks[0]]
                    )
        else:
            # Transport rung per benchmark: shared memory when the
            # publish succeeds, pickled per-job args otherwise. A
            # benchmark is demoted when its segment faults mid-flight.
            transport: Dict[str, Tuple] = {}
            headers: Dict[str, object] = {}
            for spec in specs:
                bench = spec.benchmarks[0]
                tp = passes[bench]
                # Jobs carry the pass without its stream; the stream
                # travels by the transport rung.
                headers[bench] = replace(tp, raw=tp.raw[:0], _requests=None)
                try:
                    handle, name = shm_codec.publish(tp.raw)
                except OSError as exc:
                    health.record_failure(f"publish:{bench}", exc)
                    health.degradations.append(f"shm->per-job:{bench}")
                    if elog.enabled:
                        elog.emit(ev.Demoted(
                            rung="shm->per-job", label=bench,
                        ))
                    transport[bench] = ("pickle",)
                else:
                    shm_handles.append(handle)
                    transport[bench] = ("shm", name)

            def _p2_build(spec: RunSpec, ordinal: int):
                def build(attempt: int) -> tuple:
                    bench = spec.benchmarks[0]
                    tp = passes[bench]
                    rung = transport[bench]
                    payload = (
                        ("shm", rung[1], tp.n_raw)
                        if rung[0] == "shm"
                        else ("pickle", tp.raw)
                    )
                    ctx = (
                        (spec_text, ordinal, attempt) if spec_text else None
                    )
                    return spec, headers[bench], payload, ctx
                return build

            def _p2_on_failure(job: SupervisedJob, exc: BaseException):
                bench = job.key.benchmarks[0]
                if (
                    isinstance(exc, FileNotFoundError)
                    and transport.get(bench, ("",))[0] == "shm"
                ):
                    # The segment is gone (or faulting) for this
                    # benchmark: demote every remaining attempt of its
                    # jobs to the pickled per-job transport.
                    transport[bench] = ("pickle",)
                    health.degradations.append(f"shm->per-job:{bench}")
                    if elog.enabled:
                        elog.emit(ev.Demoted(
                            rung="shm->per-job", label=bench,
                        ))

            def _p2_fallback(job: SupervisedJob):
                # Last rung: run this single arm in the parent, from
                # the same trace pass — bit-identical by construction.
                spec = job.key
                bench = spec.benchmarks[0]
                return (bench, spec.arm.value), run_arm(spec, passes[bench])

            # One job per cell (no chunking) so the scheduler can't
            # batch a heavy job behind light ones.
            p2_jobs = [
                SupervisedJob(
                    key=spec,
                    label=f"{spec.benchmarks[0]}/{spec.arm.value}",
                    build_args=_p2_build(spec, i),
                )
                for i, spec in enumerate(_grid(specs, kinds))
            ]
            for key, result in supervisor.run(
                _phase2_job, p2_jobs,
                fallback=_p2_fallback, fallback_label="serial",
                on_failure=_p2_on_failure,
            ).values():
                out[key] = result
    finally:
        for handle in shm_handles:
            if not shm_codec.release(handle):
                # Verified leak: record it (the conftest leak fixture
                # and `repro health` both surface this).
                health.shm_leaks.append(getattr(handle, "name", "?"))
    health.phase2_seconds = time.perf_counter() - t1
    if elog.enabled:
        elog.emit(ev.PhaseCompleted(phase="phase2", completed=len(out)))
    return out


def _run_per_job(
    specs: Sequence[RunSpec],
    kinds: Sequence[CoalescerKind],
    supervisor: Optional[PoolSupervisor],
    spec_text: str,
    health: RunHealth,
    max_retries: Optional[int],
    backoff_base: Optional[float],
) -> Dict[Tuple[str, str], RunResult]:
    """The pre-artifact-cache behaviour: every job runs end-to-end."""
    t0 = time.perf_counter()
    elog = ev.active()
    grid = _grid(specs, kinds)
    if elog.enabled:
        elog.emit(ev.PhaseStarted(phase="per-job", jobs=len(grid)))

    def _build(spec: RunSpec, ordinal: int):
        def build(attempt: int) -> tuple:
            ctx = (spec_text, ordinal, attempt) if spec_text else None
            return spec, ctx
        return build

    jobs = [
        SupervisedJob(
            key=spec,
            label=f"{spec.benchmarks[0]}/{spec.arm.value}",
            build_args=_build(spec, i),
        )
        for i, spec in enumerate(grid)
    ]
    if supervisor is None:
        results = run_serial_with_retries(
            _run_one, jobs, health,
            max_retries=max_retries, backoff_base=backoff_base,
        )
    else:

        def _fallback(job: SupervisedJob):
            # Re-run end-to-end in the parent, with the fault context
            # stripped: the fallback rung is the recovery path.
            return _run_one((job.key, None))

        results = supervisor.run(
            _run_one, jobs, fallback=_fallback, fallback_label="serial",
        )
    out = {key: result for key, result in results.values()}
    health.phase2_seconds = time.perf_counter() - t0
    if elog.enabled:
        elog.emit(ev.PhaseCompleted(phase="per-job", completed=len(out)))
    return out

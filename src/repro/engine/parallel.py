"""Grid execution: the one runner behind every multi-run entry point.

The paper's evaluation is a grid, benchmarks × coalescer arms.
:func:`run_suite_parallel` runs it, one
:class:`~repro.engine.spec.RunSpec` per cell;
:func:`repro.engine.driver.run_comparison` (one benchmark, several
arms) is its view at ``max_workers=1``.
Only the coalescer+device half differs between arms — the trace and the
cache-hierarchy pass are deterministic in (seed, config) and identical
across arms — so every grid runs in two phases:

* **Phase 1** computes each benchmark's trace + cache pass exactly once
  (per benchmark, not per arm). Without probes it consults the
  content-addressed artifact cache (:mod:`repro.artifacts`) so repeated
  suites skip the prefix entirely: each pass artifact is looked up
  once, and a miss goes straight to
  :func:`repro.artifacts.compute_and_store_trace_pass`. With telemetry
  or spans on, the pass is computed on probed front-end systems and
  carries what they observed (:attr:`repro.artifacts.TracePass.probes`);
  such a pass never touches the store.
* **Phase 2** runs the (benchmark × arm) coalescer+device jobs over
  each benchmark's raw stream — the packed array phase 1 produced —
  through :func:`repro.engine.driver.run_arm`, which folds a copy of
  the pass's probe state into each arm. In the parent (one worker)
  every arm reads the pass itself; on a pool each stream is published
  once through ``multiprocessing.shared_memory``, and each job copies
  it out of the parent's pages instead of unpickling it.

Every phase hands its jobs to one
:meth:`repro.engine.supervisor.PoolSupervisor.run` call, at any worker
count, in one cost-sorted order, so a ``*.job`` fault ordinal names the
same job everywhere. The supervisor gives bounded deterministic-backoff
retries and, on a pool, per-job wall-clock timeouts and crashed-worker
rebuilds. When the fast path faults, execution walks a degradation
ladder —

    shm fan-out  →  pickled per-job transport  →  in-parent serial

— per benchmark (transport demotion on segment loss or publish
failure) and per job (the same call in the parent, without its fault
context, once retries exhaust). Every job is a pure function of its
arguments, so recovered runs are bit-identical to fault-free runs;
everything supervision did is reported on the
:class:`repro.engine.health.RunHealth` attached to each result and to
``stats["health"]``. Deterministic fault injection for all of the above
lives in :mod:`repro.faults` (``$REPRO_FAULTS``, or ``faults=`` here).

Every run still derives its RNG from ``(seed, benchmark)``, so results
— telemetry and spans included — are bit-identical across serial /
pooled / cached / degraded execution and equal each cell's standalone
:func:`repro.engine.driver.run_benchmark`. Every arm is bracketed by
``run.start``/``run.end`` in the active event log
(:mod:`repro.telemetry.events`).
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine.driver import DEFAULT_ACCESSES, run_arm
from repro.engine.health import RunHealth
from repro.engine.results import RunResult
from repro.engine.supervisor import (
    PoolSupervisor,
    SuiteExecutionError,
    SupervisedJob,
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
#: read from a measurement file. Each weight is the benchmark's PAC-arm
#: seconds (``run_arm`` over one shared 24k-access pass, default
#: config, batched engine; min of 12 rounds in two processes on one
#: 2-core host) over hpcg's 0.018 s, to two significant figures. A
#: workload registered at run time weighs 2.0.
_BENCH_COST = {
    "gs": 21.0, "sp": 13.0, "ssca2": 9.7, "cg": 6.1, "bfs": 4.4,
    "sort": 1.6, "fft": 1.3, "stream": 1.2, "hpcg": 1.0, "lu": 1.0,
    "sparselu": 0.92, "pr": 0.81, "ep": 0.59, "mg": 0.56,
}
_ARM_COST = {"pac": 3.0, "sortdmc": 2.0, "dmc": 1.5, "none": 1.0}


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one (``taskset`` and cpusets shrink it below
    ``os.cpu_count()``), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 2


def _bench_cost(spec: RunSpec) -> float:
    return _BENCH_COST.get(spec.benchmarks[0], 2.0)


def _cell(spec: RunSpec) -> Tuple[str, str]:
    """A spec's result key, and (joined by ``/``) its job label."""
    return spec.benchmarks[0], spec.arm.value


def _jobs(
    specs: Sequence[RunSpec], label, args, spec_text: str
) -> List[SupervisedJob]:
    """One supervised job per spec, keyed by it, in ``specs`` order.

    Job ``i`` carries fault ordinal ``i``; ``label(spec)`` names it, and
    ``args(spec, ctx)`` builds its argument tuple for each attempt, with
    ``ctx`` the job's fault context (None when no plan is active).
    """

    def job(ordinal: int, spec: RunSpec) -> SupervisedJob:
        def build(attempt: int) -> tuple:
            ctx = (spec_text, ordinal, attempt) if spec_text else None
            return args(spec, ctx)

        return SupervisedJob(key=spec, label=label(spec), build_args=build)

    return [job(i, spec) for i, spec in enumerate(specs)]


def _phase1_job(args: tuple):
    """Compute one benchmark's missed trace pass.

    ``compute`` is :func:`~repro.artifacts.compute_and_store_trace_pass`
    (artifact writes happen in the job) or, with the cache off or
    probes on, :func:`~repro.artifacts.compute_trace_pass`; from a pool
    worker the packed stream returns to the parent as a single
    contiguous buffer, with the pass's probe state pickled beside it.
    """
    spec, compute, fault_ctx = args
    with job_scope(fault_ctx, "phase1.job"):
        return compute(spec)


def _phase2_job(args: tuple) -> RunResult:
    """One coalescer arm against a benchmark's trace pass.

    ``segment`` selects the transport rung for the raw stream:
    ``(name, n_raw)`` maps the parent's shared pages, with ``tp`` the
    pass without its stream; ``None`` means ``tp`` is the whole pass —
    shared by reference in the parent, or pickled into a worker (the
    degraded per-job transport used when shared memory is unavailable
    or faulting). Either way the arm reads the packed array itself.
    """
    spec, tp, segment, fault_ctx = args
    with job_scope(fault_ctx, "phase2.job"):
        if segment:
            from repro.artifacts import shm as shm_codec

            # Copy the stream out of the mapping before detaching: the
            # view is only valid while the segment stays open.
            handle, view = shm_codec.attach(*segment)
            try:
                tp = replace(tp, raw=view.copy())
            finally:
                shm_codec.detach(handle)
        return run_arm(spec, tp)


def run_suite_parallel(
    kinds: Iterable[CoalescerKind] = (
        CoalescerKind.NONE, CoalescerKind.DMC, CoalescerKind.PAC
    ),
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
    n_accesses: int = DEFAULT_ACCESSES,
    *,
    max_workers: Optional[int] = None,
    extra_benchmarks: Sequence[str] = (),
    use_artifact_cache: bool = True,
    stats: Optional[dict] = None,
    faults=None,
    job_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
    **fields,
) -> Dict[Tuple[str, str], RunResult]:
    """Run every (benchmark, kind) pair concurrently, supervised.

    Returns ``{(benchmark, kind.value): RunResult}``, with benchmark
    names lowercase as their specs hold them. Each cell is one
    :class:`~repro.engine.spec.RunSpec`: ``extra_benchmarks`` co-run
    with every benchmark (the paper's multiprocessing mode), and
    ``fields`` are the other spec fields, passed unchanged to every
    cell. ``max_workers`` defaults to :func:`usable_cpus`; pass 1 to
    run every job in the parent (useful under debuggers and in
    constrained CI). The supervisor gets ``min(max_workers, jobs)``
    workers — the value ``stats["workers"]`` reports — so a one-job
    grid runs in the parent too. An empty or repeating ``kinds`` or
    ``benchmarks`` (names compare in any case), ``max_workers`` below
    1, an arm that is not a :class:`CoalescerKind`, a field the grid
    sets itself (``benchmarks``, ``arm``) or one
    :class:`~repro.engine.spec.RunSpec` rejects raises before anything
    runs or is logged (:class:`ValueError`, :class:`TypeError`), and so
    does a bad supervision setting (below).

    Every grid runs the two phases of the module docstring.
    ``use_artifact_cache=False`` skips all cache reads/writes.
    ``stats``, if given a dict, gets exactly ``workers``, ``jobs``, the
    artifact hit/miss counts (``artifact_misses`` counts the passes
    phase 1 computed) and a JSON-safe ``"health"`` snapshot, which
    carries the phase times (``phase1_seconds``, ``phase2_seconds``).

    Self-healing: every job, at any worker count, gets bounded retries
    with deterministic backoff (``max_retries``, env
    ``$REPRO_MAX_RETRIES``) and the shm → per-job → serial degradation
    ladder; pooled jobs also run under per-job wall-clock timeouts
    (``job_timeout``, default ``$REPRO_JOB_TIMEOUT`` or 300s) and
    crashed-worker pool rebuilds. The
    :class:`~repro.engine.health.RunHealth` report lands on every
    result's ``.health`` (excluded from ``==``). ``faults`` accepts a
    :class:`~repro.faults.FaultPlan`, a spec string, ``None`` (consult
    ``$REPRO_FAULTS``), or ``False`` (force-disable injection).

    With the ``telemetry`` or ``spans`` field on, every arm gets a fresh
    registry or recorder at the spec's window or sample rate, at any
    worker count (registries and span traces pickle back from workers
    bit-identically; sampling keys on the raw-stream ordinal). Phase 1
    observes each cache pass once, and every arm folds its own copy of
    those probes and span origins in, so each arm equals its standalone
    :func:`~repro.engine.driver.run_benchmark`. A probe grid reads no
    pass from the store and writes none back — a stored pass holds no
    probe events — so it counts every pass as a miss, as with the cache
    off. Spans on the sortdmc arm raise ``ValueError`` before anything
    runs.

    Suite/phase boundaries, supervisor retries/timeouts/rebuilds and
    transport demotions go to the active event log
    (:func:`repro.telemetry.events.active`: ``ev.installed(...)``,
    ``$REPRO_EVENTS`` or the CLI's ``--events``); forked pool workers
    inherit the sink and append their own ``run.*`` lines,
    distinguished by ``pid``.

    The ``engine`` field reaches every arm and phase 1's per-benchmark
    trace+cache prefix; the two engines' passes are bit-identical, so
    artifact keys and cached passes are shared across engines. Each job
    constructs its own ``System`` inside its worker process.
    """
    kinds = list(kinds)
    if max_workers is not None and max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    # Specs resolve the default seed HERE, not in the workers: every job
    # carries the same concrete seed so per-benchmark seeds derive
    # identically regardless of worker count or config pickling. They
    # also reject bad fields and normalise names before anything runs.
    specs = [
        RunSpec.entry((bench, *extra_benchmarks), n_accesses, fields)
        for bench in benchmarks
    ]
    benchmarks = [spec.benchmarks[0] for spec in specs]
    for axis, values in (("kinds", kinds), ("benchmarks", benchmarks)):
        if not values or len(set(values)) != len(values):
            raise ValueError(
                f"{axis} must be non-empty and distinct, got {values!r}"
            )
    # Built once, before anything runs: for_arm rejects a bad arm, or
    # spans on an arm that records none, here.
    grid = _grid(specs, kinds)
    n_jobs = len(grid)
    workers = min(max_workers or usable_cpus(), n_jobs)

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
    supervisor = PoolSupervisor(
        workers=workers,
        health=health,
        job_timeout=job_timeout,
        max_retries=max_retries,
    )

    if stats is not None:
        stats.update(
            workers=workers,
            jobs=n_jobs,
            artifact_hits=0,
            artifact_misses=0,
        )

    t_start = time.perf_counter()
    elog = ev.active()
    if elog.enabled:
        elog.emit(ev.SuiteStarted(
            benchmarks=benchmarks,
            arms=[kind.value for kind in kinds],
            jobs=n_jobs,
            workers=workers,
        ))
    try:
        with installed(parent_injector):
            # A stored pass holds no probe events: a probe grid computes
            # every pass on probed front-ends and leaves the store alone.
            probed = (specs[0].telemetry, specs[0].spans) != (None, None)
            out = _run_two_phase(
                specs, grid, use_artifact_cache and not probed,
                stats, supervisor, spec_text, health,
            )
    finally:
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
        stats["health"] = health.as_dict()
    for result in out.values():
        result.health = health
    return out


def _grid(specs: Sequence[RunSpec], kinds: Sequence[CoalescerKind]):
    """Every (benchmark, arm) spec, longest-expected first.

    The grid is benchmarks × arms, stable-sorted by expected cost; the
    resulting order fixes each job's fault-plan ordinal at any worker
    count. Longest first keeps the pool's tail short — a big job started
    last would otherwise run alone while every other worker idles.
    """
    grid = [spec.for_arm(kind) for spec in specs for kind in kinds]
    grid.sort(
        key=lambda s: _bench_cost(s) * _ARM_COST[s.arm.value], reverse=True
    )
    return grid


def _run_two_phase(
    specs: Sequence[RunSpec],
    grid: Sequence[RunSpec],
    use_artifact_cache: bool,
    stats: Optional[dict],
    supervisor: PoolSupervisor,
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
    misses: List[RunSpec] = []
    for spec in specs:
        tp = try_load_trace_pass(spec) if use_cache else None
        if tp is not None:
            passes[spec.benchmarks[0]] = tp
        else:
            misses.append(spec)
    if stats is not None:
        stats["artifact_hits"] = len(passes)
        stats["artifact_misses"] = len(misses)
    misses.sort(key=_bench_cost, reverse=True)
    computed = supervisor.run(
        _phase1_job,
        _jobs(
            misses, lambda spec: f"phase1:{spec.benchmarks[0]}",
            lambda spec, ctx: (spec, compute, ctx), spec_text,
        ),
        fallback=lambda job: compute(job.key),
        fallback_label="phase1-serial",
    )
    for spec, tp in computed.items():
        passes[spec.benchmarks[0]] = tp
    t1 = time.perf_counter()
    health.phase1_seconds = t1 - t0
    if elog.enabled:
        elog.emit(ev.PhaseCompleted(phase="phase1", completed=len(passes)))

    # ---- phase 2: (benchmark × arm) coalescer+device jobs -------------
    if elog.enabled:
        elog.emit(ev.PhaseStarted(phase="phase2", jobs=len(grid)))
    # Transport rung per benchmark on a pool: its shared-memory segment
    # and the pass without its stream when the publish succeeded, else
    # (and once demoted, when its segment faults mid-flight) the whole
    # pass pickled into each job. In the parent every arm reads the
    # pass itself.
    segments: Dict[str, Tuple[str, int]] = {}
    headers: Dict[str, object] = {}
    shm_handles: List[object] = []

    def demote(bench: str) -> None:
        health.degradations.append(f"shm->per-job:{bench}")
        if elog.enabled:
            elog.emit(ev.Demoted(rung="shm->per-job", label=bench))

    def p2_args(spec: RunSpec, ctx) -> tuple:
        bench = spec.benchmarks[0]
        if bench in segments:
            return spec, headers[bench], segments[bench], ctx
        return spec, passes[bench], None, ctx

    def on_failure(job: SupervisedJob, exc: BaseException) -> None:
        bench = job.key.benchmarks[0]
        if isinstance(exc, FileNotFoundError) and segments.pop(bench, None):
            demote(bench)

    try:
        for spec in specs if supervisor.workers > 1 else ():
            bench = spec.benchmarks[0]
            tp = passes[bench]
            try:
                handle, name = shm_codec.publish(tp.raw)
            except OSError as exc:
                health.record_failure(f"publish:{bench}", exc)
                demote(bench)
            else:
                shm_handles.append(handle)
                segments[bench] = (name, tp.n_raw)
                headers[bench] = replace(tp, raw=tp.raw[:0])
        # One job per cell (no chunking) so the scheduler can't batch a
        # heavy job behind light ones. The last rung runs the arm in the
        # parent from the same trace pass — bit-identical by
        # construction.
        results = supervisor.run(
            _phase2_job,
            _jobs(
                grid, lambda spec: "/".join(_cell(spec)), p2_args, spec_text
            ),
            fallback=lambda job: run_arm(
                job.key, passes[job.key.benchmarks[0]]
            ),
            on_failure=on_failure,
        )
    finally:
        for handle in shm_handles:
            if not shm_codec.release(handle):
                # Verified leak: record it (the conftest leak fixture
                # and `repro health` both surface this).
                health.shm_leaks.append(getattr(handle, "name", "?"))
    out = {_cell(spec): result for spec, result in results.items()}
    health.phase2_seconds = time.perf_counter() - t1
    if elog.enabled:
        elog.emit(ev.PhaseCompleted(phase="phase2", completed=len(out)))
    return out

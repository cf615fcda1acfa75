"""Supervised job execution: timeouts, retries, crash recovery.

:meth:`PoolSupervisor.run` is the one loop that runs batches of keyed
jobs to completion, at any worker count, under a self-healing contract:

* **bounded retries with deterministic backoff** — each job is retried
  at most ``max_retries`` times with delay ``BACKOFF_BASE * 2**(attempt-1)``
  (no jitter: chaos runs must be reproducible);
* **fallback degradation** — a job that exhausts its retries (or, on a
  pool, fails with a non-retryable error) is handed to an in-parent
  ``fallback`` callable, the last rung of the degradation ladder;
* on a pool, **per-job wall-clock timeouts** — a worker observed running
  past the deadline is declared hung; the pool is torn down (hung
  workers cannot be interrupted any other way), rebuilt, and the hung
  job retried while innocent in-flight jobs resubmit without penalty;
* on a pool, **crashed-worker replacement** — ``BrokenProcessPool``
  triggers the same teardown/rebuild. A crash is charged only to a job
  that was alone in flight; with several suspects none is charged and
  each reruns alone, so the next crash names its job (the rule cannot
  loop: every solo rerun completes or is charged).

With one worker the jobs run in the parent, in order: no pool, no
timeout (a hung parent cannot supervise itself), and a non-retryable
(logic) error propagates as raised. Because every job is a pure
function of its arguments, a retried or degraded job produces a
bit-identical result — supervision changes how a result is obtained,
never what it is. Everything the supervisor does is recorded on a
:class:`repro.engine.health.RunHealth`.

Given a fault plan's text, the supervisor runs every call inside
:func:`repro.faults.job_scope` with the job's ordinal (its index in
the batch) and attempt, so jobs carry no fault state of their own.
"""

from __future__ import annotations

import numbers
import os
import pickle
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.engine.health import RunHealth
from repro.faults import job_scope
from repro.telemetry import events as ev

#: Defaults, overridable per call and via the environment.
ENV_JOB_TIMEOUT = "REPRO_JOB_TIMEOUT"
ENV_MAX_RETRIES = "REPRO_MAX_RETRIES"
DEFAULT_JOB_TIMEOUT = 300.0
DEFAULT_MAX_RETRIES = 3

#: Retry ``n`` of a job waits ``BACKOFF_BASE * 2**(n-1)`` seconds. A
#: constant, read at each retry: tests monkeypatch it to run faster.
BACKOFF_BASE = 0.05

#: Failures worth retrying: environment/transport trouble (vanished
#: files or segments, transport pickling, dead workers, OOM), as
#: opposed to deterministic logic errors, which would fail identically
#: on every retry and go straight to the fallback.
RETRYABLE_EXCEPTIONS = (
    OSError,  # includes FileNotFoundError and TimeoutError
    EOFError,
    BrokenProcessPool,
    pickle.PickleError,
    MemoryError,
)


def _setting(value, arg: str, env: str, parse, default, positive=False):
    """The argument, else ``$env`` parsed by ``parse``, else ``default``.

    An argument of the wrong type — not an integer for ``int`` settings,
    not a real number otherwise, or a ``bool`` — raises
    :class:`TypeError` naming it. A variable that does not parse, or a
    value below zero (or at zero, if ``positive``), raises
    :class:`ValueError` naming the argument or variable it came from.
    """
    need = "an integer" if parse is int else "a number"
    if value is None:
        name, text = f"${env}", os.environ.get(env, "").strip()
        try:
            value = parse(text) if text else default
        except ValueError:
            raise ValueError(f"{name} must be {need}, got {text!r}") from None
    else:
        name = arg
        kind = numbers.Integral if parse is int else numbers.Real
        if isinstance(value, bool) or not isinstance(value, kind):
            raise TypeError(
                f"{arg} must be {need}, got {type(value).__name__} {value!r}"
            )
        value = parse(value)
    if not (value > 0 if positive else value >= 0):
        raise ValueError(
            f"{name} must be {'> 0' if positive else '>= 0'}, got {value!r}"
        )
    return value


def resolve_supervision(
    job_timeout: Optional[float] = None,
    max_retries: Optional[int] = None,
):
    """Fill supervision knobs from arguments, then env, then defaults.

    ``max_retries`` must be an integer and ``job_timeout`` a real
    number, neither a ``bool``; anything else raises :class:`TypeError`
    naming the argument. A variable that does not parse (an int for
    retries, a float for the timeout), ``job_timeout <= 0`` or
    ``max_retries < 0`` raises :class:`ValueError` naming its source.
    """
    return (
        _setting(job_timeout, "job_timeout", ENV_JOB_TIMEOUT, float,
                 DEFAULT_JOB_TIMEOUT, positive=True),
        _setting(max_retries, "max_retries", ENV_MAX_RETRIES, int,
                 DEFAULT_MAX_RETRIES),
    )


class SuiteExecutionError(RuntimeError):
    """A job failed terminally: retries exhausted and no fallback."""


@dataclass
class SupervisedJob:
    """One keyed unit of work.

    ``build_args`` returns the argument tuple, at each submission, so
    a transport demoted since the last attempt reaches the next one.
    ``ordinal`` (the job's index in its batch) and ``attempt`` are the
    supervisor's.
    """

    key: object
    label: str
    build_args: Callable[[], tuple]
    attempt: int = 0
    ordinal: int = 0
    ready_at: float = field(default=0.0, compare=False)


def _scoped_call(fn: Callable, args: tuple, ctx, site: Optional[str]):
    """``fn(args)`` inside the job's fault scope, wherever it runs."""
    with job_scope(ctx, site):
        return fn(args)


class PoolSupervisor:
    """Runs :class:`SupervisedJob` batches on a self-healing pool, or
    in the parent when it has one worker."""

    def __init__(
        self,
        workers: int,
        health: RunHealth,
        job_timeout: Optional[float] = None,
        max_retries: Optional[int] = None,
        plan: str = "",
        tick: float = 0.05,
    ) -> None:
        self.workers = max(1, workers)
        self.health = health
        self.plan = plan
        self.job_timeout, self.max_retries = resolve_supervision(
            job_timeout, max_retries
        )
        self.tick = tick
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pools_built = 0

    # -- pool lifecycle ------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
            self._pools_built += 1
            if self._pools_built > 1:
                self.health.pool_rebuilds += 1
                elog = ev.active()
                if elog.enabled:
                    elog.emit(ev.PoolRebuilt(
                        rebuilds=self.health.pool_rebuilds,
                    ))
        return self._pool

    def _discard_pool(self) -> None:
        """Tear the pool down hard (kills hung/compromised workers)."""
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            pool.shutdown(wait=False, cancel_futures=True)
        except TypeError:  # pragma: no cover - pre-3.9 signature
            pool.shutdown(wait=False)
        # _processes may already be None once the executor noticed the
        # break and cleaned up after itself.
        for proc in list((getattr(pool, "_processes", None) or {}).values()):
            try:
                proc.terminate()
            except Exception:  # pragma: no cover - already dead
                pass

    def shutdown(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    # -- execution -----------------------------------------------------

    def run(
        self,
        fn: Callable,
        jobs: Sequence[SupervisedJob],
        site: Optional[str] = None,
        fallback: Optional[Callable[[SupervisedJob], object]] = None,
        fallback_label: str = "serial",
        on_failure: Optional[Callable[[SupervisedJob, BaseException], None]] = None,
    ) -> Dict:
        """Run every job; return ``{job.key: fn(args)}``.

        ``fn`` must be a picklable module-level callable taking the args
        tuple. With a plan, each call runs in its job's fault scope and
        evaluates ``site``, the batch's job-entry fault site, as the job
        starts. ``fallback`` runs a job in the parent, outside any job
        scope, when its attempts are exhausted; ``on_failure`` observes
        every failure before the retry decision (the grid runner uses it
        to demote a benchmark's transport down the degradation ladder).

        With one worker the jobs run in the parent, in order, under the
        same retries, backoff, fallback and ``job.*`` events, with no
        pool and no timeout; a non-retryable error propagates as raised
        (on a pool it goes to the fallback).
        """
        results: Dict = {}
        pending = deque(jobs)
        elog = ev.active()
        for ordinal, job in enumerate(jobs):
            job.ordinal = ordinal

        def call(job: SupervisedJob) -> tuple:
            ctx = (self.plan, job.ordinal, job.attempt) if self.plan else None
            return fn, job.build_args(), ctx, site

        def done_event(job: SupervisedJob) -> None:
            if elog.enabled:
                elog.emit(ev.JobCompleted(label=job.label))

        def fail(job: SupervisedJob, exc: BaseException) -> None:
            self.health.record_failure(job.label, exc)
            if elog.enabled:
                elog.emit(ev.JobFailed(
                    label=job.label,
                    error=type(exc).__name__,
                    attempt=job.attempt,
                ))
            if on_failure is not None:
                on_failure(job, exc)
            job.attempt += 1
            retryable = isinstance(exc, RETRYABLE_EXCEPTIONS)
            if retryable and job.attempt <= self.max_retries:
                self.health.retries += 1
                delay = BACKOFF_BASE * (2 ** (job.attempt - 1))
                self.health.backoff_seconds += delay
                job.ready_at = time.monotonic() + delay
                if elog.enabled:
                    elog.emit(ev.JobRetried(
                        label=job.label, attempt=job.attempt, delay=delay,
                    ))
                pending.append(job)
                return
            if fallback is None:
                raise SuiteExecutionError(
                    f"job {job.label} failed terminally after "
                    f"{job.attempt} attempt(s): {exc!r}"
                ) from exc
            self.health.degradations.append(
                f"{fallback_label}:{job.label}"
            )
            if elog.enabled:
                elog.emit(ev.Demoted(
                    rung=fallback_label, label=job.label,
                ))
            results[job.key] = fallback(job)
            done_event(job)

        if self.workers == 1:
            while pending:
                job = pending.popleft()
                time.sleep(max(0.0, job.ready_at - time.monotonic()))
                try:
                    results[job.key] = _scoped_call(*call(job))
                except RETRYABLE_EXCEPTIONS as exc:
                    fail(job, exc)
                else:
                    done_event(job)
            return results

        solo: deque = deque()  # crash suspects, rerun one at a time
        isolating = False  # the in-flight job is a suspect's solo rerun
        total = len(jobs)
        inflight: Dict = {}  # future -> job
        started: Dict = {}  # future -> first-observed-running monotonic
        try:
            while len(results) < total:
                now = time.monotonic()
                pool = self._ensure_pool()

                # Submit every pending job whose backoff has elapsed —
                # or, while crash suspects remain, the next one alone.
                queue = solo if solo else pending
                deferred: List[SupervisedJob] = []
                submit_failed = False
                while queue and not (inflight and isolating):
                    job = queue.popleft()
                    if job.ready_at > now:
                        deferred.append(job)
                        continue
                    try:
                        fut = pool.submit(_scoped_call, *call(job))
                    except RuntimeError:
                        # Pool broke between loop top and submit.
                        deferred.append(job)
                        submit_failed = True
                        break
                    inflight[fut] = job
                    isolating = queue is solo
                queue.extend(deferred)
                if submit_failed:
                    self._requeue_inflight(inflight, started, pending, fail)
                    self._discard_pool()
                    continue

                if not inflight:
                    soonest = min(
                        (j.ready_at for j in pending), default=now
                    )
                    time.sleep(max(0.0, min(soonest - now, self.tick)))
                    continue

                done, _ = wait(
                    list(inflight), timeout=self.tick,
                    return_when=FIRST_COMPLETED,
                )

                suspects: List[SupervisedJob] = []
                for fut in done:
                    job = inflight.pop(fut)
                    started.pop(fut, None)
                    try:
                        results[job.key] = fut.result()
                        done_event(job)
                    except BrokenProcessPool:
                        suspects.append(job)
                    except CancelledError:
                        pending.append(job)
                    except Exception as exc:
                        fail(job, exc)

                if suspects:
                    # Every future sharing the pool is compromised, and
                    # ``running()`` cannot say which job killed the
                    # worker (the executor marks queued calls running).
                    suspects.extend(inflight.values())
                    inflight.clear()
                    started.clear()
                    if len(suspects) == 1:
                        fail(suspects[0], BrokenProcessPool(
                            "worker crashed while the job ran alone"
                        ))
                    else:
                        solo.extend(suspects)
                    self._discard_pool()
                    continue

                # Wall-clock watchdog over running futures.
                now = time.monotonic()
                for fut in inflight:
                    if fut not in started and fut.running():
                        started[fut] = now
                hung = [
                    (fut, job)
                    for fut, job in inflight.items()
                    if fut in started
                    and now - started[fut] > self.job_timeout
                ]
                if hung:
                    self.health.timeouts += len(hung)
                    for fut, job in hung:
                        inflight.pop(fut)
                        started.pop(fut, None)
                        if elog.enabled:
                            elog.emit(ev.JobTimedOut(
                                label=job.label,
                                timeout=self.job_timeout,
                            ))
                        fail(job, TimeoutError(
                            f"job exceeded {self.job_timeout:.1f}s "
                            f"wall-clock timeout"
                        ))
                    # Killing the pool is the only way to stop a hung
                    # worker; the other in-flight jobs are innocent and
                    # resubmit without an attempt charge.
                    self._requeue_inflight(inflight, started, pending, fail)
                    self._discard_pool()
        except BaseException:
            self._discard_pool()
            raise
        return results

    @staticmethod
    def _requeue_inflight(inflight, started, pending, fail) -> None:
        for job in inflight.values():
            pending.append(job)
        inflight.clear()
        started.clear()


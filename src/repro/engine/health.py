"""Structured execution-health reporting for grid runs.

A :class:`RunHealth` records everything the self-healing layer did to
get a grid to completion — retries, per-job timeouts, crashed-worker
pool rebuilds, degradation-ladder transitions, backoff, timings — and
whether any shared-memory segment failed unlink verification. Every
grid run makes one (:func:`repro.engine.parallel.run_suite_parallel`
and its view ``run_comparison``). It rides on
:attr:`repro.engine.results.RunResult.health` (excluded from ``==``:
recovery bookkeeping, never simulation output) and in the ``stats``
dict of ``run_suite_parallel``, and the ``repro health`` CLI prints
:meth:`RunHealth.summary_rows` (``--json`` writes :meth:`RunHealth.as_dict`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class RunHealth:
    """What supervision observed and did during one suite run."""

    #: Total jobs the run fanned out, and how many completed (fallbacks
    #: included; ``jobs != completed`` means the run failed).
    jobs: int = 0
    completed: int = 0
    #: Re-executions of failed/timed-out jobs (bounded per job).
    retries: int = 0
    #: Jobs whose worker exceeded the per-job wall-clock timeout.
    timeouts: int = 0
    #: Pool teardown+rebuild cycles (worker crash or hung-worker kill).
    pool_rebuilds: int = 0
    #: Total deterministic backoff scheduled before retries (seconds).
    backoff_seconds: float = 0.0
    #: Degradation-ladder transitions, e.g. ``"shm->per-job:gs"`` or
    #: ``"serial:gs/pac"``.
    degradations: List[str] = field(default_factory=list)
    #: Individual job failures as ``"label:ExceptionType"``.
    failures: List[str] = field(default_factory=list)
    #: Shared-memory segments that failed unlink verification.
    shm_leaks: List[str] = field(default_factory=list)
    #: Phase timings (wall seconds).
    phase1_seconds: float = 0.0
    phase2_seconds: float = 0.0
    wall_seconds: float = 0.0
    #: Whether a fault plan was active for this run.
    faults_enabled: bool = False

    @property
    def healthy(self) -> bool:
        """Every job completed and nothing leaked. Retries and
        degradations do NOT make a run unhealthy — surviving them is
        the point — but they are visible in :attr:`degraded`."""
        return self.completed == self.jobs and not self.shm_leaks

    @property
    def degraded(self) -> bool:
        return bool(self.degradations)

    @property
    def events(self) -> int:
        """Total recovery actions taken (0 on a clean fast-path run)."""
        return (
            self.retries
            + self.timeouts
            + self.pool_rebuilds
            + len(self.degradations)
        )

    def record_failure(self, label: str, exc: BaseException) -> None:
        self.failures.append(f"{label}:{type(exc).__name__}")

    def as_dict(self) -> Dict:
        """JSON-safe view (the ``repro health --json`` payload)."""
        return {
            "jobs": self.jobs,
            "completed": self.completed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_rebuilds": self.pool_rebuilds,
            "backoff_seconds": self.backoff_seconds,
            "degradations": list(self.degradations),
            "failures": list(self.failures),
            "shm_leaks": list(self.shm_leaks),
            "phase1_seconds": self.phase1_seconds,
            "phase2_seconds": self.phase2_seconds,
            "wall_seconds": self.wall_seconds,
            "faults_enabled": self.faults_enabled,
            "healthy": self.healthy,
            "degraded": self.degraded,
            "events": self.events,
        }

    def summary_rows(self) -> List[Dict]:
        """Tabular view for the CLI."""
        d = self.as_dict()
        keep = (
            "jobs", "completed", "retries", "timeouts", "pool_rebuilds",
            "backoff_seconds", "phase1_seconds", "phase2_seconds",
            "wall_seconds", "faults_enabled", "degraded", "healthy",
        )
        return [
            {
                "metric": name,
                # Pre-format durations: the table renderer shows bare
                # floats below 1.0 as percentages.
                "value": (
                    f"{d[name]:.3f}s" if name.endswith("_seconds")
                    else d[name]
                ),
            }
            for name in keep
        ]

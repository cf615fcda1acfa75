"""Fault injectors: evaluate a :class:`~repro.faults.plan.FaultPlan` at
named sites and manifest the configured failures.

Two evaluation scopes (see :mod:`repro.faults.plan` for semantics):

* a **process-scoped** injector (``FaultInjector(plan)``) counts site
  occurrences in this process — the parent installs one around a suite
  run so transport/store hooks outside any job consult it;
* a **job-scoped** injector (``FaultInjector(plan, job_ordinal=i,
  attempt=a)``) fires specs whose ordinal names this job while
  ``attempt < count`` — :func:`job_scope` builds one per job from the
  compact ``(spec, ordinal, attempt)`` context threaded through job
  args, in a pool worker or (at one worker) in the parent, so
  triggering is deterministic regardless of scheduling or worker
  count, and every finite fault is outlasted by retries.

The disabled path is a null object: hooks cost one no-op method call.
Destructive kinds (``crash``, ``hang``) only manifest inside pool
worker processes — in the parent they are inert, so a one-worker run
with a hostile plan can never take down the caller.
"""

from __future__ import annotations

import errno
import os
import pickle
import time
from contextlib import contextmanager
from functools import lru_cache
from typing import Optional, Tuple

from repro.faults.plan import ENV_FAULTS, FaultPlan

#: Exit status used by injected worker crashes (recognizable in logs).
CRASH_EXIT_CODE = 17

#: How long an injected hang sleeps before giving up and raising — a
#: working supervisor kills the worker long before this elapses, so the
#: constant only bounds damage when supervision itself is broken.
ENV_HANG_SECONDS = "REPRO_FAULT_HANG_SECONDS"
_DEFAULT_HANG_SECONDS = 30.0


def _hang_seconds() -> float:
    try:
        return float(os.environ.get(ENV_HANG_SECONDS, _DEFAULT_HANG_SECONDS))
    except ValueError:
        return _DEFAULT_HANG_SECONDS


def _in_worker_process() -> bool:
    import multiprocessing

    return multiprocessing.current_process().name != "MainProcess"


def _manifest(site: str, kind: str) -> None:
    """Turn a fired fault kind into its failure mode."""
    if kind == "crash":
        if _in_worker_process():
            os._exit(CRASH_EXIT_CODE)
        return  # inert in the parent: never kill the caller
    if kind == "hang":
        if _in_worker_process():
            time.sleep(_hang_seconds())
            raise TimeoutError(
                f"injected hang at {site} outlasted supervision"
            )
        return
    if kind == "transient":
        raise OSError(f"injected transient OS error at {site}")
    if kind == "pickle":
        raise pickle.PicklingError(f"injected pickling error at {site}")
    if kind == "lost":
        raise FileNotFoundError(f"injected segment loss at {site}")
    if kind == "enospc":
        raise OSError(errno.ENOSPC, f"injected ENOSPC at {site}")
    raise AssertionError(f"unmapped fault kind {kind!r}")  # pragma: no cover


class NullInjector:
    """Disabled path: every hook is a cheap no-op."""

    enabled = False

    def site_fault(self, site: str) -> None:
        return None

    def raise_site(self, site: str) -> None:
        return None


NULL_INJECTOR = NullInjector()


class FaultInjector:
    """Evaluates a plan at instrumented sites (see module docstring)."""

    enabled = True

    def __init__(
        self,
        plan: Optional[FaultPlan],
        job_ordinal: Optional[int] = None,
        attempt: int = 0,
    ) -> None:
        self.plan = plan if plan is not None else FaultPlan()
        self.job_ordinal = job_ordinal
        self.attempt = attempt
        self.enabled = bool(self.plan)
        self._hits: dict = {}

    def site_fault(self, site: str) -> Optional[str]:
        """Return the fault kind firing at this site hit, or None.

        Job-scoped evaluation is stateless (pure in ``(site, ordinal,
        attempt)``); process-scoped evaluation advances this site's
        occurrence counter.
        """
        if not self.enabled:
            return None
        if self.job_ordinal is not None:
            for spec in self.plan.specs:
                if (
                    spec.site == site
                    and spec.ordinal == self.job_ordinal
                    and self.attempt < spec.count
                ):
                    return spec.kind
            return None
        n = self._hits.get(site, 0)
        self._hits[site] = n + 1
        for spec in self.plan.specs:
            if spec.site == site and spec.ordinal <= n < spec.ordinal + spec.count:
                return spec.kind
        return None

    def raise_site(self, site: str) -> None:
        """Evaluate the site and manifest any firing fault (raise or,
        for destructive kinds inside a worker, kill the process)."""
        kind = self.site_fault(site)
        if kind is not None:
            _manifest(site, kind)


# --------------------------------------------------------------------- #
# process-global active injector (what the store/shm hooks consult)

_active: object = NULL_INJECTOR
_env_checked = False


def active():
    """The currently installed injector (never None).

    When nothing is installed, ``$REPRO_FAULTS`` is consulted once per
    process — that is how fault injection reaches contexts that never
    thread a ``faults=`` parameter (and how forked pool workers inherit
    a plan set purely through the environment).
    """
    global _active, _env_checked
    if _active is NULL_INJECTOR and not _env_checked:
        _env_checked = True
        text = os.environ.get(ENV_FAULTS, "").strip()
        if text:
            _active = FaultInjector(FaultPlan.parse(text))
    return _active


@contextmanager
def installed(injector):
    """Install ``injector`` as the process-global active injector for
    the duration of the block (restores the previous one after)."""
    global _active
    previous = _active
    _active = injector
    try:
        yield injector
    finally:
        _active = previous


def reset_active() -> None:
    """Forget any installed/env-derived injector (test isolation)."""
    global _active, _env_checked
    _active = NULL_INJECTOR
    _env_checked = False


@lru_cache(maxsize=8)
def _parse_cached(spec_text: str) -> FaultPlan:
    return FaultPlan.parse(spec_text)


#: Compact per-job fault context threaded through pickled worker args:
#: ``(spec_text, job_ordinal, attempt)`` — or None when faults are off.
FaultContext = Optional[Tuple[str, int, int]]


@contextmanager
def job_scope(ctx: FaultContext, entry_site: str):
    """Scope for one supervised job (in a pool worker or the parent).

    Builds the job-scoped injector from ``ctx``, installs it globally
    (so store/shm hooks hit inside the job consult it), and evaluates
    the job-entry site — which is where ``crash``/``hang``/``transient``
    faults manifest. With ``ctx=None`` the null path costs one branch.
    """
    if not ctx:
        yield NULL_INJECTOR
        return
    spec_text, ordinal, attempt = ctx
    injector = FaultInjector(
        _parse_cached(spec_text), job_ordinal=ordinal, attempt=attempt
    )
    with installed(injector):
        injector.raise_site(entry_site)
        yield injector

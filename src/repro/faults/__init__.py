"""Deterministic, seed-derived fault injection for the suite engine.

Activate with ``$REPRO_FAULTS`` or the ``faults=`` parameter of
:func:`repro.engine.parallel.run_suite_parallel`; its one-worker view
:func:`repro.engine.driver.run_comparison` reads the variable. A
:class:`FaultPlan` names *sites* (worker-job entry, shared-memory
publish/attach, artifact-store get/put), fault *kinds* (crash, hang,
transient/pickle errors, segment loss, corruption, ENOSPC), and
deterministic triggers; the suite engine's supervision layer
(:mod:`repro.engine.supervisor`) recovers from every finite plan with
bit-identical results. See ARCHITECTURE.md, "Fault model & recovery".
"""

from repro.faults.plan import (
    ENV_FAULTS,
    FaultPlan,
    FaultSpec,
    KINDS,
    SITES,
    resolve_plan,
)
from repro.faults.injector import (
    CRASH_EXIT_CODE,
    ENV_HANG_SECONDS,
    FaultContext,
    FaultInjector,
    NULL_INJECTOR,
    NullInjector,
    active,
    installed,
    job_scope,
    reset_active,
)

__all__ = [
    "CRASH_EXIT_CODE",
    "ENV_FAULTS",
    "ENV_HANG_SECONDS",
    "FaultContext",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "KINDS",
    "NULL_INJECTOR",
    "NullInjector",
    "SITES",
    "active",
    "installed",
    "job_scope",
    "reset_active",
    "resolve_plan",
]

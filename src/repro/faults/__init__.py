"""Deterministic, seed-derived fault injection for the suite engine.

Activate with the ``faults=`` parameter of
:func:`repro.engine.parallel.run_suite_parallel` or with
``$REPRO_FAULTS``, which the grid reads once at its entry
(:func:`resolve_plan`) — so its one-worker view
:func:`repro.engine.driver.run_comparison` and every grid command of
the CLI honour it. The grid installs the plan for its run and the pool
supervisor scopes it to each job (:func:`job_scope`); outside a grid no
injector is installed and nothing fires. A :class:`FaultPlan` names
*sites* (worker-job entry, shared-memory publish/attach, artifact-store
get/put), fault *kinds* (crash, hang, transient/pickle errors, segment
loss, corruption, ENOSPC), and deterministic triggers; the suite
engine's supervision layer (:mod:`repro.engine.supervisor`) recovers
from every finite plan with bit-identical results. See ARCHITECTURE.md,
"Fault model & recovery".
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

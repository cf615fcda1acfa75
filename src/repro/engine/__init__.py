"""End-to-end simulation engine."""

from repro.engine.system import CoalescerKind, System
from repro.engine.results import RunResult, build_result
from repro.engine.health import RunHealth
from repro.engine.supervisor import SuiteExecutionError
from repro.engine.driver import (
    DEFAULT_ACCESSES,
    run_benchmark,
    run_comparison,
)

__all__ = [
    "CoalescerKind",
    "System",
    "RunResult",
    "RunHealth",
    "SuiteExecutionError",
    "build_result",
    "DEFAULT_ACCESSES",
    "run_benchmark",
    "run_comparison",
]

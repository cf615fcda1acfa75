"""PAC: Paged Adaptive Coalescer for 3D-Stacked Memory — reproduction.

A trace-driven, cycle-approximate Python reproduction of Wang et al.,
HPDC '20. The public API surfaces:

* :mod:`repro.workloads` — the 14-benchmark synthetic workload suite
* :mod:`repro.cache` — multi-core cache hierarchy producing LLC miss streams
* :mod:`repro.core` — the paged adaptive coalescer (the paper's contribution)
* :mod:`repro.mshr` — conventional MSHR file and the MSHR-based DMC baseline
* :mod:`repro.hmc` — the HMC/HBM device model with bank & power accounting
* :mod:`repro.engine` — end-to-end system wiring and run drivers
* :mod:`repro.experiments` — regeneration of every figure/table in the paper

Quickstart::

    from repro import run_benchmark, CoalescerKind
    result = run_benchmark("gs", coalescer=CoalescerKind.PAC, n_accesses=50_000)
    print(result.coalescing_efficiency, result.bank_conflicts)
"""

from repro.config import (
    CacheConfig,
    HMCConfig,
    PACConfig,
    SimulationConfig,
    TABLE1,
)
from repro.common.types import (
    CoalescedRequest,
    MemOp,
    MemoryRequest,
)

__version__ = "1.0.0"

__all__ = [
    "CacheConfig",
    "HMCConfig",
    "PACConfig",
    "SimulationConfig",
    "TABLE1",
    "MemOp",
    "MemoryRequest",
    "CoalescedRequest",
    "run_benchmark",
    "CoalescerKind",
    "__version__",
]


def __getattr__(name):
    # Lazy imports to keep `import repro` light and avoid circular imports.
    if name in ("run_benchmark", "CoalescerKind"):
        from repro.engine import driver

        return getattr(driver, name)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")

"""Workload generator framework.

Each of the paper's 14 test suites is modeled as a
:class:`WorkloadGenerator` producing a *virtual-address* access trace with
the memory-access signature of the real benchmark: stride structure,
gather/scatter index distributions, page-level working-set shape, and
read/write mix. The engine translates these through a per-process page
table (:mod:`repro.mem.pagetable`) before feeding the cache hierarchy.

Generators are registered by name; :func:`get_workload` and
:data:`BENCHMARK_NAMES` are the public lookup surface.
"""

from __future__ import annotations

import abc
import numbers
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.common.rng import make_rng
from repro.common.types import MemOp
from repro.mem.trace import AccessTrace

#: Virtual address where workload data segments start (past a nominal
#: text/stack region).
DATA_SEGMENT_BASE = 0x1000_0000

#: Spacing between separately-allocated arrays. Large enough that arrays
#: never share a page.
ARRAY_ALIGN = 1 << 20

#: Global issue-time dilation. Generators express *relative* spacing
#: (bursts at zero gap, one unit between dependent accesses); this factor
#: converts to core cycles, calibrated so trace duration is comparable to
#: memory service time on the Table 1 device — an in-order RV64 core's
#: effective cycles-per-access including L1/L2 hit latency. Burst
#: structure (zero gaps) is scale-invariant.
TIME_SCALE = 8


class VirtualLayout:
    """Allocates virtual-address ranges for a workload's data structures.

    Mimics a bump allocator over the data segment; each array starts on
    its own page (and in fact its own 1MB-aligned region) so that two
    arrays never share page frames.
    """

    def __init__(self, base: int = DATA_SEGMENT_BASE) -> None:
        self._cursor = base
        self.regions: Dict[str, tuple] = {}

    def alloc(self, name: str, n_bytes: int) -> int:
        """Reserve ``n_bytes`` and return the base virtual address."""
        if n_bytes <= 0:
            raise ValueError("allocation must be positive")
        if name in self.regions:
            raise ValueError(f"region {name!r} already allocated")
        base = self._cursor
        span = -(-n_bytes // ARRAY_ALIGN) * ARRAY_ALIGN
        self._cursor += span
        self.regions[name] = (base, n_bytes)
        return base


@dataclass(frozen=True)
class WorkloadSpec:
    """Static description of a benchmark suite entry."""

    name: str
    suite: str
    description: str
    #: Average non-memory core cycles per memory access — drives the issue
    #: cycle spacing and the compute portion of the timing model.
    arithmetic_intensity: float
    #: Fraction of accesses that are stores.
    store_fraction: float


#: NAS-style problem-size classes: multipliers on every data-structure
#: footprint. Class A is the calibrated default.
SIZE_CLASSES = {"S": 0.125, "W": 0.5, "A": 1.0, "B": 2.0, "C": 4.0}


#: When True, :meth:`WorkloadGenerator.generate` runs generators on their
#: retained scalar ``_core_stream_reference`` implementations (where one
#: exists) instead of the vectorized ``_core_stream``. Used by the
#: bit-identity gate tests and by the bench harness to time the reference
#: trace-generation stage.
_REFERENCE_STREAMS = False


@contextmanager
def reference_trace_gen():
    """Context manager forcing the scalar reference trace generators.

    Vectorized generators keep their original per-access implementation
    as ``_core_stream_reference``; inside this context ``generate``
    dispatches to it. Generators without a reference variant are
    unaffected. Not thread-safe (module-global flag) — intended for
    tests and single-threaded bench timing.
    """
    global _REFERENCE_STREAMS
    prev = _REFERENCE_STREAMS
    _REFERENCE_STREAMS = True
    try:
        yield
    finally:
        _REFERENCE_STREAMS = prev


class WorkloadGenerator(abc.ABC):
    """Produces the virtual-address access stream of one benchmark.

    Subclasses implement :meth:`_core_stream`, returning the (addrs,
    sizes, ops) columns for a single core; the base class handles issue
    cycles, core interleaving, and trace assembly.

    ``scale`` multiplies the benchmark's data-structure footprints
    (NAS-style size classes — see :data:`SIZE_CLASSES`); the access
    *pattern* is scale-invariant.
    """

    #: Override in subclasses.
    spec: WorkloadSpec

    def __init__(self, seed: int = 0, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = size_factor(scale)

    def _s(self, value: int, minimum: int = 1) -> int:
        """Scale a footprint quantity by the size class."""
        return max(minimum, int(value * self.scale))

    @property
    def name(self) -> str:
        return self.spec.name

    @abc.abstractmethod
    def _core_stream(
        self, core_id: int, n_accesses: int, rng: np.random.Generator
    ) -> tuple:
        """Return ``(addrs, sizes, ops)`` numpy columns for one core."""

    def generate(self, n_accesses: int, n_cores: int = 8) -> AccessTrace:
        """Generate an interleaved multi-core trace of ``n_accesses`` total.

        Work is split evenly across cores; per-access issue cycles follow
        the workload's arithmetic intensity with ±30% jitter, and the
        per-core streams are merged in cycle order — the program order the
        shared LLC observes.
        """
        if n_accesses <= 0:
            raise ValueError("n_accesses must be positive")
        if n_cores <= 0:
            raise ValueError("n_cores must be positive")
        per_core = self._split(n_accesses, n_cores)
        stream_fn = self._core_stream
        if _REFERENCE_STREAMS:
            ref_fn = getattr(self, "_core_stream_reference", None)
            if ref_fn is not None:
                stream_fn = ref_fn
        traces: List[AccessTrace] = []
        for core_id, count in enumerate(per_core):
            if count == 0:
                continue
            rng = make_rng(self.seed, self.name, f"core{core_id}")
            addrs, sizes, ops = stream_fn(core_id, count, rng)
            addrs = np.asarray(addrs, dtype=np.int64)
            if not (len(addrs) == len(sizes) == len(ops) == count):
                raise AssertionError(
                    f"{self.name}: generator returned wrong column lengths"
                )
            gaps = self._issue_gaps(count, rng) * TIME_SCALE
            cycles = np.cumsum(gaps)
            traces.append(
                AccessTrace(
                    addrs=addrs,
                    sizes=np.asarray(sizes, dtype=np.int32),
                    ops=np.asarray(ops, dtype=np.int8),
                    cores=np.full(count, core_id, dtype=np.int16),
                    cycles=cycles,
                )
            )
        merged = traces[0]
        for t in traces[1:]:
            merged = merged.concat(t)
        return merged.sorted_by_cycle()

    def _issue_gaps(self, count: int, rng: np.random.Generator) -> np.ndarray:
        intensity = max(1.0, self.spec.arithmetic_intensity)
        jitter = rng.uniform(0.7, 1.3, size=count)
        return np.maximum(1, (intensity * jitter)).astype(np.int64)

    @staticmethod
    def _split(total: int, parts: int) -> List[int]:
        base, extra = divmod(total, parts)
        return [base + (1 if i < extra else 0) for i in range(parts)]


# ---------------------------------------------------------------------------
# Registry

_REGISTRY: Dict[str, Callable[..., WorkloadGenerator]] = {}


def register(cls):
    """Class decorator adding a generator to the global registry."""
    name = cls.spec.name
    if name in _REGISTRY:
        raise ValueError(f"duplicate workload name: {name}")
    _REGISTRY[name] = cls
    return cls


def workload_key(name: str) -> str:
    """The registry key of workload ``name``, in any case. An unknown
    name raises :class:`KeyError` listing the known ones."""
    _ensure_loaded()
    key = name.lower() if isinstance(name, str) else None
    if key not in _REGISTRY:
        raise KeyError(
            f"unknown workload {name!r}; known: {sorted(_REGISTRY)}"
        )
    return key


def size_factor(scale) -> float:
    """The footprint multiplier ``scale`` names: a positive number, or a
    class letter of :data:`SIZE_CLASSES` in any case. An unknown letter
    raises :class:`KeyError`, any other bad value :class:`ValueError`."""
    if isinstance(scale, str):
        try:
            return SIZE_CLASSES[scale.upper()]
        except KeyError:
            raise KeyError(
                f"unknown size class {scale!r}; known: {sorted(SIZE_CLASSES)}"
            ) from None
    if (
        isinstance(scale, bool)
        or not isinstance(scale, numbers.Real)
        or not scale > 0
    ):
        raise ValueError(
            "scale must be a positive number or a size class letter, "
            f"got {scale!r}"
        )
    return float(scale)


def get_workload(
    name: str, seed: int = 0, scale: float = 1.0
) -> WorkloadGenerator:
    """Instantiate a registered workload generator by name.

    ``scale`` may be a number or a NAS-style class letter from
    :data:`SIZE_CLASSES` (``"S"``, ``"W"``, ``"A"``, ``"B"``, ``"C"``).
    """
    return _REGISTRY[workload_key(name)](seed=seed, scale=scale)


def all_workloads() -> List[str]:
    """Names of all registered workloads, in the paper's presentation order."""
    _ensure_loaded()
    return list(BENCHMARK_NAMES)


def _ensure_loaded() -> None:
    # Import the generator modules for their registration side effects.
    from repro.workloads import (  # noqa: F401
        bots,
        gather_scatter,
        graph,
        hpcg,
        nas,
        ssca2,
        stream,
        synthetic,
    )


#: The 14 suites evaluated in the paper (Section 5.2), in a stable order.
BENCHMARK_NAMES = (
    "bfs",
    "cg",
    "ep",
    "fft",
    "gs",
    "hpcg",
    "lu",
    "mg",
    "pr",
    "sort",
    "sp",
    "sparselu",
    "ssca2",
    "stream",
)

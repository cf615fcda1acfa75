"""The benchmark's workloads: one closed-loop iteration each.

An iteration is a fixed sequence of steps. Each step is one ``repro``
CLI command's call into a production entry point (``run_comparison``,
``run_benchmark``, ``run_suite_parallel``), at the CLI's and the figure
path's default trace length of 24,000 accesses per run, with the seed
the benchmark was given. The end-to-end clock times every step on its
own, between two host probes. A step returns its ``RunResult``s under
stable labels so two iterations, or an iteration and its
``engine="reference"`` oracle, can be compared result by result. Why
each workload exists is recorded in ``BENCHMARK.json`` and
``perf/README.md``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Tuple

#: ``repro --accesses`` default and ``experiments.figures.DEFAULT_N``.
N_ACCESSES = 24_000

#: ``repro spans --sample-rate`` default.
SPAN_SAMPLE_RATE = 16


@dataclass
class Iteration:
    """What one step, or one iteration, produced."""

    #: ``RunResult`` per label, e.g. ``"gs/pac"`` or ``"cold/gs/pac"``.
    results: Dict[str, object]
    #: ``run_suite_parallel`` stats dicts, one per suite pass.
    stats: List[dict] = field(default_factory=list)

    @property
    def n_raw(self) -> int:
        """Simulated raw memory requests, summed over every result."""
        return sum(r.n_raw for r in self.results.values())

    @classmethod
    def merge(cls, parts: Iterable["Iteration"]) -> "Iteration":
        out = cls({})
        for part in parts:
            out.results.update(part.results)
            out.stats.extend(part.stats)
        return out


Step = Callable[..., Iteration]


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``step(seed, engine="auto") -> Iteration``, in iteration order.
    steps: Tuple[Step, ...]
    #: The same steps with probes off, for ``telemetry.observe_ratio``
    #: (only on the workload that runs probes).
    bare_steps: Tuple[Step, ...] = ()
    #: Cores an iteration keeps busy; the host-speed gauge probes as many.
    cores: int = 1

    def run(self, seed: int, engine: str = "auto") -> Iteration:
        return Iteration.merge(step(seed, engine) for step in self.steps)

    def bare(self, seed: int, engine: str = "auto") -> Iteration:
        return Iteration.merge(step(seed, engine) for step in self.bare_steps)


def _compare(bench: str, seed: int, engine: str = "auto") -> Iteration:
    """``repro --no-artifact-cache compare BENCH``."""
    from repro.engine.driver import run_comparison

    # The artifact cache is off so a repeat recomputes the prefix
    # instead of loading it.
    trio = run_comparison(
        bench, n_accesses=N_ACCESSES, seed=seed, use_artifact_cache=False,
        engine=engine,
    )
    return Iteration({f"{bench}/{k.value}": r for k, r in trio.items()})


def _run(bench: str, seed: int, engine: str = "auto", telemetry=False,
         spans=False) -> Iteration:
    """``repro run BENCH --coalescer pac``, or with probes ``repro trace
    BENCH`` (``telemetry``) and ``repro spans BENCH`` (``spans``)."""
    from repro.engine.driver import run_benchmark
    from repro.engine.system import CoalescerKind

    return Iteration({f"{bench}/pac": run_benchmark(
        bench, coalescer=CoalescerKind.PAC, n_accesses=N_ACCESSES,
        seed=seed, telemetry=telemetry, spans=spans, engine=engine,
    )})


def _suite(phase: str, seed: int, engine: str = "auto") -> Iteration:
    """``repro suite``: the PAC arm over all 14 benchmarks. The cold
    phase starts from an empty artifact store; the warm phase, which
    follows it, reads what it wrote."""
    from repro.artifacts import get_store
    from repro.engine.parallel import run_suite_parallel
    from repro.engine.system import CoalescerKind

    if phase == "cold":
        # The store is $REPRO_ARTIFACT_DIR, private to this benchmark
        # process.
        get_store().clear()
    st: dict = {}
    # max_workers=2 is the CLI's default (the CPU count) on the 2-core
    # VM the bounds were set on.
    results = run_suite_parallel(
        kinds=(CoalescerKind.PAC,), n_accesses=N_ACCESSES, seed=seed,
        max_workers=2, stats=st, engine=engine,
    )
    return Iteration(
        {f"{phase}/{b}/{a}": r for (b, a), r in results.items()}, [st]
    )


_p = functools.partial

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("compare-irregular",
                 (_p(_compare, "gs"), _p(_compare, "ssca2"))),
        Workload("single-regular",
                 tuple(_p(_run, b) for b in ("ep", "mg", "hpcg", "stream"))),
        Workload("suite-cold-warm",
                 (_p(_suite, "cold"), _p(_suite, "warm")), cores=2),
        Workload(
            "observed",
            (_p(_run, "gs", telemetry=True),
             _p(_run, "bfs", spans=SPAN_SAMPLE_RATE)),
            bare_steps=(_p(_run, "gs"), _p(_run, "bfs")),
        ),
    )
}

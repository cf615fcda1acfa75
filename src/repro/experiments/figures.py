"""Figure-regeneration functions.

Every function returns plain data (dicts / lists of rows) matching what
the paper's figure plots, so callers can print, assert on, or plot them.
All simulation-backed figures share a :class:`ResultCache` so one suite
sweep feeds many figures.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.clustering import cluster_requests
from repro.analysis.crosspage import cross_page_stats
from repro.analysis.space import bitonic_costs, odd_even_costs, pac_costs
from repro.config import TABLE1, SimulationConfig
from repro.engine.driver import run_spec
from repro.engine.results import RunResult
from repro.engine.spec import RunSpec
from repro.engine.system import CoalescerKind, System
from repro.hmc.power import ENERGY_CATEGORIES, savings
from repro.workloads import BENCHMARK_NAMES

#: Default trace length for figure regeneration (kept moderate so the
#: whole figure set runs in minutes; raise for tighter statistics).
DEFAULT_N = 24_000

#: Partner workloads for the multiprocessing experiment (Figure 6b):
#: each suite co-runs with a partner of a *different* access pattern, as
#: in the paper ("different tests with diverse memory access patterns").
MULTIPROCESS_PARTNERS: Dict[str, str] = {
    "bfs": "stream", "cg": "sort", "ep": "bfs", "fft": "ssca2",
    "gs": "cg", "hpcg": "ssca2", "lu": "pr", "mg": "bfs",
    "pr": "mg", "sort": "hpcg", "sp": "gs", "sparselu": "bfs",
    "ssca2": "lu", "stream": "sp",
}


@dataclass
class ResultCache:
    """Memoizes (benchmark, arm) simulation runs for figure functions,
    keyed by their :class:`~repro.engine.spec.RunSpec`."""

    n_accesses: int = DEFAULT_N
    seed: Optional[int] = None
    config: SimulationConfig = TABLE1
    _store: Dict[RunSpec, RunResult] = field(default_factory=dict)

    def get(
        self,
        benchmark: str,
        kind: CoalescerKind,
        extras: Tuple[str, ...] = (),
        fine_grain: bool = False,
        device: str = "hmc",
    ) -> RunResult:
        spec = RunSpec(
            (benchmark, *extras), self.n_accesses, arm=kind,
            config=self.config, seed=self.seed, device=device,
            fine_grain=fine_grain,
        )
        if spec not in self._store:
            self._store[spec] = run_spec(spec)
        return self._store[spec]


def _cache(cache: Optional[ResultCache]) -> ResultCache:
    return cache if cache is not None else ResultCache()


def _suite(cache: ResultCache, benchmarks: Sequence[str]) -> List[str]:
    return list(benchmarks) if benchmarks else list(BENCHMARK_NAMES)


# --------------------------------------------------------------------- #
# Motivation figures

def fig1_coalesced_ratio(
    cache: Optional[ResultCache] = None, benchmarks: Sequence[str] = ()
) -> List[dict]:
    """Figure 1: ratio of coalesced requests, PAC vs conventional DMC.

    Paper averages: PAC 55.32%, DMC 35.78%.
    """
    cache = _cache(cache)
    rows = []
    for bench in _suite(cache, benchmarks):
        dmc = cache.get(bench, CoalescerKind.DMC)
        pac = cache.get(bench, CoalescerKind.PAC)
        rows.append(
            {
                "benchmark": bench,
                "dmc_ratio": dmc.coalescing_efficiency,
                "pac_ratio": pac.coalescing_efficiency,
            }
        )
    return rows


def fig2_cross_page(
    cache: Optional[ResultCache] = None, benchmarks: Sequence[str] = ()
) -> List[dict]:
    """Figure 2: proportion of requests coalescable only across page
    boundaries (paper average: 0.04%)."""
    cache = _cache(cache)
    rows = []
    for bench in _suite(cache, benchmarks):
        system = System(cache.config, CoalescerKind.NONE)
        trace = system.build_trace([bench], cache.n_accesses, seed=cache.seed)
        raw = system.hierarchy.process(trace)
        stats = cross_page_stats(raw.requests)
        rows.append(
            {
                "benchmark": bench,
                "cross_page_fraction": stats.cross_page_fraction,
                "in_page_fraction": stats.in_page_fraction,
            }
        )
    return rows


# --------------------------------------------------------------------- #
# Coalescing performance (Figure 6)

def fig6a_coalescing_efficiency(
    cache: Optional[ResultCache] = None, benchmarks: Sequence[str] = ()
) -> List[dict]:
    """Figure 6a: Equation-1 efficiency per suite (paper: PAC 56.01%
    avg, DMC 33.25% avg; EP/GS/LU/MG over 70% for PAC)."""
    return fig1_coalesced_ratio(cache, benchmarks)


def fig6b_multiprocessing(
    cache: Optional[ResultCache] = None, benchmarks: Sequence[str] = ()
) -> List[dict]:
    """Figure 6b: single- vs multi-process coalescing efficiency.

    Paper: DMC drops 28.39% -> 14.43% (halved); PAC 44.21% -> 38.93%.
    """
    cache = _cache(cache)
    rows = []
    for bench in _suite(cache, benchmarks):
        partner = MULTIPROCESS_PARTNERS.get(bench, "stream")
        row = {"benchmark": bench, "partner": partner}
        for kind, label in (
            (CoalescerKind.DMC, "dmc"), (CoalescerKind.PAC, "pac")
        ):
            single = cache.get(bench, kind)
            multi = cache.get(bench, kind, extras=(partner,))
            row[f"{label}_single"] = single.coalescing_efficiency
            row[f"{label}_multi"] = multi.coalescing_efficiency
        rows.append(row)
    return rows


def fig6c_bank_conflicts(
    cache: Optional[ResultCache] = None, benchmarks: Sequence[str] = ()
) -> List[dict]:
    """Figure 6c: fraction of bank conflicts removed by PAC (paper avg
    85.16%; EP/MG/SORT/SSCA2 over 90%)."""
    cache = _cache(cache)
    rows = []
    for bench in _suite(cache, benchmarks):
        base = cache.get(bench, CoalescerKind.NONE)
        pac = cache.get(bench, CoalescerKind.PAC)
        rows.append(
            {
                "benchmark": bench,
                "baseline_conflicts": base.bank_conflicts,
                "pac_conflicts": pac.bank_conflicts,
                "reduction": pac.bank_conflict_reduction(base),
            }
        )
    return rows


def fig7_comparison_reductions(
    cache: Optional[ResultCache] = None, benchmarks: Sequence[str] = ()
) -> List[dict]:
    """Figure 7: comparator-work reduction of paged vs unpaged
    comparison (paper avg 29.84%)."""
    cache = _cache(cache)
    rows = []
    for bench in _suite(cache, benchmarks):
        dmc = cache.get(bench, CoalescerKind.DMC)
        pac = cache.get(bench, CoalescerKind.PAC)
        rows.append(
            {
                "benchmark": bench,
                "unpaged_comparisons": dmc.comparisons,
                "pac_comparisons": pac.comparisons,
                "reduction": pac.comparison_reduction(dmc),
            }
        )
    return rows


def fig8_9_request_clustering(
    cache: Optional[ResultCache] = None,
    benchmarks: Sequence[str] = ("bfs", "sparselu"),
    window_cycles: int = 10_000,
) -> List[dict]:
    """Figures 8/9: DBSCAN (eps=4KB) over a trace window.

    Paper: BFS mostly unclustered noise; SparseLU strongly clustered.
    """
    cache = _cache(cache)
    rows = []
    for bench in benchmarks:
        system = System(cache.config, CoalescerKind.NONE)
        trace = system.build_trace([bench], cache.n_accesses, seed=cache.seed)
        raw = system.hierarchy.process(trace)
        mid = raw.requests[len(raw.requests) // 3].cycle if raw.requests else 0
        summary = cluster_requests(
            raw.requests, window_cycles=window_cycles, window_start=mid
        )
        rows.append(
            {
                "benchmark": bench,
                "n_requests": summary.n_requests,
                "n_clusters": summary.n_clusters,
                "noise_fraction": summary.noise_fraction,
                "clustered_fraction": summary.clustered_fraction,
            }
        )
    return rows


# --------------------------------------------------------------------- #
# Bandwidth utilization (Figure 10)

def fig10a_transaction_efficiency(
    cache: Optional[ResultCache] = None, benchmarks: Sequence[str] = ()
) -> List[dict]:
    """Figure 10a: Equation-2 transaction efficiency (raw fixed at
    66.66%; paper PAC avg 73.76%)."""
    cache = _cache(cache)
    rows = []
    for bench in _suite(cache, benchmarks):
        base = cache.get(bench, CoalescerKind.NONE)
        pac = cache.get(bench, CoalescerKind.PAC)
        rows.append(
            {
                "benchmark": bench,
                "raw_efficiency": base.transaction_efficiency,
                "pac_efficiency": pac.transaction_efficiency,
            }
        )
    return rows


def fig10b_request_size_distribution(
    cache: Optional[ResultCache] = None, benchmark: str = "hpcg"
) -> List[dict]:
    """Figure 10b: coalesced request size x op distribution when PAC
    coalesces at the CPU's actual data size (paper: 16B requests
    dominate HPCG at 81.62%)."""
    cache = _cache(cache)
    # Run explicitly (not via the cache) to capture the issued packets.
    system = System(cache.config, CoalescerKind.PAC, fine_grain=True)
    trace = system.build_trace([benchmark], cache.n_accesses, seed=cache.seed)
    raw = system.hierarchy.fine_grain_stream(trace)
    outcome = system.coalescer.process(raw.requests, system.device)
    counter: Counter = Counter()
    for packet in outcome.issued:
        counter[(packet.size, int(packet.op))] += 1
    total = sum(counter.values())
    return [
        {
            "size_bytes": size,
            "op": "store" if op == 1 else "load",
            "count": count,
            "fraction": count / total if total else 0.0,
        }
        for (size, op), count in sorted(counter.items())
    ]


def fig10c_bandwidth_savings(
    cache: Optional[ResultCache] = None, benchmarks: Sequence[str] = ()
) -> List[dict]:
    """Figure 10c: transaction bytes avoided by PAC vs the raw baseline
    (paper: SP largest at 139.47GB over the full app; avg 26.96GB)."""
    cache = _cache(cache)
    rows = []
    for bench in _suite(cache, benchmarks):
        base = cache.get(bench, CoalescerKind.NONE)
        pac = cache.get(bench, CoalescerKind.PAC)
        saved = pac.bandwidth_saving_bytes(base)
        rows.append(
            {
                "benchmark": bench,
                "baseline_bytes": base.transaction_bytes,
                "pac_bytes": pac.transaction_bytes,
                "saved_bytes": saved,
                "saved_fraction": (
                    saved / base.transaction_bytes
                    if base.transaction_bytes else 0.0
                ),
            }
        )
    return rows


# --------------------------------------------------------------------- #
# Space overhead and streams (Figure 11)

def fig11a_space_overhead(widths: Sequence[int] = (4, 8, 16, 32, 64)) -> List[dict]:
    """Figure 11a: comparators and buffer bytes, PAC vs bitonic vs
    odd-even merge sorting networks (paper at N=64: 64 / 672 / 543)."""
    rows = []
    for n in widths:
        pac = pac_costs(n)
        bit = bitonic_costs(n)
        oem = odd_even_costs(n)
        rows.append(
            {
                "n": n,
                "pac_comparators": pac.comparators,
                "bitonic_comparators": bit.comparators,
                "odd_even_comparators": oem.comparators,
                "pac_buffer_bytes": pac.buffer_bytes,
                "bitonic_buffer_bytes": bit.buffer_bytes,
                "odd_even_buffer_bytes": oem.buffer_bytes,
            }
        )
    return rows


def fig11b_stream_occupancy(
    cache: Optional[ResultCache] = None, benchmark: str = "hpcg"
) -> List[dict]:
    """Figure 11b: distribution of occupied coalescing streams per
    16-cycle window in HPCG (paper: 35.33% of windows hold 2 pages;
    77.57% hold 2-4)."""
    cache = _cache(cache)
    system = System(cache.config, CoalescerKind.PAC)
    trace = system.build_trace([benchmark], cache.n_accesses, seed=cache.seed)
    raw = system.hierarchy.process(trace)
    system.coalescer.process(raw.requests, system.device)
    hist = system.coalescer.aggregator.stats.histogram("occupancy_samples")
    busy = {k: v for k, v in hist.bins.items() if k > 0}
    total = sum(busy.values())
    return [
        {
            "occupied_streams": k,
            "windows": v,
            "fraction": v / total if total else 0.0,
        }
        for k, v in sorted(busy.items())
    ]


def fig11c_stream_utilization(
    cache: Optional[ResultCache] = None, benchmarks: Sequence[str] = ()
) -> List[dict]:
    """Figure 11c: mean occupied coalescing streams per suite (paper avg
    4.49; BFS 9.99)."""
    cache = _cache(cache)
    rows = []
    for bench in _suite(cache, benchmarks):
        pac = cache.get(bench, CoalescerKind.PAC)
        rows.append(
            {
                "benchmark": bench,
                "mean_streams": pac.pac_metrics["mean_active_streams"],
            }
        )
    return rows


# --------------------------------------------------------------------- #
# Latency (Figure 12)

def fig12a_stage_latencies(
    cache: Optional[ResultCache] = None, benchmarks: Sequence[str] = ()
) -> List[dict]:
    """Figure 12a: average stage-2/stage-3/overall PAC latency (paper:
    6.66 / 11.47 cycles; overall pinned at the 16-cycle timeout except
    SPARSELU and STREAM)."""
    cache = _cache(cache)
    rows = []
    for bench in _suite(cache, benchmarks):
        pac = cache.get(bench, CoalescerKind.PAC)
        rows.append(
            {
                "benchmark": bench,
                "stage2_cycles": pac.pac_metrics["mean_stage2_cycles"],
                "stage3_cycles": pac.pac_metrics["mean_stage3_cycles"],
                "overall_cycles": pac.pac_metrics["mean_request_latency"],
            }
        )
    return rows


def fig12b_maq_fill_latency(
    cache: Optional[ResultCache] = None, benchmarks: Sequence[str] = ()
) -> List[dict]:
    """Figure 12b: MAQ fill (empty->full) latency (paper avg 20.76ns;
    BFS lowest at 8.62ns)."""
    cache = _cache(cache)
    ns_per_cycle = cache.config.ns_per_cycle
    rows = []
    for bench in _suite(cache, benchmarks):
        pac = cache.get(bench, CoalescerKind.PAC)
        cycles = pac.pac_metrics["mean_maq_fill_cycles"]
        rows.append(
            {
                "benchmark": bench,
                "fill_cycles": cycles,
                "fill_ns": cycles * ns_per_cycle,
            }
        )
    return rows


def fig12c_bypass_proportion(
    cache: Optional[ResultCache] = None, benchmarks: Sequence[str] = ()
) -> List[dict]:
    """Figure 12c: fraction of requests bypassing stages 2-3 (paper avg
    25.04%; BFS 45.09%)."""
    cache = _cache(cache)
    rows = []
    for bench in _suite(cache, benchmarks):
        pac = cache.get(bench, CoalescerKind.PAC)
        rows.append(
            {
                "benchmark": bench,
                "bypass_fraction": pac.pac_metrics["bypass_fraction"],
            }
        )
    return rows


# --------------------------------------------------------------------- #
# Power (Figures 13-14)

def fig13_power_by_operation(
    cache: Optional[ResultCache] = None, benchmarks: Sequence[str] = ()
) -> List[dict]:
    """Figure 13: per-HMC-operation energy savings of PAC vs the raw
    baseline, averaged over suites (paper: VAULT-RQST-SLOT 59.35%,
    VAULT-RSP-SLOT 48.75%, VAULT-CTRL 57.09%, LINK-LOCAL 61.39%,
    LINK-REMOTE 53.22%)."""
    cache = _cache(cache)
    suites = _suite(cache, benchmarks)
    sums: Dict[str, float] = {c: 0.0 for c in ENERGY_CATEGORIES}
    for bench in suites:
        base = cache.get(bench, CoalescerKind.NONE)
        pac = cache.get(bench, CoalescerKind.PAC)
        s = savings(base.energy, pac.energy)
        for cat in ENERGY_CATEGORIES:
            sums[cat] += s[cat]
    return [
        {"operation": cat, "mean_saving": sums[cat] / len(suites)}
        for cat in ENERGY_CATEGORIES
    ]


def fig14_overall_power(
    cache: Optional[ResultCache] = None, benchmarks: Sequence[str] = ()
) -> List[dict]:
    """Figure 14: overall energy saving per suite, PAC and DMC vs the
    raw baseline (paper avgs: PAC 59.21%, DMC 39.57%)."""
    cache = _cache(cache)
    rows = []
    for bench in _suite(cache, benchmarks):
        base = cache.get(bench, CoalescerKind.NONE)
        dmc = cache.get(bench, CoalescerKind.DMC)
        pac = cache.get(bench, CoalescerKind.PAC)
        rows.append(
            {
                "benchmark": bench,
                "dmc_saving": dmc.energy_saving(base),
                "pac_saving": pac.energy_saving(base),
            }
        )
    return rows


# --------------------------------------------------------------------- #
# Performance (Figure 15)

def fig15_performance(
    cache: Optional[ResultCache] = None, benchmarks: Sequence[str] = ()
) -> List[dict]:
    """Figure 15: runtime improvement over the no-coalescing HMC
    controller (paper avgs: PAC 14.35%, DMC 8.91%; GS tops at 26.06%).

    Two runtime models are reported: throughput-bound (open-loop trace,
    runtime = last response) and latency-bound (in-order cores blocking
    per miss — the paper's regime, see
    :attr:`repro.engine.results.RunResult.latency_bound_runtime_cycles`).
    """
    cache = _cache(cache)
    rows = []
    for bench in _suite(cache, benchmarks):
        base = cache.get(bench, CoalescerKind.NONE)
        dmc = cache.get(bench, CoalescerKind.DMC)
        pac = cache.get(bench, CoalescerKind.PAC)
        rows.append(
            {
                "benchmark": bench,
                "dmc_gain": dmc.speedup_over(base),
                "pac_gain": pac.speedup_over(base),
                "dmc_gain_latency_bound": dmc.latency_bound_speedup_over(base),
                "pac_gain_latency_bound": pac.latency_bound_speedup_over(base),
            }
        )
    return rows

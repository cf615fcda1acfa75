"""The paper's evaluation, declared once.

Each table, figure and ablation is one :class:`Entry`: its CLI id and
title, a row function over a shared :class:`Runs` memo, the paper's
values (each written once, in ``paper``), the shape claims the
reproduction commits to and, for the paper's own tables and figures,
its EXPERIMENTS.md section. ``repro figure``, ``repro ablation``,
``repro report``, ``repro validate``, the ``benchmarks/`` harness and
the tour examples all render from :data:`ENTRIES`. Rows are plain
dicts; :mod:`repro.experiments.reporting` renders them as ASCII.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import (
    Callable, Dict, List, Mapping, Optional, Sequence, Tuple,
)

from repro.analysis.clustering import cluster_requests
from repro.analysis.crosspage import cross_page_stats
from repro.analysis.space import bitonic_costs, odd_even_costs, pac_costs
from repro.artifacts import (
    TracePass, compute_trace_pass, decode_requests, get_store,
    load_trace_pass,
)
from repro.common.types import MemoryRequest
from repro.config import TABLE1
from repro.core.private import PrivateCoalescerArray
from repro.engine.driver import run_arm
from repro.engine.results import RunResult
from repro.engine.spec import RunSpec
from repro.engine.system import CoalescerKind, device_protocol
from repro.experiments.reporting import mean_of
from repro.experiments.tables import table1_configuration
from repro.hmc.power import ENERGY_CATEGORIES, savings
from repro.mshr.dmc import RecordingDevice
from repro.workloads import BENCHMARK_NAMES

NONE, DMC, PAC, SORT = (
    CoalescerKind.NONE, CoalescerKind.DMC, CoalescerKind.PAC,
    CoalescerKind.SORT,
)

#: Trace length of every registry run unless ``--accesses`` says
#: otherwise (the CLI's default for every command).
DEFAULT_N = 24_000

Rows = List[dict]


# --------------------------------------------------------------------- #
# The run memo


class Runs:
    """Simulation results for the row functions, memoized by spec.

    ``runs[spec]`` runs the spec's arm through :func:`run_arm` over the
    trace + cache-pass prefix that :meth:`prefix` computes once per
    :meth:`RunSpec.pass_key` — through the artifact store unless
    ``use_artifact_cache`` is False, as with ``run_comparison``, so the
    CLI's ``--no-artifact-cache`` and ``$REPRO_ARTIFACT_DIR`` apply as
    they do to ``repro compare``. Prefixes stay packed.
    """

    def __init__(
        self,
        n_accesses: int = DEFAULT_N,
        seed: Optional[int] = None,
        use_artifact_cache: bool = True,
    ) -> None:
        self.n_accesses = n_accesses
        self.seed = seed
        self.use_artifact_cache = use_artifact_cache
        self._results: Dict[RunSpec, RunResult] = {}
        self._prefixes: Dict[str, TracePass] = {}

    def spec(self, *benchmarks: str, **fields) -> RunSpec:
        """A spec at this memo's trace length and seed."""
        return RunSpec(benchmarks, self.n_accesses, seed=self.seed, **fields)

    def prefix(self, spec: RunSpec) -> TracePass:
        key = spec.pass_key()
        if key not in self._prefixes:
            store = get_store() if self.use_artifact_cache else None
            self._prefixes[key] = (
                load_trace_pass(spec, store)
                or compute_trace_pass(spec, store)
            )
        return self._prefixes[key]

    def requests(self, spec: RunSpec) -> List[MemoryRequest]:
        """The raw stream of ``spec``'s prefix as request objects, for
        the analyses that read them."""
        return decode_requests(self.prefix(spec).raw)

    def __getitem__(self, spec: RunSpec) -> RunResult:
        if spec not in self._results:
            self._results[spec] = run_arm(spec, self.prefix(spec))
        return self._results[spec]

    def replay(self, spec: RunSpec, coalescer=None):
        """Run the coalescer of a fresh ``spec.system()`` — or
        ``coalescer`` in its place — and its device over the prefix, for
        the simulator state a :class:`RunResult` does not carry.
        Returns the system and the coalescer's outcome."""
        system = spec.system()
        outcome = (coalescer or system.coalescer).process(
            self.prefix(spec).raw, system.device
        )
        system.device.sync()
        return system, outcome


# --------------------------------------------------------------------- #
# Declarations


@dataclass(frozen=True)
class Claim:
    """One shape claim: ``holds(rows)`` decides it, ``measured(rows)``
    says what the rows show, and ``paper`` is a template over the
    entry's paper values."""

    text: str
    paper: str
    measured: Callable[[Rows], str]
    holds: Callable[[Rows], bool]


@dataclass(frozen=True)
class Section:
    """An entry's EXPERIMENTS.md section: the heading, the prose before
    the table (from the paper values and the rows), and the columns the
    table prints as percentages."""

    heading: str
    prose: Callable[[Mapping[str, str], Rows], str]
    percent: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Check:
    """One evaluated claim."""

    entry: str
    claim: str
    paper: str
    measured: str
    passed: bool


@dataclass(frozen=True)
class Entry:
    """A table, figure or ablation of the evaluation."""

    id: str
    title: str
    rows: Callable[[Runs], Rows]
    paper: Mapping[str, str] = field(default_factory=dict)
    claims: Tuple[Claim, ...] = ()
    section: Optional[Section] = None

    def checks(self, rows: Rows) -> List[Check]:
        """Every claim of this entry, evaluated over ``rows``."""
        return [
            Check(self.id, c.text.format_map(self.paper),
                  c.paper.format_map(self.paper),
                  c.measured(rows), bool(c.holds(rows)))
            for c in self.claims
        ]


# --------------------------------------------------------------------- #
# Row and claim helpers


def _arms(runs: Runs, bench: str, *arms: CoalescerKind, **fields):
    """Results of ``bench`` on each of ``arms``, over one prefix."""
    return [runs[runs.spec(bench, arm=arm, **fields)] for arm in arms]


def _per_suite(
    arms: Sequence[CoalescerKind],
    row: Callable[..., dict],
    benchmarks: Sequence[str] = BENCHMARK_NAMES,
) -> Callable[[Runs], Rows]:
    """Rows of one benchmark each: ``row(*results)`` over ``arms``."""
    return lambda runs: [
        {"benchmark": b, **row(*_arms(runs, b, *arms))} for b in benchmarks
    ]


Value = Callable[[Rows], float]


def _mean(col: str) -> Value:
    return lambda rows: mean_of(rows, col)


def _at(name, col: str, key: str = "benchmark") -> Value:
    """Column ``col`` of the row whose ``key`` is ``name``."""
    return lambda rows: next(r[col] for r in rows if r[key] == name)


def _share(key: str, keep: Callable[[int], bool]) -> Value:
    """Summed ``fraction`` of the rows whose ``key`` passes ``keep``."""
    return lambda rows: sum(r["fraction"] for r in rows if keep(r[key]))


def _every(
    text: str, paper: str, test: Callable[[dict], bool], misses: int = 0
) -> Claim:
    """``test`` fails on at most ``misses`` rows."""
    return Claim(
        text, paper,
        lambda rows: f"{sum(map(test, rows))} of {len(rows)}",
        lambda rows: len(rows) - sum(map(test, rows)) <= misses,
    )


def _more(
    text: str, paper: str, a: Value, b: Value, by: float = 1.0,
    fmt: str = "{:.1%}", strict: bool = True,
) -> Claim:
    """``a`` exceeds ``by`` times ``b`` (or matches it, if not
    ``strict``)."""
    return Claim(
        text, paper,
        lambda rows: f"{fmt.format(a(rows))} vs {fmt.format(b(rows))}",
        lambda rows: (a(rows) > by * b(rows)) if strict
        else a(rows) >= by * b(rows),
    )


def _within(
    text: str, paper: str, value: Value, lo: float = -math.inf,
    hi: float = math.inf, fmt: str = "{:.1%}",
) -> Claim:
    """``lo < value < hi``."""
    return Claim(
        text, paper,
        lambda rows: fmt.format(value(rows)),
        lambda rows: lo < value(rows) < hi,
    )


# --------------------------------------------------------------------- #
# Table 1 and the paper's figures

#: Fig. 6b co-runners: each suite runs beside one with a *different*
#: access pattern ("different tests with diverse memory access
#: patterns").
MULTIPROCESS_PARTNERS: Dict[str, str] = {
    "bfs": "stream", "cg": "sort", "ep": "bfs", "fft": "ssca2",
    "gs": "cg", "hpcg": "ssca2", "lu": "pr", "mg": "bfs",
    "pr": "mg", "sort": "hpcg", "sp": "gs", "sparselu": "bfs",
    "ssca2": "lu", "stream": "sp",
}

#: Figs. 8/9: the two suites clustered, and the trace window (cycles).
CLUSTERED = ("bfs", "sparselu")
CLUSTER_WINDOW = 10_000

#: Figs. 10b and 11b read one suite's internals.
INTERNALS_BENCH = "hpcg"

#: Fig. 11a: sorting-network widths.
WIDTHS = (4, 8, 16, 32, 64)

DENSE = ("ep", "gs", "lu", "mg")
SPARSE = ("bfs", "cg", "sp", "ssca2")


def _multiprocessing(runs: Runs) -> Rows:
    rows = []
    for bench in BENCHMARK_NAMES:
        partner = MULTIPROCESS_PARTNERS[bench]
        row = {"benchmark": bench, "partner": partner}
        for arm in (DMC, PAC):
            row[f"{arm.value}_single"] = runs[
                runs.spec(bench, arm=arm)].coalescing_efficiency
            row[f"{arm.value}_multi"] = runs[
                runs.spec(bench, partner, arm=arm)].coalescing_efficiency
        rows.append(row)
    return rows


def _cross_page(runs: Runs) -> Rows:
    rows = []
    for bench in BENCHMARK_NAMES:
        stats = cross_page_stats(runs.requests(runs.spec(bench)))
        rows.append({
            "benchmark": bench,
            "cross_page_fraction": stats.cross_page_fraction,
            "in_page_fraction": stats.in_page_fraction,
        })
    return rows


def _clustering(runs: Runs) -> Rows:
    rows = []
    for bench in CLUSTERED:
        requests = runs.requests(runs.spec(bench))
        mid = requests[len(requests) // 3].cycle if requests else 0
        summary = cluster_requests(
            requests, window_cycles=CLUSTER_WINDOW, window_start=mid
        )
        rows.append({
            "benchmark": bench,
            "n_requests": summary.n_requests,
            "n_clusters": summary.n_clusters,
            "noise_fraction": summary.noise_fraction,
            "clustered_fraction": summary.clustered_fraction,
        })
    return rows


def _request_sizes(runs: Runs) -> Rows:
    """Issued packets by size and op, PAC coalescing at the CPU's data
    size (fine-grain mode), as the device receives them."""
    spec = runs.spec(INTERNALS_BENCH, fine_grain=True)
    system = spec.system()
    device = RecordingDevice(system.device)
    system.coalescer.process(runs.prefix(spec).raw, device)
    counter = Counter((p.size, int(p.op)) for p, _ in device.submits)
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


def _bandwidth(base: RunResult, pac: RunResult) -> dict:
    saved = pac.bandwidth_saving_bytes(base)
    return {
        "baseline_bytes": base.transaction_bytes,
        "pac_bytes": pac.transaction_bytes,
        "saved_bytes": saved,
        "saved_fraction": (
            saved / base.transaction_bytes if base.transaction_bytes else 0.0
        ),
    }


def _space_overhead(runs: Runs) -> Rows:
    rows = []
    for n in WIDTHS:
        pac, bit, oem = pac_costs(n), bitonic_costs(n), odd_even_costs(n)
        rows.append({
            "n": n,
            "pac_comparators": pac.comparators,
            "bitonic_comparators": bit.comparators,
            "odd_even_comparators": oem.comparators,
            "pac_buffer_bytes": pac.buffer_bytes,
            "bitonic_buffer_bytes": bit.buffer_bytes,
            "odd_even_buffer_bytes": oem.buffer_bytes,
        })
    return rows


def _stream_occupancy(runs: Runs) -> Rows:
    """Occupied coalescing streams per 16-cycle window (the
    aggregator's histogram), busy windows only."""
    system, _ = runs.replay(runs.spec(INTERNALS_BENCH))
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


def _power_by_operation(runs: Runs) -> Rows:
    sums = dict.fromkeys(ENERGY_CATEGORIES, 0.0)
    for bench in BENCHMARK_NAMES:
        base, pac = _arms(runs, bench, NONE, PAC)
        saved = savings(base.energy, pac.energy)
        for cat in ENERGY_CATEGORIES:
            sums[cat] += saved[cat]
    return [
        {"operation": cat, "mean_saving": sums[cat] / len(BENCHMARK_NAMES)}
        for cat in ENERGY_CATEGORIES
    ]


def _coalesced_ratio(dmc: RunResult, pac: RunResult) -> dict:
    return {"dmc_ratio": dmc.coalescing_efficiency,
            "pac_ratio": pac.coalescing_efficiency}


def _top(rows: Rows, key: str, n: int) -> List[str]:
    ranked = sorted(rows, key=lambda r: r[key], reverse=True)
    return [r["benchmark"] for r in ranked[:n]]


def _pick(rows: Rows, names: Sequence[str], col: str) -> List[float]:
    return [r[col] for r in rows if r["benchmark"] in names]


#: Paper values that claims compare against exactly.
_TABLE1_PAPER = {"streams": "16", "maq_mshrs": "16 & 16"}
_SPACE_PAPER = {"pac": "64", "odd_even": "543", "bitonic": "672",
                "buffers": "384B vs 2016B/2560B at 16 streams"}
_POWER_PAPER = {"VAULT-RQST-SLOT": "59.35%", "VAULT-RSP-SLOT": "48.75%",
                "VAULT-CTRL": "57.09%", "LINK-LOCAL-ROUTE": "61.39%",
                "LINK-REMOTE-ROUTE": "53.22%"}


def _budgets(rows: Rows) -> Tuple[str, str]:
    return (_at("Coalescing Streams", "value", "parameter")(rows),
            _at("MAQ Entries & MSHRs", "value", "parameter")(rows))


def _comparators_at_64(rows: Rows) -> Tuple[str, ...]:
    return tuple(str(_at(64, f"{k}_comparators", "n")(rows))
                 for k in ("pac", "odd_even", "bitonic"))


def _ordered(text: str, paper: str, pac: Value, dmc: Value) -> Claim:
    """PAC above DMC above zero."""
    return Claim(
        text, paper,
        lambda rows: f"{pac(rows):.1%} vs {dmc(rows):.1%}",
        lambda rows: pac(rows) > dmc(rows) > 0,
    )


TABLES: Tuple[Entry, ...] = (
    Entry(
        "table1", "Table 1: Simulation Environment",
        lambda runs: table1_configuration(),
        paper=_TABLE1_PAPER,
        claims=(
            Claim(
                "Coalescing streams and MAQ/MSHR budgets match Table 1",
                "{streams} streams, {maq_mshrs}",
                lambda rows: "{} streams, {}".format(*_budgets(rows)),
                lambda rows: _budgets(rows) == (
                    _TABLE1_PAPER["streams"], _TABLE1_PAPER["maq_mshrs"]),
            ),
        ),
        section=Section(
            "Table 1 — simulation configuration", lambda p, rows: ""
        ),
    ),
)

FIGURES: Tuple[Entry, ...] = (
    Entry(
        "1", "Figure 1: Ratio of Coalesced Requests",
        _per_suite((DMC, PAC), _coalesced_ratio),
        paper={"pac": "55.32%", "dmc": "35.78%"},
        claims=(
            _every("PAC coalesces at least as much as DMC on 12+ suites",
                   "avg {pac} vs {dmc}",
                   lambda r: r["pac_ratio"] >= r["dmc_ratio"], misses=2),
        ),
    ),
    Entry(
        "6a", "Figure 6a: Coalescing Efficiency",
        _per_suite((DMC, PAC), _coalesced_ratio),
        paper={"pac": "56.01%", "dmc": "33.25%", "dense": "70%"},
        claims=(
            _more("PAC coalesces more than DMC on average", "{pac} vs {dmc}",
                  _mean("pac_ratio"), _mean("dmc_ratio"), by=1.3),
            _more("Dense suites (EP/GS/LU/MG) out-coalesce sparse "
                  "(BFS/CG/SP/SSCA2)", ">{dense} vs lowest",
                  lambda rows: min(_pick(rows, DENSE, "pac_ratio")),
                  lambda rows: max(_pick(rows, SPARSE, "pac_ratio")),
                  by=0.9),
        ),
        section=Section(
            "Figure 1 / 6a — coalescing efficiency (Eq. 1)",
            lambda p, rows: (
                f"Paper: PAC **{p['pac']}** avg vs DMC **{p['dmc']}** "
                f"(Fig. 6a); EP/GS/LU/MG above {p['dense']}; BFS lowest."
                f"\n\nMeasured: PAC **{mean_of(rows, 'pac_ratio'):.2%}** "
                f"avg vs DMC **{mean_of(rows, 'dmc_ratio'):.2%}**.\n\n"
            ),
            ("dmc_ratio", "pac_ratio"),
        ),
    ),
    Entry(
        "2", "Figure 2: Cross-page Coalescing", _cross_page,
        paper={"cross": "0.04%"},
        claims=(
            _within("Cross-page coalescing opportunity is negligible",
                    "{cross}", _mean("cross_page_fraction"), hi=0.02,
                    fmt="{:.3%}"),
            _every("No suite has more cross-page than in-page opportunity",
                   "{cross} avg",
                   lambda r: r["cross_page_fraction"] <= r["in_page_fraction"]
                   or r["in_page_fraction"] == 0),
        ),
        section=Section(
            "Figure 2 — cross-page coalescing opportunity",
            lambda p, rows: (
                f"Paper: **{p['cross']}** of requests coalescable only "
                f"across page boundaries. Measured avg: "
                f"**{mean_of(rows, 'cross_page_fraction'):.3%}**.\n\n"
            ),
            ("cross_page_fraction", "in_page_fraction"),
        ),
    ),
    Entry(
        "6b", "Figure 6b: Multiprocessing Efficiency", _multiprocessing,
        paper={"dmc_single": "28.39%", "dmc_multi": "14.43%",
               "pac_single": "44.21%", "pac_multi": "38.93%"},
        claims=(
            _more("PAC leads DMC under multiprocessing",
                  "{pac_multi} vs {dmc_multi}",
                  _mean("pac_multi"), _mean("dmc_multi"), by=1.3),
            _within("PAC keeps coalescing above 15% under multiprocessing",
                    "{pac_multi}", _mean("pac_multi"), lo=0.15),
        ),
        section=Section(
            "Figure 6b — multiprocessing",
            lambda p, rows: (
                f"Paper: DMC {p['dmc_single']} -> {p['dmc_multi']} "
                f"(halved), PAC {p['pac_single']} -> {p['pac_multi']}. "
                f"Measured: DMC {mean_of(rows, 'dmc_single'):.2%} -> "
                f"{mean_of(rows, 'dmc_multi'):.2%}, PAC "
                f"{mean_of(rows, 'pac_single'):.2%} -> "
                f"{mean_of(rows, 'pac_multi'):.2%}.\n\n"
                "**Divergence note:** our DMC merge opportunities are "
                "OoO-window same-line duplicates that arrive back-to-back, "
                "so process interleaving cannot split them — our DMC "
                "degrades less than the paper's. PAC's absolute values "
                "track the paper closely, and the preserved shape is PAC's "
                "clear lead under multiprocessing.\n\n"
            ),
            ("dmc_single", "dmc_multi", "pac_single", "pac_multi"),
        ),
    ),
    Entry(
        "6c", "Figure 6c: Bank Conflict Reductions",
        _per_suite((NONE, PAC), lambda base, pac: {
            "baseline_conflicts": base.bank_conflicts,
            "pac_conflicts": pac.bank_conflicts,
            "reduction": pac.bank_conflict_reduction(base),
        }),
        paper={"avg": "85.16%", "top": "EP/MG/SORT/SSCA2 over 90%"},
        claims=(
            _within("PAC removes most bank conflicts", "{avg}",
                    _mean("reduction"), lo=0.4),
            _every("PAC removes bank conflicts on every suite", "{top}",
                   lambda r: r["reduction"] > 0),
        ),
        section=Section(
            "Figure 6c — bank conflict reduction",
            lambda p, rows: (
                f"Paper: **{p['avg']}** average reduction; {p['top']}. "
                f"Measured avg: **{mean_of(rows, 'reduction'):.2%}**.\n\n"
            ),
            ("reduction",),
        ),
    ),
    Entry(
        "7", "Figure 7: Comparison Reductions",
        _per_suite((DMC, PAC), lambda dmc, pac: {
            "unpaged_comparisons": dmc.comparisons,
            "pac_comparisons": pac.comparisons,
            "reduction": pac.comparison_reduction(dmc),
        }),
        paper={"avg": "29.84%", "bfs": "62.41%"},
        claims=(
            _within("Paged comparison does less comparator work",
                    "{avg} reduction", _mean("reduction"), lo=0),
        ),
        section=Section(
            "Figure 7 — comparison reductions",
            lambda p, rows: (
                f"Paper: **{p['avg']}** average (BFS highest at "
                f"{p['bfs']}). Measured avg: "
                f"**{mean_of(rows, 'reduction'):.2%}**.\n\n"
                "**Accounting note:** the paper does not fully specify the "
                "comparator accounting. Ours counts the coalescing-procedure "
                "CAM work: per raw request, the unpaged baseline compares "
                "against every buffered miss (entries + subentries); PAC "
                "compares once per active page stream. Under this accounting "
                "PAC's reductions are larger than the paper's and the sparse "
                "suites (many live pages) show the *smallest* reductions — "
                "the paper reports the inverse correlation; direction of the "
                "aggregate claim (PAC does less comparator work) is "
                "preserved.\n\n"
            ),
            ("reduction",),
        ),
    ),
    Entry(
        "8", "Figures 8/9: Request Clustering (DBSCAN, eps=4KB)",
        _clustering,
        paper={"bfs": "sparsely scattered (mostly noise/crosses)",
               "sparselu": "clustered"},
        claims=(
            _more("BFS scatters; SparseLU clusters (DBSCAN eps=4KB)",
                  "BFS noise >> SparseLU noise",
                  _at("bfs", "noise_fraction"),
                  _at("sparselu", "noise_fraction")),
            _within("Most SparseLU requests cluster", "SparseLU {sparselu}",
                    _at("sparselu", "clustered_fraction"), lo=0.5),
        ),
        section=Section(
            "Figures 8/9 — request distribution clustering (DBSCAN, eps=4KB)",
            lambda p, rows: (
                f"Paper: BFS requests {p['bfs']}; SparseLU "
                f"{p['sparselu']}.\n\n"
            ),
            ("noise_fraction", "clustered_fraction"),
        ),
    ),
    Entry(
        "10a", "Figure 10a: Transaction Efficiency",
        _per_suite((NONE, PAC), lambda base, pac: {
            "raw_efficiency": base.transaction_efficiency,
            "pac_efficiency": pac.transaction_efficiency,
        }),
        paper={"raw": "66.66%", "pac": "73.76%"},
        claims=(
            _every("Raw 64B requests are pinned at 2/3 transaction efficiency",
                   "{raw}", lambda r: math.isclose(
                       r["raw_efficiency"], 2 / 3, rel_tol=1e-6)),
            _every("PAC never lowers a suite's transaction efficiency",
                   "{pac} avg",
                   lambda r: r["pac_efficiency"]
                   >= r["raw_efficiency"] - 1e-9),
            _within("PAC lifts transaction efficiency above the 66.7% raw "
                    "floor", "{pac}", _mean("pac_efficiency"), lo=2 / 3),
        ),
        section=Section(
            "Figure 10a — transaction efficiency (Eq. 2)",
            lambda p, rows: (
                f"Paper: raw fixed at {p['raw']}, PAC avg **{p['pac']}**. "
                f"Measured PAC avg: "
                f"**{mean_of(rows, 'pac_efficiency'):.2%}**.\n\n"
            ),
            ("raw_efficiency", "pac_efficiency"),
        ),
    ),
    Entry(
        "10b", "Figure 10b: HPCG Request Sizes (fine-grain)", _request_sizes,
        paper={"frac16": "81.62%"},
        claims=(
            _within("Fine-grain HPCG dominated by 16B requests", "{frac16}",
                    _share("size_bytes", lambda s: s == 16), lo=0.5),
            _more("16B requests outnumber large (>=64B) ones", "{frac16} 16B",
                  _share("size_bytes", lambda s: s == 16),
                  _share("size_bytes", lambda s: s >= 64)),
        ),
        section=Section(
            "Figure 10b — HPCG request sizes (fine-grain mode)",
            lambda p, rows: (
                f"Paper: 16B requests are **{p['frac16']}** of HPCG's "
                f"total. Measured: "
                f"**{_share('size_bytes', lambda s: s == 16)(rows):.2%}**."
                "\n\n"
            ),
            ("fraction",),
        ),
    ),
    Entry(
        "10c", "Figure 10c: Bandwidth Savings",
        _per_suite((NONE, PAC), _bandwidth),
        paper={"avg": "26.96GB", "sp": "139.47GB"},
        claims=(
            _every("PAC saves transaction bytes on every suite",
                   "avg {avg}/app", lambda r: r["saved_bytes"] > 0),
            _within("PAC saves over 5% of transaction bytes on average",
                    "avg {avg}/app", _mean("saved_fraction"), lo=0.05),
        ),
        section=Section(
            "Figure 10c — bandwidth savings",
            lambda p, rows: (
                f"Paper: {p['avg']} average saved over full app runs; SP "
                f"largest ({p['sp']}). Absolute bytes scale with trace "
                f"length; measured average saved fraction of transaction "
                f"bytes: **{mean_of(rows, 'saved_fraction'):.2%}**.\n\n"
            ),
            ("saved_fraction",),
        ),
    ),
    Entry(
        "11a", "Figure 11a: Space Overhead Comparison", _space_overhead,
        paper=_SPACE_PAPER,
        claims=(
            Claim(
                "Comparator counts at N=64 match the paper exactly",
                "{pac} / {odd_even} / {bitonic}",
                lambda rows: " / ".join(_comparators_at_64(rows)),
                lambda rows: _comparators_at_64(rows) == tuple(
                    _SPACE_PAPER[k] for k in ("pac", "odd_even", "bitonic")),
            ),
            _every("Comparators grow PAC <= odd-even <= bitonic at every N",
                   "{pac} / {odd_even} / {bitonic}",
                   lambda r: r["pac_comparators"] <= r["odd_even_comparators"]
                   <= r["bitonic_comparators"]),
            _every("PAC buffers less than the odd-even sorter at every N",
                   "{buffers}",
                   lambda r: r["pac_buffer_bytes"]
                   < r["odd_even_buffer_bytes"]),
        ),
        section=Section(
            "Figure 11a — space overhead vs sorting networks",
            lambda p, rows: (
                f"Paper at N=64: PAC {p['pac']} comparators vs bitonic "
                f"{p['bitonic']} vs odd-even {p['odd_even']} — matched "
                f"exactly (closed forms).\n\n"
            ),
        ),
    ),
    Entry(
        "11b", "Figure 11b: Stream Occupancy (HPCG)", _stream_occupancy,
        paper={"two": "35.33%", "two_to_four": "77.57%"},
        claims=(
            _within("Low occupancy dominates: most windows hold <=4 streams",
                    "{two_to_four} in 2-4 pages",
                    _share("occupied_streams", lambda k: k <= 4), lo=0.5),
            _every("No window occupies more than the 16 streams",
                   "{two} in 2 pages", lambda r: r["occupied_streams"] <= 16),
        ),
        section=Section(
            "Figure 11b — stream occupancy in HPCG",
            lambda p, rows: (
                f"Paper: {p['two_to_four']} of windows hold 2-4 pages. "
                f"Measured windows with <=4 occupied streams: "
                f"**{_share('occupied_streams', lambda k: k <= 4)(rows):.2%}**"
                ".\n\n"
            ),
            ("fraction",),
        ),
    ),
    Entry(
        "11c", "Figure 11c: Avg Coalescing Stream Utilization",
        _per_suite((PAC,), lambda pac: {
            "mean_streams": pac.pac_metrics["mean_active_streams"],
        }),
        paper={"avg": "4.49", "bfs": "9.99"},
        claims=(
            Claim(
                "16 streams suffice; BFS uses more than GS and SparseLU",
                "avg {avg}, BFS {bfs}",
                lambda rows: "avg {:.2f}, BFS {:.2f}".format(
                    mean_of(rows, "mean_streams"),
                    _at("bfs", "mean_streams")(rows)),
                lambda rows: mean_of(rows, "mean_streams") < 16
                and _at("bfs", "mean_streams")(rows) > max(
                    _pick(rows, ("gs", "sparselu"), "mean_streams")),
            ),
        ),
        section=Section(
            "Figure 11c — average stream utilization",
            lambda p, rows: (
                f"Paper: {p['avg']} average; BFS {p['bfs']}. Measured avg: "
                f"**{mean_of(rows, 'mean_streams'):.2f}**.\n\n"
            ),
        ),
    ),
    Entry(
        "12a", "Figure 12a: PAC Stage Latencies (cycles)",
        _per_suite((PAC,), lambda pac: {
            "stage2_cycles": pac.pac_metrics["mean_stage2_cycles"],
            "stage3_cycles": pac.pac_metrics["mean_stage3_cycles"],
            "overall_cycles": pac.pac_metrics["mean_request_latency"],
        }),
        paper={"stage2": "6.66", "stage3": "11.47", "timeout": "16"},
        claims=(
            _every("Overall PAC latency bounded by the {timeout}-cycle "
                   "timeout", "~{timeout} cycles",
                   lambda r: r["overall_cycles"]
                   <= TABLE1.pac.timeout_cycles + 1e-9),
            _every("Stages 2+3 stay tiny next to the 186-cycle access",
                   "{stage2} + {stage3} cycles",
                   lambda r: r["stage2_cycles"] + r["stage3_cycles"] < 60),
        ),
        section=Section(
            "Figure 12a — PAC stage latencies",
            lambda p, rows: (
                f"Paper: stage2 {p['stage2']}, stage3 {p['stage3']} "
                f"cycles; overall pinned at the {p['timeout']}-cycle "
                f"timeout. Measured: stage2 "
                f"**{mean_of(rows, 'stage2_cycles'):.2f}**, stage3 "
                f"**{mean_of(rows, 'stage3_cycles'):.2f}**, overall "
                f"**{mean_of(rows, 'overall_cycles'):.2f}** cycles.\n\n"
            ),
        ),
    ),
    Entry(
        "12b", "Figure 12b: MAQ Fill Latency",
        _per_suite((PAC,), lambda pac: {
            "fill_cycles": pac.pac_metrics["mean_maq_fill_cycles"],
            "fill_ns": pac.pac_metrics["mean_maq_fill_cycles"]
            * TABLE1.ns_per_cycle,
        }),
        paper={"avg": "20.76ns", "access": "93ns", "bfs": "8.62ns"},
        claims=(
            _within("MAQ refills inside the {access} access window", "{avg}",
                    _mean("fill_ns"), hi=TABLE1.hmc.avg_access_ns,
                    fmt="{:.1f}ns"),
        ),
        section=Section(
            "Figure 12b — MAQ fill latency",
            lambda p, rows: (
                f"Paper: {p['avg']} average (hidden inside the "
                f"{p['access']} access). Measured avg: "
                f"**{mean_of(rows, 'fill_ns'):.2f}ns**.\n\n"
            ),
        ),
    ),
    Entry(
        "12c", "Figure 12c: Requests Bypassing Stages 2-3",
        _per_suite((PAC,), lambda pac: {
            "bypass_fraction": pac.pac_metrics["bypass_fraction"],
        }),
        paper={"avg": "25.04%", "bfs": "45.09%"},
        claims=(
            _more("Sparse BFS bypasses stages 2-3 more than dense GS and MG",
                  "{bfs} (avg {avg})", _at("bfs", "bypass_fraction"),
                  lambda rows: max(_pick(rows, ("gs", "mg"),
                                         "bypass_fraction"))),
            _within("Some, not all, requests bypass on average", "avg {avg}",
                    _mean("bypass_fraction"), lo=0, hi=1),
        ),
        section=Section(
            "Figure 12c — bypass proportion",
            lambda p, rows: (
                f"Paper: {p['avg']} average; BFS {p['bfs']}. Measured avg: "
                f"**{mean_of(rows, 'bypass_fraction'):.2%}**.\n\n"
            ),
            ("bypass_fraction",),
        ),
    ),
    Entry(
        "13", "Figure 13: Power Saving by HMC Operation",
        _power_by_operation,
        paper=_POWER_PAPER,
        claims=(
            _within("Every paper category saves energy",
                    "{VAULT-RQST-SLOT} .. {LINK-REMOTE-ROUTE}",
                    lambda rows: min(r["mean_saving"] for r in rows
                                     if r["operation"] in _POWER_PAPER),
                    lo=0),
            _within("Vault control saves over 20%", "{VAULT-CTRL}",
                    _at("VAULT-CTRL", "mean_saving", "operation"), lo=0.2),
        ),
        section=Section(
            "Figure 13 — power saving by HMC operation",
            lambda p, rows: "Paper: {}.\n\n".format(", ".join(
                f"{op.removesuffix('-ROUTE')} {v}" for op, v in p.items())),
            ("mean_saving",),
        ),
    ),
    Entry(
        "14", "Figure 14: Overall Power Saving",
        _per_suite((NONE, DMC, PAC), lambda base, dmc, pac: {
            "dmc_saving": dmc.energy_saving(base),
            "pac_saving": pac.energy_saving(base),
        }),
        paper={"pac": "59.21%", "dmc": "39.57%"},
        claims=(
            _ordered("PAC saves more energy than DMC, both positive",
                     "{pac} vs {dmc}",
                     _mean("pac_saving"), _mean("dmc_saving")),
            _every("PAC saves at least as much as DMC on 12+ suites",
                   "{pac} vs {dmc}",
                   lambda r: r["pac_saving"] >= r["dmc_saving"], misses=2),
        ),
        section=Section(
            "Figure 14 — overall power saving",
            lambda p, rows: (
                f"Paper: PAC **{p['pac']}** vs DMC **{p['dmc']}**. "
                f"Measured: PAC **{mean_of(rows, 'pac_saving'):.2%}** vs "
                f"DMC **{mean_of(rows, 'dmc_saving'):.2%}**.\n\n"
            ),
            ("dmc_saving", "pac_saving"),
        ),
    ),
    Entry(
        "15", "Figure 15: Performance Improvement",
        _per_suite((NONE, DMC, PAC), lambda base, dmc, pac: {
            "dmc_gain": dmc.speedup_over(base),
            "pac_gain": pac.speedup_over(base),
            "dmc_gain_latency_bound": dmc.latency_bound_speedup_over(base),
            "pac_gain_latency_bound": pac.latency_bound_speedup_over(base),
        }),
        paper={"pac": "14.35%", "dmc": "8.91%", "gs": "26.06%"},
        claims=(
            _ordered("PAC outperforms DMC outperforms no coalescing "
                     "(latency-bound)", "{pac} vs {dmc}",
                     _mean("pac_gain_latency_bound"),
                     _mean("dmc_gain_latency_bound")),
            _more("PAC outperforms DMC in the throughput-bound model too",
                  "{pac} vs {dmc}", _mean("pac_gain"), _mean("dmc_gain")),
            _within("Latency-bound PAC gain lands in the paper's 5-60% band",
                    "{pac}", _mean("pac_gain_latency_bound"),
                    lo=0.05, hi=0.6),
            Claim(
                "GS is among the five largest PAC gains", "GS {gs} (max)",
                lambda rows: "top 5: " + "/".join(
                    _top(rows, "pac_gain_latency_bound", 5)),
                lambda rows: "gs" in _top(rows, "pac_gain_latency_bound", 5),
            ),
        ),
        section=Section(
            "Figure 15 — performance improvement",
            lambda p, rows: (
                f"Paper: PAC **{p['pac']}** avg (GS {p['gs']} max) vs DMC "
                f"**{p['dmc']}**. Measured, latency-bound model: PAC "
                f"**{mean_of(rows, 'pac_gain_latency_bound'):.2%}** vs DMC "
                f"**{mean_of(rows, 'dmc_gain_latency_bound'):.2%}**; "
                f"throughput-bound model: PAC "
                f"**{mean_of(rows, 'pac_gain'):.2%}** vs DMC "
                f"**{mean_of(rows, 'dmc_gain'):.2%}**.\n\n"
                "**Model note:** the *latency-bound* runtime (in-order cores "
                "blocking on each miss — the regime of the paper's "
                "Spike-based evaluation) lands in the paper's band. The "
                "*throughput-bound* runtime (open-loop traces, runtime = last "
                "memory response) exaggerates gains on memory-saturated "
                "suites because coalescing multiplies effective device "
                "throughput. Both preserve the ordering: PAC > DMC > none on "
                "every suite, GS among the largest winners, compute-bound "
                "suites gaining least.\n\n"
            ),
            ("dmc_gain", "pac_gain",
             "dmc_gain_latency_bound", "pac_gain_latency_bound"),
        ),
    ),
)


# --------------------------------------------------------------------- #
# Ablations: the design-choice studies of DESIGN.md section 4

TIMEOUTS = (2, 4, 8, 16, 32, 64)
STREAM_COUNTS = (2, 4, 8, 16, 32)
#: (device, config) per protocol: a 128B HMC device speaks HMC 1.0.
PROTOCOLS = (
    ("hmc", TABLE1.with_hmc(max_packet_bytes=128)),
    ("hmc", TABLE1),
    ("hbm", TABLE1),
)
PREFETCH_REGIONS = (0, 1, 2)
CORE_COUNTS = (1, 2, 4, 8)
POLICIES = ("vault-first", "bank-first", "row-major")


def _timeout(runs: Runs) -> Rows:
    rows = []
    for timeout in TIMEOUTS:
        result = runs[runs.spec(
            "gs", config=TABLE1.with_pac(timeout_cycles=timeout))]
        rows.append({
            "timeout_cycles": timeout,
            "coalescing_efficiency": result.coalescing_efficiency,
            "mean_latency": result.pac_metrics["mean_request_latency"],
        })
    return rows


def _stream_count(runs: Runs) -> Rows:
    rows = []
    for n in STREAM_COUNTS:
        system, outcome = runs.replay(
            runs.spec("bfs", config=TABLE1.with_pac(n_streams=n)))
        cost = pac_costs(n)
        rows.append({
            "n_streams": n,
            "coalescing_efficiency": outcome.coalescing_efficiency,
            "forced_flushes": system.coalescer.aggregator.stats.count(
                "forced_flushes"),
            "comparators": cost.comparators,
            "buffer_bytes": cost.buffer_bytes,
        })
    return rows


def _protocols(runs: Runs) -> Rows:
    rows = []
    for device, config in PROTOCOLS:
        protocol = device_protocol(device, config)
        result = runs[runs.spec("stream", config=config, device=device)]
        rows.append({
            "protocol": protocol.name,
            "max_packet_bytes": protocol.max_packet_bytes,
            "coalescing_efficiency": result.coalescing_efficiency,
            "mean_packet_bytes": result.mean_packet_bytes,
            "transaction_efficiency": result.transaction_efficiency,
        })
    return rows


def _ddr(runs: Runs) -> Rows:
    rows = []
    for bench in ("stream", "gs", "bfs"):
        ddr, _ = runs.replay(runs.spec(bench, arm=NONE, device="ddr"))
        ddr_none, ddr_pac = _arms(runs, bench, NONE, PAC, device="ddr")
        hmc_none, hmc_pac = _arms(runs, bench, NONE, PAC)
        rows.append({
            "benchmark": bench,
            "ddr_row_hit_rate": ddr.device.row_hit_rate,
            "ddr_pac_gain": ddr_pac.speedup_over(ddr_none),
            "hmc_pac_gain": hmc_pac.speedup_over(hmc_none),
            "hmc_conflict_reduction": hmc_pac.bank_conflict_reduction(
                hmc_none),
        })
    return rows


def _prefetch(runs: Runs) -> Rows:
    rows = []
    for regions in PREFETCH_REGIONS:
        dmc, pac = _arms(runs, "stream", DMC, PAC,
                         config=TABLE1.with_cache(prefetch_regions=regions))
        rows.append({
            "prefetch_regions": regions,
            "dmc_efficiency": dmc.coalescing_efficiency,
            "pac_efficiency": pac.coalescing_efficiency,
            "prefetch_raw": round(
                pac.cache_metrics["prefetch_fraction"] * pac.n_raw),
        })
    return rows


def _shared_private(runs: Runs) -> Rows:
    """The shared PAC against equal-hardware private per-core PACs."""
    rows = []
    for bench in ("gs", "hpcg", "stream", "bfs"):
        spec = runs.spec(bench)
        _, private = runs.replay(spec, PrivateCoalescerArray(
            n_cores=TABLE1.n_cores, config=TABLE1.pac))
        rows.append({
            "benchmark": bench,
            "shared_efficiency": runs[spec].coalescing_efficiency,
            "private_efficiency": private.coalescing_efficiency,
        })
    return rows


def _core_scaling(runs: Runs) -> Rows:
    rows = []
    for n_cores in CORE_COUNTS:
        dmc, pac = _arms(runs, "gs", DMC, PAC,
                         config=replace(TABLE1, n_cores=n_cores))
        rows.append({
            "n_cores": n_cores,
            "dmc_efficiency": dmc.coalescing_efficiency,
            "pac_efficiency": pac.coalescing_efficiency,
        })
    return rows


def _address_mapping(runs: Runs) -> Rows:
    rows = []
    for policy in POLICIES:
        none, pac = _arms(runs, "stream", NONE, PAC,
                          config=TABLE1.with_hmc(address_policy=policy))
        rows.append({
            "policy": policy,
            "none_conflicts": none.bank_conflicts,
            "none_latency": none.mean_memory_latency_cycles,
            "pac_conflicts": pac.bank_conflicts,
            "pac_latency": pac.mean_memory_latency_cycles,
            "pac_reduction": (
                1 - pac.bank_conflicts / none.bank_conflicts
                if none.bank_conflicts else 0.0
            ),
        })
    return rows


def _timeout_gains(rows: Rows) -> Tuple[float, float]:
    """Efficiency gained from 16 to 64 cycles, and from 2 to 16."""
    eff = {r["timeout_cycles"]: r["coalescing_efficiency"] for r in rows}
    return eff[64] - eff[16], eff[16] - eff[2]


def _saturates(rows: Rows) -> bool:
    """At most noise below 16 streams, no gain or loss beyond."""
    eff = {r["n_streams"]: r["coalescing_efficiency"] for r in rows}
    return eff[16] >= eff[2] - 0.05 and abs(eff[32] - eff[16]) < 0.05


def _pac_lead(row: dict) -> float:
    return row["pac_efficiency"] - row["dmc_efficiency"]


ABLATIONS: Tuple[Entry, ...] = (
    Entry(
        "timeout", "Ablation: Timeout Sweep (GS)", _timeout,
        paper={"choice": "16-cycle timeout (Sec. 5.3.4)"},
        claims=(
            _more("A 16-cycle window coalesces at least as much as 2 cycles",
                  "{choice}",
                  _at(16, "coalescing_efficiency", "timeout_cycles"),
                  _at(2, "coalescing_efficiency", "timeout_cycles"),
                  strict=False),
            _more("A 64-cycle timeout waits at least as long as 2 cycles",
                  "{choice}", _at(64, "mean_latency", "timeout_cycles"),
                  _at(2, "mean_latency", "timeout_cycles"), fmt="{:.2f}",
                  strict=False),
            Claim(
                "Diminishing returns: doubling past 16 cycles buys little",
                "{choice}",
                lambda rows: "+{:.1%} (16->64) vs +{:.1%} (2->16)".format(
                    *_timeout_gains(rows)),
                lambda rows: _timeout_gains(rows)[0]
                < _timeout_gains(rows)[1] + 0.05,
            ),
        ),
    ),
    Entry(
        "streams", "Ablation: Coalescing Stream Count (BFS)", _stream_count,
        paper={"choice": "16 streams suffice (Sec. 5.3.3)"},
        claims=(
            _more("Starved configurations force-flush more (2 vs 16 streams)",
                  "{choice}", _at(2, "forced_flushes", "n_streams"),
                  _at(16, "forced_flushes", "n_streams"), fmt="{:,}"),
            Claim(
                "Efficiency saturates by 16 streams (within 5 points of "
                "2 and of 32)",
                "{choice}",
                lambda rows: "{:.1%} / {:.1%} / {:.1%} at 2/16/32".format(*(
                    _at(n, "coalescing_efficiency", "n_streams")(rows)
                    for n in (2, 16, 32))),
                _saturates,
            ),
        ),
    ),
    Entry(
        "protocols", "Ablation: Protocol Portability (STREAM)", _protocols,
        paper={"choice": "HMC1.0 128B, HMC2.1 256B, HBM (Sec. 4.1)"},
        claims=(
            _more("HMC2.1's larger legal packets raise the mean packet "
                  "size over HMC1.0's", "{choice}",
                  _at("hmc2.1", "mean_packet_bytes", "protocol"),
                  _at("hmc1.0", "mean_packet_bytes", "protocol"),
                  fmt="{:.1f}B", strict=False),
            _more("...and keep at least HMC1.0's Eq. 2 efficiency",
                  "{choice}",
                  _at("hmc2.1", "transaction_efficiency", "protocol"),
                  _at("hmc1.0", "transaction_efficiency", "protocol"),
                  strict=False),
            _within("PAC coalesces on HBM with unchanged logic", "{choice}",
                    _at("hbm", "coalescing_efficiency", "protocol"), lo=0),
        ),
    ),
    Entry(
        "sorting", "Ablation: Sorting-Network DMC vs PAC",
        _per_suite((SORT, PAC), lambda sort, pac: {
            "sort_efficiency": sort.coalescing_efficiency,
            "sort_comparisons": sort.comparisons,
            "pac_efficiency": pac.coalescing_efficiency,
            "pac_comparisons": pac.comparisons,
        }, benchmarks=("gs", "bfs", "stream", "hpcg")),
        paper={"choice": "N vs O(N log^2 N) comparators (Fig. 11a)"},
        claims=(
            _every("PAC's comparator work is below the sorter's on every "
                   "suite", "{choice}",
                   lambda r: r["pac_comparisons"] < r["sort_comparisons"]),
            Claim(
                "The sorter does not out-coalesce PAC on GS by 10 points",
                "{choice}",
                lambda rows: "{:.1%} vs {:.1%}".format(
                    _at("gs", "pac_efficiency")(rows),
                    _at("gs", "sort_efficiency")(rows)),
                lambda rows: _at("gs", "pac_efficiency")(rows)
                >= _at("gs", "sort_efficiency")(rows) - 0.1,
            ),
        ),
    ),
    Entry(
        "ddr", "Ablation: DDR4 (open-page) vs HMC (+PAC)", _ddr,
        paper={"choice": "3D-stacked, not DDR (Sec. 2)"},
        claims=(
            _more("Dense STREAM harvests DDR row hits; irregular BFS does not",
                  "{choice}", _at("stream", "ddr_row_hit_rate"),
                  _at("bfs", "ddr_row_hit_rate")),
            _more("PAC gains more on HMC than on fixed-burst DDR (GS)",
                  "{choice}", _at("gs", "hmc_pac_gain"),
                  _at("gs", "ddr_pac_gain")),
            _every("PAC removes HMC bank conflicts on every suite",
                   "{choice}", lambda r: r["hmc_conflict_reduction"] > 0),
        ),
    ),
    Entry(
        "prefetch", "Ablation: Prefetch Coalescing (STREAM)", _prefetch,
        paper={"choice": "PAC coalesces prefetch requests (Sec. 4.2)"},
        claims=(
            Claim(
                "Prefetching adds raw requests only when enabled",
                "{choice}",
                lambda rows: "{} / {} at 0/1 regions".format(
                    rows[0]["prefetch_raw"], rows[1]["prefetch_raw"]),
                lambda rows: rows[0]["prefetch_raw"] == 0
                < rows[1]["prefetch_raw"],
            ),
            _more("Prefetch traffic lowers DMC's efficiency (0 vs 1 region)",
                  "{choice}",
                  _at(0, "dmc_efficiency", "prefetch_regions"),
                  _at(1, "dmc_efficiency", "prefetch_regions")),
            _more("With prefetching, PAC coalesces over twice DMC's share",
                  "{choice}",
                  _at(1, "pac_efficiency", "prefetch_regions"),
                  _at(1, "dmc_efficiency", "prefetch_regions"), by=2),
            _more("Prefetching widens PAC's lead over DMC (1 vs 0 regions)",
                  "{choice}", lambda rows: _pac_lead(rows[1]),
                  lambda rows: _pac_lead(rows[0]), fmt="{:+.1%}"),
        ),
    ),
    Entry(
        "shared-private", "Ablation: Shared vs Private Coalescers",
        _shared_private,
        paper={"choice": "one coalescer shared by all cores (Sec. 3.1)"},
        claims=(
            _every("Shared ties (within 2 points) or wins on all but one "
                   "suite", "{choice}",
                   lambda r: r["shared_efficiency"]
                   >= r["private_efficiency"] - 0.02, misses=1),
            Claim(
                "Shared beats private by over a point somewhere",
                "{choice}",
                lambda rows: "best {:+.1%}".format(max(
                    r["shared_efficiency"] - r["private_efficiency"]
                    for r in rows)),
                lambda rows: any(
                    r["shared_efficiency"] > r["private_efficiency"] + 0.01
                    for r in rows),
            ),
        ),
    ),
    Entry(
        "core-scaling", "Ablation: Core Count Scaling (GS)", _core_scaling,
        paper={"choice": "shared coalescing under data-level parallelism "
                         "(Sec. 3.1)"},
        claims=(
            _every("PAC beats DMC at every core count", "{choice}",
                   lambda r: r["pac_efficiency"] > r["dmc_efficiency"]),
            _more("PAC keeps over 60% of its 1-core efficiency at 8 cores",
                  "{choice}", _at(8, "pac_efficiency", "n_cores"),
                  _at(1, "pac_efficiency", "n_cores"), by=0.6),
        ),
    ),
    Entry(
        "address-mapping", "Ablation: Address Interleaving (STREAM)",
        _address_mapping,
        paper={"choice": "vault-first low-order interleaving (Sec. 4.2)"},
        claims=(
            _more("Row-major mapping concentrates conflicts (vs vault-first)",
                  "{choice}", _at("row-major", "none_conflicts", "policy"),
                  _at("vault-first", "none_conflicts", "policy"),
                  fmt="{:,}"),
            _every("PAC removes conflicts under every mapping", "{choice}",
                   lambda r: r["pac_conflicts"] < r["none_conflicts"]),
        ),
    ),
)

ENTRIES: Tuple[Entry, ...] = TABLES + FIGURES + ABLATIONS
REGISTRY: Dict[str, Entry] = {e.id: e for e in ENTRIES}


# --------------------------------------------------------------------- #
# Renderers

_HEADER = """\
# EXPERIMENTS — paper vs. measured

Generated by `python -m repro report`. Every table/figure of the
paper's evaluation is regenerated by a bench under `benchmarks/`;
this report used traces of {n:,} accesses per run on the
Table 1 configuration. We reproduce *shape* (who wins, orderings,
crossovers), not absolute testbed numbers — divergences and their
causes are called out inline. See DESIGN.md for the substitutions.

"""


def _md_table(rows: Rows, percent: Sequence[str] = ()) -> str:
    if not rows:
        return "_(no rows)_"
    cols = list(rows[0].keys())
    out = ["| " + " | ".join(cols) + " |",
           "|" + "|".join("---" for _ in cols) + "|"]
    for row in rows:
        cells = []
        for c in cols:
            v = row.get(c, "")
            if isinstance(v, float):
                cells.append(f"{v:.2%}" if c in percent else f"{v:,.2f}")
            elif isinstance(v, int):
                cells.append(f"{v:,}")
            else:
                cells.append(str(v))
        out.append("| " + " | ".join(cells) + " |")
    return "\n".join(out)


def report(runs: Runs) -> str:
    """The markdown report of every sectioned entry (EXPERIMENTS.md)."""
    sections = []
    for entry in ENTRIES:
        if entry.section is None:
            continue
        rows = entry.rows(runs)
        sections.append(
            f"## {entry.section.heading}\n\n"
            f"{entry.section.prose(entry.paper, rows)}"
            f"{_md_table(rows, entry.section.percent)}"
        )
    return _HEADER.format(n=runs.n_accesses) + "\n\n".join(sections) + "\n"


def validate(runs: Runs) -> List[Check]:
    """Evaluate every claim of every entry, in registry order."""
    return [c for e in ENTRIES for c in e.checks(e.rows(runs))]


def render_checks(checks: Sequence[Check]) -> str:
    """ASCII checklist, grouped by entry."""
    width = max(len(c.claim) for c in checks)
    lines, entry = [], None
    for c in checks:
        if c.entry != entry:
            entry = c.entry
            lines.append(f"{entry}: {REGISTRY[entry].title}")
        mark = "PASS" if c.passed else "FAIL"
        lines.append(
            f"  [{mark}] {c.claim.ljust(width)}  "
            f"paper: {c.paper:22s} measured: {c.measured}"
        )
    passed = sum(c.passed for c in checks)
    lines.append(f"\n{passed}/{len(checks)} shape claims reproduced")
    return "\n".join(lines)

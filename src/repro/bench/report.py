"""Bench report rendering, persistence, and regression gating.

``BENCH_<name>.json`` files at the repo root are the perf trajectory:
each holds one :class:`repro.bench.harness.BenchReport` as JSON. The
regression gate compares the aggregate end-to-end throughput
(``totals.requests_per_second``) and the three engine speedups
(:data:`repro.bench.harness.SPEEDUPS`: end-to-end, coalescer and
front-end) of a fresh run against a checked-in baseline and fails
when one drops more than ``max_regression``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.bench.harness import SPEEDUPS, BenchReport


class RegressionError(RuntimeError):
    """End-to-end throughput regressed beyond the allowed fraction."""


def write_report(report: BenchReport, path: Union[str, Path]) -> Path:
    """Serialize a report to ``path`` (pretty-printed, trailing newline)."""
    path = Path(path)
    path.write_text(json.dumps(report.as_dict(), indent=2) + "\n")
    return path


#: Accepted report schemas. v2 added the ``suite`` section (two-phase
#: pipeline + artifact-cache measurements); v3 added the per-engine
#: stage legs and the ``totals.<ratio>_stage_speedup`` fields, plus a
#: re-run per-phase split (``phases``,
#: ``totals.fraction_of_end_to_end``); v4 drops that split and times
#: the device legs as production runs them (per-packet ``submit``,
#: then ``sync``) where v3 timed a bench-only window replay; v5 drops
#: the suite's per-job leg and the two ratios over it, and checks
#: ``bit_identical`` against each cell's standalone run instead; v6
#: drops the ``suite`` section (CI's ``cache-determinism`` job checks
#: cold/warm bit-identity, and perf's ``suite-cold-warm`` workload
#: times it), so v2–v5 files carry it as history; v7 times the whole
#: comparison as the first engine leg (``end_to_end``, on both
#: engines, with ``totals.end_to_end_stage_speedup``) and drops the
#: device legs, so v3–v6 files carry ``device_stage_speedup`` as
#: history that no gate reads. The totals/end_to_end shape the gates
#: read is unchanged, so older baselines still load; each ratio gate
#: skips baselines without its field.
_SCHEMAS = ("repro-bench/1", "repro-bench/2", "repro-bench/3",
            "repro-bench/4", "repro-bench/5", "repro-bench/6",
            "repro-bench/7")

#: Per engine ratio: its ``compare_reports`` key stem and the name its
#: gate reports (the coalescer and front-end stems predate the
#: :data:`SPEEDUPS` table).
_GATE_NAMES = {
    "end_to_end": ("end_to_end", "end-to-end"),
    "coalescer": ("stage", "coalescer-stage"),
    "frontend": ("frontend", "front-end-stage"),
}


def load_report_dict(path: Union[str, Path]) -> Dict:
    """Load a BENCH_*.json into the plain-dict schema."""
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") not in _SCHEMAS:
        raise ValueError(
            f"{path}: not a repro-bench report (want one of {_SCHEMAS})"
        )
    return doc


def _fmt_rate(rate: float) -> str:
    if rate >= 1e6:
        return f"{rate / 1e6:.2f}M/s"
    if rate >= 1e3:
        return f"{rate / 1e3:.1f}k/s"
    return f"{rate:.0f}/s"


def render_report(report: BenchReport) -> str:
    """Human-readable table of one report."""
    lines: List[str] = []
    cfg = report.config
    lines.append(
        f"repro bench: {report.name} — {len(cfg.benchmarks)} benchmarks x "
        f"{cfg.n_accesses:,} accesses, min of {cfg.repeats} "
        f"(+{cfg.warmup} warmup), seed {cfg.seed}"
    )
    header = f"  {'benchmark':<10} {'e2e (s)':>9} {'raw req/s':>10}"
    lines.append(header)
    lines.append("  " + "-" * (len(header) - 2))
    for bench, timing in report.end_to_end.items():
        lines.append(
            f"  {bench:<10} {timing.seconds:9.3f} "
            f"{_fmt_rate(timing.items_per_second):>10}"
        )
    lines.append(
        f"  total: {report.total_seconds:.3f}s end-to-end, "
        f"{_fmt_rate(report.total_requests_per_second)} aggregate"
        + (
            f", peak RSS {report.rss_peak_kb / 1024:.0f}MB"
            if report.rss_peak_kb
            else ""
        )
    )
    for bench, stages in report.stages.items():
        if not stages.timings:
            continue
        parts = ", ".join(
            f"{name} {t.seconds * 1e3:.0f}ms ({_fmt_rate(t.items_per_second)})"
            for name, t in stages.timings.items()
        )
        ratios = [
            f"{name} {stages.speedup(name):.2f}x"
            for name in SPEEDUPS
            if stages.speedup(name)
        ]
        if ratios:
            parts += " — " + ", ".join(ratios)
        lines.append(f"  [{bench} stages] {parts}")
    for name, legs in SPEEDUPS.items():
        ratio = report.stage_speedup(name)
        if ratio:
            lines.append(
                f"  [engine] auto {name} ({' + '.join(legs)}): "
                f"{ratio:.2f}x aggregate over the reference (min-of-N)"
            )
    return "\n".join(lines)


def compare_reports(
    current: Union[BenchReport, Dict], baseline: Dict
) -> Dict[str, float]:
    """Throughput comparison of ``current`` vs a baseline report dict.

    Returns ``{"current_rps", "baseline_rps", "speedup"}`` where speedup
    > 1 means the current code is faster. Each :data:`SPEEDUPS` ratio
    that both reports carry adds a ``current_<stem>_speedup`` /
    ``baseline_<stem>_speedup`` pair (stems in :data:`_GATE_NAMES`) —
    a machine-relative ratio (reference over auto on the *same* host),
    so it compares cleanly across hosts where raw req/s does not.
    """
    if isinstance(current, BenchReport):
        current = current.as_dict()
    cur = current["totals"]["requests_per_second"]
    base = baseline["totals"]["requests_per_second"]
    out = {
        "current_rps": cur,
        "baseline_rps": base,
        "speedup": (cur / base) if base else float("inf"),
    }
    for name in SPEEDUPS:
        field = f"{name}_stage_speedup"
        cur_ratio = current["totals"].get(field, 0.0)
        base_ratio = baseline["totals"].get(field, 0.0)
        if cur_ratio and base_ratio:
            stem = _GATE_NAMES[name][0]
            out[f"current_{stem}_speedup"] = cur_ratio
            out[f"baseline_{stem}_speedup"] = base_ratio
    return out


def check_regression(
    current: Union[BenchReport, Dict],
    baseline_path: Union[str, Path],
    max_regression: float = 0.30,
) -> Dict[str, float]:
    """Fail (raise :class:`RegressionError`) when the current run
    regresses more than ``max_regression`` below the baseline.

    One comparison (:func:`compare_reports`) arms up to four gates:

    * **end-to-end throughput** — ``totals.requests_per_second`` must
      stay above ``(1 - max_regression)`` of the baseline's;
    * **engine speedups** — each :data:`SPEEDUPS` ratio (the whole
      none/dmc/pac comparison, the batched coalescer kernel and the
      trace-gen + cache front-end, each ``reference`` over ``auto``)
      must likewise stay above ``(1 - max_regression)`` of the
      baseline ratio. Being same-host ratios, these gates are
      insensitive to absolute machine speed and catch regressions that
      hide inside a faster host. A gate skips baselines without its
      field.

    Non-positive timings are rejected **loudly** before any ratio is
    formed: ``Timing.items_per_second`` returns ``0.0`` for a
    zero-duration sample (a rendering safety), which would otherwise
    flow into these gates as a vacuously-passing or infinite ratio. A
    current report with a non-positive gated timing, or a baseline with
    non-positive throughput, is a broken measurement, not a pass.
    """
    baseline = load_report_dict(baseline_path)
    cur_doc = current.as_dict() if isinstance(current, BenchReport) else current
    for bench, timing in cur_doc.get("end_to_end", {}).items():
        if timing.get("seconds", 0.0) <= 0:
            raise RegressionError(
                f"non-positive end-to-end timing for {bench!r} "
                f"(seconds={timing.get('seconds')!r}): a zero-duration "
                "measurement gates vacuously — refusing to compare"
            )
    cmp = compare_reports(cur_doc, baseline)
    if cmp["current_rps"] <= 0:
        raise RegressionError(
            "current report has non-positive aggregate throughput "
            f"({cmp['current_rps']!r} req/s) — broken measurement, "
            "not a pass"
        )
    if cmp["baseline_rps"] <= 0:
        raise RegressionError(
            f"baseline {baseline_path} has non-positive aggregate "
            f"throughput ({cmp['baseline_rps']!r} req/s) — regenerate "
            "the baseline instead of gating against it"
        )
    floor = 1.0 - max_regression
    if cmp["speedup"] < floor:
        raise RegressionError(
            f"end-to-end throughput regressed: "
            f"{cmp['current_rps']:,.0f} req/s vs baseline "
            f"{cmp['baseline_rps']:,.0f} req/s "
            f"({cmp['speedup']:.2f}x, floor {floor:.2f}x of {baseline_path})"
        )
    for stem, gate in _GATE_NAMES.values():
        if f"current_{stem}_speedup" not in cmp:
            continue
        cur = cmp[f"current_{stem}_speedup"]
        base = cmp[f"baseline_{stem}_speedup"]
        if cur / base < floor:
            raise RegressionError(
                f"{gate} engine speedup regressed: {cur:.2f}x vs baseline "
                f"{base:.2f}x ({cur / base:.2f}x, floor {floor:.2f}x of "
                f"{baseline_path})"
            )
    return cmp

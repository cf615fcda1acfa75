"""Per-stage cProfile hotspot capture for ``repro bench --profile``.

Where the harness (:mod:`repro.bench.harness`) answers *how fast*, this
module answers *where the time goes*: each stage leg the harness times
(:func:`repro.bench.harness.stage_legs` — trace_gen, cache, coalescer
and device, each on the batched and the reference engine) runs once
under :mod:`cProfile`, and the top functions by **cumulative time** are
extracted per leg. Profiling adds interpreter overhead, so these
numbers are for ranking hotspots, never for speedup claims; the
harness's unprofiled timings remain the only quotable seconds.

Output is both machine-readable (``PROFILE_<name>.json``, schema
``repro-profile/1``) and a rendered per-stage table. Stage inputs and
stage construction stay outside the profiler (the coalescer legs
profile over a ready-made raw stream, not trace generation), so each
leg's profile is not polluted by its upstream.
"""

from __future__ import annotations

import cProfile
import pstats
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.bench.harness import STAGES, BenchConfig, stage_legs

#: Functions reported per stage, ranked by cumulative time.
TOP_N = 20

#: Profiled legs in report order: every stage on the batched engine
#: (unsuffixed) and on the reference it is bit-identical to, so a
#: hotspot list exists for both sides of each engine-speedup ratio.
PROFILE_STAGES = tuple(
    leg for stage in STAGES for leg in (stage, f"{stage}_reference")
)


@dataclass
class Hotspot:
    """One row of a stage's cumulative-time ranking."""

    function: str  # "path/to/file.py:123(name)"
    ncalls: str    # pstats call-count string ("1500" or "1500/300")
    tottime: float
    cumtime: float

    def as_dict(self) -> Dict:
        return {
            "function": self.function,
            "ncalls": self.ncalls,
            "tottime": self.tottime,
            "cumtime": self.cumtime,
        }


@dataclass
class StageProfile:
    """cProfile summary of one stage of one benchmark."""

    stage: str
    total_seconds: float = 0.0
    total_calls: int = 0
    hotspots: List[Hotspot] = field(default_factory=list)

    def as_dict(self) -> Dict:
        return {
            "stage": self.stage,
            "total_seconds": self.total_seconds,
            "total_calls": self.total_calls,
            "top": [h.as_dict() for h in self.hotspots],
        }


@dataclass
class ProfileReport:
    """Everything one ``repro bench --profile`` invocation captured."""

    name: str
    config: BenchConfig
    profiles: Dict[str, Dict[str, StageProfile]] = field(default_factory=dict)
    python: str = ""

    def as_dict(self) -> Dict:
        return {
            "schema": "repro-profile/1",
            "name": self.name,
            "config": self.config.as_dict(),
            "python": self.python,
            "top_n": TOP_N,
            "profiles": {
                bench: {
                    stage: prof.as_dict() for stage, prof in stages.items()
                }
                for bench, stages in self.profiles.items()
            },
        }


def _short_func(func) -> str:
    """pstats func triple -> ``file.py:lineno(name)`` with a compact
    path (strip everything up to the innermost package root)."""
    filename, lineno, name = func
    if filename.startswith("~"):
        return f"{filename}:{lineno}({name})"  # builtins: "~:0(<...>)"
    for marker in ("/site-packages/", "/src/", "/lib/"):
        idx = filename.rfind(marker)
        if idx >= 0:
            filename = filename[idx + len(marker):]
            break
    return f"{filename}:{lineno}({name})"


def _profile_once(stage: str, fn: Callable[[], object]) -> StageProfile:
    """Run ``fn`` under cProfile; rank its functions by cumtime."""
    profiler = cProfile.Profile()
    profiler.enable()
    fn()
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats(pstats.SortKey.CUMULATIVE)
    out = StageProfile(stage=stage)
    out.total_seconds = stats.total_tt
    out.total_calls = stats.total_calls
    for func in stats.fcn_list[:TOP_N]:
        cc, nc, tt, ct, _callers = stats.stats[func]
        ncalls = str(nc) if cc == nc else f"{nc}/{cc}"
        out.hotspots.append(Hotspot(
            function=_short_func(func),
            ncalls=ncalls,
            tottime=tt,
            cumtime=ct,
        ))
    return out


def profile_benchmark(bench: str, cfg: BenchConfig) -> Dict[str, StageProfile]:
    """Profile every stage leg of one benchmark, in stage order."""
    out: Dict[str, StageProfile] = {}
    for stage, (_items, prepare) in stage_legs(bench, cfg).items():
        for leg, engine in (
            (stage, "auto"), (f"{stage}_reference", "reference"),
        ):
            out[leg] = _profile_once(leg, prepare(engine))
    return out


def run_profile(
    config: Optional[BenchConfig] = None,
    name: str = "profile",
    benchmarks: Optional[Sequence[str]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> ProfileReport:
    """Run the per-stage profiler over the configured benchmark set."""
    cfg = config if config is not None else BenchConfig()
    report = ProfileReport(
        name=name, config=cfg, python=sys.version.split()[0]
    )
    say = progress if progress is not None else (lambda msg: None)
    for bench in benchmarks if benchmarks is not None else cfg.benchmarks:
        say(f"[{bench}] profiling stages...")
        report.profiles[bench] = profile_benchmark(bench, cfg)
    return report


def render_profile(report: ProfileReport, top: int = 10) -> str:
    """Human-readable per-stage hotspot tables (``top`` rows each; the
    JSON retains the full :data:`TOP_N`)."""
    lines: List[str] = []
    cfg = report.config
    lines.append(
        f"repro bench --profile: {report.name} — "
        f"{cfg.n_accesses:,} accesses, seed {cfg.seed} "
        f"(profiled once per stage; ranks only, not quotable seconds)"
    )
    for bench, stages in report.profiles.items():
        for stage_name in PROFILE_STAGES:
            prof = stages.get(stage_name)
            if prof is None:
                continue
            lines.append(
                f"\n  [{bench}/{prof.stage}] {prof.total_seconds:.3f}s, "
                f"{prof.total_calls:,} calls — top {top} by cumtime:"
            )
            header = (
                f"    {'cumtime':>8} {'tottime':>8} {'ncalls':>12}  function"
            )
            lines.append(header)
            lines.append("    " + "-" * (len(header) - 4))
            for h in prof.hotspots[:top]:
                lines.append(
                    f"    {h.cumtime:8.3f} {h.tottime:8.3f} "
                    f"{h.ncalls:>12}  {h.function}"
                )
    return "\n".join(lines)

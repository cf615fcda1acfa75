"""The microbenchmark harness: warmup, min-of-N repeats, stage legs.

Methodology (pyperf-style):

* every measurement runs ``warmup`` untimed iterations first, then
  ``repeats`` timed iterations; the reported number is the **minimum**
  (the least-noise estimate of the true cost on an otherwise idle
  machine), with all samples retained in the JSON for scrutiny;
* end-to-end measurements drive :func:`repro.engine.driver.run_comparison`
  — the none/dmc/pac arms on one regenerated trace, i.e. exactly what a
  design-space sweep runs per (benchmark, config) point;
* the engine split times each pipeline stage alone over fixed input,
  once per execution engine: the unsuffixed leg on ``engine="auto"``
  (the batched twin a clean PAC run resolves to) and the
  ``_reference`` leg on ``engine="reference"``. :func:`stage_legs`
  defines the four legs (:data:`STAGES`) once, for the harness and the
  profiler alike, each as the one call production makes for that
  stage; :data:`SPEEDUPS` names the three reference-over-batched
  ratios they add up to. A per-layer split of a whole run lives in the
  repo benchmark (``perf/run.py --trace 1``), not here;
* peak RSS comes from ``resource.getrusage`` (kilobytes on Linux).

**Best vs median.** Every :class:`Timing` retains all samples, and
exposes both the **min** (``seconds`` — the least-noise estimate of
the true cost, reported in tables and compared by every regression
gate) and the **median** (``median_seconds`` — the robust
central-tendency estimate, for eyeballing run-to-run noise). The
selection rule is uniform across the harness: *gates and speedup
ratios always use the min; the median is informational only*. Mixing
the two (min numerator over median denominator, or vice versa) biases
ratios and is never done here.

Seeds are fixed, so two runs of the same code measure the same work —
the only variable is the simulator's own speed.
"""

from __future__ import annotations

import os
import sys
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.config import TABLE1
from repro.engine.driver import run_benchmark, run_comparison
from repro.engine.system import CoalescerKind, System
from repro.mshr.dmc import RecordingDevice
from repro.telemetry import events as ev

#: Coalescer arms the suite-scale measurement fans out.
SUITE_ARMS = (CoalescerKind.NONE, CoalescerKind.DMC, CoalescerKind.PAC)

#: Representative workloads: a page-local burst pattern (gs), a stencil
#: SpMV (hpcg), a unit-stride streamer (stream), and the least-coalescable
#: pointer chaser (bfs) — together they cover the coalescer's behaviour
#: envelope (high/low efficiency, bypass-heavy, prefetch-heavy).
BENCH_BENCHMARKS = ("gs", "hpcg", "stream", "bfs")

#: Seed used for every measurement — results must not depend on it, but
#: the *work* must be identical across harness invocations.
BENCH_SEED = 1234

#: Engine-split stage legs, in report order; each is timed on
#: ``engine="auto"`` (leg ``<stage>``) and ``engine="reference"`` (leg
#: ``<stage>_reference``).
STAGES = ("trace_gen", "cache", "coalescer", "device")

#: Each reported engine-speedup ratio and the stage legs it sums:
#: reference seconds over batched seconds, min-of-N each.
SPEEDUPS = {
    "coalescer": ("coalescer",),
    "frontend": ("trace_gen", "cache"),
    "device": ("device",),
}


def _peak_rss_kb() -> Optional[int]:
    """Peak resident set size of this process, in KB (None off-POSIX)."""
    try:
        import resource
    except ImportError:  # pragma: no cover - non-POSIX
        return None
    usage = resource.getrusage(resource.RUSAGE_SELF)
    rss = usage.ru_maxrss
    # ru_maxrss is KB on Linux, bytes on macOS.
    if sys.platform == "darwin":  # pragma: no cover
        rss //= 1024
    return int(rss)


@dataclass
class Timing:
    """Min-of-N measurement of one benchmarked unit."""

    seconds: float  # the min over repeats
    samples: List[float] = field(default_factory=list)
    items: int = 0  # work units per iteration (raw requests, accesses...)

    @property
    def items_per_second(self) -> float:
        return self.items / self.seconds if self.seconds > 0 else 0.0

    @property
    def median_seconds(self) -> float:
        """Median sample — informational; gates always use the min."""
        if not self.samples:
            return self.seconds
        ordered = sorted(self.samples)
        n = len(ordered)
        mid = n // 2
        if n % 2:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    def as_dict(self) -> Dict:
        return {
            "seconds": self.seconds,
            "median_seconds": self.median_seconds,
            "samples": self.samples,
            "items": self.items,
            "items_per_second": self.items_per_second,
        }


@dataclass
class StageTimes:
    """Stage-leg timings of one benchmark, keyed by leg name."""

    timings: Dict[str, Timing] = field(default_factory=dict)

    def seconds(self, stages: Sequence[str]) -> Optional[Tuple[float, float]]:
        """Summed ``(batched, reference)`` min-of-N seconds over the
        legs of ``stages``; None when any leg is absent."""
        batched = reference = 0.0
        for stage in stages:
            fast = self.timings.get(stage)
            ref = self.timings.get(f"{stage}_reference")
            if fast is None or ref is None:
                return None
            batched += fast.seconds
            reference += ref.seconds
        return batched, reference

    def speedup(self, name: str) -> float:
        """Reference-over-batched ratio of :data:`SPEEDUPS` entry
        ``name``; 0.0 when a leg is absent."""
        pair = self.seconds(SPEEDUPS[name])
        if pair is None or pair[0] <= 0:
            return 0.0
        return pair[1] / pair[0]

    def as_dict(self) -> Dict:
        doc = {name: t.as_dict() for name, t in self.timings.items()}
        for name in SPEEDUPS:
            ratio = self.speedup(name)
            if ratio:
                doc[f"{name}_speedup"] = ratio
        return doc


@dataclass(frozen=True)
class BenchConfig:
    """One harness invocation's knobs."""

    benchmarks: Sequence[str] = BENCH_BENCHMARKS
    n_accesses: int = 20_000
    repeats: int = 3
    warmup: int = 1
    seed: int = BENCH_SEED
    quick: bool = False

    @classmethod
    def quick_config(cls) -> "BenchConfig":
        """Reduced suite for CI smoke runs: fewer accesses, fewer
        repeats, two benchmarks."""
        return cls(
            benchmarks=("gs", "stream"),
            n_accesses=8_000,
            repeats=2,
            warmup=1,
            quick=True,
        )

    def as_dict(self) -> Dict:
        return {
            "benchmarks": list(self.benchmarks),
            "n_accesses": self.n_accesses,
            "repeats": self.repeats,
            "warmup": self.warmup,
            "seed": self.seed,
            "quick": self.quick,
        }


@dataclass
class SuiteBench:
    """Suite-scale measurement of the grid pipeline on one
    (benchmark × arm) grid, through the artifact store.

    ``cold`` is the first run against an empty store; ``warm`` is the
    min over subsequent repeats with the store populated.
    ``bit_identical`` records that the harness checked the cold and
    warm grids against each other and against each cell's standalone
    :func:`~repro.engine.driver.run_benchmark`.
    """

    arms: List[str] = field(default_factory=list)
    benchmarks: List[str] = field(default_factory=list)
    jobs: int = 0
    workers: int = 0
    cold_seconds: float = 0.0
    warm: Optional[Timing] = None
    cold_stats: Dict = field(default_factory=dict)
    warm_stats: Dict = field(default_factory=dict)
    artifact_cache: Dict = field(default_factory=dict)
    bit_identical: bool = False

    def as_dict(self) -> Dict:
        return {
            "arms": self.arms,
            "benchmarks": self.benchmarks,
            "jobs": self.jobs,
            "workers": self.workers,
            "cold_seconds": self.cold_seconds,
            "warm": self.warm.as_dict() if self.warm else None,
            "phase_split": {
                "cold_phase1_seconds": self.cold_stats.get(
                    "phase1_seconds", 0.0
                ),
                "cold_phase2_seconds": self.cold_stats.get(
                    "phase2_seconds", 0.0
                ),
                "warm_phase1_seconds": self.warm_stats.get(
                    "phase1_seconds", 0.0
                ),
                "warm_phase2_seconds": self.warm_stats.get(
                    "phase2_seconds", 0.0
                ),
            },
            "artifact_cache": self.artifact_cache,
            "bit_identical": self.bit_identical,
        }


@dataclass
class BenchReport:
    """Everything one ``repro bench`` invocation measured."""

    name: str
    config: BenchConfig
    end_to_end: Dict[str, Timing] = field(default_factory=dict)
    stages: Dict[str, StageTimes] = field(default_factory=dict)
    suite: Optional[SuiteBench] = None
    rss_peak_kb: Optional[int] = None
    python: str = ""
    platform: str = ""

    @property
    def total_seconds(self) -> float:
        return sum(t.seconds for t in self.end_to_end.values())

    @property
    def total_requests_per_second(self) -> float:
        """Aggregate end-to-end throughput: total raw requests processed
        per second of simulator wall-clock, summed over the suite. The
        regression gate compares this scalar."""
        items = sum(t.items for t in self.end_to_end.values())
        secs = self.total_seconds
        return items / secs if secs > 0 else 0.0

    def stage_speedup(self, name: str) -> float:
        """Suite-aggregate engine speedup of :data:`SPEEDUPS` entry
        ``name``: summed reference seconds over summed batched seconds
        (min-of-N each). Same-host ratio — the machine-relative stage
        gates compare it across runs."""
        batched = reference = 0.0
        for stages in self.stages.values():
            pair = stages.seconds(SPEEDUPS[name])
            if pair is not None:
                batched += pair[0]
                reference += pair[1]
        return reference / batched if batched > 0 else 0.0

    def as_dict(self) -> Dict:
        return {
            "schema": "repro-bench/5",
            "name": self.name,
            "config": self.config.as_dict(),
            "python": self.python,
            "platform": self.platform,
            "end_to_end": {b: t.as_dict() for b, t in self.end_to_end.items()},
            "stages": {b: s.as_dict() for b, s in self.stages.items()},
            "suite": self.suite.as_dict() if self.suite else None,
            "rss_peak_kb": self.rss_peak_kb,
            "totals": {
                "end_to_end_seconds": self.total_seconds,
                "requests_per_second": self.total_requests_per_second,
                **{
                    f"{name}_stage_speedup": self.stage_speedup(name)
                    for name in SPEEDUPS
                },
            },
        }


def _min_of(
    fn: Callable[[], int], repeats: int, warmup: int,
    label: Optional[str] = None,
) -> Timing:
    """Run ``fn`` (returns its work-item count) warmup+repeats times;
    keep the min wall-clock. ``label`` names the measurement in the
    structured event log (one ``bench.measure`` event per timing)."""
    items = 0
    for _ in range(warmup):
        items = fn()
    samples: List[float] = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        items = fn()
        samples.append(time.perf_counter() - t0)
    timing = Timing(seconds=min(samples), samples=samples, items=items)
    if label is not None:
        elog = ev.active()
        if elog.enabled:
            elog.emit(ev.BenchMeasured(
                name=label, items=timing.items, seconds=timing.seconds,
            ))
    return timing


def _measure_end_to_end(bench: str, cfg: BenchConfig) -> Timing:
    def once() -> int:
        # The artifact cache would turn warm iterations into pure
        # coalescer runs; the end-to-end gate tracks full-compute
        # throughput across releases, so it opts out.
        results = run_comparison(
            bench, n_accesses=cfg.n_accesses, seed=cfg.seed,
            use_artifact_cache=False,
        )
        return sum(r.n_raw for r in results.values())

    return _min_of(
        once, cfg.repeats, cfg.warmup, label=f"{bench}:end_to_end"
    )


def _measure_suite(cfg: BenchConfig) -> SuiteBench:
    """The grid pipeline on a cold, then a warm artifact store.

    Runs inside a throwaway ``$REPRO_ARTIFACT_DIR`` so the measurement
    is independent of (and does not pollute) the developer's real
    cache: the cold number genuinely starts empty, and the warm number
    reflects a fully-populated cache.
    """
    from repro.engine.parallel import run_suite_parallel

    arms = list(SUITE_ARMS)
    suite = SuiteBench(
        arms=[k.value for k in arms],
        benchmarks=list(cfg.benchmarks),
        jobs=len(arms) * len(cfg.benchmarks),
    )
    kwargs = dict(
        kinds=tuple(arms),
        benchmarks=tuple(cfg.benchmarks),
        n_accesses=cfg.n_accesses,
        seed=cfg.seed,
    )
    old_dir = os.environ.get("REPRO_ARTIFACT_DIR")
    with tempfile.TemporaryDirectory(prefix="repro-bench-cache-") as tmp:
        os.environ["REPRO_ARTIFACT_DIR"] = tmp
        try:
            cold_stats: Dict = {}
            t0 = time.perf_counter()
            cold_results = run_suite_parallel(stats=cold_stats, **kwargs)
            suite.cold_seconds = time.perf_counter() - t0
            suite.cold_stats = cold_stats
            suite.workers = cold_stats.get("workers", 0)

            warm_stats: Dict = {}

            def warm() -> int:
                warm_stats.clear()
                results = run_suite_parallel(stats=warm_stats, **kwargs)
                warm.results = results
                return sum(r.n_raw for r in results.values())

            warm.results = {}
            suite.warm = _min_of(
                warm, cfg.repeats, cfg.warmup, label="suite:warm"
            )
            suite.warm_stats = dict(warm_stats)
            suite.artifact_cache = {
                "cold": {
                    "hits": cold_stats.get("artifact_hits", 0),
                    "misses": cold_stats.get("artifact_misses", 0),
                },
                "warm": {
                    "hits": warm_stats.get("artifact_hits", 0),
                    "misses": warm_stats.get("artifact_misses", 0),
                },
            }
            suite.bit_identical = cold_results == warm.results and all(
                result == run_benchmark(
                    bench, coalescer=CoalescerKind(arm),
                    n_accesses=cfg.n_accesses, seed=cfg.seed,
                )
                for (bench, arm), result in cold_results.items()
            )
        finally:
            if old_dir is None:
                os.environ.pop("REPRO_ARTIFACT_DIR", None)
            else:
                os.environ["REPRO_ARTIFACT_DIR"] = old_dir
    return suite


def stage_legs(
    bench: str, cfg: BenchConfig,
) -> Dict[str, Tuple[int, Callable[[str], Callable[[], object]]]]:
    """The engine-split stage legs of one benchmark, keyed by stage.

    Each value is ``(items, prepare)``: ``prepare(engine)`` builds a
    fresh stage on ``engine`` (stages hold state) and returns the one
    call to time or profile — the call production makes for that
    stage. Shared inputs (the trace, the raw stream, the packets the
    PAC arm submits, recorded at its device) are built once here, so
    no leg pays for its upstream or for ``System`` construction.
    """
    base = System(config=TABLE1, coalescer=CoalescerKind.PAC)
    trace = base.build_trace([bench], cfg.n_accesses, seed=cfg.seed)
    raw = base.hierarchy.process(trace).packed
    recorded = RecordingDevice(base.device)
    base.coalescer.process(raw, recorded)
    issued = [packet for packet, _ in recorded.submits]

    def fresh(engine: str) -> System:
        return System(
            config=TABLE1, coalescer=CoalescerKind.PAC, engine=engine
        )

    def trace_gen(engine: str):
        system = fresh(engine)
        return lambda: system.build_trace(
            [bench], cfg.n_accesses, seed=cfg.seed
        )

    def cache(engine: str):
        hierarchy = fresh(engine).hierarchy
        return lambda: hierarchy.process(trace)

    def coalescer(engine: str):
        system = fresh(engine)
        return lambda: system.coalescer.process(raw, system.device)

    def device(engine: str):
        # What run_raw does after the coalescer: per-packet submit at
        # each packet's issue cycle, then the device's one merge.
        dev = fresh(engine).device

        def replay() -> None:
            submit = dev.submit
            for packet in issued:
                submit(packet, packet.issue_cycle)
            dev.sync()

        return replay

    return {
        "trace_gen": (cfg.n_accesses, trace_gen),
        "cache": (len(raw), cache),
        "coalescer": (len(raw), coalescer),
        "device": (len(issued), device),
    }


def _interleaved_engine_pair(
    prepare: Callable[[str], Callable[[], object]],
    items: int, repeats: int, warmup: int,
) -> tuple:
    """Min-of-N of one stage leg on ``auto`` and on ``reference``,
    repeats interleaved so machine-load drift hits both engines
    symmetrically instead of biasing whichever ran second. Stage
    construction stays outside the timer. Returns ``(fast, reference)``."""

    def once(engine: str) -> float:
        call = prepare(engine)
        t0 = time.perf_counter()
        call()
        return time.perf_counter() - t0

    for _ in range(warmup):
        once("auto")
        once("reference")
    fast_samples: List[float] = []
    ref_samples: List[float] = []
    for _ in range(repeats):
        fast_samples.append(once("auto"))
        ref_samples.append(once("reference"))
    return (
        Timing(seconds=min(fast_samples), samples=fast_samples, items=items),
        Timing(seconds=min(ref_samples), samples=ref_samples, items=items),
    )


def _measure_stages(bench: str, cfg: BenchConfig) -> StageTimes:
    """Time every stage leg of one benchmark on both engines."""
    out = StageTimes()
    for stage, (items, prepare) in stage_legs(bench, cfg).items():
        out.timings[stage], out.timings[f"{stage}_reference"] = (
            _interleaved_engine_pair(prepare, items, cfg.repeats, cfg.warmup)
        )
    return out


def run_bench(
    config: Optional[BenchConfig] = None,
    name: str = "bench",
    progress: Optional[Callable[[str], None]] = None,
) -> BenchReport:
    """Run the full harness and return the report."""
    import platform as _platform

    cfg = config if config is not None else BenchConfig()
    report = BenchReport(
        name=name,
        config=cfg,
        python=sys.version.split()[0],
        platform=_platform.platform(),
    )
    say = progress if progress is not None else (lambda msg: None)
    for bench in cfg.benchmarks:
        say(f"[{bench}] end-to-end ({cfg.repeats} repeats)...")
        report.end_to_end[bench] = _measure_end_to_end(bench, cfg)
        # Quick mode measures stages too: the CI stage gates compare
        # stage timings, so the smoke baseline must carry them.
        say(f"[{bench}] stage legs...")
        report.stages[bench] = _measure_stages(bench, cfg)
    say("[suite] grid on a cold, then a warm artifact store...")
    report.suite = _measure_suite(cfg)
    report.rss_peak_kb = _peak_rss_kb()
    return report

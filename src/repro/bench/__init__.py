"""Performance benchmarking of the simulator itself.

Where :mod:`repro.experiments` measures the *modeled hardware*,
:mod:`repro.bench` measures the *simulator*: wall-clock seconds, raw
requests per second, engine speedups, and peak RSS. It answers one
question: does the production engine still beat its reference, on
the whole none/dmc/pac comparison first and then on each stage? One
loop times every leg on both engines, and ``repro bench`` emits a
machine-readable ``BENCH_<name>.json`` that CI gates against a
checked-in baseline (it fails when end-to-end throughput or an engine
speedup drops more than 30%). Where host time goes is answered
elsewhere: the repo benchmark's ``perf/run.py --trace 1`` splits a run
by layer, and ``python -m cProfile`` ranks functions on the path
production runs. The grid pipeline is measured there too: the
``suite-cold-warm`` workload times a cold and a warm store, and CI's
``cache-determinism`` job checks both against each cell's standalone
run.

The golden rule (see CONTRIBUTING.md): optimize only with a benchmark
and a golden check. A claimed end-to-end gain must show up in the repo
benchmark (``perf/run.py``), an engine gain here, and
``tests/golden_results.json`` / ``tests/test_fastpath_equivalence.py``
must prove the optimized paths are bit-identical.
"""

from repro.bench.harness import (
    BENCH_BENCHMARKS,
    BenchConfig,
    BenchReport,
    SPEEDUPS,
    STAGES,
    StageTimes,
    Timing,
    run_bench,
    stage_legs,
)
from repro.bench.report import (
    RegressionError,
    check_regression,
    compare_reports,
    render_report,
    write_report,
)

__all__ = [
    "BENCH_BENCHMARKS",
    "BenchConfig",
    "BenchReport",
    "RegressionError",
    "SPEEDUPS",
    "STAGES",
    "StageTimes",
    "Timing",
    "check_regression",
    "compare_reports",
    "render_report",
    "run_bench",
    "stage_legs",
    "write_report",
]

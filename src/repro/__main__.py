"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``       Run one benchmark through one coalescer arm.
``compare``   Run the none/dmc/pac arms side by side.
``suite``     Sweep all 14 benchmarks for one arm.
``figure``    Regenerate one of the paper's figures (e.g. ``6a``, ``15``).
``ablation``  Run a design-choice sweep (timeout, streams, ddr, ...).
``validate``  Check every committed paper shape claim.
``report``    Regenerate the full EXPERIMENTS.md report to stdout.
``trace``     Print a run's per-window telemetry timeline (MAQ occupancy,
              bank conflicts, bypass rate, ...), optionally exporting the
              probes as CSV/JSON — or, with an output path, export the
              benchmark's CPU or raw request stream to .npz.
``spans``     Trace sampled per-request lifecycle spans and print the
              per-stage latency-attribution table (p50/p95/p99 cycles in
              queue/stage1/network/maq/mshr/device); ``--perfetto``
              exports Chrome trace-event JSON loadable in Perfetto.
``bench``     Benchmark the simulator itself (wall-clock, raw requests
              per second, end-to-end and per-stage engine speedups,
              RSS peak); writes the machine-readable
              ``BENCH_<name>.json`` perf trajectory and optionally
              gates against a checked-in baseline.
``health``    Run a supervised suite and print its execution-health
              report (retries, timeouts, pool rebuilds, degradation
              ladder, shm leak check) — optionally under an injected
              fault plan (``--faults`` / ``--fault-seed``); exits 0 iff
              the run is healthy.
``runs``      List or show records from the persistent run ledger
              (``$REPRO_LEDGER_DIR`` / ``--ledger``).
``diff``      Attribute the delta between two ledger runs to stage and
              counter movement, ranked by contribution; ``--threshold``
              turns it into a CI regression gate (nonzero exit).
``events``    Render or schema-validate a structured JSONL event log
              written via ``$REPRO_EVENTS`` / ``--events``.
``config``    Print the Table 1 configuration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.config import TABLE1
from repro.engine.driver import run_benchmark, run_comparison
from repro.engine.supervisor import resolve_supervision
from repro.engine.system import CoalescerKind
from repro.experiments import registry as experiments
from repro.experiments.reporting import render_table
from repro.experiments.tables import table1_configuration
from repro.workloads import BENCHMARK_NAMES
from repro.workloads.base import size_factor

def _print_result(result) -> None:
    for key, value in result.as_row().items():
        print(f"  {key:28s} {value}")


def _maybe_record(
    results, *, kind: str, n_accesses: int, seed, device: str = "hmc",
    wall_seconds: float = 0.0,
) -> None:
    """Append a run record when the ledger is enabled (silent no-op
    otherwise — recording must never change a run's observable cost)."""
    from repro import ledger

    if not ledger.ledger_enabled():
        return
    record = ledger.build_record(
        results, kind=kind, config=TABLE1, n_accesses=n_accesses,
        seed=seed, device=device, wall_seconds=wall_seconds,
    )
    path = ledger.record_run(record)
    if path is not None:
        print(f"ledger: recorded {record.run_id}")


def main(argv=None) -> int:
    """The CLI entry point. A reader that closes the pipe early
    (``repro compare gs | head -1``) ends the command quietly: the rest
    of its output goes to ``os.devnull``, as the Python docs' SIGPIPE
    recipe does, and the exit status is 1."""
    try:
        code = _run(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


def _run(argv) -> int:
    parser = argparse.ArgumentParser(
        prog="repro", description="PAC reproduction CLI"
    )
    parser.add_argument(
        "--accesses", type=int, default=experiments.DEFAULT_N,
        help=f"trace length per run (default {experiments.DEFAULT_N})",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="worker processes for suite-scale commands "
             "(default: the CPUs this process may use; 1 forces serial)",
    )
    parser.add_argument(
        "--no-artifact-cache", action="store_true", dest="no_artifact_cache",
        help="disable the content-addressed trace/cache-pass artifact "
             "cache for this invocation (recompute everything)",
    )
    parser.add_argument(
        "--events", metavar="PATH", default=None, dest="events_path",
        help="append structured JSONL events to PATH for this invocation "
             "(equivalent to $REPRO_EVENTS; pool workers inherit it)",
    )
    parser.add_argument(
        "--ledger", metavar="DIR", default=None, dest="ledger_env",
        help="record runs into the persistent ledger at DIR "
             "(equivalent to $REPRO_LEDGER_DIR)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Per-subcommand overrides of the global --accesses/--seed. SUPPRESS
    # keeps an omitted flag out of the namespace, so the global value
    # (parsed before the subcommand) survives unless overridden.
    run_overrides = argparse.ArgumentParser(add_help=False)
    run_overrides.add_argument(
        "--accesses", type=int, default=argparse.SUPPRESS,
        help="trace length (overrides the global --accesses)",
    )
    run_overrides.add_argument(
        "--seed", type=int, default=argparse.SUPPRESS,
        help="RNG seed (overrides the global --seed)",
    )

    p_run = sub.add_parser("run", help="run one benchmark, one arm")
    p_run.add_argument("benchmark", choices=BENCHMARK_NAMES)
    p_run.add_argument(
        "--coalescer", choices=[k.value for k in CoalescerKind],
        default="pac",
    )
    p_run.add_argument("--device", choices=["hmc", "hbm"], default="hmc")
    p_run.add_argument(
        "--scale", default="A",
        help="size class letter (S/W/A/B/C) or numeric multiplier",
    )
    p_run.add_argument(
        "--json", action="store_true",
        help="emit the full result as JSON instead of a table",
    )

    p_cmp = sub.add_parser("compare", help="run all three arms")
    p_cmp.add_argument("benchmark", choices=BENCHMARK_NAMES)
    p_cmp.add_argument(
        "--json", action="store_true", dest="cmp_json",
        help="emit the full per-arm results as JSON instead of a table",
    )
    p_cmp.add_argument(
        "--spans", action="store_true", dest="cmp_spans",
        help="trace per-request spans (enriches ledger stage digests)",
    )
    p_cmp.add_argument(
        "--telemetry", action="store_true", dest="cmp_telemetry",
        help="collect windowed probes (enriches ledger counter digests)",
    )

    p_suite = sub.add_parser("suite", help="sweep all benchmarks")
    p_suite.add_argument(
        "--coalescer", choices=[k.value for k in CoalescerKind],
        default="pac",
    )
    p_suite.add_argument(
        "--json", action="store_true", dest="suite_json",
        help="emit the full per-benchmark results as JSON instead of "
             "a table",
    )
    p_suite.add_argument(
        "--spans", action="store_true", dest="suite_spans",
        help="trace per-request spans (enriches ledger stage digests)",
    )
    p_suite.add_argument(
        "--telemetry", action="store_true", dest="suite_telemetry",
        help="collect windowed probes (enriches ledger counter digests)",
    )

    p_cache = sub.add_parser(
        "cache",
        help="inspect or clear the content-addressed artifact cache",
    )
    p_cache.add_argument(
        "action", choices=["ls", "stats", "clear"],
        help="ls = list entries; stats = totals; clear = delete all",
    )
    p_cache.add_argument(
        "--dir", default=None, dest="cache_dir",
        help="cache directory (default: $REPRO_ARTIFACT_DIR or "
             "~/.cache/repro/artifacts)",
    )

    p_fig = sub.add_parser("figure", help="regenerate one figure")
    p_fig.add_argument(
        "figure", choices=sorted(e.id for e in experiments.FIGURES)
    )

    p_abl = sub.add_parser("ablation", help="run a design-choice sweep")
    p_abl.add_argument(
        "name", choices=sorted(e.id for e in experiments.ABLATIONS)
    )

    sub.add_parser("report", help="full EXPERIMENTS.md report to stdout")
    sub.add_parser("config", help="print the Table 1 configuration")
    sub.add_parser(
        "validate", help="check every committed paper shape claim"
    )

    p_trace = sub.add_parser(
        "trace", parents=[run_overrides],
        help="per-window telemetry timeline (or .npz stream export)",
    )
    p_trace.add_argument("benchmark", choices=BENCHMARK_NAMES)
    p_trace.add_argument(
        "output", nargs="?", default=None,
        help="optional .npz path: when given, export the request stream "
             "instead of printing the telemetry timeline",
    )
    p_trace.add_argument(
        "--stage", choices=["cpu", "raw"], default="raw",
        help="'cpu' = translated access trace; 'raw' = LLC miss stream "
             "(.npz export mode only)",
    )
    p_trace.add_argument(
        "--coalescer", choices=[k.value for k in CoalescerKind],
        default="pac", help="arm to instrument (timeline mode)",
    )
    p_trace.add_argument(
        "--window", type=int, default=None,
        help="telemetry window width in cycles (default 1024)",
    )
    p_trace.add_argument(
        "--csv", metavar="PATH", default=None,
        help="also write the long-form probe CSV to PATH",
    )
    p_trace.add_argument(
        "--json", metavar="PATH", default=None, dest="trace_json",
        help="also write the full probe registry as JSON to PATH",
    )

    p_spans = sub.add_parser(
        "spans", parents=[run_overrides],
        help="per-request span tracing with latency attribution",
    )
    p_spans.add_argument(
        "benchmark", choices=[*BENCHMARK_NAMES, "all"],
        help="benchmark to trace, or 'all' for the whole suite",
    )
    p_spans.add_argument(
        "--coalescer",
        # The sorting-network arm records no spans.
        choices=[
            k.value for k in CoalescerKind if k is not CoalescerKind.SORT
        ],
        default="pac", help="arm to trace",
    )
    p_spans.add_argument(
        "--sample-rate", type=int, default=16, dest="sample_rate",
        help="track 1 raw request in N (default 16; 1 = every request)",
    )
    p_spans.add_argument(
        "--perfetto", metavar="PATH", default=None,
        help="write Chrome trace-event JSON to PATH (single benchmark "
             "only; open in ui.perfetto.dev or chrome://tracing)",
    )
    p_spans.add_argument(
        "--csv", metavar="PATH", default=None, dest="spans_csv",
        help="write the long-form span CSV to PATH (single benchmark only)",
    )
    p_spans.add_argument(
        "--top-k", type=int, default=0, dest="top_k", metavar="K",
        help="also print the K slowest tracked requests",
    )

    p_bench = sub.add_parser(
        "bench",
        help="benchmark the simulator (perf harness + regression gate)",
    )
    p_bench.add_argument(
        "--quick", action="store_true",
        help="reduced CI smoke suite (2 benchmarks, fewer accesses)",
    )
    p_bench.add_argument(
        "--name", default=None,
        help="report name; output defaults to BENCH_<name>.json "
             "(default: 'quick' with --quick, else 'main')",
    )
    p_bench.add_argument(
        "--out", metavar="PATH", default=None,
        help="output JSON path (overrides the BENCH_<name>.json default)",
    )
    p_bench.add_argument(
        "--benchmarks", nargs="+", choices=BENCHMARK_NAMES, default=None,
        help="override the benchmark set",
    )
    p_bench.add_argument(
        "--repeats", type=int, default=None,
        help="timed repeats per measurement (min is reported)",
    )
    p_bench.add_argument(
        "--warmup", type=int, default=None,
        help="untimed warmup iterations per measurement",
    )
    p_bench.add_argument(
        "--accesses", type=int, default=None, dest="bench_accesses",
        help="trace length per run (default 20000; 8000 with --quick)",
    )
    p_bench.add_argument(
        "--baseline", metavar="PATH", default=None,
        help="BENCH_*.json to gate against (fail on regression)",
    )
    p_bench.add_argument(
        "--max-regression", type=float, default=0.30, dest="max_regression",
        help="allowed fractional throughput drop vs baseline (default 0.30)",
    )

    p_health = sub.add_parser(
        "health", parents=[run_overrides],
        help="supervised suite run + execution-health report",
    )
    p_health.add_argument(
        "benchmark", choices=[*BENCHMARK_NAMES, "all"],
        help="benchmark to run, or 'all' for the whole suite",
    )
    p_health.add_argument(
        "--coalescer", choices=["all", *[k.value for k in CoalescerKind]],
        default="all",
        help="arm to run, or 'all' for the none/dmc/pac trio (default)",
    )
    p_health.add_argument(
        "--faults", default=None,
        help="fault plan spec, e.g. 'phase2.job:crash@0' "
             "(default: $REPRO_FAULTS if set)",
    )
    p_health.add_argument(
        "--fault-seed", type=int, default=None, dest="fault_seed",
        help="derive a random-but-reproducible fault plan from this seed "
             "(mutually exclusive with --faults)",
    )
    p_health.add_argument(
        "--timeout", type=float, default=None, dest="job_timeout",
        help="per-job wall-clock timeout in seconds "
             "(default: $REPRO_JOB_TIMEOUT or 300)",
    )
    p_health.add_argument(
        "--max-retries", type=int, default=None, dest="max_retries",
        help="retry budget per job (default: $REPRO_MAX_RETRIES or 3)",
    )
    p_health.add_argument(
        "--json", metavar="PATH", default=None, dest="health_json",
        help="write the machine-readable health report to PATH",
    )

    p_runs = sub.add_parser(
        "runs", help="list or show persistent run-ledger records"
    )
    p_runs.add_argument(
        "action", choices=["list", "show"], nargs="?", default="list",
    )
    p_runs.add_argument(
        "ref", nargs="?", default=None,
        help="run id, unique id prefix, or record path (show mode)",
    )
    p_runs.add_argument(
        "--dir", default=None, dest="ledger_root",
        help="ledger directory (default: $REPRO_LEDGER_DIR)",
    )
    p_runs.add_argument(
        "--json", action="store_true", dest="runs_json",
        help="emit machine-readable JSON instead of a table",
    )

    p_diff = sub.add_parser(
        "diff",
        help="attribute the delta between two ledger runs "
             "(stage/counter contributions, CI regression gate)",
    )
    p_diff.add_argument("run_a", help="run id, id prefix, or record path")
    p_diff.add_argument("run_b", help="run id, id prefix, or record path")
    p_diff.add_argument(
        "--dir", default=None, dest="ledger_root",
        help="ledger directory (default: $REPRO_LEDGER_DIR)",
    )
    p_diff.add_argument(
        "--json", action="store_true", dest="diff_json",
        help="emit the full diff report as JSON instead of tables",
    )
    p_diff.add_argument(
        "--threshold", type=float, default=None,
        help="exit nonzero when the worst relative regression across "
             "deterministic metrics exceeds this fraction (CI gate)",
    )
    p_diff.add_argument(
        "--top", type=int, default=10,
        help="rows shown per attribution/counter table (default 10)",
    )

    p_events = sub.add_parser(
        "events", help="render or validate a structured JSONL event log"
    )
    p_events.add_argument("path", help="event log written via --events")
    p_events.add_argument(
        "--validate", action="store_true",
        help="schema-check only; exit nonzero on any problem",
    )
    p_events.add_argument(
        "--kind", default=None, dest="kind_filter",
        help="only show events whose kind starts with this prefix",
    )
    p_events.add_argument(
        "--json", action="store_true", dest="events_json",
        help="emit the parsed events as JSON instead of a table",
    )

    args = parser.parse_args(argv)
    if args.jobs is not None and args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    if args.command in ("compare", "suite", "spans", "health", "bench"):
        # Grid commands run under the pool supervisor: a bad --timeout /
        # --max-retries, or a $REPRO_* supervision variable that does
        # not parse, is a usage error here, not a traceback later.
        job_timeout = getattr(args, "job_timeout", None)
        max_retries = getattr(args, "max_retries", None)
        if job_timeout is not None and not job_timeout > 0:
            parser.error(f"--timeout must be > 0, got {job_timeout}")
        if max_retries is not None and max_retries < 0:
            parser.error(f"--max-retries must be >= 0, got {max_retries}")
        try:
            resolve_supervision(job_timeout, max_retries)
        except ValueError as exc:
            parser.error(str(exc))

    if args.events_path:
        # Environment, not a parameter: fork/spawn pool workers inherit
        # it, so one flag covers every process of a suite run.
        os.environ["REPRO_EVENTS"] = args.events_path
    if args.ledger_env:
        os.environ["REPRO_LEDGER_DIR"] = args.ledger_env

    if args.no_artifact_cache:
        # Environment (not a parameter): fork/spawn pool workers inherit
        # it, so the switch reaches every process of a suite run.
        os.environ["REPRO_ARTIFACT_CACHE"] = "0"

    if args.command == "cache":
        from pathlib import Path

        from repro.artifacts import default_root, get_store

        root = Path(args.cache_dir) if args.cache_dir else default_root()
        store = get_store(root)
        if args.action == "clear":
            removed = store.clear()
            print(f"removed {removed} artifact(s) from {root}")
            return 0
        entries = list(store.entries())
        if args.action == "ls":
            if not entries:
                print(f"no artifacts in {root}")
                return 0
            for e in entries:
                meta = e.meta
                desc = (
                    "corrupt entry" if meta.get("corrupt") else
                    f"{meta.get('benchmark', '?')} "
                    f"n={meta.get('n_accesses', '?')} "
                    f"seed={meta.get('seed', '?')} "
                    f"cfg={meta.get('config_hash', '?')} "
                    f"dev={meta.get('device', '?')}"
                )
                print(
                    f"{e.kind:<6} {e.key}  {e.size_bytes / 1024:8.1f}KB  "
                    f"{desc}"
                )
            return 0
        print(f"cache dir: {root}")
        print(f"entries:   {len(entries)} cache-pass")
        print(f"disk:      {store.disk_bytes() / 1024:.1f}KB")
        return 0

    if args.command == "config":
        print(render_table(table1_configuration(), title="Table 1"))
        return 0

    if args.command == "run":
        try:
            scale = float(args.scale)
        except ValueError:
            scale = args.scale
        try:
            scale = size_factor(scale)
        except (KeyError, ValueError) as exc:
            parser.error(f"--scale: {exc.args[0]}")
        t0 = time.perf_counter()
        result = run_benchmark(
            args.benchmark,
            coalescer=CoalescerKind(args.coalescer),
            n_accesses=args.accesses,
            seed=args.seed,
            device=args.device,
            scale=scale,
        )
        wall = time.perf_counter() - t0
        if args.json:
            print(result.to_json(indent=2))
        else:
            print(f"{args.benchmark} / {args.coalescer} / {args.device}:")
            _print_result(result)
        _maybe_record(
            {(args.benchmark, args.coalescer): result},
            kind="run", n_accesses=args.accesses, seed=args.seed,
            device=args.device, wall_seconds=wall,
        )
        return 0

    if args.command == "compare":
        t0 = time.perf_counter()
        results = run_comparison(
            args.benchmark, n_accesses=args.accesses, seed=args.seed,
            telemetry=args.cmp_telemetry, spans=args.cmp_spans,
        )
        wall = time.perf_counter() - t0
        if args.cmp_json:
            doc = {kind.value: r.to_dict() for kind, r in results.items()}
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            rows = [r.as_row() for r in results.values()]
            keep = ["coalescer", "n_raw", "n_issued",
                    "coalescing_efficiency", "transaction_efficiency",
                    "bank_conflicts", "runtime_cycles", "energy_nj"]
            print(render_table(rows, title=args.benchmark, columns=keep))
        _maybe_record(
            results, kind="compare", n_accesses=args.accesses,
            seed=args.seed, wall_seconds=wall,
        )
        return 0

    if args.command == "suite":
        from repro.engine.parallel import run_suite_parallel

        kind = CoalescerKind(args.coalescer)
        if args.suite_spans and kind is CoalescerKind.SORT:
            parser.error("--spans: the sortdmc arm records no spans")
        t0 = time.perf_counter()
        results = run_suite_parallel(
            kinds=(kind,),
            n_accesses=args.accesses, seed=args.seed,
            max_workers=args.jobs,
            telemetry=args.suite_telemetry,
            spans=args.suite_spans,
        )
        wall = time.perf_counter() - t0
        if args.suite_json:
            doc = {
                f"{bench}/{arm}": results[(bench, arm)].to_dict()
                for (bench, arm) in sorted(results)
            }
            print(json.dumps(doc, indent=2, sort_keys=True))
        else:
            rows = [
                results[(name, kind.value)].as_row()
                for name in BENCHMARK_NAMES
                if (name, kind.value) in results
            ]
            keep = ["benchmark", "n_raw", "n_issued",
                    "coalescing_efficiency", "bank_conflicts",
                    "runtime_cycles"]
            print(render_table(rows, title=f"suite / {args.coalescer}",
                               columns=keep))
        _maybe_record(
            results, kind="suite", n_accesses=args.accesses,
            seed=args.seed, wall_seconds=wall,
        )
        return 0

    if args.command in ("figure", "ablation", "report", "validate"):
        runs = experiments.Runs(args.accesses, args.seed)
        if args.command == "report":
            sys.stdout.write(experiments.report(runs))
            return 0
        if args.command == "validate":
            checks = experiments.validate(runs)
            print(experiments.render_checks(checks))
            return 0 if all(c.passed for c in checks) else 1
        entry = experiments.REGISTRY[
            args.figure if args.command == "figure" else args.name
        ]
        print(render_table(entry.rows(runs), title=entry.title))
        return 0

    if args.command == "trace":
        from repro.engine.system import System
        from repro.mem.trace import AccessTrace

        n_accesses, seed = args.accesses, args.seed
        if args.window is not None and args.window <= 0:
            parser.error("--window must be positive")

        if args.output is None:
            # Telemetry timeline mode: run the benchmark with probes on
            # and print the merged per-window table.
            from repro.telemetry import timeline_rows, write_csv

            result = run_benchmark(
                args.benchmark,
                coalescer=CoalescerKind(args.coalescer),
                n_accesses=n_accesses,
                seed=seed,
                telemetry=True if args.window is None else args.window,
            )
            registry = result.telemetry
            rows = timeline_rows(registry)
            title = (
                f"{args.benchmark} / {args.coalescer} — "
                f"{len(rows)} windows x {registry.window_cycles} cycles"
            )
            print(render_table(rows, title=title))
            print(
                f"  n_raw={result.n_raw:,}  n_issued={result.n_issued:,}  "
                f"bank_conflicts={result.bank_conflicts:,}  "
                f"probes={len(registry.probe_names())}"
            )
            gauge_rows = [
                {
                    "gauge": name,
                    "n": g.count,
                    "p50": g.p50,
                    "p95": g.p95,
                    "p99": g.p99,
                    "max": max(agg[3] for agg in g.windows.values()),
                }
                for name, g in sorted(registry.gauges.items())
                if g.count
            ]
            if gauge_rows:
                print(render_table(gauge_rows, title="gauge percentiles"))
            metadata = {
                "benchmark": args.benchmark,
                "coalescer": args.coalescer,
                "seed": seed if seed is not None else TABLE1.seed,
                "config_hash": TABLE1.config_hash(),
                "window_cycles": registry.window_cycles,
            }
            if args.csv:
                n = write_csv(registry, args.csv, metadata=metadata)
                print(f"wrote {n:,} probe-window rows to {args.csv}")
            if args.trace_json:
                with open(args.trace_json, "w") as fh:
                    fh.write(registry.to_json(indent=2, metadata=metadata))
                print(f"wrote probe registry JSON to {args.trace_json}")
            return 0

        system = System(TABLE1, CoalescerKind.NONE)
        trace = system.build_trace(
            [args.benchmark], n_accesses, seed=seed
        )
        if args.stage == "cpu":
            trace.save(args.output)
            print(f"wrote {len(trace):,} CPU accesses to {args.output}")
        else:
            raw = system.hierarchy.process(trace)
            packed = raw.packed
            AccessTrace(
                packed["addr"], packed["size"], packed["op"],
                packed["core"], packed["cycle"],
            ).save(args.output)
            print(
                f"wrote {len(packed):,} raw requests "
                f"({raw.miss_rate:.1%} of accesses) to {args.output}"
            )
        return 0

    if args.command == "spans":
        from repro.engine.parallel import run_suite_parallel
        from repro.telemetry import (
            attribution_rows,
            top_k_rows,
            write_perfetto,
            write_spans_csv,
        )

        n_accesses, seed = args.accesses, args.seed
        if args.sample_rate <= 0:
            parser.error("--sample-rate must be positive")
        names = (
            list(BENCHMARK_NAMES)
            if args.benchmark == "all"
            else [args.benchmark]
        )
        if len(names) > 1 and (args.perfetto or args.spans_csv):
            parser.error("--perfetto/--csv export a single benchmark's "
                         "trace; pick one benchmark")
        results = run_suite_parallel(
            kinds=(CoalescerKind(args.coalescer),), benchmarks=names,
            n_accesses=n_accesses, seed=seed, spans=args.sample_rate,
            max_workers=args.jobs,
        )
        for name in names:
            result = results[(name, args.coalescer)]
            span_trace = result.spans
            title = (
                f"{name} / {args.coalescer} — {len(span_trace)} of "
                f"{result.n_raw:,} raw requests traced "
                f"(1 in {span_trace.sample_rate}), cycles per stage"
            )
            print(render_table(attribution_rows(span_trace), title=title))
            if args.top_k:
                print(render_table(
                    top_k_rows(span_trace, args.top_k),
                    title=f"{name}: {args.top_k} slowest tracked requests",
                ))
            if args.perfetto:
                n = write_perfetto(span_trace, args.perfetto)
                print(f"wrote {n:,} trace events to {args.perfetto}")
            if args.spans_csv:
                n = write_spans_csv(span_trace, args.spans_csv)
                print(f"wrote {n:,} span rows to {args.spans_csv}")
        return 0

    if args.command == "health":
        import json as json_mod

        from repro.engine.parallel import run_suite_parallel
        from repro.faults import FaultPlan, resolve_plan

        if args.faults is not None and args.fault_seed is not None:
            parser.error("--faults and --fault-seed are mutually exclusive")
        faults = args.faults
        if args.fault_seed is not None:
            faults = FaultPlan.from_seed(args.fault_seed)
        plan = resolve_plan(faults)

        n_accesses, seed = args.accesses, args.seed
        benches = (
            list(BENCHMARK_NAMES)
            if args.benchmark == "all"
            else [args.benchmark]
        )
        kinds = (
            (CoalescerKind.NONE, CoalescerKind.DMC, CoalescerKind.PAC)
            if args.coalescer == "all"
            else (CoalescerKind(args.coalescer),)
        )
        if plan is not None:
            print(f"fault plan: {plan.to_spec()}")
        stats: dict = {}
        results = run_suite_parallel(
            kinds=kinds,
            benchmarks=benches,
            n_accesses=n_accesses,
            seed=seed,
            max_workers=args.jobs,
            stats=stats,
            faults=plan if plan is not None else False,
            job_timeout=args.job_timeout,
            max_retries=args.max_retries,
        )
        health = next(iter(results.values())).health
        title = (
            f"health: {args.benchmark} / {args.coalescer} "
            f"({stats['workers']} workers)"
        )
        print(render_table(health.summary_rows(), title=title))
        for label, items in (
            ("degradations", health.degradations),
            ("failures", health.failures),
            ("shm leaks", health.shm_leaks),
        ):
            if items:
                print(f"  {label}:")
                for item in items:
                    print(f"    - {item}")
        if args.health_json:
            report = {
                "benchmark": args.benchmark,
                "coalescer": args.coalescer,
                "n_accesses": n_accesses,
                "fault_plan": plan.to_spec() if plan is not None else None,
                "stats": stats,
                "health": health.as_dict(),
                "results": {
                    f"{bench}/{kind}": results[(bench, kind)].as_row()
                    for (bench, kind) in sorted(results)
                },
            }
            with open(args.health_json, "w") as fh:
                json_mod.dump(report, fh, indent=2, sort_keys=True)
            print(f"wrote health report to {args.health_json}")
        _maybe_record(
            results, kind="health", n_accesses=n_accesses, seed=seed,
            wall_seconds=health.wall_seconds,
        )
        if health.healthy:
            print(
                f"HEALTHY: {health.completed}/{health.jobs} jobs, "
                f"{health.events} recovery event(s)"
            )
            return 0
        print(
            f"UNHEALTHY: {health.completed}/{health.jobs} jobs completed, "
            f"{len(health.shm_leaks)} shm leak(s)"
        )
        return 1

    if args.command == "bench":
        from dataclasses import replace

        from repro.bench import (
            BenchConfig,
            RegressionError,
            check_regression,
            render_report,
            run_bench,
            write_report,
        )

        cfg = BenchConfig.quick_config() if args.quick else BenchConfig()
        overrides = {}
        if args.benchmarks:
            overrides["benchmarks"] = tuple(args.benchmarks)
        if args.repeats is not None:
            overrides["repeats"] = args.repeats
        if args.warmup is not None:
            overrides["warmup"] = args.warmup
        if args.bench_accesses is not None:
            overrides["n_accesses"] = args.bench_accesses
        if args.seed is not None:
            overrides["seed"] = args.seed
        if overrides:
            cfg = replace(cfg, **overrides)
        name = args.name or ("quick" if args.quick else "main")
        report = run_bench(cfg, name=name, progress=print)
        print(render_report(report))
        out = args.out or f"BENCH_{name}.json"
        write_report(report, out)
        print(f"wrote {out}")
        if args.baseline:
            try:
                cmp = check_regression(
                    report, args.baseline,
                    max_regression=args.max_regression,
                )
            except RegressionError as exc:
                print(f"FAIL: {exc}")
                return 1
            print(
                f"OK vs {args.baseline}: {cmp['speedup']:.2f}x "
                f"({cmp['current_rps']:,.0f} vs "
                f"{cmp['baseline_rps']:,.0f} raw req/s)"
            )
        return 0

    if args.command == "runs":
        from repro import ledger

        root = args.ledger_root
        if args.action == "show":
            if not args.ref:
                parser.error("runs show needs a run id/prefix/path")
            try:
                doc = ledger.load_run(args.ref, root=root)
            except (FileNotFoundError, ValueError) as exc:
                print(f"error: {exc}")
                return 1
            doc = {k: v for k, v in doc.items() if not k.startswith("_")}
            print(json.dumps(doc, indent=2, sort_keys=True))
            return 0
        runs = ledger.list_runs(root)
        if args.runs_json:
            print(json.dumps(
                [{k: v for k, v in d.items() if not k.startswith("_")}
                 for d in runs],
                indent=2, sort_keys=True,
            ))
            return 0
        if not runs:
            where = root or ledger.ledger_dir()
            print(
                f"no ledger records in {where}"
                if where else
                "ledger disabled: set $REPRO_LEDGER_DIR (or --ledger/"
                "--dir) to record and list runs"
            )
            return 0
        rows = [
            {
                "run_id": d["run_id"],
                "kind": d.get("kind", "?"),
                "benchmarks": ",".join(d.get("benchmarks", []))[:24],
                "arms": ",".join(d.get("arms", [])),
                "n": d.get("n_accesses", 0),
                "seed": d.get("seed"),
                "git": d.get("git", "?"),
                "wall_s": round(d.get("wall_seconds", 0.0), 2),
                "spans": "y" if d.get("stages") else "",
                "probes": "y" if d.get("counters") else "",
            }
            for d in runs
        ]
        print(render_table(rows, title=f"{len(runs)} ledger record(s)"))
        return 0

    if args.command == "diff":
        from repro import ledger
        from repro.ledger.diff import diff_runs

        try:
            rec_a = ledger.load_run(args.run_a, root=args.ledger_root)
            rec_b = ledger.load_run(args.run_b, root=args.ledger_root)
        except (FileNotFoundError, ValueError, json.JSONDecodeError) as exc:
            print(f"error: {exc}")
            return 2
        report = diff_runs(rec_a, rec_b)
        gated = (
            args.threshold is not None
            and report.max_regression > args.threshold
        )
        if args.diff_json:
            doc = report.as_dict()
            doc["threshold"] = args.threshold
            doc["gate_failed"] = gated
            print(json.dumps(doc, indent=2, sort_keys=True))
            return 1 if gated else 0
        print(f"diff {report.run_a} -> {report.run_b}")
        for warning in report.warnings:
            print(f"  warning: {warning}")
        moved = [r for r in report.metrics if r["delta"] != 0]
        if moved:
            rows = [
                {
                    "label": r["label"],
                    "metric": r["metric"],
                    "a": r["a"],
                    "b": r["b"],
                    "delta": r["delta"],
                    "relative": f"{r['relative']:+.3%}",
                }
                for r in moved
            ]
            print(render_table(rows, title="metric movement"))
        else:
            print("  deterministic metrics: no movement")
        for entry in report.attribution:
            e2e = entry["e2e"]
            rows = [
                {
                    "stage": r["stage"],
                    "a": round(r["a"], 2),
                    "b": round(r["b"], 2),
                    "delta": round(r["delta"], 3),
                    "contribution": f"{r['contribution']:+.1%}",
                }
                for r in entry["stages"][: args.top]
            ]
            print(render_table(
                rows,
                title=(
                    f"{entry['label']}: end-to-end mean "
                    f"{e2e['a']:.2f} -> {e2e['b']:.2f} cycles "
                    f"(delta {e2e['delta']:+.3f})"
                ),
            ))
        if report.counters:
            print(render_table(
                report.counters[: args.top], title="counter movement"
            ))
        print(
            f"max relative regression: {report.max_regression:+.3%}"
            + (
                f" (threshold {args.threshold:.3%}:"
                f" {'FAIL' if gated else 'ok'})"
                if args.threshold is not None else ""
            )
        )
        return 1 if gated else 0

    if args.command == "events":
        from repro.telemetry import events as ev_mod

        try:
            docs = ev_mod.read_events(args.path)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read {args.path}: {exc}")
            return 2
        problems = ev_mod.validate_events(docs)
        if args.validate:
            if problems:
                for problem in problems:
                    print(f"  {problem}")
                print(f"INVALID: {len(problems)} problem(s) "
                      f"in {len(docs)} event(s)")
                return 1
            print(f"OK: {len(docs)} event(s), schema valid")
            return 0
        if args.kind_filter:
            docs = [
                d for d in docs
                if str(d.get("kind", "")).startswith(args.kind_filter)
            ]
        if args.events_json:
            print(json.dumps(docs, indent=2, sort_keys=True))
            return 0
        if not docs:
            print(f"no events in {args.path}")
            return 0
        rows = [ev_mod.render_event(d) for d in docs]
        print(render_table(rows, title=f"{len(rows)} event(s)"))
        if problems:
            print(f"  warning: {len(problems)} schema problem(s); "
                  f"run with --validate for details")
        return 0

    return 1


if __name__ == "__main__":
    raise SystemExit(main())

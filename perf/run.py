"""Host-performance benchmark of the simulator, end to end and per layer.

Two ways to run it, from the repository root:

* one workload, as ``BENCHMARK.json`` describes::

      python3 perf/run.py --workload compare-irregular --seed 7 \\
          --seconds 10 --trace 0

  ``--trace 0`` times set-up spawns, then untraced iterations for
  ``--seconds``, and reports the end-to-end metrics; ``--trace 1``
  alternates untraced and traced iterations for ``--seconds`` and
  reports the per-layer split. The last line of standard output is one
  JSON object with ``correct``, ``attempted``, ``failed`` and
  ``metrics``.

* every workload::

      python3 perf/run.py [--seed N] [--rounds R] [--seconds S] [--quick]
                          [--out PATH]

  runs the one-workload mode above in fresh child processes: ``R``
  interleaved rounds of ``--trace 0`` runs, each round running every
  workload once from a rotating start, then one ``--trace 1`` run per
  workload. Each end-to-end metric is summarised over a workload's
  rounds; compare two reports with ``perf/compare.py``. The report goes
  to ``--out`` (default ``perf/out/run.json``).

Every run checks its outputs: each iteration's ``RunResult``s must equal
the first iteration's and the ``engine="reference"`` oracle's, and suite
runs must report no retry, timeout, degradation or leak. Any failure
makes the exit code 1. All files the benchmark writes stay under
``perf/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from hostprobe import Clock, HostGauge, Sample, median_scaled

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
SRC = ROOT / "src"
OUT_DIR = PERF / "out"

#: Spawns per run: one spawn's rescaled time varies by ~22% (IQR over
#: median) within a run on a 2-core VM, so a run takes the median of
#: several; 11 keeps the spawns under 7 s of the run on a slow host.
SETUP_SPAWNS = 11
#: ``--trace 0`` rounds per workload in a full run.
FULL_ROUNDS = 2
#: What one set-up spawn does: import the package, load the workload
#: registry and build one System.
SETUP_CODE = (
    "import sys; sys.path.insert(0, {src!r}); "
    "from repro.workloads import all_workloads; all_workloads(); "
    "from repro.engine.system import System; System()"
)

E2E_UNITS = {
    "raw_req_per_s": "req/s",
    "setup_s": "s",
    "rss_peak_mb": "MB",
    # Reported beside the gated metrics, not gated themselves.
    "host_req_per_s": "req/s",
    "wall_s": "s",
    "failed_frac": "fraction",
}

PER_LAYER_UNITS = {
    "workloads.generate_s": "s",
    "mem.translate_s": "s",
    "cache.process_s": "s",
    "cache.raw_per_access": "ratio",
    "cache.llc_hit_rate": "ratio",
    "artifacts.encode_s": "s",
    "artifacts.decode_s": "s",
    "artifacts.store_get_s": "s",
    "artifacts.store_put_s": "s",
    "artifacts.hits": "count",
    "artifacts.misses": "count",
    "core.pac_process_s": "s",
    "core.pac_merge_ratio": "ratio",
    "core.pac_bypass_fraction": "ratio",
    "mshr.none_process_s": "s",
    "mshr.dmc_process_s": "s",
    "mshr.dmc_merge_ratio": "ratio",
    "hmc.submit_s": "s",
    "hmc.submit_calls": "count",
    "hmc.ns_per_submit": "ns",
    "hmc.sync_s": "s",
    "engine.system_init_s": "s",
    "engine.build_trace_s": "s",
    "engine.build_result_s": "s",
    "engine.glue_s": "s",
    "engine.phase1_s": "s",
    "engine.phase2_s": "s",
    "engine.cold_s": "s",
    "engine.warm_s": "s",
    "engine.retries": "count",
    "engine.timeouts": "count",
    "engine.pool_rebuilds": "count",
    "engine.degradations": "count",
    "telemetry.observe_ratio": "ratio",
    "bench.trace_overhead": "ratio",
    "bench.traced_wall_s": "s",
}


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_repro() -> None:
    """Import the package from this checkout's ``src/``, or exit."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"{SRC / 'repro'} not found: run from a full checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if SRC.resolve() not in Path(repro.__file__).resolve().parents:
        raise SystemExit(f"imported repro from {repro.__file__}, not {SRC}")


@contextlib.contextmanager
def _scrubbed_environ(work: Path) -> Iterator[None]:
    """Unset every ``REPRO_*`` variable and point the artifact store at
    a private directory, for this process and the children it starts;
    restore the environment on exit."""
    saved = dict(os.environ)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_ARTIFACT_DIR"] = str(work / "artifacts")
    try:
        yield
    finally:
        os.environ.clear()
        os.environ.update(saved)


# --------------------------------------------------------------------- #
# processes


def _adopt_orphans() -> None:
    """Make this process the reaper of its orphaned descendants (Linux
    ``PR_SET_CHILD_SUBREAPER``), so that a process started by a pool
    worker that exits first is still found by :func:`_stop_children`."""
    try:
        import ctypes

        ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def _child_pids() -> List[int]:
    """Processes, zombies included, whose parent is this process."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue
        # Field 4, the parent pid, follows the parenthesised command.
        if int(stat.rsplit(")", 1)[1].split()[1]) == me:
            pids.append(int(entry))
    return pids


def _reaped(pid: int) -> bool:
    try:
        return os.waitpid(pid, os.WNOHANG)[0] != 0
    except ChildProcessError:
        return True


def _stop_children(grace: float = 5.0) -> None:
    """Stop every process this one started that still runs, and wait
    for each to end.

    The first shared-memory segment starts ``multiprocessing``'s
    resource tracker, which runs until the interpreter's exit closes
    its pipe and ignores SIGTERM; closing the pipe here stops it and
    waits for it. Anything else left (a pool worker, an adopted orphan)
    gets SIGTERM, then SIGKILL after ``grace`` seconds."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = _child_pids()
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, sig)
        deadline = time.monotonic() + grace
        while pids and (sig == signal.SIGKILL or time.monotonic() < deadline):
            pids = [pid for pid in pids if not _reaped(pid)]
            if pids:
                time.sleep(0.01)
        if not pids and not _child_pids():
            return


# --------------------------------------------------------------------- #
# correctness


def _first_difference(want, got) -> Optional[str]:
    if want is None or got is None:
        return "result missing"
    if want == got:
        return None
    for f in dataclasses.fields(want):
        a, b = getattr(want, f.name), getattr(got, f.name)
        if f.compare and a != b:
            return f"field {f.name!r}: {repr(a)[:80]} != {repr(b)[:80]}"
    return "results differ"


def _health_events(health: dict) -> int:
    """Recovery actions (retries, timeouts, rebuilds, degradations),
    job failures and leaked segments of one ``RunHealth.as_dict()``."""
    return (
        health["events"] + len(health["failures"]) + len(health["shm_leaks"])
    )


class Checker:
    """Counts attempted and failed simulation runs.

    One run is one labelled ``RunResult`` of an iteration. It fails if
    the iteration raised, if it differs from the expected result, or if
    its suite pass reports a recovery event.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def fail(self, n: int, note: str) -> None:
        self.failed += n
        if len(self.notes) < 20:
            self.notes.append(note)

    def check(self, it, expected=None, what: str = "iteration") -> None:
        labels = sorted(
            it.results.keys()
            | (expected.results.keys() if expected is not None else set())
        )
        self.attempted += len(labels)
        if expected is not None:
            for label in labels:
                diff = _first_difference(
                    expected.results.get(label), it.results.get(label)
                )
                if diff:
                    self.fail(1, f"{what} {label}: {diff}")
        per_pass = len(it.results) // max(1, len(it.stats))
        for st in it.stats:
            events = _health_events(st["health"])
            if events:
                self.fail(
                    min(events, per_pass), f"{what}: suite health {st['health']}"
                )

    def call(self, fn, *args, expected=None, what="iteration", **kwargs):
        """``fn(*args, **kwargs)``, or None if it raised; a raise counts
        every expected run as failed."""
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed run is counted, not fatal
            traceback.print_exc()
            n = len(expected.results) if expected is not None else 1
            self.attempted += n
            self.fail(n, f"{what} raised {exc!r}")
            return None

    def run(self, fn, *args, expected=None, what="iteration", **kwargs):
        """:meth:`call`, then :meth:`check` against ``expected``."""
        it = self.call(fn, *args, expected=expected, what=what, **kwargs)
        if it is not None:
            self.check(it, expected, what)
        return it


# --------------------------------------------------------------------- #
# measurements


def _summary(samples: List[float], unit: str) -> dict:
    q1, _, q3 = (
        statistics.quantiles(samples, n=4) if len(samples) > 1
        else samples * 3
    )
    return {
        "value": statistics.median(samples), "unit": unit, "q1": q1,
        "q3": q3, "n": len(samples), "samples": samples,
    }


def _rows(samples: List[Sample]) -> List[list]:
    return [[s.wall, s.before, s.after] for s in samples]


def _timed(clock: Clock, checker: Checker, fn, seed: int, expected,
           what: str = "iteration"):
    """One iteration timed between host probes, checked after the
    clock stops. Returns the iteration (None if it raised) and its
    sample."""
    it, sample = clock.time(checker.call, fn, seed, expected=expected,
                            what=what)
    if it is not None:
        checker.check(it, expected, what)
    return it, sample


def measure_setup() -> List[Sample]:
    """Spawn-to-exit samples of fresh interpreters doing set-up. A spawn
    keeps one core busy, so one core is probed."""
    cmd = [sys.executable, "-c", SETUP_CODE.format(src=str(SRC))]
    with HostGauge(1) as gauge:
        clock = Clock(gauge)
        return [
            clock.time(subprocess.run, cmd, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)[1]
            for _ in range(SETUP_SPAWNS)
        ]


def peak_rss_mb() -> float:
    """Peak RSS of this process or any child it waited for (pool
    workers included), in MiB."""
    kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kib / 1024.0


def _timed_steps(clock: Clock, checker: Checker, workload, seed: int,
                 expected) -> Tuple[Optional[object], List[Sample]]:
    """One iteration, each step timed between host probes, checked after
    the clock stops. Returns the iteration (None if a step raised) and
    one sample per step."""
    from workloads import Iteration

    parts, samples = [], []
    for step in workload.steps:
        part, sample = clock.time(checker.call, step, seed, expected=expected)
        if part is None:
            return None, samples
        parts.append(part)
        samples.append(sample)
    it = Iteration.merge(parts)
    checker.check(it, expected)
    return it, samples


def measure_end_to_end(workload, seed: int, seconds: float,
                       checker: Checker, clock: Clock) -> dict:
    """Set-up spawns, a warm-up, untraced iterations for ``seconds``,
    peak RSS, then the reference oracle.

    The iteration wall at the reference host speed is the sum over
    steps of each step's median rescaled wall."""
    setup = measure_setup()
    first = workload.run(seed)
    checker.check(first, what="warm-up")
    rows: List[List[Sample]] = []
    deadline = time.perf_counter() + seconds
    while True:
        it, samples = _timed_steps(clock, checker, workload, seed, first)
        if it is not None:
            rows.append(samples)
        # Hold one iteration's results at a time, so that the peak RSS
        # does not depend on how many iterations fit in the run.
        del it
        if time.perf_counter() >= deadline:
            break
    if not rows:
        raise RuntimeError(f"{workload.name}: every timed iteration failed")
    rss = peak_rss_mb()
    checker.run(workload.run, seed, engine="reference", expected=first,
                what="oracle")
    walls = [sum(s.wall for s in row) for row in rows]
    return {
        "raw_req_per_s": (
            first.n_raw / sum(median_scaled(step) for step in zip(*rows))
        ),
        "setup_s": median_scaled(setup),
        "rss_peak_mb": rss,
        "host_req_per_s": first.n_raw / statistics.median(walls),
        "wall_s": statistics.median(walls),
        "samples": {
            "iterations": [_rows(row) for row in rows],
            "setup": _rows(setup),
        },
    }


def _result_ratios(it) -> dict:
    rs = list(it.results.values())
    pac = [r for r in rs if r.coalescer == "pac"]
    dmc = [r for r in rs if r.coalescer == "dmc"]
    return {
        "cache.raw_per_access": (
            sum(r.n_raw for r in rs) / sum(r.n_accesses for r in rs)
        ),
        "cache.llc_hit_rate": statistics.fmean(
            r.cache_metrics["llc_hit_rate"] for r in rs
        ),
        "core.pac_merge_ratio": (
            sum(r.n_merged for r in pac) / sum(r.n_raw for r in pac)
        ),
        "core.pac_bypass_fraction": statistics.fmean(
            r.pac_metrics["bypass_fraction"] for r in pac
        ),
        "mshr.dmc_merge_ratio": (
            sum(r.n_merged for r in dmc) / sum(r.n_raw for r in dmc)
            if dmc else 0.0
        ),
    }


def _suite_stats(stats: List[dict]) -> dict:
    """Layer numbers ``run_suite_parallel`` reports itself. Workloads
    without a suite have no phases (None) and no recovery events (0)."""
    healths = [st["health"] for st in stats]
    out = {
        "artifacts.hits": sum(st["artifact_hits"] for st in stats),
        "artifacts.misses": sum(st["artifact_misses"] for st in stats),
        "engine.retries": sum(h["retries"] for h in healths),
        "engine.timeouts": sum(h["timeouts"] for h in healths),
        "engine.pool_rebuilds": sum(h["pool_rebuilds"] for h in healths),
        "engine.degradations": sum(len(h["degradations"]) for h in healths),
        "engine.phase1_s": None,
        "engine.phase2_s": None,
        "engine.cold_s": None,
        "engine.warm_s": None,
    }
    if stats:
        cold, warm = healths
        out.update({
            "engine.phase1_s": sum(h["phase1_seconds"] for h in healths),
            "engine.phase2_s": sum(h["phase2_seconds"] for h in healths),
            "engine.cold_s": cold["wall_seconds"],
            "engine.warm_s": warm["wall_seconds"],
        })
    return out


def measure_layers(workload, seed: int, seconds: float, checker: Checker,
                   clock: Clock, work: Path) -> dict:
    """Rounds of an untraced, a traced and (for the probe workload) a
    probe-free iteration for ``seconds``, then the reference oracle;
    report the split of the median traced iteration and write the trace
    file. Ratios are taken within each round of adjacent iterations, so
    that host drift cancels."""
    from layers import Tracer

    first = workload.run(seed)
    checker.check(first, what="warm-up")
    bare_first = workload.bare(seed) if workload.bare_steps else None
    tracer = Tracer(work / "spool")

    def traced(seed: int):
        with tracer.iteration(len(rows)):
            return workload.run(seed)

    rows: List[tuple] = []
    stats = []
    deadline = time.perf_counter() + seconds
    while not rows or time.perf_counter() < deadline:
        _, untraced = _timed(clock, checker, workload.run, seed, first)
        it, traced_s = _timed(clock, checker, traced, seed, first,
                              "traced iteration")
        stats.append((first if it is None else it).stats)
        row = (untraced, traced_s)
        if workload.bare_steps:
            row += (_timed(clock, checker, workload.bare, seed, bare_first,
                           "bare")[1],)
        rows.append(row)
    checker.run(workload.run, seed, engine="reference", expected=first,
                what="oracle")

    def ratio(a: int, b: int) -> float:
        return statistics.median(r[a].scaled / r[b].scaled for r in rows)

    k = sorted(range(len(rows)), key=lambda i: rows[i][1].scaled)[
        (len(rows) - 1) // 2
    ]
    layers = tracer.self_times(k)
    calls = tracer.packet_calls(k)
    layers.update({
        "bench.traced_wall_s": tracer.wall(k),
        "bench.trace_overhead": ratio(1, 0),
        "hmc.submit_calls": calls,
        "hmc.ns_per_submit": (
            layers["hmc.submit_s"] / calls * 1e9 if calls else 0.0
        ),
        "telemetry.observe_ratio": (
            ratio(0, 2) if workload.bare_steps else None
        ),
    })
    # Every checked iteration equals ``first``, so its ratios are theirs.
    layers.update(_result_ratios(first))
    layers.update(_suite_stats(stats[k]))
    _write_trace(tracer, k, workload.name, seed, checker)
    layers["samples"] = {"rounds": [_rows(r) for r in rows]}
    return layers


def _write_trace(tracer, k: int, name: str, seed: int,
                 checker: Checker) -> None:
    """Write the traced iterations as Chrome trace-event JSON, then read
    the file back and validate it."""
    from repro.telemetry.perfetto import validate_trace_events

    path = OUT_DIR / f"trace-{name}.json"
    doc = {
        "traceEvents": tracer.trace_events(),
        "displayTimeUnit": "ms",
        "otherData": {"workload": name, "seed": seed, "median_iteration": k},
    }
    path.write_text(json.dumps(doc))
    problems = validate_trace_events(json.loads(path.read_text()))
    if problems:
        checker.fail(1, f"{path}: {problems[:3]}")
    print(f"trace written to {path.relative_to(ROOT)}")


# --------------------------------------------------------------------- #
# reporting


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def _print_metrics(workload: str, metrics: Dict[str, object],
                   units: Dict[str, str]) -> None:
    for name, value in metrics.items():
        print(f"{workload:<18} {name:<26} {_fmt(value):>14} {units[name]}")


def run_one(args, work: Path) -> int:
    """One workload, one mode; prints the result line last."""
    from workloads import WORKLOADS

    spec = load_spec()
    workload = WORKLOADS[args.workload]
    checker = Checker()
    with HostGauge(workload.cores) as gauge:
        clock = Clock(gauge)
        if args.trace:
            values = measure_layers(workload, args.seed, args.seconds,
                                    checker, clock, work)
            listed, units = spec["per_layer"], PER_LAYER_UNITS
        else:
            values = measure_end_to_end(workload, args.seed, args.seconds,
                                        checker, clock)
            values["failed_frac"] = checker.failed / max(1, checker.attempted)
            listed, units = spec["end_to_end"], E2E_UNITS
    _print_metrics(workload.name, {k: values[k] for k in units}, units)
    for note in checker.notes:
        print(f"MISMATCH {note}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": workload.name, "seed": args.seed,
            "trace": args.trace, "attempted": checker.attempted,
            "failed": checker.failed, "notes": checker.notes,
            "values": values,
        }))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed
        },
    }))
    return 0 if checker.failed == 0 else 1


def _child(name: str, seed: int, seconds: float, trace: int,
           out: Path) -> dict:
    """Run one workload in a fresh interpreter; returns its ``--out``."""
    proc = subprocess.run(
        [sys.executable, str(PERF / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace), "--out", str(out)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        text=True,
    )
    if not out.is_file():
        print(proc.stdout)
        raise RuntimeError(f"{name} --trace {trace}: exit {proc.returncode}")
    return json.loads(out.read_text())


def run_all(args, work: Path) -> int:
    """Every workload through :func:`run_one` in fresh children:
    interleaved rounds of ``--trace 0`` runs, then one ``--trace 1`` run
    each."""
    from workloads import WORKLOADS

    rounds = args.rounds or (1 if args.quick else FULL_ROUNDS)
    seconds = 0 if args.quick else args.seconds
    names = list(WORKLOADS)
    runs: Dict[str, List[dict]] = {n: [] for n in names}
    for r in range(rounds):
        for name in names[r % len(names):] + names[:r % len(names)]:
            runs[name].append(
                _child(name, args.seed, seconds, 0, work / f"{name}-{r}.json")
            )
    layers = {
        n: _child(n, args.seed, seconds, 1, work / f"{n}-trace.json")
        for n in names
    }

    # Set-up does not depend on the workload: every row shows the
    # summary over every run.
    setup = _summary(
        [p["values"]["setup_s"] for n in names for p in runs[n]],
        E2E_UNITS["setup_s"],
    )
    report = {"seed": args.seed, "rounds": rounds, "seconds": seconds,
              "workloads": {}}
    any_failed = False
    for name in names:
        parts = runs[name] + [layers[name]]
        attempted = sum(p["attempted"] for p in parts)
        failed = sum(p["failed"] for p in parts)
        any_failed |= failed > 0
        row = {
            m: setup if m == "setup_s" else _summary(
                [p["values"][m] for p in runs[name]], unit
            )
            for m, unit in E2E_UNITS.items() if m != "failed_frac"
        }
        row["failed_frac"] = {
            "value": failed / attempted, "unit": "fraction",
            "attempted": attempted, "failed": failed,
        }
        per_layer = {k: layers[name]["values"][k] for k in PER_LAYER_UNITS}
        report["workloads"][name] = {
            "end_to_end": row, "per_layer": per_layer,
            "runs": [p["values"] for p in runs[name]],
            "traced_run": layers[name]["values"],
        }
        _print_metrics(name, {k: v["value"] for k, v in row.items()},
                       E2E_UNITS)
        _print_metrics(name, per_layer, PER_LAYER_UNITS)
        for part in parts:
            for note in part["notes"]:
                print(f"MISMATCH {name}: {note}")
    out = Path(args.out) if args.out else OUT_DIR / "run.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1))
    print(f"report written to {out}")
    return 1 if any_failed else 0


def _parse(argv) -> argparse.Namespace:
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS),
                   help="run one workload (default: all of them)")
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--seconds", type=float, default=None,
                   help="measured seconds of each run "
                        "(default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: report the per-layer split instead")
    p.add_argument("--rounds", type=int, default=None,
                   help=f"--trace 0 runs per workload without --workload "
                        f"(default {FULL_ROUNDS})")
    p.add_argument("--quick", action="store_true",
                   help="one round, one timed iteration per run")
    p.add_argument("--out", help="write the detailed report here")
    args = p.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    _import_repro()
    _adopt_orphans()
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    with _scrubbed_environ(work):
        try:
            if args.workload:
                return run_one(args, work)
            return run_all(args, work)
        finally:
            _stop_children()
            shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: ``python -m pytest perf -q``.

They stay outside the tier-1 ``testpaths``: the ``--quick`` run below
takes a couple of minutes.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import subprocess
import sys

import pytest

import compare
import hostprobe
import layers
import run
import workloads

run._import_repro()

SPEC = run.load_spec()


def _gs_iteration(seed: int, engine: str = "auto"):
    from repro.engine.driver import run_comparison

    trio = run_comparison("gs", n_accesses=3000, seed=seed,
                          use_artifact_cache=False, engine=engine)
    return workloads.Iteration({k.value: r for k, r in trio.items()})


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    out = tmp_path_factory.mktemp("quick") / "report.json"
    proc = subprocess.run(
        [sys.executable, str(run.PERF / "run.py"), "--quick", "--out",
         str(out)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(out.read_text())


def test_traced_self_times_sum_to_iteration_wall(tmp_path):
    tracer = layers.Tracer(tmp_path)
    for i in range(2):
        with tracer.iteration(i) as root:
            _gs_iteration(1)
        times = tracer.self_times(i)
        wall = root.end - root.start
        assert sum(times.values()) == pytest.approx(wall, rel=1e-9)
        for metric in ("workloads.generate_s", "mem.translate_s",
                       "cache.process_s", "core.pac_process_s",
                       "mshr.none_process_s", "mshr.dmc_process_s",
                       "hmc.submit_s", "engine.system_init_s",
                       "engine.build_result_s", "engine.glue_s"):
            assert times[metric] > 0, metric
        assert tracer.packet_calls(i) > 0


def test_quick_report_summarises_the_workload_runs(quick):
    _, report = quick
    rows = report["workloads"].values()
    for row in rows:
        for metric in SPEC["end_to_end"]:
            m = metric["name"]
            runs = (
                [r for other in rows for r in other["runs"]]
                if m == "setup_s" else row["runs"]
            )
            assert row["end_to_end"][m]["samples"] == [r[m] for r in runs], m


def test_quick_report_layers_sum_to_traced_wall(quick):
    _, report = quick
    for name in ("compare-irregular", "single-regular", "observed"):
        values = report["workloads"][name]["per_layer"]
        assert sum(values[m] for m in layers.SPAN_METRICS) == pytest.approx(
            values["bench.traced_wall_s"], rel=0.01
        ), name


def _owners():
    for module, cls, attr, _ in layers.TARGETS:
        owner = importlib.import_module(module)
        yield (getattr(owner, cls) if cls else owner), attr


def test_wrapped_attributes_are_restored(tmp_path):
    before = [vars(owner)[attr] for owner, attr in _owners()]
    tracer = layers.Tracer(tmp_path)
    with pytest.raises(RuntimeError):
        with tracer.iteration(0):
            assert all(
                vars(owner)[attr] is not orig
                for (owner, attr), orig in zip(_owners(), before)
            )
            _gs_iteration(1)
            raise RuntimeError("abort the traced iteration")
    after = [vars(owner)[attr] for owner, attr in _owners()]
    assert all(a is b for a, b in zip(after, before))


def test_host_gauge_stops_its_helper():
    with hostprobe.HostGauge(2) as gauge:
        assert gauge.probe() > 0
        helper = gauge._helper
    assert helper.poll() == 0


_LEFT_RUNNING = """
import subprocess, sys, time
from multiprocessing import resource_tracker, shared_memory
import run

run._adopt_orphans()
segment = shared_memory.SharedMemory(create=True, size=1)
segment.close()
segment.unlink()
sleeper = [sys.executable, "-c", "import time; time.sleep(60)"]
subprocess.Popen(sleeper)
# A child that starts a grandchild and exits, leaving an orphan.
subprocess.run([sys.executable, "-c",
                f"import subprocess; subprocess.Popen({sleeper!r})"])
time.sleep(0.2)
assert len(run._child_pids()) == 3, run._child_pids()
run._stop_children()
assert run._child_pids() == [], run._child_pids()
assert resource_tracker._resource_tracker._pid is None
"""


def test_run_stops_every_process_it_started():
    # The shared-memory resource tracker, a running child and an
    # adopted orphan are all stopped and waited for.
    proc = subprocess.run(
        [sys.executable, "-c", _LEFT_RUNNING], cwd=run.PERF,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


class _FakeGauge:
    def __init__(self, probes):
        self.probes = iter(probes)

    def probe(self):
        return next(self.probes)


def test_clock_brackets_each_call_with_shared_probes():
    clock = hostprobe.Clock(_FakeGauge([0.15, 0.30, 0.31]))
    out, first = clock.time(lambda x: x + 1, 1)
    _, second = clock.time(lambda: None)
    assert out == 2
    assert (first.before, first.after) == (0.15, 0.30)
    assert (second.before, second.after) == (0.30, 0.31)
    assert second.scaled == pytest.approx(
        second.wall * hostprobe.PROBE_REF_S / 0.305
    )


def test_one_noisy_probe_does_not_move_the_median():
    # A probe read twice as slow as the host ran halves the rescaled
    # walls of the two calls beside it; the median of five ignores them.
    probes = [0.15, 0.15, 0.30, 0.15, 0.15, 0.15]
    samples = [hostprobe.Sample(1.0, b, a) for b, a in zip(probes, probes[1:])]
    assert [s.scaled for s in samples][1:3] == pytest.approx([2 / 3, 2 / 3])
    assert hostprobe.median_scaled(samples) == pytest.approx(1.0)


def test_quick_output_names_every_metric_with_its_unit(quick):
    stdout, _ = quick
    printed = {
        (parts[0], parts[1]): parts[3]
        for parts in (line.split() for line in stdout.splitlines())
        if len(parts) == 4
    }
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            key = (workload["name"], metric["name"])
            assert printed.get(key) == metric["unit"], key


def test_mismatching_result_fails_the_run(monkeypatch, capsys):
    def mismatching(seed, engine="auto"):
        it = _gs_iteration(seed, engine)
        if engine == "reference":
            pac = it.results["pac"]
            it.results["pac"] = dataclasses.replace(
                pac, n_issued=pac.n_issued + 1
            )
        return it

    monkeypatch.setitem(workloads.WORKLOADS, "tiny",
                        workloads.Workload("tiny", (mismatching,)))
    code = run.main(["--workload", "tiny", "--seconds", "0", "--trace", "0"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert any("field 'n_issued'" in line for line in lines)


def _summary(samples):
    return run._summary(samples, "req/s")


@pytest.mark.parametrize("a, b, bound, better, expected", [
    ([100, 101, 99, 100], [100, 99, 101, 100], 0.1, "higher", "ok"),
    ([100, 101, 99, 100], [80, 81, 79, 80], 0.1, "higher", "regressed"),
    ([100, 101, 99, 100], [120, 121, 119, 120], 0.1, "higher", "ok"),
    ([1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], 0.1, "lower",
     "regressed"),
    ([100, 60, 140, 100], [95, 55, 135, 95], 0.1, "higher", "unresolved"),
    ([100, 60, 140, 100], [200, 210, 190, 205], 0.1, "higher", "ok"),
    # Spread 0.15 over five runs: wider than the bound, however many runs.
    ([90, 95, 100, 105, 110], [88, 93, 98, 103, 108], 0.1, "higher",
     "unresolved"),
])
def test_compare_verdicts(a, b, bound, better, expected):
    assert compare.verdict(_summary(a), _summary(b), bound, better)[0] \
        == expected


def test_compare_rows_and_exit_code(tmp_path, capsys):
    def report(rate, failed):
        e2e = {
            m["name"]: _summary([1.0, 1.0, 1.0]) for m in SPEC["end_to_end"]
        }
        e2e["raw_req_per_s"] = _summary([rate] * 3)
        e2e["failed_frac"] = {"value": failed, "unit": "fraction"}
        return {"workloads": {"w": {"end_to_end": e2e}}}

    paths = []
    for i, (rate, failed) in enumerate([(100.0, 0.0), (100.0, 0.1)]):
        paths.append(tmp_path / f"{i}.json")
        paths[-1].write_text(json.dumps(report(rate, failed)))
    verdicts = {
        r["metric"]: r["verdict"]
        for r in compare.rows(*(json.loads(p.read_text()) for p in paths),
                              SPEC)
    }
    assert verdicts == {
        **{m["name"]: "ok" for m in SPEC["end_to_end"]},
        "failed_frac": "regressed",
    }
    assert compare.main([str(p) for p in paths]) == 1
    assert compare.main([str(paths[0]), str(paths[0])]) == 0
    assert "regressed" in capsys.readouterr().out

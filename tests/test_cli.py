"""Tests for the ``python -m repro`` command-line interface."""

import json

import numpy as np
import pytest

from repro.__main__ import main
from repro.experiments.registry import FIGURES, REGISTRY, Runs
from repro.experiments.reporting import render_table
from repro.mem.trace import AccessTrace


class TestConfigCommand:
    def test_config_prints_table1(self, capsys):
        assert main(["config"]) == 0
        out = capsys.readouterr().out
        assert "Coalescing Streams" in out
        assert "93 ns" in out


class TestRunCommands:
    def test_run(self, capsys):
        assert main(["--accesses", "2000", "run", "gs"]) == 0
        out = capsys.readouterr().out
        assert "coalescing_efficiency" in out

    def test_run_ddr_rejected_but_hbm_ok(self, capsys):
        assert main(
            ["--accesses", "2000", "run", "stream", "--device", "hbm"]
        ) == 0

    def test_run_json_output(self, capsys):
        import json

        assert main(["--accesses", "2000", "run", "gs", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["coalescer"] == "pac"
        assert "energy_pj_by_category" in payload
        assert "cache" in payload
        assert 0 <= payload["cache"]["l1_hit_rate"] <= 1

    def test_run_with_scale_class(self, capsys):
        assert main(
            ["--accesses", "2000", "run", "gs", "--scale", "S"]
        ) == 0

    @pytest.mark.parametrize("scale", ["Q", "-1", "inf", "nan"])
    def test_bad_scale_is_a_usage_error(self, scale, capsys):
        """Like ``--jobs 0``: exit 2 with a message naming the flag,
        before anything runs."""
        with pytest.raises(SystemExit) as exc:
            main(["--accesses", "500", "run", "gs", f"--scale={scale}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--scale" in err and "Traceback" not in err

    def test_compare(self, capsys):
        assert main(["--accesses", "2000", "compare", "bfs"]) == 0
        out = capsys.readouterr().out
        for arm in ("none", "dmc", "pac"):
            assert arm in out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "doom"])

    def test_reader_closing_the_pipe_is_quiet(self):
        """``repro ... | head -1``: once the reader has gone, the rest of
        the output is dropped, with no traceback. The output (~0.8 MB)
        outgrows the pipe buffer, so the CLI writes after the close."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(
            os.environ, REPRO_ARTIFACT_CACHE="0",
            PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]),
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "--accesses", "2000", "compare",
             "gs", "--json", "--telemetry", "--spans"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=300) == 1
        assert first == b"{\n"
        assert "Traceback" not in err and "BrokenPipeError" not in err, err

    @pytest.mark.parametrize("env, text", [
        ("REPRO_MAX_RETRIES", "three"),
        ("REPRO_JOB_TIMEOUT", "soon"),
    ])
    def test_bad_supervision_variable_is_a_usage_error(
        self, monkeypatch, capsys, env, text
    ):
        """Like ``--jobs 0``: exit 2 with a one-line message naming the
        variable, not a traceback."""
        monkeypatch.setenv(env, text)
        with pytest.raises(SystemExit) as exc:
            main(["--accesses", "500", "compare", "gs"])
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == f"repro: error: ${env} must be " + (
            "an integer" if env == "REPRO_MAX_RETRIES" else "a number"
        ) + f", got {text!r}"

    def test_figure_11a(self, capsys):
        assert main(["figure", "11a"]) == 0
        out = capsys.readouterr().out
        assert "672" in out  # bitonic at N=64

    def test_every_paper_figure_registered(self):
        expected = {
            "1", "2", "6a", "6b", "6c", "7", "8", "10a", "10b", "10c",
            "11a", "11b", "11c", "12a", "12b", "12c", "13", "14", "15",
        }
        assert expected <= {e.id for e in FIGURES}

    def test_ablation_honours_seed(self, capsys):
        entry = REGISTRY["timeout"]
        assert main(["--accesses", "2000", "--seed", "7",
                     "ablation", "timeout"]) == 0
        out = capsys.readouterr().out
        seeded = render_table(entry.rows(Runs(2000, seed=7)),
                              title=entry.title)
        assert out == seeded + "\n"
        assert seeded != render_table(entry.rows(Runs(2000)),
                                      title=entry.title)


class TestBenchCommand:
    ARGS = ["bench", "--benchmarks", "gs", "--accesses", "1500",
            "--repeats", "1", "--warmup", "0"]

    def test_report_gates_against_itself(self, tmp_path, capsys):
        from repro.bench import SPEEDUPS, STAGES

        out = tmp_path / "BENCH_t.json"
        assert main(
            [*self.ARGS, "--out", str(out), "--baseline", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro-bench/5"
        assert "phases" not in doc
        suite = doc["suite"]
        assert suite["bit_identical"]
        for gone in ("legacy", "speedup_cold", "speedup_warm"):
            assert gone not in suite, gone
        assert suite["artifact_cache"]["warm"]["hits"] == 1
        legs = doc["stages"]["gs"]
        for stage in STAGES:
            for leg in (stage, f"{stage}_reference"):
                assert legs[leg]["seconds"] > 0, leg
        for name in SPEEDUPS:
            assert doc["totals"][f"{name}_stage_speedup"] > 0, name
        assert "OK vs" in capsys.readouterr().out

    def test_profile_writes_every_stage(self, tmp_path, capsys):
        from repro.bench.profiler import PROFILE_STAGES

        out = tmp_path / "PROFILE_t.json"
        assert main([*self.ARGS, "--profile", "--out", str(out)]) == 0
        profiles = json.loads(out.read_text())["profiles"]["gs"]
        assert list(profiles) == list(PROFILE_STAGES)


class TestTraceCommand:
    def test_export_raw_stream(self, tmp_path, capsys):
        path = tmp_path / "gs_raw.npz"
        assert main(
            ["--accesses", "2000", "trace", "gs", str(path)]
        ) == 0
        loaded = AccessTrace.load(path)
        assert len(loaded) > 0
        assert np.all(loaded.sizes > 0)

    def test_export_cpu_trace(self, tmp_path):
        path = tmp_path / "gs_cpu.npz"
        assert main(
            ["--accesses", "2000", "trace", "gs", str(path),
             "--stage", "cpu"]
        ) == 0
        loaded = AccessTrace.load(path)
        assert len(loaded) == 2000

    def _cpu_trace(self, tmp_path, global_args, sub_args=()):
        """``repro [global_args] trace gs PATH --stage cpu [sub_args]``."""
        path = tmp_path / f"t{len(list(tmp_path.iterdir()))}.npz"
        argv = [*global_args, "trace", "gs", str(path), "--stage", "cpu"]
        assert main([*argv, *sub_args]) == 0
        return AccessTrace.load(path)

    def test_subcommand_overrides_win_over_globals(self, tmp_path):
        both = self._cpu_trace(
            tmp_path, ["--accesses", "900", "--seed", "3"],
            ["--accesses", "700", "--seed", "4"],
        )
        same_as_global = self._cpu_trace(
            tmp_path, ["--accesses", "700", "--seed", "4"]
        )
        assert len(both) == 700
        np.testing.assert_array_equal(both.addrs, same_as_global.addrs)

    def test_globals_apply_without_subcommand_overrides(self, tmp_path):
        seed3 = self._cpu_trace(tmp_path, ["--accesses", "900", "--seed", "3"])
        seed4 = self._cpu_trace(tmp_path, ["--accesses", "900", "--seed", "4"])
        assert len(seed3) == len(seed4) == 900
        assert not np.array_equal(seed3.addrs, seed4.addrs)

    def test_timeline_mode_without_output_path(self, capsys):
        assert main(["trace", "gs", "--accesses", "2000"]) == 0
        out = capsys.readouterr().out
        for column in ("maq_occ_mean", "bank_conflicts", "bypass_rate"):
            assert column in out
        assert "windows x 1024 cycles" in out

    def test_timeline_mode_csv_and_json_export(self, tmp_path, capsys):
        csv_path = tmp_path / "probes.csv"
        json_path = tmp_path / "probes.json"
        assert main(
            ["trace", "gs", "--accesses", "2000", "--window", "512",
             "--csv", str(csv_path), "--json", str(json_path)]
        ) == 0
        lines = csv_path.read_text().splitlines()
        meta_lines = [ln for ln in lines if ln.startswith("# ")]
        assert any(ln.startswith("# benchmark=gs") for ln in meta_lines)
        assert any(ln.startswith("# seed=") for ln in meta_lines)
        assert any(ln.startswith("# config_hash=") for ln in meta_lines)
        header = lines[len(meta_lines)]
        assert header.startswith("probe,kind,window,start_cycle")
        payload = json.loads(json_path.read_text())
        assert payload["window_cycles"] == 512
        assert "device.packets" in payload["probes"]
        assert payload["meta"]["benchmark"] == "gs"
        assert payload["meta"]["window_cycles"] == 512

    def test_timeline_mode_other_arms(self, capsys):
        assert main(
            ["trace", "gs", "--accesses", "1000", "--coalescer", "dmc"]
        ) == 0
        assert "gs / dmc" in capsys.readouterr().out

    def test_timeline_mode_gauge_percentiles_footer(self, capsys):
        assert main(["trace", "gs", "--accesses", "2000"]) == 0
        out = capsys.readouterr().out
        assert "gauge percentiles" in out
        for column in ("p50", "p95", "p99"):
            assert column in out


class TestSpansCommand:
    def test_attribution_table_prints(self, capsys):
        assert main(
            ["spans", "stream", "--accesses", "2000", "--sample-rate", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "cycles per stage" in out
        for stage in ("queue", "network", "maq", "device", "end-to-end"):
            assert stage in out

    def test_perfetto_and_csv_export(self, tmp_path, capsys):
        from repro.telemetry import validate_trace_events

        json_path = tmp_path / "spans.json"
        csv_path = tmp_path / "spans.csv"
        assert main(
            ["spans", "stream", "--accesses", "2000", "--sample-rate", "8",
             "--perfetto", str(json_path), "--csv", str(csv_path),
             "--top-k", "3"]
        ) == 0
        doc = json.loads(json_path.read_text())
        assert validate_trace_events(doc) == []
        assert doc["otherData"]["benchmark"] == "stream"
        lines = csv_path.read_text().splitlines()
        assert any(ln.startswith("# benchmark=stream") for ln in lines)
        assert "slowest tracked requests" in capsys.readouterr().out

    def test_all_benchmarks_loop(self, capsys):
        assert main(
            ["spans", "all", "--accesses", "500", "--sample-rate", "32"]
        ) == 0
        out = capsys.readouterr().out
        from repro.workloads import BENCHMARK_NAMES

        for name in BENCHMARK_NAMES:
            assert f"{name} / pac" in out

    def test_exports_rejected_for_all(self, capsys):
        with pytest.raises(SystemExit):
            main(
                ["spans", "all", "--accesses", "500",
                 "--perfetto", "/tmp/never.json"]
            )

    def test_bad_sample_rate_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["spans", "gs", "--sample-rate", "0", "--accesses", "500"])

    def test_sorting_network_arm_rejected(self, capsys):
        # The sortdmc arm records no spans: a usage error, not a table
        # of zeros.
        with pytest.raises(SystemExit) as exc:
            main(["--accesses", "500", "spans", "gs",
                  "--coalescer", "sortdmc"])
        assert exc.value.code == 2
        assert "sortdmc" in capsys.readouterr().err


class TestObservabilityCommands:
    """``--events`` / ``--ledger`` globals plus runs/diff/events."""

    def _record_twice(self, tmp_path, monkeypatch, capsys):
        """Two identical ledgered compares; returns (ledger_dir, ids)."""
        ledger_dir = tmp_path / "ledger"
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(ledger_dir))
        for _ in range(2):
            assert main(
                ["--accesses", "2000", "--ledger", str(ledger_dir),
                 "compare", "stream", "--spans"]
            ) == 0
        capsys.readouterr()
        ids = sorted(
            p.stem[len("run-"):] for p in ledger_dir.glob("run-*.json")
        )
        assert len(ids) == 2
        return ledger_dir, ids

    def test_compare_json(self, capsys):
        assert main(["--accesses", "2000", "compare", "stream", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"none", "dmc", "pac"}
        assert doc["pac"]["runtime_cycles"] > 0
        # A comparison is a grid run: every arm carries its health.
        assert doc["pac"]["health"]["jobs"] == 3
        assert doc["pac"]["health"]["healthy"]

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_is_a_usage_error(self, jobs, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--accesses", "500", "--jobs", jobs, "suite"])
        assert exc.value.code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_health_prints_one_table(self, capsys):
        assert main(
            ["--accesses", "500", "--jobs", "1", "health", "gs",
             "--coalescer", "pac"]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("health: gs / pac") == 1
        assert "health gauges" not in out
        assert "HEALTHY: 1/1 jobs" in out

    @pytest.mark.parametrize("flag,value", [
        ("--timeout", "0"), ("--timeout", "-1"), ("--max-retries", "-1"),
    ])
    def test_health_supervision_out_of_range_is_a_usage_error(
        self, flag, value, capsys
    ):
        with pytest.raises(SystemExit) as exc:
            main(["--accesses", "500", "--jobs", "1", "health", "gs",
                  "--coalescer", "pac", flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_health_faults_fire_at_one_worker(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv(
            "REPRO_FAULTS", "phase1.job:transient@0;phase2.job:transient@0"
        )
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE", "0")  # restored after
        path = tmp_path / "health.json"
        assert main(
            ["--no-artifact-cache", "--jobs", "1", "health", "gs",
             "--accesses", "2000", "--json", str(path)]
        ) == 0
        health = json.loads(path.read_text())["health"]
        assert health["healthy"] and health["faults_enabled"]
        assert health["retries"] == 2
        assert health["failures"] == ["phase1:gs:OSError", "gs/pac:OSError"]

    def test_suite_json(self, capsys):
        assert main(
            ["--accesses", "500", "--jobs", "2", "suite", "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert all("/" in label for label in doc)
        assert all(v["runtime_cycles"] > 0 for v in doc.values())

    def test_events_flag_writes_validatable_log(
        self, tmp_path, monkeypatch, capsys
    ):
        path = tmp_path / "ev.jsonl"
        monkeypatch.setenv("REPRO_EVENTS", str(path))
        assert main(
            ["--accesses", "2000", "--events", str(path), "run", "gs"]
        ) == 0
        capsys.readouterr()
        assert main(["events", str(path), "--validate"]) == 0
        assert "schema valid" in capsys.readouterr().out

    def test_events_table_and_json(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "ev.jsonl"
        monkeypatch.setenv("REPRO_EVENTS", str(path))
        assert main(
            ["--accesses", "2000", "--events", str(path), "run", "gs"]
        ) == 0
        capsys.readouterr()
        assert main(["events", str(path), "--kind", "run"]) == 0
        out = capsys.readouterr().out
        assert "run.start" in out and "run.end" in out
        assert main(["events", str(path), "--json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert all("kind" in d for d in docs)

    def test_events_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["events", str(tmp_path / "nope.jsonl")]) == 2

    def test_runs_list_and_show(self, tmp_path, monkeypatch, capsys):
        ledger_dir, ids = self._record_twice(tmp_path, monkeypatch, capsys)
        assert main(["runs", "--dir", str(ledger_dir)]) == 0
        out = capsys.readouterr().out
        for run_id in ids:
            assert run_id in out
        assert main(["runs", "show", ids[0], "--dir", str(ledger_dir)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["run_id"] == ids[0]
        assert doc["kind"] == "compare"

    def test_runs_json(self, tmp_path, monkeypatch, capsys):
        ledger_dir, ids = self._record_twice(tmp_path, monkeypatch, capsys)
        assert main(["runs", "--dir", str(ledger_dir), "--json"]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert [d["run_id"] for d in docs] == ids

    def test_runs_show_unknown_exits_1(self, tmp_path, capsys):
        (tmp_path / "ledger").mkdir()
        assert main(
            ["runs", "show", "zzz", "--dir", str(tmp_path / "ledger")]
        ) == 1

    def test_diff_self_is_gated_green(self, tmp_path, monkeypatch, capsys):
        ledger_dir, ids = self._record_twice(tmp_path, monkeypatch, capsys)
        assert main(
            ["diff", "--dir", str(ledger_dir), ids[0], ids[1],
             "--threshold", "0.0"]
        ) == 0
        out = capsys.readouterr().out
        assert "max relative regression" in out

    def test_diff_json_reports_zero_regression(
        self, tmp_path, monkeypatch, capsys
    ):
        ledger_dir, ids = self._record_twice(tmp_path, monkeypatch, capsys)
        assert main(
            ["diff", "--dir", str(ledger_dir), ids[0], ids[1], "--json"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["max_regression"] == 0.0
        assert doc["run_a"] == ids[0] and doc["run_b"] == ids[1]

    def test_diff_threshold_gates_regressions(
        self, tmp_path, monkeypatch, capsys
    ):
        ledger_dir, ids = self._record_twice(tmp_path, monkeypatch, capsys)
        # hand-craft a regressed copy of the second record
        path_b = sorted(ledger_dir.glob("run-*.json"))[1]
        doc = json.loads(path_b.read_text())
        for label in doc["metrics"]:
            doc["metrics"][label]["runtime_cycles"] *= 1.5
        regressed = tmp_path / "run-regressed.json"
        regressed.write_text(json.dumps(doc))
        assert main(
            ["diff", "--dir", str(ledger_dir), ids[0], str(regressed),
             "--threshold", "0.1"]
        ) == 1

    def test_diff_unknown_run_exits_2(self, tmp_path, capsys):
        (tmp_path / "ledger").mkdir()
        assert main(
            ["diff", "--dir", str(tmp_path / "ledger"), "aaa", "bbb"]
        ) == 2

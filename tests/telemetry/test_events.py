"""Tests for the structured event log (:mod:`repro.telemetry.events`)."""

from __future__ import annotations

import json

import pytest

from repro.engine.driver import run_benchmark, run_comparison
from repro.engine.parallel import run_suite_parallel
from repro.telemetry import events as ev


class TestEventLog:
    def test_null_log_is_the_default(self):
        assert ev.active() is ev.NULL_EVENTS
        assert not ev.active().enabled

    def test_null_log_emit_is_a_noop(self):
        ev.NULL_EVENTS.emit(ev.RunStarted(
            benchmark="gs", coalescer="pac", n_accesses=1,
            seed=None, device="hmc",
        ))
        assert ev.NULL_EVENTS.records == []

    def test_emit_assigns_monotonic_seq(self):
        log = ev.EventLog()
        for i in range(3):
            log.emit(ev.JobCompleted(label=f"j{i}"))
        assert [doc["seq"] for doc in log.records] == [0, 1, 2]

    def test_envelope_and_payload_shape(self):
        log = ev.EventLog()
        log.emit(ev.CacheHit(artifact="trace", key="abc"))
        (doc,) = log.records
        for key in ev.ENVELOPE_KEYS:
            assert key in doc
        assert doc["kind"] == "cache.hit"
        assert doc["artifact"] == "trace"
        assert doc["key"] == "abc"

    def test_file_sink_is_jsonl(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        log = ev.EventLog(path)
        log.emit(ev.PhaseStarted(phase="phase1", jobs=2))
        log.emit(ev.PhaseCompleted(phase="phase1", completed=2))
        docs = [json.loads(line) for line in path.read_text().splitlines()]
        assert [d["kind"] for d in docs] == ["phase.start", "phase.end"]
        assert ev.validate_events(docs) == []

    def test_read_events_round_trip(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        log = ev.EventLog(path)
        log.emit(ev.Demoted(rung="shm->per-job", label="gs"))
        docs = ev.read_events(path)
        assert len(docs) == 1
        assert docs[0]["rung"] == "shm->per-job"

    def test_validate_rejects_unknown_kind_and_bad_payload(self):
        good = ev.EventLog()
        good.emit(ev.JobCompleted(label="x"))
        (doc,) = good.records
        assert ev.validate_events([doc]) == []
        assert ev.validate_events([{**doc, "kind": "no.such"}])
        # payload field mismatch: extra key not in the event type
        assert ev.validate_events([{**doc, "bogus": 1}])
        # non-monotonic seq within one pid
        other = dict(doc)
        other["seq"] = doc["seq"]  # duplicate, not increasing
        assert ev.validate_events([doc, other])

    def test_envelope_carries_the_schema_version(self):
        log = ev.EventLog()
        log.emit(ev.JobCompleted(label="x"))
        assert log.records[0]["v"] == ev.SCHEMA_VERSION

    def test_older_log_is_reported_by_version_not_as_corrupt(self):
        """A log written before the version stamp (here a ``suite.start``
        that still carried the dropped ``pipeline`` field) is one
        version problem naming both versions, not a payload mismatch per
        event; an event stamped with another version likewise."""
        older = [
            {"seq": 0, "pid": 7, "ts": 1.0, "kind": "suite.start",
             "benchmarks": ["stream"], "arms": ["none", "dmc", "pac"],
             "jobs": 3, "workers": 1, "pipeline": "two-phase"},
            {"seq": 1, "pid": 7, "ts": 2.0, "kind": "suite.end",
             "jobs": 3, "completed": 3, "healthy": True},
        ]
        (problem,) = ev.validate_events(older)
        assert "payload mismatch" not in problem
        assert "schema version none" in problem
        assert f"checks version {ev.SCHEMA_VERSION}" in problem
        newer = [{**doc, "v": ev.SCHEMA_VERSION + 1} for doc in older]
        (problem,) = ev.validate_events(newer)
        assert f"schema version {ev.SCHEMA_VERSION + 1}" in problem

    def test_installed_scopes_and_restores(self):
        log = ev.EventLog()
        with ev.installed(log) as active_log:
            assert active_log is log
            assert ev.active() is log
        assert ev.active() is ev.NULL_EVENTS

    def test_env_auto_install(self, tmp_path, monkeypatch):
        path = tmp_path / "auto.jsonl"
        monkeypatch.setenv(ev.ENV_EVENTS, str(path))
        ev.reset_active()
        log = ev.active()
        assert log.enabled
        log.emit(ev.JobCompleted(label="env"))
        assert path.exists()


class TestDriverEvents:
    N = 2000

    def test_run_emits_start_and_end(self):
        log = ev.EventLog()
        with ev.installed(log):
            run_benchmark("gs", n_accesses=self.N)
        kinds = [d["kind"] for d in log.records]
        assert kinds == ["run.start", "run.end"]
        start, end = log.records
        assert start["benchmark"] == "gs"
        assert start["coalescer"] == "pac"
        assert end["n_raw"] > 0 and end["runtime_cycles"] > 0

    def test_events_have_no_observer_effect(self):
        base = run_benchmark("gs", n_accesses=self.N)
        with ev.installed(ev.EventLog()):
            logged = run_benchmark("gs", n_accesses=self.N)
        assert logged == base

    def test_comparison_emits_per_arm_and_cache_events(self):
        """``run_comparison`` is a view of the grid runner: one suite
        bracket around one run bracket per arm, and on a cold store one
        lookup miss, for the pass artifact."""
        log = ev.EventLog()
        with ev.installed(log):
            run_comparison("stream", n_accesses=self.N)
        kinds = [d["kind"] for d in log.records]
        assert kinds[0] == "suite.start" and kinds[-1] == "suite.end"
        assert kinds.count("suite.start") == kinds.count("suite.end") == 1
        assert kinds.count("run.start") == kinds.count("run.end") == 3
        misses = [
            d["artifact"] for d in log.records if d["kind"] == "cache.miss"
        ]
        assert misses == ["pass"]
        assert ev.validate_events(log.records) == []


class TestSuiteEvents:
    def test_suite_emits_phases_and_jobs(self, tmp_path):
        path = tmp_path / "suite.jsonl"
        with ev.EventLog(path) as log, ev.installed(log):
            results = run_suite_parallel(
                benchmarks=("gs", "stream"),
                n_accesses=1000,
                max_workers=2,
            )
        assert len(results) == 6
        docs = ev.read_events(path)
        assert ev.validate_events(docs) == []
        kinds = [d["kind"] for d in docs]
        assert kinds[0] == "suite.start"
        assert kinds[-1] == "suite.end"
        assert "phase.start" in kinds and "phase.end" in kinds
        # phase-1 per-benchmark passes and phase-2 arm jobs both complete
        assert kinds.count("job.done") >= 6
        # Pool workers inherit the log and bracket each arm they run.
        for kind in ("run.start", "run.end"):
            arms = sorted(
                (d["benchmark"], d["coalescer"])
                for d in docs if d["kind"] == kind
            )
            assert arms == sorted(results), kind

    def test_suite_faults_emit_retry_events(self, tmp_path):
        path = tmp_path / "faulted.jsonl"
        with ev.EventLog(path) as log, ev.installed(log):
            results = run_suite_parallel(
                benchmarks=("gs",),
                n_accesses=1000,
                max_workers=2,
                faults="phase2.job:transient@0",
            )
        assert len(results) == 3
        docs = ev.read_events(path)
        assert ev.validate_events(docs) == []
        kinds = [d["kind"] for d in docs]
        assert "job.fail" in kinds
        assert "job.retry" in kinds

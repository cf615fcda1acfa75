"""Tests for the persistent run ledger and regression attribution."""

from __future__ import annotations

import json

import pytest

from repro import ledger
from repro.config import TABLE1
from repro.engine.driver import run_comparison
from repro.ledger.diff import diff_runs

N = 2000


@pytest.fixture(scope="module")
def comparison():
    """One spans+telemetry comparison shared by every ledger test."""
    return run_comparison("stream", n_accesses=N, telemetry=True, spans=True)


def _record(comparison, wall=1.0):
    return ledger.build_record(
        comparison, kind="compare", config=TABLE1,
        n_accesses=N, seed=None, wall_seconds=wall,
    )


class TestLedgerGating:
    def test_disabled_without_env(self):
        assert ledger.ledger_dir() is None

    def test_record_run_is_a_noop_when_disabled(self, comparison):
        record = _record(comparison)
        assert ledger.record_run(record) is None

    def test_env_enables(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ledger.ENV_LEDGER_DIR, str(tmp_path / "ledger"))
        assert ledger.ledger_dir() == tmp_path / "ledger"


class TestRunRecord:
    def test_labels_and_metrics(self, comparison):
        record = _record(comparison)
        assert record.kind == "compare"
        assert record.benchmarks == ["stream"]
        assert sorted(record.arms) == ["dmc", "none", "pac"]
        for label in ("stream/none", "stream/dmc", "stream/pac"):
            assert label in record.metrics
            assert record.metrics[label]["runtime_cycles"] > 0
            assert label in record.stages
            assert label in record.counters

    def test_content_digest_excludes_envelope(self, comparison):
        a = _record(comparison, wall=1.0)
        b = _record(comparison, wall=99.0)
        assert a.content_digest() == b.content_digest()
        assert a.throughput != b.throughput

    def test_stage_means_partition_e2e(self, comparison):
        record = _record(comparison)
        for label, digest in record.stages.items():
            total = sum(s["mean"] for s in digest["stages"].values())
            assert total == pytest.approx(
                digest["end_to_end"]["mean"], abs=1e-9
            ), label

    def test_git_fingerprint_is_attributable(self):
        fp = ledger.git_fingerprint()
        assert fp
        # either a git revision or the code-fingerprint fallback
        assert fp.startswith("code:") or len(fp.split("-")[0]) == 12


class TestPersistence:
    def test_record_list_load_round_trip(self, comparison, tmp_path):
        record = _record(comparison)
        path = ledger.record_run(record, root=tmp_path)
        assert path is not None and path.is_file()
        runs = ledger.list_runs(tmp_path)
        assert len(runs) == 1
        assert runs[0]["run_id"] == record.run_id
        loaded = ledger.load_run(record.run_id, root=tmp_path)
        assert loaded["content_digest"] == record.content_digest()

    def test_collisions_get_suffixes(self, comparison, tmp_path):
        a, b = _record(comparison), _record(comparison)
        b.run_id = a.run_id  # force the collision
        ledger.record_run(a, root=tmp_path)
        ledger.record_run(b, root=tmp_path)
        ids = [d["run_id"] for d in ledger.list_runs(tmp_path)]
        assert len(set(ids)) == 2

    def test_load_by_prefix_and_errors(self, comparison, tmp_path):
        record = _record(comparison)
        ledger.record_run(record, root=tmp_path)
        assert (
            ledger.load_run(record.run_id[:10], root=tmp_path)["run_id"]
            == record.run_id
        )
        with pytest.raises(FileNotFoundError):
            ledger.load_run("zzz-no-such", root=tmp_path)

    def test_unparseable_records_are_skipped(self, tmp_path):
        (tmp_path / "run-broken.json").write_text("{not json")
        assert ledger.list_runs(tmp_path) == []


class TestDiff:
    def test_self_diff_is_exactly_zero(self, comparison):
        doc = _record(comparison).as_dict()
        report = diff_runs(doc, doc)
        assert report.max_regression == 0.0
        assert report.warnings == []
        for row in report.metrics:
            assert row["delta"] == 0.0

    def test_stage_contributions_sum_to_e2e_delta(self, comparison):
        a = _record(comparison).as_dict()
        b = json.loads(json.dumps(a))
        # simulate a queue-stage regression on one arm
        dig = b["stages"]["stream/pac"]
        dig["stages"]["queue"]["mean"] += 100.0
        dig["end_to_end"]["mean"] += 100.0
        report = diff_runs(a, b)
        entry = next(
            e for e in report.attribution if e["label"] == "stream/pac"
        )
        stage_sum = sum(s["delta"] for s in entry["stages"])
        assert stage_sum == pytest.approx(entry["e2e"]["delta"], abs=1e-9)
        contrib_sum = sum(s["contribution"] for s in entry["stages"])
        assert contrib_sum == pytest.approx(1.0, abs=1e-9)
        # the regressing stage ranks first
        assert entry["stages"][0]["stage"] == "queue"

    def test_threshold_gate_catches_regressions(self, comparison):
        a = _record(comparison).as_dict()
        b = json.loads(json.dumps(a))
        for label in b["metrics"]:
            b["metrics"][label]["runtime_cycles"] *= 1.10
        report = diff_runs(a, b)
        assert report.max_regression == pytest.approx(0.10, rel=1e-6)
        # improvements never trip the gate
        improved = diff_runs(b, a)
        assert improved.max_regression == 0.0

    def test_mismatched_identity_warns(self, comparison):
        a = _record(comparison).as_dict()
        b = json.loads(json.dumps(a))
        b["config_hash"] = "different"
        b["seed"] = 7
        report = diff_runs(a, b)
        assert any("config differs" in w for w in report.warnings)
        assert any("seed differs" in w for w in report.warnings)

    def test_counter_movement_is_ranked(self, comparison):
        a = _record(comparison).as_dict()
        b = json.loads(json.dumps(a))
        counters = b["counters"]["stream/pac"]["counters"]
        names = list(counters)[:2]
        if len(names) == 2:
            counters[names[0]] += 5
            counters[names[1]] += 50
            report = diff_runs(a, b)
            deltas = [abs(r["delta"]) for r in report.counters]
            assert deltas == sorted(deltas, reverse=True)

    def test_as_dict_is_json_safe(self, comparison):
        doc = _record(comparison).as_dict()
        report = diff_runs(doc, doc)
        json.dumps(report.as_dict())

"""Chaos suite: inject a fault at every instrumented site, one at a
time, and assert the supervised engine recovers with bit-identical
results, bounded retries, and an honest RunHealth report."""

from __future__ import annotations

import pytest

from repro.engine import supervisor
from repro.engine.parallel import run_suite_parallel
from repro.engine.system import CoalescerKind

KINDS = (CoalescerKind.NONE, CoalescerKind.PAC)
BENCHES = ["gs", "bfs"]
N_ACCESSES = 800
WORKERS = 3
MAX_RETRIES = 3


@pytest.fixture(scope="module", autouse=True)
def _fast_backoff():
    """Retries back off from 10 ms instead of the production 50 ms."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(supervisor, "BACKOFF_BASE", 0.01)
        yield


def _suite(faults, monkeypatch=None, cache_dir=None, **kw):
    if cache_dir is not None:
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(cache_dir))
    stats: dict = {}
    results = run_suite_parallel(
        kinds=KINDS,
        benchmarks=BENCHES,
        n_accesses=N_ACCESSES,
        max_workers=kw.pop("max_workers", WORKERS),
        max_retries=kw.pop("max_retries", MAX_RETRIES),
        stats=stats,
        faults=faults,
        **kw,
    )
    return results, stats


@pytest.fixture(scope="module")
def clean_suite(tmp_path_factory):
    """Fault-free reference results, computed once per module under a
    module-private artifact cache."""
    import os

    cache = tmp_path_factory.mktemp("clean-artifacts")
    old = os.environ.get("REPRO_ARTIFACT_DIR")
    os.environ["REPRO_ARTIFACT_DIR"] = str(cache)
    try:
        results, stats = _suite(False)
    finally:
        if old is None:
            os.environ.pop("REPRO_ARTIFACT_DIR", None)
        else:
            os.environ["REPRO_ARTIFACT_DIR"] = old
    assert stats["health"]["events"] == 0
    return results


#: (spec, extra kwargs). Every instrumented site appears at least once;
#: the per-test artifact cache is cold, so phase-1 jobs really run.
SCENARIOS = [
    ("phase1.job:crash@0", {}),
    ("phase1.job:transient@0", {}),
    ("phase1.job:pickle@0", {}),
    ("phase1.job:hang@0", {"job_timeout": 2.0}),
    ("phase2.job:crash@0", {}),
    ("phase2.job:transient@1", {}),
    ("phase2.job:pickle@0", {}),
    ("phase2.job:hang@0", {"job_timeout": 2.0}),
    ("shm.attach:lost@0", {}),
    ("shm.publish:enospc@0", {}),
    ("artifact.get:corrupt@0", {}),
    ("artifact.put:enospc@0", {}),
    ("shm.publish:enospc@0;phase2.job:transient@2", {}),
]


class TestChaosTwoPhase:
    @pytest.mark.parametrize(
        "spec,kw", SCENARIOS, ids=[s for s, _ in SCENARIOS]
    )
    def test_recovers_bit_identical(self, spec, kw, clean_suite):
        results, stats = _suite(spec, **kw)
        health = stats["health"]
        # Completion: every job produced a result.
        assert sorted(results) == sorted(clean_suite)
        assert health["completed"] == health["jobs"] == len(results)
        assert health["healthy"]
        assert health["faults_enabled"]
        # Bit-identity: recovered results equal the fault-free run
        # (dataclass ==; health is excluded from comparison by design).
        assert results == clean_suite
        # Bounded recovery: retries never exceed the per-job budget
        # summed over the grid, and no shm segment leaked.
        assert health["retries"] <= MAX_RETRIES * health["jobs"]
        assert health["shm_leaks"] == []

    def test_health_rides_on_results(self, clean_suite):
        results, stats = _suite("phase2.job:transient@0")
        health = next(iter(results.values())).health
        assert health is not None
        assert health.as_dict() == stats["health"]
        assert health.retries >= 1
        assert any("OSError" in f for f in health.failures)
        assert results == clean_suite

    def test_clean_run_reports_no_events(self, clean_suite):
        results, stats = _suite(False)
        assert results == clean_suite
        health = stats["health"]
        assert health["events"] == 0
        assert health["failures"] == []
        assert not health["faults_enabled"]


@pytest.fixture(scope="module")
def clean_probe_suite():
    """Fault-free probe-grid results (telemetry and spans on): a probe
    grid never touches the store, so no cache dir is needed."""
    results, stats = _suite(False, telemetry=True, spans=True)
    assert stats["health"]["events"] == 0
    return results


class TestChaosProbeGrid:
    """A probe grid runs the same two phases: its phase-1 jobs carry the
    probe state of each cache pass, and a recovered grid still equals
    the clean one, telemetry and spans included."""

    @pytest.mark.parametrize(
        "spec,kw",
        [
            ("phase2.job:crash@0", {}),
            ("phase2.job:transient@1", {}),
            ("phase2.job:pickle@0", {}),
            ("phase2.job:hang@0", {"job_timeout": 2.0}),
            ("phase1.job:crash@0", {}),
            ("phase1.job:transient@1", {}),
            ("phase1.job:pickle@0", {}),
            ("phase1.job:hang@0", {"job_timeout": 2.0}),
            # Serial parent path: destructive kinds are inert, transient
            # retried in-process.
            ("phase2.job:transient@1", {"max_workers": 1}),
            ("phase1.job:crash@0", {"max_workers": 1}),
        ],
        ids=[
            "crash", "transient", "pickle", "hang",
            "phase1-crash", "phase1-transient", "phase1-pickle",
            "phase1-hang", "serial-transient", "serial-crash-inert",
        ],
    )
    def test_recovers_bit_identical(self, spec, kw, clean_probe_suite):
        results, stats = _suite(spec, telemetry=True, spans=True, **kw)
        health = stats["health"]
        assert results == clean_probe_suite
        for key, result in results.items():
            assert result.telemetry.to_json() == (
                clean_probe_suite[key].telemetry.to_json()
            ), key
        assert health["healthy"]
        assert health["retries"] <= MAX_RETRIES * health["jobs"]
        # Every fault fired and was recovered from, except a crash in
        # the parent, which is inert.
        inert = ":crash" in spec and kw.get("max_workers") == 1
        assert (health["events"] == 0) == inert


class TestChaosOneWorker:
    """One worker runs the pooled job list in the parent: the same
    ordinals fire, are retried, and destructive kinds stay inert."""

    @pytest.mark.parametrize("spec", [
        "phase1.job:transient@0", "phase1.job:pickle@0",
        "phase2.job:transient@1", "phase2.job:pickle@1",
    ])
    def test_recovers_bit_identical(self, spec, clean_suite):
        results, stats = _suite(spec, max_workers=1)
        health = stats["health"]
        assert results == clean_suite
        assert health["healthy"] and health["faults_enabled"]
        assert 1 <= health["retries"] <= MAX_RETRIES * health["jobs"]

    @pytest.mark.parametrize(
        "spec", ["phase1.job:crash@0", "phase2.job:crash@0"]
    )
    def test_crash_is_inert(self, spec, clean_suite):
        results, stats = _suite(spec, max_workers=1)
        assert results == clean_suite
        assert stats["health"]["events"] == 0
        assert stats["health"]["failures"] == []

    def test_phase2_publishes_no_segment(self, monkeypatch, clean_suite):
        from repro.artifacts import shm

        def no_publish(array):
            raise AssertionError("phase 2 published a segment in the parent")

        monkeypatch.setattr(shm, "publish", no_publish)
        results, stats = _suite(False, max_workers=1)
        assert results == clean_suite
        assert stats["health"]["degradations"] == []

    @pytest.mark.parametrize("plan,failures", [
        ("phase1.job:transient@0", ["phase1:gs:OSError"]),
        ("phase2.job:transient@0", ["gs/pac:OSError"]),
    ])
    def test_plan_names_the_same_job_at_any_worker_count(
        self, plan, failures
    ):
        kw = dict(
            kinds=(CoalescerKind.PAC, CoalescerKind.NONE),
            benchmarks=("gs", "stream"), n_accesses=500,
            use_artifact_cache=False,
        )
        clean = run_suite_parallel(faults=False, max_workers=1, **kw)
        for workers in (1, 2):
            stats: dict = {}
            results = run_suite_parallel(
                faults=plan, max_workers=workers, stats=stats, **kw
            )
            assert stats["health"]["failures"] == failures, workers
            assert stats["health"]["retries"] == 1, workers
            assert results == clean


class TestEnvActivation:
    def test_env_plan_reaches_workers(self, monkeypatch, clean_suite):
        monkeypatch.setenv("REPRO_FAULTS", "phase2.job:transient@0")
        results, stats = _suite(None)
        assert results == clean_suite
        assert stats["health"]["faults_enabled"]
        assert stats["health"]["retries"] >= 1

    def test_faults_false_overrides_env(self, monkeypatch, clean_suite):
        monkeypatch.setenv("REPRO_FAULTS", "phase2.job:transient@0")
        results, stats = _suite(False)
        assert results == clean_suite
        assert not stats["health"]["faults_enabled"]
        assert stats["health"]["events"] == 0

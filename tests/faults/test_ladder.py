"""Degradation-ladder coverage: force each rung of
shm fan-out -> pickled per-job transport -> in-parent serial
and assert the demoted paths produce field-for-field identical results."""

from __future__ import annotations

import dataclasses

import pytest

from repro.engine import supervisor
from repro.engine.parallel import run_suite_parallel
from repro.engine.system import CoalescerKind

KINDS = (CoalescerKind.NONE, CoalescerKind.PAC)
BENCHES = ["gs", "bfs"]
N_ACCESSES = 800


@pytest.fixture(scope="module", autouse=True)
def _fast_backoff():
    """Retries back off from 10 ms instead of the production 50 ms."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(supervisor, "BACKOFF_BASE", 0.01)
        yield


def _suite(faults, **kw):
    stats: dict = {}
    results = run_suite_parallel(
        kinds=KINDS,
        benchmarks=BENCHES,
        n_accesses=N_ACCESSES,
        max_workers=kw.pop("max_workers", 3),
        stats=stats,
        faults=faults,
        **kw,
    )
    return results, stats


def assert_field_identical(results, reference):
    """Field-for-field RunResult comparison (stricter in failure
    reporting than ``==``: names the first differing field)."""
    assert sorted(results) == sorted(reference)
    for key in reference:
        got, want = results[key], reference[key]
        for f in dataclasses.fields(want):
            if not f.compare:  # health: how, not what
                continue
            assert getattr(got, f.name) == getattr(want, f.name), (
                f"{key}: field {f.name!r} differs"
            )


@pytest.fixture(scope="module")
def clean_suite(tmp_path_factory):
    import os

    cache = tmp_path_factory.mktemp("ladder-artifacts")
    old = os.environ.get("REPRO_ARTIFACT_DIR")
    os.environ["REPRO_ARTIFACT_DIR"] = str(cache)
    try:
        results, _ = _suite(False)
    finally:
        if old is None:
            os.environ.pop("REPRO_ARTIFACT_DIR", None)
        else:
            os.environ["REPRO_ARTIFACT_DIR"] = old
    return results


class TestShmToPerJobRung:
    def test_publish_failure_demotes_every_benchmark(self, clean_suite):
        # Ordinal 0 with a huge count: every publish in this process
        # fails, so every benchmark falls back to pickled job args.
        results, stats = _suite("shm.publish:enospc@0x99")
        health = stats["health"]
        demoted = {
            d.split(":", 1)[1]
            for d in health["degradations"]
            if d.startswith("shm->per-job:")
        }
        assert demoted == set(BENCHES)
        assert health["healthy"]
        assert_field_identical(results, clean_suite)

    def test_segment_loss_demotes_midflight(self, clean_suite):
        # Every attach of job ordinal 0 fails; the supervisor demotes
        # that benchmark's transport and the retry succeeds on pickle.
        results, stats = _suite("shm.attach:lost@0x99")
        health = stats["health"]
        assert any(
            d.startswith("shm->per-job:") for d in health["degradations"]
        )
        assert health["healthy"]
        assert_field_identical(results, clean_suite)


class TestSerialRung:
    def test_retry_exhaustion_falls_back_to_serial(self, clean_suite):
        # The fault outlasts the retry budget, so the job's last rung is
        # in-parent serial execution from the shared trace pass.
        results, stats = _suite("phase2.job:transient@0x99")
        health = stats["health"]
        assert any(
            d.startswith("serial:") for d in health["degradations"]
        )
        assert health["healthy"]
        assert_field_identical(results, clean_suite)

    def test_persistent_crash_walks_whole_ladder(self, clean_suite):
        results, stats = _suite("phase2.job:crash@0x99")
        health = stats["health"]
        assert health["pool_rebuilds"] >= 1
        assert any(
            d.startswith("serial:") for d in health["degradations"]
        )
        assert health["healthy"]
        assert_field_identical(results, clean_suite)


class TestArtifactCacheRung:
    def test_dead_cache_still_completes(self, clean_suite):
        # Reads corrupt, writes hit a full disk: the cache is useless in
        # both directions and the suite must simply recompute.
        results, stats = _suite(
            "artifact.get:corrupt@0x99;artifact.put:enospc@0x99"
        )
        assert stats["health"]["healthy"]
        assert_field_identical(results, clean_suite)

    def test_cache_disabled_matches(self, clean_suite):
        results, stats = _suite(False, use_artifact_cache=False)
        assert stats["artifact_hits"] == 0
        assert_field_identical(results, clean_suite)


class TestSerialBottomRung:
    def test_forced_serial_matches(self, clean_suite):
        # max_workers=1 is the ladder's floor as a first-class mode.
        results, stats = _suite(False, max_workers=1)
        assert stats["workers"] == 1
        assert_field_identical(results, clean_suite)

"""Trace-pass pipeline tests: cold/warm/disabled bit-identity, the
trace-hit/pass-miss fallback, and bad-payload recomputation."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.artifacts.pipeline import (
    compute_trace_pass,
    load_or_compute_trace_pass,
    try_load_trace_pass,
)
from repro.artifacts.store import ArtifactStore
from repro.engine.spec import RunSpec

BENCH = "stream"
N = 800
SEED = 77
SPEC = RunSpec((BENCH,), N, seed=SEED)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "pipeline-cache")


def _fresh(store):
    """Same root, empty memo — forces the disk read path."""
    return ArtifactStore(store.root)


def _same_pass(a, b):
    assert a.benchmark == b.benchmark
    assert a.n_accesses == b.n_accesses
    assert a.trace_end_cycle == b.trace_end_cycle
    assert a.cache_metrics == b.cache_metrics
    np.testing.assert_array_equal(a.raw, b.raw)


class TestBitIdentity:
    def test_cold_warm_disabled_agree(self, store):
        uncached = compute_trace_pass(SPEC)
        cold = load_or_compute_trace_pass(SPEC, store=store)
        warm = load_or_compute_trace_pass(SPEC, store=_fresh(store))
        _same_pass(cold, uncached)
        _same_pass(warm, uncached)
        assert not uncached.cached
        assert not cold.cached
        assert warm.cached

    def test_cold_run_writes_both_artifacts(self, store):
        load_or_compute_trace_pass(SPEC, store=store)
        kinds = {e.kind for e in store.entries()}
        assert kinds == {"trace", "pass"}
        assert store.stats.stores == 2

    def test_warm_run_skips_compute(self, store):
        load_or_compute_trace_pass(SPEC, store=store)
        fresh = _fresh(store)
        tp = try_load_trace_pass(SPEC, store=fresh)
        assert tp is not None and tp.cached
        assert fresh.stats.hits == 1
        assert fresh.stats.stores == 0

    def test_use_cache_false_never_touches_store(self, store):
        tp = load_or_compute_trace_pass(SPEC, store=store, use_cache=False)
        assert not tp.cached
        assert store.stats.hits == store.stats.misses == store.stats.stores == 0
        assert list(store.entries()) == []

    def test_env_kill_switch_disables_try_load(self, store, monkeypatch):
        load_or_compute_trace_pass(SPEC, store=store)
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE", "0")
        assert try_load_trace_pass(SPEC, store=_fresh(store)) is None

    def test_decoded_requests_match_raw(self, store):
        from repro.artifacts.shm import decode_requests

        tp = load_or_compute_trace_pass(SPEC, store=store)
        reqs = tp.requests()
        decoded = decode_requests(tp.raw)
        assert [r.addr for r in reqs] == [r.addr for r in decoded]
        assert [r.cycle for r in reqs] == [r.cycle for r in decoded]
        assert tp.n_raw == len(reqs)


class TestPartialHits:
    def test_trace_hit_pass_miss_recomputes_hierarchy_only(self, store):
        cold = load_or_compute_trace_pass(SPEC, store=store)
        pkey = SPEC.pass_key()
        store._path("pass", pkey).unlink()
        fresh = _fresh(store)
        tp = load_or_compute_trace_pass(SPEC, store=fresh)
        _same_pass(tp, cold)
        # The trace artifact hit, so only the pass was re-stored.
        assert fresh.stats.stores == 1
        entries = {e.kind for e in fresh.entries()}
        assert entries == {"trace", "pass"}

    def test_corrupt_pass_artifact_recomputes(self, store):
        cold = load_or_compute_trace_pass(SPEC, store=store)
        pkey = SPEC.pass_key()
        store._path("pass", pkey).write_bytes(b"torn write")
        fresh = _fresh(store)
        tp = load_or_compute_trace_pass(SPEC, store=fresh)
        _same_pass(tp, cold)
        assert fresh.stats.errors >= 1
        # And the recomputed artifact is valid for the next reader.
        again = try_load_trace_pass(SPEC, store=_fresh(store))
        assert again is not None
        _same_pass(again, cold)

    def test_corrupt_trace_artifact_recomputes(self, store):
        cold = load_or_compute_trace_pass(SPEC, store=store)
        tkey = SPEC.trace_key()
        pkey = SPEC.pass_key()
        store._path("trace", tkey).write_bytes(b"garbage")
        store._path("pass", pkey).unlink()
        fresh = _fresh(store)
        tp = load_or_compute_trace_pass(SPEC, store=fresh)
        _same_pass(tp, cold)

    def test_wrong_shape_pass_payload_is_rejected(self, store):
        """A structurally valid npz whose contents don't match the
        TracePass schema must fall through to recompute, not crash."""
        cold = load_or_compute_trace_pass(SPEC, store=store)
        pkey = SPEC.pass_key()
        bogus = ArtifactStore(store.root)
        bogus.put("pass", pkey, {"benchmark": BENCH}, wrong=np.arange(4))
        fresh = _fresh(store)
        assert try_load_trace_pass(SPEC, store=fresh) is None
        tp = load_or_compute_trace_pass(SPEC, store=fresh)
        _same_pass(tp, cold)


class TestKeySensitivity:
    def test_different_parameters_do_not_cross_hit(self, store):
        load_or_compute_trace_pass(SPEC, store=store)
        assert (
            try_load_trace_pass(
                replace(SPEC, seed=SEED + 1), store=_fresh(store)
            )
            is None
        )
        assert (
            try_load_trace_pass(
                replace(SPEC, n_accesses=N // 2), store=_fresh(store)
            )
            is None
        )
        assert (
            try_load_trace_pass(
                replace(SPEC, fine_grain=True), store=_fresh(store)
            )
            is None
        )

    def test_pickled_pass_drops_decoded_list(self, store):
        import pickle

        tp = load_or_compute_trace_pass(SPEC, store=store)
        tp.requests()
        clone = pickle.loads(pickle.dumps(tp))
        assert clone._requests is None
        _same_pass(clone, tp)

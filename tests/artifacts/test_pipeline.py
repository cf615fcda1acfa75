"""Trace-pass pipeline tests: cold/warm/disabled bit-identity and
bad-payload recomputation. Store traffic is read from the ``cache.*``
events it emits."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.artifacts.pipeline import (
    compute_trace_pass,
    load_or_compute_trace_pass,
    try_load_trace_pass,
)
from repro.artifacts.shm import check_requests
from repro.artifacts.store import ArtifactStore
from repro.engine.spec import RunSpec

from .test_shm import CORRUPT_ROWS
from .test_store import _traffic

BENCH = "stream"
N = 800
SEED = 77
SPEC = RunSpec((BENCH,), N, seed=SEED)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "pipeline-cache")


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
        warm = load_or_compute_trace_pass(SPEC, store=store)
        _same_pass(cold, uncached)
        _same_pass(warm, uncached)
        assert not uncached.cached
        assert not cold.cached
        assert warm.cached

    def test_cold_run_writes_the_pass_artifact(self, store):
        _, seen = _traffic(
            lambda: load_or_compute_trace_pass(SPEC, store=store)
        )
        assert [e.kind for e in store.entries()] == ["pass"]
        assert seen == {"cache.miss": 1, "cache.store": 1}

    def test_warm_run_skips_compute(self, store):
        load_or_compute_trace_pass(SPEC, store=store)
        tp, seen = _traffic(lambda: try_load_trace_pass(SPEC, store=store))
        assert tp is not None and tp.cached
        assert seen == {"cache.hit": 1}

    def test_use_cache_false_never_touches_store(self, store):
        tp, seen = _traffic(
            lambda: load_or_compute_trace_pass(
                SPEC, store=store, use_cache=False
            )
        )
        assert not tp.cached
        assert seen == {}
        assert list(store.entries()) == []

    def test_env_kill_switch_disables_try_load(self, store, monkeypatch):
        load_or_compute_trace_pass(SPEC, store=store)
        monkeypatch.setenv("REPRO_ARTIFACT_CACHE", "0")
        assert try_load_trace_pass(SPEC, store=store) is None


class TestPartialHits:
    def test_corrupt_pass_artifact_recomputes(self, store):
        cold = load_or_compute_trace_pass(SPEC, store=store)
        pkey = SPEC.pass_key()
        store._path("pass", pkey).write_bytes(b"torn write")
        tp, seen = _traffic(
            lambda: load_or_compute_trace_pass(SPEC, store=store)
        )
        _same_pass(tp, cold)
        assert seen == {"cache.corrupt": 1, "cache.store": 1}
        # And the recomputed artifact is valid for the next reader.
        again = try_load_trace_pass(SPEC, store=store)
        assert again is not None
        _same_pass(again, cold)

    def test_wrong_shape_pass_payload_is_rejected(self, store):
        """A structurally valid npz whose contents don't match the
        TracePass schema must fall through to recompute, not crash."""
        cold = load_or_compute_trace_pass(SPEC, store=store)
        pkey = SPEC.pass_key()
        store.put("pass", pkey, {"benchmark": BENCH}, wrong=np.arange(4))
        assert try_load_trace_pass(SPEC, store=store) is None
        tp = load_or_compute_trace_pass(SPEC, store=store)
        _same_pass(tp, cold)

    @pytest.mark.parametrize("field, value, message", CORRUPT_ROWS)
    def test_bad_row_in_pass_artifact_counts_as_corrupt(
        self, store, field, value, message
    ):
        """The stream is checked where it enters from disk: a bad row
        makes the entry corrupt (error counted, file unlinked), and the
        front door recomputes the clean pass."""
        cold = load_or_compute_trace_pass(SPEC, store=store)
        pkey = SPEC.pass_key()
        bad = cold.raw.copy()
        bad[field][3] = value
        with pytest.raises(ValueError, match=message):
            check_requests(bad)
        meta = store.get("pass", pkey)["meta"]
        store.put("pass", pkey, meta, requests=bad)
        tp, seen = _traffic(lambda: try_load_trace_pass(SPEC, store=store))
        assert tp is None
        assert seen == {"cache.corrupt": 1}
        assert not store._path("pass", pkey).exists()
        tp = load_or_compute_trace_pass(SPEC, store=store)
        assert not tp.cached
        _same_pass(tp, cold)


class TestKeySensitivity:
    def test_different_parameters_do_not_cross_hit(self, store):
        load_or_compute_trace_pass(SPEC, store=store)
        assert (
            try_load_trace_pass(replace(SPEC, seed=SEED + 1), store=store)
            is None
        )
        assert (
            try_load_trace_pass(replace(SPEC, n_accesses=N // 2), store=store)
            is None
        )
        assert (
            try_load_trace_pass(replace(SPEC, fine_grain=True), store=store)
            is None
        )

"""Trace-pass pipeline tests: cold/warm/storeless bit-identity and
bad-payload recomputation. Store traffic is read from the ``cache.*``
events it emits."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.artifacts import shm
from repro.artifacts.pipeline import compute_trace_pass, load_trace_pass
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


def _load_or_compute(spec, store):
    """What a grid's phase 1 does for one benchmark: the stored pass,
    else a computed one written back."""
    return load_trace_pass(spec, store) or compute_trace_pass(spec, store)


class TestBitIdentity:
    def test_cold_warm_storeless_agree(self, store):
        storeless = compute_trace_pass(SPEC)
        cold = _load_or_compute(SPEC, store)
        warm = load_trace_pass(SPEC, store)
        _same_pass(cold, storeless)
        _same_pass(warm, storeless)

    def test_cold_run_writes_the_pass_artifact(self, store):
        _, seen = _traffic(lambda: _load_or_compute(SPEC, store))
        assert [e.kind for e in store.entries()] == ["pass"]
        assert seen == {"cache.miss": 1, "cache.store": 1}

    def test_compute_writes_and_never_reads(self, store):
        _, seen = _traffic(lambda: compute_trace_pass(SPEC, store))
        assert seen == {"cache.store": 1}
        _, seen = _traffic(lambda: compute_trace_pass(SPEC, store))
        assert seen == {"cache.store": 1}

    def test_warm_run_skips_compute(self, store):
        compute_trace_pass(SPEC, store)
        tp, seen = _traffic(lambda: load_trace_pass(SPEC, store))
        assert tp is not None
        assert seen == {"cache.hit": 1}

    def test_a_warm_load_checks_the_stream_once(self, store, monkeypatch):
        compute_trace_pass(SPEC, store)
        calls = []

        def counted(raw):
            calls.append(len(raw))
            return check_requests(raw)

        monkeypatch.setattr(shm, "check_requests", counted)
        assert load_trace_pass(SPEC, store) is not None
        assert len(calls) == 1

    def test_no_store_never_touches_one(self, store):
        def storeless():
            return load_trace_pass(SPEC, None), compute_trace_pass(SPEC)

        (hit, tp), seen = _traffic(storeless)
        assert hit is None and tp is not None
        assert seen == {}
        assert list(store.entries()) == []


class TestPartialHits:
    def test_corrupt_pass_artifact_recomputes(self, store):
        cold = _load_or_compute(SPEC, store)
        pkey = SPEC.pass_key()
        store._path("pass", pkey).write_bytes(b"torn write")
        tp, seen = _traffic(lambda: _load_or_compute(SPEC, store))
        _same_pass(tp, cold)
        assert seen == {"cache.corrupt": 1, "cache.store": 1}
        # And the recomputed artifact is valid for the next reader.
        again = load_trace_pass(SPEC, store)
        assert again is not None
        _same_pass(again, cold)

    def test_wrong_shape_pass_payload_is_rejected(self, store):
        """A structurally valid npz whose contents don't match the
        TracePass schema must fall through to recompute, not crash."""
        cold = _load_or_compute(SPEC, store)
        pkey = SPEC.pass_key()
        store.put("pass", pkey, {"benchmark": BENCH}, wrong=np.arange(4))
        assert load_trace_pass(SPEC, store) is None
        tp = _load_or_compute(SPEC, store)
        _same_pass(tp, cold)

    @pytest.mark.parametrize("field, value, message", CORRUPT_ROWS)
    def test_bad_row_in_pass_artifact_counts_as_corrupt(
        self, store, field, value, message
    ):
        """The stream is checked where it enters from disk: a bad row
        makes the entry corrupt (error counted, file unlinked), and the
        grid recomputes the clean pass."""
        cold = _load_or_compute(SPEC, store)
        pkey = SPEC.pass_key()
        bad = cold.raw.copy()
        bad[field][3] = value
        with pytest.raises(ValueError, match=message):
            check_requests(bad)
        meta = store.get("pass", pkey)["meta"]
        store.put("pass", pkey, meta, requests=bad)
        tp, seen = _traffic(lambda: load_trace_pass(SPEC, store))
        assert tp is None
        assert seen == {"cache.corrupt": 1}
        assert not store._path("pass", pkey).exists()
        tp = _load_or_compute(SPEC, store)
        _same_pass(tp, cold)


class TestKeySensitivity:
    def test_different_parameters_do_not_cross_hit(self, store):
        compute_trace_pass(SPEC, store)
        assert load_trace_pass(replace(SPEC, seed=SEED + 1), store) is None
        assert load_trace_pass(replace(SPEC, n_accesses=N // 2), store) is None
        assert load_trace_pass(replace(SPEC, fine_grain=True), store) is None

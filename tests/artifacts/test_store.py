"""ArtifactStore unit tests: round-trips, corruption recovery, atomic
concurrent writes, and keys.

The store keeps no counters: its traffic is the ``cache.*`` events it
emits, which these tests read back from an in-memory event log."""

from __future__ import annotations

import threading
from collections import Counter

import numpy as np
import pytest

from repro.artifacts.store import (
    ArtifactStore,
    code_fingerprint,
    get_store,
    pass_key,
)
from repro.config import TABLE1
from repro.telemetry import events as ev


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "artifacts")


def _traffic(call):
    """``call()``'s result and the store events it emitted, counted by
    kind (``cache.hit``/``miss``/``store``/``corrupt``/``skip``)."""
    out, records = _records(call)
    return out, Counter(r["kind"] for r in records)


def _records(call):
    """``call()``'s result and the ``cache.*`` event records it emitted."""
    log = ev.EventLog()
    with ev.installed(log):
        out = call()
    return out, [r for r in log.records if r["kind"].startswith("cache.")]


def _arrays():
    return {
        "a": np.arange(10, dtype=np.int64),
        "b": np.linspace(0.0, 1.0, 5),
    }


class TestRoundTrip:
    def test_put_get_round_trip(self, store):
        def round_trip():
            store.put("trace", "k1", {"benchmark": "gs", "n": 3}, **_arrays())
            return store.get("trace", "k1")

        payload, seen = _traffic(round_trip)
        assert payload is not None
        assert payload["meta"] == {"benchmark": "gs", "n": 3}
        np.testing.assert_array_equal(payload["a"], np.arange(10))
        assert seen == {"cache.store": 1, "cache.hit": 1}

    def test_round_trip_survives_process_memo_loss(self, store, tmp_path):
        """A second store handle on the same root must read the bytes
        back from disk identically."""
        store.put("pass", "k2", {"x": 1}, **_arrays())
        fresh = ArtifactStore(store.root)
        payload = fresh.get("pass", "k2")
        assert payload is not None
        assert payload["meta"] == {"x": 1}
        np.testing.assert_array_equal(payload["b"], np.linspace(0.0, 1.0, 5))

    def test_missing_key_is_miss(self, store):
        payload, seen = _traffic(lambda: store.get("trace", "nope"))
        assert payload is None
        assert seen == {"cache.miss": 1}

    def test_kinds_partition_the_namespace(self, store):
        store.put("trace", "k", {"kind": "trace"}, **_arrays())
        store2 = ArtifactStore(store.root)
        assert store2.get("pass", "k") is None
        assert store2.get("trace", "k")["meta"] == {"kind": "trace"}


class TestCorruptionRecovery:
    def test_truncated_file_is_unlinked_and_missed(self, store):
        store.put("pass", "k", {"x": 1}, **_arrays())
        path = store._path("pass", "k")
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        fresh = ArtifactStore(store.root)
        payload, seen = _traffic(lambda: fresh.get("pass", "k"))
        assert payload is None
        assert seen == {"cache.corrupt": 1}
        assert not path.exists(), "corrupt entry must be unlinked"

    def test_garbage_file_is_unlinked_and_missed(self, store):
        store.root.mkdir(parents=True, exist_ok=True)
        path = store._path("trace", "junk")
        path.write_bytes(b"this is not an npz file")
        payload, seen = _traffic(lambda: store.get("trace", "junk"))
        assert payload is None
        assert seen == {"cache.corrupt": 1}
        assert not path.exists()

    def test_missing_meta_is_unlinked_and_missed(self, store):
        import io

        store.root.mkdir(parents=True, exist_ok=True)
        path = store._path("pass", "nometa")
        blob = io.BytesIO()
        np.savez_compressed(blob, a=np.arange(3))  # no __meta__ array
        path.write_bytes(blob.getvalue())
        payload, seen = _traffic(lambda: store.get("pass", "nometa"))
        assert payload is None
        assert seen == {"cache.corrupt": 1}
        assert not path.exists()

    def test_unreadable_entry_is_a_miss_and_kept(self, store, monkeypatch):
        """A read that fails with an ``OSError`` (here a permission
        error) is a plain miss: the entry is not called corrupt and not
        unlinked."""
        store.put("pass", "k", {"x": 1}, **_arrays())
        path = store._path("pass", "k")

        def denied(*args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))

        monkeypatch.setattr(np, "load", denied)
        payload, seen = _traffic(lambda: store.get("pass", "k"))
        assert payload is None
        assert seen == {"cache.miss": 1}
        assert path.exists()

    def test_load_makes_the_hit_and_a_rejection_is_corrupt(self, store):
        """``get(load=...)`` returns what ``load`` makes of the payload;
        a payload ``load`` rejects by raising is a corrupt entry."""
        store.put("pass", "k", {"x": 1}, **_arrays())
        loaded, seen = _traffic(
            lambda: store.get("pass", "k", load=lambda p: p["meta"]["x"])
        )
        assert loaded == 1
        assert seen == {"cache.hit": 1}

        def reject(payload):
            raise ValueError("not a pass")

        loaded, seen = _traffic(lambda: store.get("pass", "k", load=reject))
        assert loaded is None
        assert seen == {"cache.corrupt": 1}
        assert not store._path("pass", "k").exists()

    def test_recovery_after_corruption(self, store):
        """The canonical crash story: corrupt entry → miss → recompute
        (re-put) → subsequent hits."""
        store.put("pass", "k", {"v": 1}, **_arrays())
        store._path("pass", "k").write_bytes(b"torn")
        fresh = ArtifactStore(store.root)
        assert fresh.get("pass", "k") is None
        fresh.put("pass", "k", {"v": 2}, **_arrays())
        again = ArtifactStore(store.root)
        assert again.get("pass", "k")["meta"] == {"v": 2}


class TestConcurrentWriters:
    def test_racing_writers_leave_a_complete_file(self, store):
        """N threads writing the same key (the cold-cache pool-worker
        race) must never expose a torn file: writes are tmp+os.replace."""
        arrays = _arrays()
        n_writers = 8
        barrier = threading.Barrier(n_writers)
        errors = []

        def write():
            try:
                barrier.wait()
                for _ in range(5):
                    store.put("pass", "raced", {"v": 1}, **arrays)
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append(exc)

        threads = [threading.Thread(target=write) for _ in range(n_writers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # No temp litter, and the surviving file parses completely.
        assert list(store.root.glob("*.tmp")) == []
        fresh = ArtifactStore(store.root)
        payload = fresh.get("pass", "raced")
        assert payload is not None and payload["meta"] == {"v": 1}
        np.testing.assert_array_equal(payload["a"], arrays["a"])

    def test_unwritable_root_degrades_to_uncached(self, tmp_path):
        # A plain file squats on the cache root, so mkdir() fails with
        # an OSError (chmod tricks don't work when tests run as root).
        root = tmp_path / "blocked"
        root.write_bytes(b"not a directory")
        store = ArtifactStore(root)
        _, records = _records(
            lambda: store.put("trace", "k", {"x": 1}, **_arrays())
        )
        assert [r["kind"] for r in records] == ["cache.skip"]
        assert records[0]["error"] == "FileExistsError"
        # Nothing landed: the squatting file is intact, no temp litter.
        assert root.read_bytes() == b"not a directory"
        assert list(tmp_path.rglob("*.npz*")) == []
        assert list(store.entries()) == []
        # Reading under a root that is not a directory is a miss, not
        # a corrupt entry.
        payload, records = _records(lambda: store.get("trace", "k"))
        assert payload is None
        assert [r["kind"] for r in records] == ["cache.miss"]
        assert root.read_bytes() == b"not a directory"

    def test_injected_full_disk_is_a_skipped_write(self, store):
        from repro.faults import FaultInjector, FaultPlan, installed

        plan = FaultPlan.parse("artifact.put:enospc@0")
        with installed(FaultInjector(plan)):
            _, records = _records(
                lambda: store.put("pass", "k", {"x": 1}, **_arrays())
            )
            assert [r["kind"] for r in records] == ["cache.skip"]
            assert records[0]["error"] == "OSError"
            assert list(store.entries()) == []
            # The plan fires once; the next write persists.
            _, seen = _traffic(
                lambda: store.put("pass", "k", {"x": 1}, **_arrays())
            )
        assert seen == {"cache.store": 1}
        assert store.get("pass", "k")["meta"] == {"x": 1}
        assert list(store.root.glob("*.tmp")) == []


class TestMemoAndRegistry:
    def test_get_store_is_per_root(self, tmp_path, monkeypatch):
        """``get_store()`` keeps no handle: its root follows
        ``$REPRO_ARTIFACT_DIR`` as it is at each call."""
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "one"))
        assert get_store().root == tmp_path / "one"
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path / "two"))
        assert get_store().root == tmp_path / "two"
        assert get_store(tmp_path / "three").root == tmp_path / "three"

    def test_entries_and_clear(self, store):
        store.put("trace", "k1", {"x": 1}, **_arrays())
        store.put("pass", "k2", {"x": 2}, **_arrays())
        entries = list(store.entries())
        assert {(e.kind, e.key) for e in entries} == {
            ("trace", "k1"),
            ("pass", "k2"),
        }
        assert all(e.size_bytes > 0 for e in entries)
        assert store.disk_bytes() == sum(e.size_bytes for e in entries)
        assert store.clear() == 2
        assert store.disk_bytes() == 0
        assert list(store.entries()) == []
        assert store.get("trace", "k1") is None


class TestKeysAndEnv:
    def test_keys_are_stable_and_parameter_sensitive(self):
        base = pass_key("gs", 1000, 42, TABLE1)
        assert base == pass_key("gs", 1000, 42, TABLE1)
        assert base != pass_key("bfs", 1000, 42, TABLE1)
        assert base != pass_key("gs", 2000, 42, TABLE1)
        assert base != pass_key("gs", 1000, 43, TABLE1)
        assert base != pass_key("gs", 1000, 42, TABLE1, device="hbm")
        assert base != pass_key("gs", 1000, 42, TABLE1, scale=2.0)
        assert base != pass_key(
            "gs", 1000, 42, TABLE1, extra_benchmarks=("bfs",)
        )

    def test_pass_key_partitions_fine_grain(self):
        coarse = pass_key("gs", 1000, 42, TABLE1)
        fine = pass_key("gs", 1000, 42, TABLE1, fine_grain=True)
        assert coarse != fine

    def test_code_fingerprint_is_cached_and_hexish(self):
        fp = code_fingerprint()
        assert fp == code_fingerprint()
        assert len(fp) == 16
        int(fp, 16)  # raises if not hex

"""Content-addressed on-disk artifact store.

The store keeps one artifact kind, the deterministic,
coalescer-independent prefix of a run: the **pass** — the
cache-hierarchy raw stream of a benchmark mix, as the
:data:`repro.artifacts.shm.REQ_DTYPE` array, plus the hierarchy summary
metrics the final ``RunResult`` reports. (Regenerating a trace costs
less than compressing it, so traces are not stored.)

Keys are sha256 digests over every input that can change the bytes of
the artifact: the full run parameterization, an explicit schema version,
and a fingerprint of the source code that produces the artifact. The
code fingerprint makes staleness invalidation automatic — any future PR
that edits a workload generator or the cache model changes the
fingerprint, so old entries simply stop matching and are recomputed
(``repro cache clear`` reclaims the disk space).

Writes go through a temp file + ``os.replace`` so concurrent writers
(pool workers racing on a cold cache) each publish a complete file and
the last one wins — both wrote identical bytes, so either is correct.
Corrupt entries (truncated by a crash, garbage, or contents the reader's
check rejects) are treated as misses, unlinked, and recomputed; an entry
that cannot be read at all (absent, unreadable, a root that is not a
directory) is a plain miss and nothing is unlinked. A write that fails
(read-only or full disk) is skipped and the run goes on uncached. Every
``get`` reads the file; store traffic shows in the ``cache.*`` events
(``hit``, ``miss``, ``corrupt``, ``store``, ``skip``) and in a grid's
``stats["artifact_hits"]``/``["artifact_misses"]``.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, Optional, Tuple

import numpy as np

#: Bump when the artifact file layout or key recipe changes; old
#: entries become unreachable (never misread).
ARTIFACT_SCHEMA = 1

#: Environment knobs. The directory variable doubles as the isolation
#: mechanism for tests and bench runs (point it at a temp dir); the
#: cache variable is how ``--no-artifact-cache`` reaches pool workers,
#: since fork/spawn children inherit the environment.
ENV_DIR = "REPRO_ARTIFACT_DIR"
ENV_ENABLED = "REPRO_ARTIFACT_CACHE"

_FALSEY = {"0", "false", "no", "off", ""}


def cache_enabled() -> bool:
    """Whether the artifact cache is globally enabled (env switch)."""
    return os.environ.get(ENV_ENABLED, "1").strip().lower() not in _FALSEY


def default_root() -> Path:
    """Resolve the on-disk cache root (``$REPRO_ARTIFACT_DIR`` wins)."""
    env = os.environ.get(ENV_DIR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / "artifacts"


# --------------------------------------------------------------------- #
# keys

#: Module files whose source feeds the code fingerprint — everything
#: that executes between "benchmark name" and "raw request stream".
_FINGERPRINT_SOURCES = (
    "workloads",
    "cache",
    "mem",
    "common",
    "config.py",
    "engine/system.py",
    "artifacts/shm.py",
)

_fingerprint_cache: Optional[str] = None


def code_fingerprint() -> str:
    """sha256 over the trace/cache-pass producing source files.

    Computed once per process; source files do not change under a
    running simulation.
    """
    global _fingerprint_cache
    if _fingerprint_cache is None:
        pkg_root = Path(__file__).resolve().parent.parent
        digest = hashlib.sha256()
        for entry in _FINGERPRINT_SOURCES:
            path = pkg_root / entry
            files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
            for f in files:
                digest.update(str(f.relative_to(pkg_root)).encode())
                try:
                    digest.update(f.read_bytes())
                except OSError:
                    digest.update(b"<unreadable>")
        _fingerprint_cache = digest.hexdigest()[:16]
    return _fingerprint_cache


def _digest(kind: str, parts: tuple) -> str:
    payload = repr((kind, ARTIFACT_SCHEMA, code_fingerprint()) + parts)
    return hashlib.sha256(payload.encode()).hexdigest()[:32]


def pass_key(
    benchmark: str,
    n_accesses: int,
    seed: int,
    config,
    device: str = "hmc",
    scale=1.0,
    extra_benchmarks: Tuple[str, ...] = (),
    fine_grain: bool = False,
) -> str:
    """Key for a cache-pass (raw stream) artifact. ``fine_grain``
    selects a different hierarchy traversal, so it partitions the key."""
    return _digest(
        "pass",
        (
            benchmark,
            int(n_accesses),
            int(seed),
            config.config_hash(),
            device,
            repr(scale),
            tuple(extra_benchmarks),
            bool(fine_grain),
        ),
    )


# --------------------------------------------------------------------- #
# store


@dataclass
class ArtifactEntry:
    """One on-disk artifact, as listed by ``repro cache ls``."""

    kind: str
    key: str
    path: Path
    size_bytes: int
    meta: Dict = field(default_factory=dict)


class ArtifactStore:
    """Content-addressed store: one npz file per artifact under ``root``."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)

    # -- paths ---------------------------------------------------------

    def _path(self, kind: str, key: str) -> Path:
        return self.root / f"{kind}-{key}.npz"

    # -- core get/put --------------------------------------------------

    def get(
        self, kind: str, key: str,
        check: Optional[Callable[[dict], object]] = None,
    ) -> Optional[dict]:
        """Load ``{"meta": dict, **arrays}`` for a key, or None on miss.

        A file that exists but cannot be parsed (torn write, wrong
        version), or whose payload ``check`` rejects by raising, is
        corrupt (``cache.corrupt``): it is unlinked and the caller
        recomputes. One that cannot be read at all (absent, no
        permission, a root that is not a directory) is a plain
        ``cache.miss``, and nothing is unlinked.

        Fault site ``artifact.get`` (kind ``corrupt``) garbles the
        on-disk entry before the normal read, so injection exercises the
        real unlink-and-recompute path rather than simulating it.
        """
        from repro.faults.injector import active
        from repro.telemetry import events as ev

        elog = ev.active()
        path = self._path(kind, key)
        if active().site_fault("artifact.get") == "corrupt":
            try:
                if path.is_file():
                    path.write_bytes(b"repro-injected-corruption")
            except OSError:  # pragma: no cover - unwritable cache dir
                pass
        try:
            with np.load(path, allow_pickle=False) as npz:
                arrays = {name: npz[name] for name in npz.files}
            payload = {
                "meta": json.loads(bytes(arrays.pop("__meta__").tobytes())),
                **arrays,
            }
            if check is not None:
                check(payload)
        except OSError:
            # Absent, or unreadable (a root that is a plain file, no
            # permission, an I/O error): nothing to drop, a plain miss.
            if elog.enabled:
                elog.emit(ev.CacheMiss(artifact=kind, key=key))
            return None
        except Exception:
            # Corrupt, stale-format or rejected entry (``np.load`` raises
            # ValueError or BadZipFile, neither an OSError): drop it,
            # report a miss.
            if elog.enabled:
                elog.emit(ev.CacheCorrupt(artifact=kind, key=key))
            try:
                path.unlink()
            except OSError:
                pass
            return None
        if elog.enabled:
            elog.emit(ev.CacheHit(artifact=kind, key=key))
        return payload

    def put(self, kind: str, key: str, meta: Dict, **arrays) -> None:
        """Persist arrays + JSON meta atomically.

        A write that fails with an ``OSError`` (read-only or full cache
        dir) is skipped: its temp file is removed, a ``cache.skip``
        event names the error, and the run continues uncached. Fault
        site ``artifact.put`` (kind ``enospc``) injects a full disk
        before anything is written and takes the same path.
        """
        from repro.faults.injector import active
        from repro.telemetry import events as ev

        elog = ev.active()
        path = self._path(kind, key)
        tmp = path.with_name(
            f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            active().raise_site("artifact.put")
            self.root.mkdir(parents=True, exist_ok=True)
            blob = io.BytesIO()
            meta_arr = np.frombuffer(
                json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
            )
            np.savez_compressed(blob, __meta__=meta_arr, **arrays)
            tmp.write_bytes(blob.getvalue())
            os.replace(tmp, path)
        except OSError as exc:
            try:
                tmp.unlink()
            except OSError:
                pass
            if elog.enabled:
                elog.emit(ev.CacheSkipped(
                    artifact=kind, key=key, error=type(exc).__name__,
                ))
            return
        if elog.enabled:
            elog.emit(ev.CacheStored(artifact=kind, key=key))

    # -- maintenance / introspection ----------------------------------

    def entries(self) -> Iterator[ArtifactEntry]:
        if not self.root.is_dir():
            return
        for path in sorted(self.root.glob("*-*.npz")):
            kind, _, key = path.stem.partition("-")
            meta: Dict = {}
            try:
                with np.load(path, allow_pickle=False) as npz:
                    if "__meta__" in npz.files:
                        meta = json.loads(bytes(npz["__meta__"].tobytes()))
            except Exception:
                meta = {"corrupt": True}
            yield ArtifactEntry(
                kind=kind,
                key=key,
                path=path,
                size_bytes=path.stat().st_size,
                meta=meta,
            )

    def disk_bytes(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(p.stat().st_size for p in self.root.glob("*-*.npz"))

    def clear(self) -> int:
        """Delete every artifact file; returns the number removed."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for path in self.root.glob("*-*.npz"):
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed


def get_store(root: Optional[Path] = None) -> ArtifactStore:
    """A store on ``root``, else on :func:`default_root` as the
    environment names it now."""
    return ArtifactStore(root or default_root())

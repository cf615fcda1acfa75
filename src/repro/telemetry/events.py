"""Structured, append-only event log for suite-scale observability.

Probes and spans observe *inside* one simulation; the event log observes
the machinery *around* simulations — suite phases, supervisor recoveries
(retries, timeouts, pool rebuilds, degradation-ladder demotions),
artifact-cache traffic, and shared-memory transport — so a long
supervised run is no longer silent until completion. Every event is a
typed dataclass; the log assigns each one a per-process monotonic
sequence number and (optionally) appends it as one JSON line to a file,
flushed per event so ``tail -f`` (or ``repro events <path>``) gives live
visibility while a suite runs.

Design constraints, mirroring :mod:`repro.telemetry.probe` and
:mod:`repro.faults.injector`:

* **Null-object disabled path.** When no log is installed and
  ``$REPRO_EVENTS`` is unset, :func:`active` returns the shared
  :data:`NULL_EVENTS` whose ``enabled`` is False — emission sites guard
  with one attribute check and allocate nothing.
* **Deterministic content.** Event *payloads* carry only deterministic
  simulation facts (benchmarks, arms, counts, keys, attempt numbers).
  Wall-clock lives solely in the ``ts`` envelope field, which tests and
  diffs never compare.
* **Multi-process safe.** ``$REPRO_EVENTS`` is inherited by pool
  workers (fork/spawn), each of which appends to the same file with its
  own pid-tagged sequence; single-line ``O_APPEND`` writes keep lines
  intact, and :func:`validate_events` checks monotonicity per pid.
* **One way in.** The log is process state, never an argument of a
  run entry point: a block installs one with :func:`installed`, and
  ``$REPRO_EVENTS`` (set by the CLI's ``--events``) installs one in
  every process that reads it.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Dict, Iterable, List, Optional, Union

__all__ = [
    "CacheCorrupt",
    "CacheHit",
    "CacheMiss",
    "CacheSkipped",
    "CacheStored",
    "Demoted",
    "ENV_EVENTS",
    "EVENT_TYPES",
    "Event",
    "EventLog",
    "JobCompleted",
    "JobFailed",
    "JobRetried",
    "JobTimedOut",
    "LedgerRecorded",
    "NULL_EVENTS",
    "NullEventLog",
    "PhaseCompleted",
    "PhaseStarted",
    "PoolRebuilt",
    "RunCompleted",
    "RunStarted",
    "SCHEMA_VERSION",
    "ShmAttached",
    "ShmPublished",
    "ShmReleased",
    "SuiteCompleted",
    "SuiteStarted",
    "active",
    "installed",
    "read_events",
    "render_event",
    "reset_active",
    "validate_events",
]

#: Path of the JSONL sink; setting it enables event logging everywhere
#: in the process tree (pool workers inherit the environment).
ENV_EVENTS = "REPRO_EVENTS"


# --------------------------------------------------------------------- #
# typed events


@dataclass(frozen=True)
class Event:
    """Base class: every event is a frozen dataclass whose fields are
    the (deterministic) payload; ``kind`` names the schema entry."""

    kind = "event"

    def payload(self) -> Dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class RunStarted(Event):
    """One benchmark/arm simulation is about to run end-to-end."""

    kind = "run.start"
    benchmark: str
    coalescer: str
    n_accesses: int
    seed: Optional[int]
    device: str


@dataclass(frozen=True)
class RunCompleted(Event):
    """One benchmark/arm simulation finished (headline outputs only)."""

    kind = "run.end"
    benchmark: str
    coalescer: str
    n_raw: int
    n_issued: int
    runtime_cycles: int


@dataclass(frozen=True)
class SuiteStarted(Event):
    kind = "suite.start"
    benchmarks: List[str]
    arms: List[str]
    jobs: int
    workers: int


@dataclass(frozen=True)
class SuiteCompleted(Event):
    kind = "suite.end"
    jobs: int
    completed: int
    healthy: bool


@dataclass(frozen=True)
class PhaseStarted(Event):
    kind = "phase.start"
    phase: str
    jobs: int


@dataclass(frozen=True)
class PhaseCompleted(Event):
    kind = "phase.end"
    phase: str
    completed: int


@dataclass(frozen=True)
class JobCompleted(Event):
    kind = "job.done"
    label: str


@dataclass(frozen=True)
class JobFailed(Event):
    kind = "job.fail"
    label: str
    error: str
    attempt: int


@dataclass(frozen=True)
class JobRetried(Event):
    kind = "job.retry"
    label: str
    attempt: int
    delay: float


@dataclass(frozen=True)
class JobTimedOut(Event):
    kind = "job.timeout"
    label: str
    timeout: float


@dataclass(frozen=True)
class PoolRebuilt(Event):
    kind = "pool.rebuild"
    rebuilds: int


@dataclass(frozen=True)
class Demoted(Event):
    """A degradation-ladder transition of the suite pipeline (``rung``
    names the new rung): a benchmark's shm transport falling back to
    per-job arguments (``"shm->per-job"``), or a job that exhausted its
    retries running in the parent (``"serial"``, ``"phase1-serial"``).
    No engine demotes."""

    kind = "demote"
    rung: str
    label: str


@dataclass(frozen=True)
class CacheHit(Event):
    kind = "cache.hit"
    artifact: str
    key: str


@dataclass(frozen=True)
class CacheMiss(Event):
    kind = "cache.miss"
    artifact: str
    key: str


@dataclass(frozen=True)
class CacheStored(Event):
    kind = "cache.store"
    artifact: str
    key: str


@dataclass(frozen=True)
class CacheCorrupt(Event):
    """A store entry failed to parse and was unlinked for recompute."""

    kind = "cache.corrupt"
    artifact: str
    key: str


@dataclass(frozen=True)
class CacheSkipped(Event):
    """A store write failed (``error`` is the exception's class name),
    so the artifact was not persisted and the run went on uncached."""

    kind = "cache.skip"
    artifact: str
    key: str
    error: str


@dataclass(frozen=True)
class ShmPublished(Event):
    kind = "shm.publish"
    name: str
    nbytes: int


@dataclass(frozen=True)
class ShmAttached(Event):
    kind = "shm.attach"
    name: str


@dataclass(frozen=True)
class ShmReleased(Event):
    kind = "shm.release"
    name: str
    leaked: bool


@dataclass(frozen=True)
class LedgerRecorded(Event):
    kind = "ledger.record"
    run_id: str
    path: str


#: Schema registry: kind -> event class (payload field validation).
EVENT_TYPES: Dict[str, type] = {
    cls.kind: cls
    for cls in (
        RunStarted, RunCompleted, SuiteStarted, SuiteCompleted,
        PhaseStarted, PhaseCompleted, JobCompleted, JobFailed, JobRetried,
        JobTimedOut, PoolRebuilt, Demoted, CacheHit, CacheMiss,
        CacheStored, CacheCorrupt, CacheSkipped, ShmPublished, ShmAttached,
        ShmReleased, LedgerRecorded,
    )
}

#: Envelope keys every serialized event carries beyond its payload.
ENVELOPE_KEYS = ("seq", "pid", "ts", "kind", "v")

#: Payload schema of the events :class:`EventLog` writes, stamped as the
#: envelope's ``v``; bump it whenever an event type's fields change.
#: Logs written before the stamp existed carry no ``v``. Version 2
#: added ``cache.skip`` and dropped the perf harness's per-timing event.
SCHEMA_VERSION = 2


# --------------------------------------------------------------------- #
# the log and its null object


class NullEventLog:
    """Disabled path: emission is a no-op, iteration is empty."""

    enabled = False

    __slots__ = ()

    def emit(self, event: Event) -> None:
        pass

    @property
    def records(self) -> List[Dict]:
        return []

    def close(self) -> None:
        pass


NULL_EVENTS = NullEventLog()


class EventLog:
    """Append-only structured event log.

    With ``path`` set, every event is serialized as one JSON line and
    flushed immediately (live tailing; atomic single-line appends across
    the processes of a suite run). Events are also kept in
    :attr:`records` — suite event volume is per-job, not per-request,
    so the in-memory copy stays small.
    """

    enabled = True

    def __init__(self, path: Optional[Union[str, "os.PathLike"]] = None):
        self.path = os.fspath(path) if path is not None else None
        self.records: List[Dict] = []
        self._seq = 0
        self._fh = None
        if self.path is not None:
            parent = os.path.dirname(os.path.abspath(self.path))
            os.makedirs(parent, exist_ok=True)
            # Line-buffered append: one write per event keeps concurrent
            # writers (pool workers sharing the file) line-atomic.
            self._fh = open(self.path, "a", buffering=1)

    def emit(self, event: Event) -> None:
        """Stamp ``event`` with the next sequence number and record it."""
        import time

        doc = {
            "seq": self._seq,
            "pid": os.getpid(),
            "ts": time.time(),
            "kind": event.kind,
            "v": SCHEMA_VERSION,
            **event.payload(),
        }
        self._seq += 1
        self.records.append(doc)
        if self._fh is not None:
            try:
                self._fh.write(json.dumps(doc, sort_keys=True) + "\n")
            except (OSError, ValueError):
                # A full disk or a closed handle must never take down
                # the run being observed.
                pass

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:  # pragma: no cover - close on a dead handle
                pass
            self._fh = None

    def __len__(self) -> int:
        return len(self.records)

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# --------------------------------------------------------------------- #
# process-global active log (what the store/shm/supervisor hooks consult)

_active: object = NULL_EVENTS
_env_checked = False


def active():
    """The currently installed event log (never None).

    When nothing is installed, ``$REPRO_EVENTS`` is consulted once per
    process — that is how the CLI's ``--events`` reaches every emission
    site without a parameter, and how forked pool workers inherit a
    sink purely through the environment.
    """
    global _active, _env_checked
    if _active is NULL_EVENTS and not _env_checked:
        _env_checked = True
        path = os.environ.get(ENV_EVENTS, "").strip()
        if path:
            _active = EventLog(path)
    return _active


@contextmanager
def installed(log):
    """Install ``log`` as the process-global active event log for the
    duration of the block (restores the previous one after)."""
    global _active
    previous = _active
    _active = log
    try:
        yield log
    finally:
        _active = previous


def reset_active() -> None:
    """Forget any installed/env-derived log (test isolation)."""
    global _active, _env_checked
    if isinstance(_active, EventLog):
        _active.close()
    _active = NULL_EVENTS
    _env_checked = False


# --------------------------------------------------------------------- #
# reading and validation


def read_events(path) -> List[Dict]:
    """Parse a JSONL event log back into envelope dicts."""
    out: List[Dict] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out


def validate_events(events: Iterable[Dict]) -> List[str]:
    """Schema-check a sequence of event envelopes.

    Returns a list of problems (empty == valid): every event must carry
    the envelope keys, name a known kind, match that kind's payload
    fields exactly, and sequence numbers must increase monotonically
    per pid. Events written under another schema version (or none) are
    not checked against this one's payloads: each such version is one
    problem naming it and :data:`SCHEMA_VERSION`.
    """
    problems: List[str] = []
    last_seq: Dict[int, int] = {}
    foreign: Dict[object, List[int]] = {}
    for i, doc in enumerate(events):
        if not isinstance(doc, dict):
            problems.append(f"event {i}: not an object")
            continue
        if doc.get("v") != SCHEMA_VERSION:
            foreign.setdefault(doc.get("v"), []).append(i)
            continue
        missing = [k for k in ENVELOPE_KEYS if k not in doc]
        if missing:
            problems.append(f"event {i}: missing envelope key(s) {missing}")
            continue
        kind = doc["kind"]
        cls = EVENT_TYPES.get(kind)
        if cls is None:
            problems.append(f"event {i}: unknown kind {kind!r}")
            continue
        expected = {f.name for f in fields(cls)}
        got = set(doc) - set(ENVELOPE_KEYS)
        if got != expected:
            extra = sorted(got - expected)
            absent = sorted(expected - got)
            problems.append(
                f"event {i} ({kind}): payload mismatch"
                + (f" extra={extra}" if extra else "")
                + (f" missing={absent}" if absent else "")
            )
        pid = doc["pid"]
        seq = doc["seq"]
        prev = last_seq.get(pid)
        if prev is not None and seq <= prev:
            problems.append(
                f"event {i} ({kind}): seq {seq} not monotonic for "
                f"pid {pid} (previous {prev})"
            )
        last_seq[pid] = seq
    for version, indices in foreign.items():
        label = "none" if version is None else repr(version)
        problems.append(
            f"{len(indices)} event(s) from event {indices[0]} on carry "
            f"schema version {label}; this reader checks version "
            f"{SCHEMA_VERSION}"
        )
    return problems


def render_event(doc: Dict) -> Dict:
    """Flatten one envelope into a display row for ``repro events``."""
    payload = {
        k: v for k, v in doc.items() if k not in ENVELOPE_KEYS
    }
    detail = " ".join(f"{k}={payload[k]}" for k in sorted(payload))
    return {
        "seq": doc.get("seq", ""),
        "pid": doc.get("pid", ""),
        "kind": doc.get("kind", "?"),
        "detail": detail,
    }

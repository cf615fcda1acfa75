"""The packed raw stream, its oracle codec, and shared-memory transport.

The raw request stream — the cache hierarchy's output and the
coalescers' input — is a :data:`REQ_DTYPE` structured array (23 bytes
per request). The batched cache front-end emits it directly, and the
artifact store, the two-phase pipeline and the coalescers carry and read
it as is. As one contiguous buffer it:

* serializes fast (pickle, ``.npz``);
* maps directly into :mod:`multiprocessing.shared_memory`, so every
  phase-2 worker of :func:`repro.engine.parallel.run_suite_parallel`
  reads the parent's pages instead of unpickling the stream.

``req_id`` is not part of the layout: a request's id is its ordinal in
the array, the key span sampling and MSHR subentries use. Consumers use
ids only as opaque in-flight keys, so results never depend on them.

:func:`encode_requests` / :func:`decode_requests` convert between the
array and :class:`~repro.common.types.MemoryRequest` lists. Only the
reference oracle pays for objects: the scalar ``CacheHierarchy`` packs
its list once, and the scalar PAC and sorting coalescers decode their
input. :func:`check_requests` holds the row checks every array read
from disk must pass.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.common.types import MemOp, MemoryRequest, new_request

#: Packed little-endian layout of one raw request. ``align=False``
#: (the default) keeps it at 23 bytes; addresses are physical (< 8GB in
#: the Table 1 configuration, so int64 is comfortable).
REQ_DTYPE = np.dtype(
    [
        ("addr", "<i8"),
        ("size", "<i4"),
        ("op", "<i1"),
        ("core", "<i2"),
        ("cycle", "<i8"),
    ]
)


#: ``MemOp`` members by packed ``op`` value (``MemOp`` is dense from 0).
OPS = tuple(MemOp)
_OP_VALUES = np.array([int(op) for op in OPS], dtype=REQ_DTYPE["op"])


def columns(array: np.ndarray) -> Tuple[list, list, list, list, list]:
    """The ``addr, size, op, core, cycle`` columns as native-int lists.

    Column-wise ``tolist()`` converts at C speed; per-row access to a
    structured array would box a numpy void per request.
    """
    return tuple(array[name].tolist() for name in REQ_DTYPE.names)


def check_requests(array: np.ndarray) -> None:
    """Raise ``ValueError`` unless ``array`` is a valid packed stream.

    The dtype must be :data:`REQ_DTYPE`, and every row must pass the
    checks the ``MemoryRequest`` constructor makes (``addr >= 0``,
    ``size > 0``, ``op`` a :class:`MemOp` value); the message names the
    first bad row.
    """
    if not isinstance(array, np.ndarray) or array.dtype != REQ_DTYPE:
        raise ValueError(
            f"packed stream must have dtype {REQ_DTYPE}, got "
            f"{getattr(array, 'dtype', type(array).__name__)}"
        )
    addr = array["addr"]
    size = array["size"]
    op = array["op"]
    bad = (addr < 0) | (size <= 0) | ~np.isin(op, _OP_VALUES)
    if bad.any():
        i = int(bad.argmax())
        if addr[i] < 0:
            reason = f"negative physical address: {int(addr[i]):#x}"
        elif size[i] <= 0:
            reason = f"non-positive request size: {int(size[i])}"
        else:
            reason = f"{int(op[i])} is not a valid MemOp"
        raise ValueError(f"packed request {i}: {reason}")


def encode_requests(requests: Sequence[MemoryRequest]) -> np.ndarray:
    """Pack a request list into a ``REQ_DTYPE`` structured array."""
    out = np.empty(len(requests), dtype=REQ_DTYPE)
    out["addr"] = [r.addr for r in requests]
    out["size"] = [r.size for r in requests]
    out["op"] = [int(r.op) for r in requests]
    out["core"] = [r.core_id for r in requests]
    out["cycle"] = [r.cycle for r in requests]
    return out


def decode_requests(array: np.ndarray) -> List[MemoryRequest]:
    """Rebuild the request list, each ``req_id`` its ordinal.

    The array passes :func:`check_requests` first; the requests are then
    built with the unchecked :func:`~repro.common.types.new_request`
    constructor.
    """
    check_requests(array)
    addr, size, op, core, cycle = columns(array)
    return [
        new_request(a, s, OPS[o], c, cy, i)
        for i, (a, s, o, c, cy) in enumerate(zip(addr, size, op, core, cycle))
    ]


# --------------------------------------------------------------------- #
# shared-memory transport (parent owns the segment lifecycle)


def publish(array: np.ndarray) -> Tuple[object, str]:
    """Copy ``array`` into a fresh shared-memory segment.

    Returns ``(shm, name)``; the caller owns the segment and must
    ``close()`` + ``unlink()`` it (see :func:`release`). Zero-length
    arrays still get a 1-byte segment (POSIX shm forbids empty maps).
    A failure after segment creation releases the half-built segment
    before propagating, so a faulting publish can never leak.

    Fault site ``shm.publish`` (kind ``enospc``) injects the
    allocation-failure path — callers degrade to a pickled per-job
    transport (see :mod:`repro.engine.parallel`).
    """
    from multiprocessing import shared_memory

    from repro.faults.injector import active
    from repro.telemetry import events as ev

    active().raise_site("shm.publish")
    nbytes = max(1, array.nbytes)
    shm = shared_memory.SharedMemory(create=True, size=nbytes)
    try:
        if array.nbytes:
            view = np.ndarray(array.shape, dtype=array.dtype, buffer=shm.buf)
            view[:] = array
    except BaseException:
        release(shm)
        raise
    elog = ev.active()
    if elog.enabled:
        elog.emit(ev.ShmPublished(name=shm.name, nbytes=nbytes))
    return shm, shm.name


def attach(name: str, n_items: int, dtype: np.dtype = REQ_DTYPE):
    """Attach to a published segment from a worker process.

    Returns ``(shm, array_view)``. The view is only valid while ``shm``
    stays open — copy it out before calling :func:`detach`.

    CPython's resource tracker registers POSIX shm segments on *attach*
    as well as on create (fixed only in 3.13's ``track=False``).
    Registration is suppressed for the duration of the attach: the
    tracker process is shared across fork, so letting the worker
    register (and later unregister) the parent-owned name would either
    unlink a segment the worker never owned or race the parent's own
    unlink into a double-unregister.
    """
    from multiprocessing import resource_tracker, shared_memory

    from repro.faults.injector import active

    # Fault site ``shm.attach`` (kind ``lost``): the segment vanished
    # between publish and attach — exactly what a worker sees when the
    # parent died or the segment was externally unlinked.
    active().raise_site("shm.attach")
    real_register = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        shm = shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = real_register
    array = np.ndarray((n_items,), dtype=dtype, buffer=shm.buf)
    from repro.telemetry import events as ev

    elog = ev.active()
    if elog.enabled:
        elog.emit(ev.ShmAttached(name=name))
    return shm, array


def detach(shm) -> None:
    """Close a worker-side attachment (never unlinks)."""
    shm.close()


def segment_exists(name: str) -> bool:
    """Whether a POSIX shm segment is still present on this host.

    Linux exposes segments under ``/dev/shm``; on platforms without it
    (no way to verify) this conservatively reports False.
    """
    import pathlib

    root = pathlib.Path("/dev/shm")
    if not root.is_dir():
        return False
    return (root / name).exists()


def release(shm) -> bool:
    """Close and unlink a parent-owned segment (idempotent), then
    verify the unlink actually removed it.

    Returns True when the segment is verifiably gone (or the platform
    cannot verify). A False return means the segment leaked — callers
    record it on :class:`repro.engine.health.RunHealth` rather than
    failing the run.
    """
    from repro.telemetry import events as ev

    name = getattr(shm, "name", None)
    try:
        shm.close()
    except (OSError, ValueError):  # pragma: no cover - double close
        pass
    try:
        shm.unlink()
    except FileNotFoundError:  # pragma: no cover - already unlinked
        pass
    except OSError:  # pragma: no cover - unlink refused; verify below
        pass
    gone = True if name is None else not segment_exists(name)
    elog = ev.active()
    if elog.enabled:
        elog.emit(ev.ShmReleased(name=name or "?", leaked=not gone))
    return gone

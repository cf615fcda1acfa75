"""Content-addressed artifact cache + shared-memory raw-stream transport.

Every grid (``run_suite_parallel`` and its views, the experiment
registry's sweeps) shares a deterministic prefix — trace generation and
the cache-hierarchy pass — across the arms of a benchmark. This package
computes that prefix once per benchmark, caches it content-addressed on
disk (keyed by run parameters, a schema version, and a fingerprint of
the producing source code), and fans the packed raw stream — the
``REQ_DTYPE`` array the cache front-end emits and the coalescers read —
out to pool workers through ``multiprocessing.shared_memory`` instead of
pickle. The store keeps no in-process state: store traffic shows in the
``cache.*`` events and a grid's hit and miss counts.

See ARCHITECTURE.md ("Artifact cache") for the key spec, invalidation
rules, and shared-memory layout.
"""

from repro.artifacts.shm import (
    REQ_DTYPE,
    attach,
    check_requests,
    decode_requests,
    detach,
    encode_requests,
    publish,
    release,
    segment_exists,
)
from repro.artifacts.store import (
    ARTIFACT_SCHEMA,
    ArtifactEntry,
    ArtifactStore,
    cache_enabled,
    code_fingerprint,
    default_root,
    get_store,
    pass_key,
)
from repro.artifacts.pipeline import (
    TracePass,
    build_trace_pass,
    compute_and_store_trace_pass,
    compute_trace_pass,
    load_or_compute_trace_pass,
    try_load_trace_pass,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "REQ_DTYPE",
    "ArtifactEntry",
    "ArtifactStore",
    "TracePass",
    "attach",
    "build_trace_pass",
    "cache_enabled",
    "check_requests",
    "code_fingerprint",
    "compute_and_store_trace_pass",
    "compute_trace_pass",
    "decode_requests",
    "default_root",
    "detach",
    "encode_requests",
    "get_store",
    "load_or_compute_trace_pass",
    "pass_key",
    "publish",
    "release",
    "segment_exists",
    "try_load_trace_pass",
]

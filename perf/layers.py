"""Outside-in layer tracing: timing wrappers on each layer's entry points.

:class:`Tracer` patches the public entry points in :data:`TARGETS` —
at the attribute the caller resolves, so production code picks the
wrapper up without knowing about it — and restores the originals when a
traced iteration ends. Each wrapped call becomes a :class:`Span` (name,
start, end, parent span id, iteration id). Per-packet device
``submit`` calls are too many to keep one span each; they are folded
into one aggregate span (call count and summed seconds) per enclosing
span.

A layer's self time is the duration of its spans minus the part their
child spans cover. Every traced iteration has a root span whose self
time is ``engine.glue_s`` — the driver and hand-off time no layer
claims — so in one process the self times of all layers plus the glue
add up to the iteration wall exactly.

Forked pool workers inherit the wrappers. A worker's spans go to a
per-process spool file that the parent collects when the iteration
ends, so suite runs also report the time spent inside the workers.
Those spans add to worker busy time, not to the parent's wall.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import os
import time
from pathlib import Path
from typing import Dict, Iterator, List

#: The per-packet metric: its calls are aggregated, not kept one by one.
PACKET_METRIC = "hmc.submit_s"

#: Wrapped entry points: (module, class or None for a module function,
#: attribute, metric). A metric's prefix names its layer, the
#: ``src/repro`` package the entry point belongs to.
TARGETS = (
    ("repro.workloads.base", "WorkloadGenerator", "generate",
     "workloads.generate_s"),
    ("repro.mem.pagetable", "PageTable", "translate_array",
     "mem.translate_s"),
    ("repro.cache.hierarchy", "CacheHierarchy", "process",
     "cache.process_s"),
    ("repro.cache.batched", "BatchedCacheHierarchy", "process",
     "cache.process_s"),
    ("repro.artifacts.shm", None, "encode_requests", "artifacts.encode_s"),
    ("repro.artifacts.shm", None, "decode_requests", "artifacts.decode_s"),
    ("repro.artifacts.store", "ArtifactStore", "get",
     "artifacts.store_get_s"),
    ("repro.artifacts.store", "ArtifactStore", "put",
     "artifacts.store_put_s"),
    ("repro.core.pac", "PagedAdaptiveCoalescer", "process",
     "core.pac_process_s"),
    ("repro.core.pac_batched", "BatchedPagedAdaptiveCoalescer", "process",
     "core.pac_process_s"),
    ("repro.mshr.dmc", "NullCoalescer", "process", "mshr.none_process_s"),
    ("repro.mshr.dmc", "MSHRBasedDMC", "process", "mshr.dmc_process_s"),
    ("repro.hmc.device", "HMCDevice", "submit", PACKET_METRIC),
    ("repro.hmc.batched", "BatchedHMCDevice", "submit", PACKET_METRIC),
    ("repro.hmc.batched", "BatchedHMCDevice", "sync", "hmc.sync_s"),
    ("repro.engine.system", "System", "__init__", "engine.system_init_s"),
    ("repro.engine.system", "System", "build_trace", "engine.build_trace_s"),
    ("repro.engine.system", None, "build_result", "engine.build_result_s"),
)

#: Self time of the per-iteration root span.
GLUE_METRIC = "engine.glue_s"

#: Every metric a span can carry, in report order.
SPAN_METRICS = tuple(dict.fromkeys(t[3] for t in TARGETS)) + (GLUE_METRIC,)


class Span:
    """One wrapped call (or one aggregate of per-packet calls)."""

    __slots__ = (
        "id", "parent", "name", "metric", "start", "end", "child",
        "calls", "packet_s", "iteration", "pid",
    )

    def __init__(self, id, parent, name, metric, start, iteration, pid):
        self.id = id
        self.parent = parent
        self.name = name
        self.metric = metric
        self.start = start
        self.end = start
        #: Seconds of this span covered by its direct children.
        self.child = 0.0
        #: Aggregated per-packet calls made directly under this span
        #: (for an aggregate span: the calls it stands for).
        self.calls = 0
        self.packet_s = 0.0
        self.iteration = iteration
        self.pid = pid

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.child

    def as_row(self) -> list:
        return [
            self.id, self.parent, self.name, self.metric, self.start,
            self.end, self.child, self.calls, self.iteration, self.pid,
        ]

    @classmethod
    def from_row(cls, row: list) -> "Span":
        (id, parent, name, metric, start, end, child, calls, iteration,
         pid) = row
        span = cls(id, parent, name, metric, start, iteration, pid)
        span.end, span.child, span.calls = end, child, calls
        return span


class Tracer:
    """Collects spans over traced iterations; see the module docstring.

    ``spool_dir`` receives the worker-side span files; it must not be
    shared with another tracer.
    """

    def __init__(self, spool_dir: Path) -> None:
        self.pid = os.getpid()
        self.origin = time.perf_counter()
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._next_id = 0
        self._iteration = -1
        self._spool_dir = Path(spool_dir)
        self._spool = None

    # -- span bookkeeping ---------------------------------------------

    def _open(self, name: str, metric: str) -> Span:
        if os.getpid() != self.pid:
            self._become_worker()
        self._next_id += 1
        stack = self._stack
        span = Span(
            self._next_id, stack[-1].id if stack else None, name, metric,
            time.perf_counter(), self._iteration, self.pid,
        )
        stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack
        stack.pop()
        if span.calls:
            # The per-packet aggregate is drawn from the span's start.
            self._next_id += 1
            agg = Span(
                self._next_id, span.id, "submit", PACKET_METRIC,
                span.start, span.iteration, span.pid,
            )
            agg.end = span.start + span.packet_s
            agg.calls = span.calls
            span.child += span.packet_s
            self.spans.append(agg)
        if stack:
            stack[-1].child += span.end - span.start
        self.spans.append(span)
        if self._spool is not None and not stack:
            for done in self.spans:
                self._spool.write(json.dumps(done.as_row()) + "\n")
            self._spool.flush()
            self.spans.clear()

    def _become_worker(self) -> None:
        """First span in a forked child: drop the parent's state and
        spool this process's spans to its own file. The file stays open
        for the life of the worker, which may end without running
        finalizers, so :meth:`_close` flushes after every top-level
        span."""
        self.pid = os.getpid()
        self.spans = []
        self._stack.clear()
        self._spool = open(self._spool_dir / f"spans-{self.pid}.jsonl", "a")

    def _collect_spool(self) -> None:
        for path in sorted(self._spool_dir.glob("spans-*.jsonl")):
            with open(path) as fh:
                self.spans.extend(Span.from_row(json.loads(line)) for line in fh)
            path.unlink()

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, fn, name: str, metric: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, metric)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        return wrapper

    def _packet_wrapper(self, fn):
        # Called once per packet, so it keeps to what the timing needs:
        # the fixed ``submit(packet, cycle)`` signature every caller
        # uses, and the span stack bound once (it is only ever cleared
        # in place).
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(device, packet, cycle):
            t0 = clock()
            try:
                return fn(device, packet, cycle)
            finally:
                if stack:
                    top = stack[-1]
                    top.calls += 1
                    top.packet_s += clock() - t0

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Patch every target; restore the original objects on exit."""
        patched = []
        try:
            for module, cls, attr, metric in TARGETS:
                owner = importlib.import_module(module)
                if cls is not None:
                    owner = getattr(owner, cls)
                original = vars(owner)[attr]
                name = f"{cls}.{attr}" if cls else attr
                if metric == PACKET_METRIC:
                    wrapper = self._packet_wrapper(original)
                else:
                    wrapper = self._span_wrapper(original, name, metric)
                setattr(owner, attr, wrapper)
                patched.append((owner, attr, original))
            yield
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def iteration(self, index: int) -> Iterator[Span]:
        """One traced iteration: wrappers installed, a root span open.

        Yields the root span; its duration is the iteration wall.
        """
        self._spool_dir.mkdir(parents=True, exist_ok=True)
        self._iteration = index
        with self.installed():
            root = self._open("iteration", GLUE_METRIC)
            try:
                yield root
            finally:
                self._close(root)
        self._collect_spool()

    # -- results --------------------------------------------------------

    def self_times(self, index: int) -> Dict[str, float]:
        """Per-metric self seconds of one iteration, every process."""
        out = dict.fromkeys(SPAN_METRICS, 0.0)
        for span in self.spans:
            if span.iteration == index:
                out[span.metric] += span.self_s
        return out

    def wall(self, index: int) -> float:
        """Wall seconds of one iteration: its root span."""
        root = next(
            s for s in self.spans
            if s.iteration == index and s.metric == GLUE_METRIC
        )
        return root.end - root.start

    def packet_calls(self, index: int) -> int:
        return sum(
            s.calls for s in self.spans
            if s.iteration == index and s.metric == PACKET_METRIC
        )

    def trace_events(self) -> List[dict]:
        """Chrome trace-event list (complete ``X`` events, microseconds)."""
        events = []
        for pid in sorted({s.pid for s in self.spans}):
            role = "bench driver" if pid == self.pid else "pool worker"
            events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": f"{role} {pid}"},
            })
        for s in self.spans:
            events.append({
                "name": s.name,
                "cat": s.metric.split(".")[0],
                "ph": "X",
                "pid": s.pid,
                "tid": 0,
                "ts": (s.start - self.origin) * 1e6,
                "dur": max(s.end - s.start, 0.0) * 1e6,
                "args": {
                    "id": s.id, "parent": s.parent, "metric": s.metric,
                    "iteration": s.iteration, "calls": s.calls,
                },
            })
        return events

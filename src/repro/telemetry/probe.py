"""Cycle-level telemetry probes — windowed counters, gauges, histograms.

The probes answer *when* questions the end-of-run aggregates in
:mod:`repro.common.stats` cannot: when does the MAQ fill, which windows
concentrate bank conflicts, when does the network controller's idle
bypass engage. Every probe folds observations into fixed-width cycle
windows (``window_cycles``), so a full run exports as a compact
per-window timeline instead of a per-event trace.

Design constraints:

* **Near-zero overhead when disabled.** Components fetch their probes
  once at construction time. When telemetry is off they receive shared
  null probes whose ``add``/``observe`` are empty methods — the hot path
  pays one no-op call per event and allocates nothing.
* **Deterministic and picklable.** Probe state is plain ints/floats in
  dicts; two runs of the same seed produce ``==``-equal registries, and
  a registry survives the process-pool round-trip of
  :func:`repro.engine.parallel.run_suite_parallel` bit-identically.
* **Bulk folds for the batched engines.** ``add_many``/``observe_many``
  fold a whole buffer of events and equal a loop of per-event
  ``add``/``observe`` calls. The batched engines append events to the
  bounded columns of a :class:`ProbeBuffer` in their hot loops and fold
  them at their merge points, instead of calling a probe per event.

Probe kinds
-----------
``CounterProbe``
    Monotone event counts: a run total plus events-per-window.
``GaugeProbe``
    Sampled levels (queue occupancy, latencies): per-window
    count/sum/min/max, so means and envelopes are exact per window.
``HistogramProbe``
    Whole-run integer-keyed distribution (no windowing) for shape
    metrics such as packet sizes.

Use :meth:`TelemetryRegistry.scope` to hand each component a namespaced
view; probe names join with ``.`` (e.g. ``pac.maq.occupancy``).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.common.stats import dist_percentile as _dist_percentile

__all__ = [
    "CounterProbe",
    "FOLD_EVENTS",
    "GaugeProbe",
    "HistogramProbe",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "ProbeBuffer",
    "TelemetryRegistry",
    "TelemetryScope",
]

#: Events a batched engine buffers in one :class:`ProbeBuffer` column
#: before folding the buffer into its probes. A fixed size, not an
#: option: it bounds buffer memory however long the run is. On a 2-core
#: VM, a 24k-access gs probe run folds 87 times in ~0.11 s at 1024;
#: 4096 saves ~0.03 s of folding but peaks ~0.7 MB higher in RSS.
FOLD_EVENTS = 1024

#: Bulk folds take the numpy path only while every partial sum is an
#: exactly representable integer; otherwise they replay the per-event
#: method in event order.
_EXACT = 1 << 53


def _int_column(seq, summed: bool = True) -> Optional[np.ndarray]:
    """``seq`` as an int64 array when every element is a machine int
    (and, if ``summed``, any partial sum of it stays below 2**53), else
    None: the caller replays its per-event method."""
    arr = np.asarray(seq)
    if arr.dtype.kind != "i":
        return None
    if summed and max(-int(arr.min()), int(arr.max())) * len(arr) >= _EXACT:
        return None
    return arr


def _groups(keys: np.ndarray, *cols: np.ndarray):
    """Group rows by key, keeping event order inside each group:
    ``(unique keys, group starts, group sizes, cols sorted by key)``."""
    order = np.argsort(keys, kind="stable")
    uniq, starts, sizes = np.unique(
        keys[order], return_index=True, return_counts=True
    )
    return uniq, starts, sizes, [col[order] for col in cols]


def _accumulate(prev, total: int, group: np.ndarray):
    """``prev`` plus a group of integer events, bit-identical to adding
    them one at a time: int + int is exact in any order; onto a float,
    add each event in order."""
    if type(prev) is int:
        return prev + total
    for x in group.tolist():
        prev += x
    return prev


class CounterProbe:
    """Monotone event counter with per-window sub-totals."""

    kind = "counter"

    __slots__ = ("name", "window_cycles", "total", "windows")

    def __init__(self, name: str, window_cycles: int) -> None:
        self.name = name
        self.window_cycles = window_cycles
        self.total = 0
        #: window index -> events in that window
        self.windows: Dict[int, int] = {}

    def add(self, cycle: int, amount: int = 1) -> None:
        """Record ``amount`` events at ``cycle``."""
        self.total += amount
        w = cycle // self.window_cycles
        self.windows[w] = self.windows.get(w, 0) + amount

    def add_many(self, cycles, amounts=None) -> None:
        """Fold a batch of events; equal to ``add(cycle, amount)`` for
        each pair in order (``amounts=None`` adds 1 per cycle).

        Integer events fold with numpy: their sums do not depend on
        order. Float amounts (``device.energy_pj``), or a total that
        already holds a float, replay :meth:`add` one event at a time in
        event order, because float sums do depend on it.
        """
        n = len(cycles)
        if not n:
            return
        c = _int_column(cycles, summed=False)
        a = None if amounts is None else _int_column(amounts)
        if c is None or (amounts is not None and a is None) or (
            type(self.total) is not int
        ):
            add = self.add
            if amounts is None:
                for cycle in cycles:
                    add(cycle)
            else:
                for cycle, amount in zip(cycles, amounts):
                    add(cycle, amount)
            return
        if a is None:
            keys, sums = np.unique(c // self.window_cycles, return_counts=True)
            total = n
        else:
            keys, starts, _, (a_sorted,) = _groups(c // self.window_cycles, a)
            sums = np.add.reduceat(a_sorted, starts)
            total = int(a.sum())
        windows = self.windows
        for w, v in zip(keys.tolist(), sums.tolist()):
            windows[w] = windows.get(w, 0) + v
        self.total += total

    def window_value(self, window: int) -> int:
        return self.windows.get(window, 0)

    def as_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "total": self.total,
            "windows": {str(w): v for w, v in sorted(self.windows.items())},
        }

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CounterProbe)
            and self.name == other.name
            and self.window_cycles == other.window_cycles
            and self.total == other.total
            and self.windows == other.windows
        )

    def __repr__(self) -> str:
        return f"CounterProbe({self.name}: total={self.total}, {len(self.windows)} windows)"


class GaugeProbe:
    """Sampled level; per-window count/sum/min/max (exact window means)
    plus a whole-run value distribution for exact percentiles."""

    kind = "gauge"

    __slots__ = ("name", "window_cycles", "count", "total", "windows", "dist")

    def __init__(self, name: str, window_cycles: int) -> None:
        self.name = name
        self.window_cycles = window_cycles
        self.count = 0
        self.total = 0.0
        #: window index -> [n, sum, min, max]
        self.windows: Dict[int, List[float]] = {}
        #: observed value -> occurrence count (exact run distribution;
        #: gauged levels are occupancies/latencies with few distinct
        #: values, so this stays small).
        self.dist: Dict[float, int] = {}

    def observe(self, cycle: int, value: float) -> None:
        """Record a sample of the gauged level at ``cycle``."""
        self.count += 1
        self.total += value
        self.dist[value] = self.dist.get(value, 0) + 1
        w = cycle // self.window_cycles
        agg = self.windows.get(w)
        if agg is None:
            self.windows[w] = [1, value, value, value]
        else:
            agg[0] += 1
            agg[1] += value
            if value < agg[2]:
                agg[2] = value
            if value > agg[3]:
                agg[3] = value

    def observe_many(self, cycles, values) -> None:
        """Fold a batch of samples; equal to ``observe(cycle, value)``
        for each pair in order.

        Integer samples fold with numpy (exact, order-free sums below
        2**53). A float running sum — the whole-run ``total``, or a
        window that already saw a float — takes its integer samples one
        at a time in event order; non-integer samples replay
        :meth:`observe`.
        """
        n = len(cycles)
        if not n:
            return
        c = _int_column(cycles, summed=False)
        v = _int_column(values)
        if c is None or v is None:
            observe = self.observe
            for cycle, value in zip(cycles, values):
                observe(cycle, value)
            return
        keys, starts, sizes, (v_sorted,) = _groups(c // self.window_cycles, v)
        windows = self.windows
        for i, (w, size, wsum, lo, hi) in enumerate(zip(
            keys.tolist(),
            sizes.tolist(),
            np.add.reduceat(v_sorted, starts).tolist(),
            np.minimum.reduceat(v_sorted, starts).tolist(),
            np.maximum.reduceat(v_sorted, starts).tolist(),
        )):
            agg = windows.get(w)
            if agg is None:
                windows[w] = [size, wsum, lo, hi]
                continue
            agg[0] += size
            start = starts[i]
            agg[1] = _accumulate(agg[1], wsum, v_sorted[start:start + size])
            if lo < agg[2]:
                agg[2] = lo
            if hi > agg[3]:
                agg[3] = hi
        dist = self.dist
        uniq, counts = np.unique(v, return_counts=True)
        for value, count in zip(uniq.tolist(), counts.tolist()):
            dist[value] = dist.get(value, 0) + count
        self.count += n
        total = self.total
        if float(total).is_integer() and (
            abs(total) + int(np.abs(v).sum()) < _EXACT
        ):
            # Every partial sum is an exact integer: one add is the same.
            self.total = total + int(v.sum())
        else:
            for x in v.tolist():
                total += x
            self.total = total

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Exact nearest-rank percentile of all observed values
        (``q`` in [0, 1])."""
        return _dist_percentile(self.dist, self.count, q)

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def window_mean(self, window: int) -> float:
        agg = self.windows.get(window)
        return agg[1] / agg[0] if agg else 0.0

    def window_max(self, window: int) -> float:
        agg = self.windows.get(window)
        return agg[3] if agg else 0.0

    def as_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "mean": self.mean,
            "windows": {
                str(w): {"n": agg[0], "sum": agg[1], "min": agg[2], "max": agg[3]}
                for w, agg in sorted(self.windows.items())
            },
        }

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GaugeProbe)
            and self.name == other.name
            and self.window_cycles == other.window_cycles
            and self.count == other.count
            and self.total == other.total
            and self.windows == other.windows
            and self.dist == other.dist
        )

    def __repr__(self) -> str:
        return f"GaugeProbe({self.name}: n={self.count}, mean={self.mean:.3f})"


class HistogramProbe:
    """Whole-run integer-keyed distribution (packet sizes, span widths)."""

    kind = "histogram"

    __slots__ = ("name", "bins")

    def __init__(self, name: str) -> None:
        self.name = name
        self.bins: Dict[int, int] = {}

    def add(self, key: int, count: int = 1) -> None:
        self.bins[key] = self.bins.get(key, 0) + count

    def add_many(self, keys, counts=None) -> None:
        """Fold a batch of samples; equal to ``add(key, count)`` for
        each pair in order (``counts=None`` adds 1 per key)."""
        n = len(keys)
        if not n:
            return
        k = _int_column(keys, summed=False)
        cnt = None if counts is None else _int_column(counts)
        if k is None or (counts is not None and cnt is None):
            add = self.add
            if counts is None:
                for key in keys:
                    add(key)
            else:
                for key, count in zip(keys, counts):
                    add(key, count)
            return
        if cnt is None:
            cnt = np.ones(n, dtype=np.int64)
        uniq, starts, sizes, (cnt_sorted,) = _groups(k, cnt)
        bins = self.bins
        for i, (key, total) in enumerate(zip(
            uniq.tolist(), np.add.reduceat(cnt_sorted, starts).tolist()
        )):
            start = starts[i]
            bins[key] = _accumulate(
                bins.get(key, 0), total, cnt_sorted[start:start + sizes[i]]
            )

    @property
    def total(self) -> int:
        return sum(self.bins.values())

    @property
    def mean(self) -> float:
        total = self.total
        if not total:
            return 0.0
        return sum(k * v for k, v in self.bins.items()) / total

    def percentile(self, q: float) -> float:
        """Exact nearest-rank percentile over the binned distribution."""
        return _dist_percentile(self.bins, self.total, q)

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)

    def as_dict(self) -> Dict:
        return {
            "kind": self.kind,
            "bins": {str(k): v for k, v in sorted(self.bins.items())},
        }

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HistogramProbe)
            and self.name == other.name
            and self.bins == other.bins
        )

    def __repr__(self) -> str:
        return f"HistogramProbe({self.name}: {len(self.bins)} bins)"


# --------------------------------------------------------------------------- #
# Event buffers: how the batched engines feed the probes.


class ProbeBuffer:
    """Bounded event columns a batched engine fills in its hot loop and
    folds into its probes in bulk.

    :meth:`column` hands out a plain list the loop appends to — one
    ``append`` per event instead of a probe call. Several probes may
    share a column, e.g. one cycle column for every per-packet event.
    :meth:`feed` wires a probe to its columns. :meth:`fold` calls each
    probe's bulk method once, in :meth:`feed` order, then clears every
    column in place, so ``append`` methods bound to locals stay valid.
    An engine folds when a column reaches :data:`FOLD_EVENTS` and at its
    merge points (the end of ``process``, ``sync``).
    """

    __slots__ = ("_columns", "_feeds")

    def __init__(self) -> None:
        self._columns: List[list] = []
        self._feeds: List[tuple] = []

    def column(self) -> list:
        """A fresh event column owned (and cleared) by this buffer."""
        col: list = []
        self._columns.append(col)
        return col

    def feed(self, probe, events: list, values: Optional[list] = None) -> None:
        """Fold ``events`` (cycles; keys for a histogram) with ``values``
        (amounts, samples or counts; None for one each) into ``probe``."""
        bulk = probe.observe_many if probe.kind == "gauge" else probe.add_many
        self._feeds.append((bulk, events, values))

    def fold(self) -> None:
        for bulk, events, values in self._feeds:
            if events:
                bulk(events, values)
        for col in self._columns:
            col.clear()


# --------------------------------------------------------------------------- #
# Null objects: the disabled path.


class _NullCounter:
    kind = "counter"
    __slots__ = ()

    def add(self, cycle: int, amount: int = 1) -> None:
        pass


class _NullGauge:
    kind = "gauge"
    __slots__ = ()

    def observe(self, cycle: int, value: float) -> None:
        pass


class _NullHistogram:
    kind = "histogram"
    __slots__ = ()

    def add(self, key: int, count: int = 1) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class NullTelemetry:
    """Disabled registry: every probe request returns a shared no-op
    probe; scoping returns the same object. Components can therefore wire
    probes unconditionally and pay only an empty method call per event
    when telemetry is off."""

    enabled = False

    __slots__ = ()

    def counter(self, name: str) -> _NullCounter:
        return _NULL_COUNTER

    def gauge(self, name: str) -> _NullGauge:
        return _NULL_GAUGE

    def histogram(self, name: str) -> _NullHistogram:
        return _NULL_HISTOGRAM

    def scope(self, name: str) -> "NullTelemetry":
        return self


#: Module-level singleton every component defaults to.
NULL_TELEMETRY = NullTelemetry()


# --------------------------------------------------------------------------- #
# The live registry.


class TelemetryRegistry:
    """Hierarchical collection of telemetry probes for one simulation.

    Probe names are fully qualified dotted paths; components receive
    :class:`TelemetryScope` views (via :meth:`scope`) so the taxonomy is
    assembled by the engine, not hard-coded in each component.
    """

    enabled = True

    #: Default probe window: 1024 CPU cycles ≈ 0.5 µs at the Table 1
    #: 2 GHz clock — fine enough to see MAQ fill episodes, coarse enough
    #: that a 60k-access run exports a few hundred rows.
    DEFAULT_WINDOW_CYCLES = 1024

    def __init__(self, window_cycles: int = DEFAULT_WINDOW_CYCLES) -> None:
        if window_cycles <= 0:
            raise ValueError("window_cycles must be positive")
        self.window_cycles = window_cycles
        self.counters: Dict[str, CounterProbe] = {}
        self.gauges: Dict[str, GaugeProbe] = {}
        self.histograms: Dict[str, HistogramProbe] = {}

    # -- probe creation (lazy, idempotent) ---------------------------------- #

    def counter(self, name: str) -> CounterProbe:
        probe = self.counters.get(name)
        if probe is None:
            probe = self.counters[name] = CounterProbe(name, self.window_cycles)
        return probe

    def gauge(self, name: str) -> GaugeProbe:
        probe = self.gauges.get(name)
        if probe is None:
            probe = self.gauges[name] = GaugeProbe(name, self.window_cycles)
        return probe

    def histogram(self, name: str) -> HistogramProbe:
        probe = self.histograms.get(name)
        if probe is None:
            probe = self.histograms[name] = HistogramProbe(name)
        return probe

    def scope(self, name: str) -> "TelemetryScope":
        return TelemetryScope(self, name)

    # -- introspection ------------------------------------------------------ #

    def probes(self) -> Iterator:
        """Every probe, counters then gauges then histograms, name order."""
        for _, probe in sorted(self.counters.items()):
            yield probe
        for _, probe in sorted(self.gauges.items()):
            yield probe
        for _, probe in sorted(self.histograms.items()):
            yield probe

    def probe_names(self) -> List[str]:
        return [p.name for p in self.probes()]

    def span_windows(self) -> Tuple[int, int]:
        """(first, last) window index touched by any windowed probe;
        (0, -1) when nothing was recorded."""
        lo: Optional[int] = None
        hi: Optional[int] = None
        windowed = list(self.counters.values()) + list(self.gauges.values())
        for probe in windowed:
            if not probe.windows:
                continue
            w_lo = min(probe.windows)
            w_hi = max(probe.windows)
            lo = w_lo if lo is None else min(lo, w_lo)
            hi = w_hi if hi is None else max(hi, w_hi)
        if lo is None:
            return (0, -1)
        return (lo, hi)

    # -- export ------------------------------------------------------------- #

    def as_dict(self) -> Dict:
        """JSON-safe nested view of every probe."""
        return {
            "window_cycles": self.window_cycles,
            "probes": {p.name: p.as_dict() for p in self.probes()},
        }

    def to_json(
        self, indent: Optional[int] = None, metadata: Optional[Dict] = None
    ) -> str:
        import json

        doc = self.as_dict()
        if metadata:
            doc["meta"] = {str(k): metadata[k] for k in sorted(metadata)}
        return json.dumps(doc, indent=indent, sort_keys=True)

    # -- equality (determinism harness) ------------------------------------- #

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TelemetryRegistry)
            and self.window_cycles == other.window_cycles
            and self.counters == other.counters
            and self.gauges == other.gauges
            and self.histograms == other.histograms
        )

    def __repr__(self) -> str:
        return (
            f"TelemetryRegistry(window={self.window_cycles}, "
            f"{len(self.counters)} counters, {len(self.gauges)} gauges, "
            f"{len(self.histograms)} histograms)"
        )


class TelemetryScope:
    """Namespaced view onto a :class:`TelemetryRegistry`.

    ``registry.scope("pac").scope("maq").gauge("occupancy")`` creates the
    probe ``pac.maq.occupancy`` in the root registry.
    """

    enabled = True

    __slots__ = ("_root", "_prefix")

    def __init__(self, root: TelemetryRegistry, prefix: str) -> None:
        self._root = root
        self._prefix = prefix

    def _join(self, name: str) -> str:
        return f"{self._prefix}.{name}" if self._prefix else name

    def counter(self, name: str) -> CounterProbe:
        return self._root.counter(self._join(name))

    def gauge(self, name: str) -> GaugeProbe:
        return self._root.gauge(self._join(name))

    def histogram(self, name: str) -> HistogramProbe:
        return self._root.histogram(self._join(name))

    def scope(self, name: str) -> "TelemetryScope":
        return TelemetryScope(self._root, self._join(name))

    def __repr__(self) -> str:
        return f"TelemetryScope({self._prefix!r} -> {self._root!r})"

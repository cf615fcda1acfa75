"""Bulk folds equal per-event probe calls (Hypothesis property suite).

The batched engines feed the telemetry probes through
``CounterProbe.add_many`` / ``GaugeProbe.observe_many`` /
``HistogramProbe.add_many`` (via :class:`ProbeBuffer`) instead of one
``add``/``observe`` call per event. Each bulk method must leave a probe
``==`` to — and pickling/exporting identically to — a probe that saw the
same events one call at a time: for integer and float events, on fresh
probes and on probes that already hold data (float data included), for
empty batches, and for a buffer folded in arbitrary pieces.
"""

from __future__ import annotations

import json
import pickle

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.telemetry import ProbeBuffer, TelemetryRegistry
from repro.telemetry.probe import CounterProbe, GaugeProbe, HistogramProbe

_cycles = st.integers(min_value=0, max_value=10**7)
_ints = st.integers(min_value=-(10**6), max_value=10**9)
#: Magnitudes past int64 and past the 2**53 exactness bound: the bulk
#: methods must notice and replay per event.
_big_ints = st.integers(min_value=-(2**70), max_value=2**70)
_floats = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)
_values = st.one_of(_ints, _big_ints, _floats)
_windows = st.integers(min_value=1, max_value=4096)

#: A float running sum at 2**53 swallows a later +1 (round to even), so
#: adding two 1s one at a time differs from adding their sum of 2.
_HUGE_PRIOR = ([(0, 2.0**53)], [(0, 1), (0, 1)], [])
#: A fractional running total where ``(x + 25) + 44 != x + 69``; the
#: integer samples land in another window than the float one.
_FRACTIONAL_PRIOR = ([(0, 9.391491627785106)], [(5000, 25), (5000, 44)], [])


@st.composite
def _batches(draw, values):
    """(prior events, batch, cut points): the prior events go one call
    at a time into both probes; the batch is folded in the pieces the
    sorted cut points delimit (empty pieces included)."""
    prior = draw(st.lists(st.tuples(_cycles, _values), max_size=20))
    batch = draw(st.lists(st.tuples(_cycles, values), max_size=150))
    cuts = sorted(draw(st.lists(
        st.integers(min_value=0, max_value=len(batch)), max_size=4
    )))
    return prior, batch, cuts


def _pieces(batch, cuts):
    bounds = [0, *cuts, len(batch)]
    return [batch[a:b] for a, b in zip(bounds, bounds[1:])]


def _assert_same(got, want):
    assert got == want
    assert json.dumps(got.as_dict(), sort_keys=True) == json.dumps(
        want.as_dict(), sort_keys=True
    )
    assert pickle.loads(pickle.dumps(got)) == want


class TestCounterFold:
    @settings(max_examples=150, deadline=None)
    @given(_windows, _batches(st.one_of(_ints, _big_ints)))
    @example(16, _HUGE_PRIOR)
    def test_int_amounts(self, window, case):
        self._check(window, *case)

    @settings(max_examples=150, deadline=None)
    @given(_windows, _batches(_floats))
    def test_float_amounts(self, window, case):
        self._check(window, *case)

    @settings(max_examples=100, deadline=None)
    @given(_windows, _batches(st.just(1)))
    def test_unit_amounts(self, window, case):
        prior, batch, cuts = case
        want = CounterProbe("c", window)
        got = CounterProbe("c", window)
        for probe in (want, got):
            for cycle, amount in prior:
                probe.add(cycle, amount)
        for cycle, _ in batch:
            want.add(cycle)
        for piece in _pieces(batch, cuts):
            got.add_many([cycle for cycle, _ in piece])
        _assert_same(got, want)

    @staticmethod
    def _check(window, prior, batch, cuts):
        want = CounterProbe("c", window)
        got = CounterProbe("c", window)
        for probe in (want, got):
            for cycle, amount in prior:
                probe.add(cycle, amount)
        for cycle, amount in batch:
            want.add(cycle, amount)
        for piece in _pieces(batch, cuts):
            got.add_many(
                [cycle for cycle, _ in piece], [a for _, a in piece]
            )
        _assert_same(got, want)


class TestGaugeFold:
    @settings(max_examples=150, deadline=None)
    @given(_windows, _batches(st.one_of(_ints, _big_ints)))
    @example(16, _HUGE_PRIOR)
    @example(16, _FRACTIONAL_PRIOR)
    def test_int_samples(self, window, case):
        self._check(window, *case)

    @settings(max_examples=150, deadline=None)
    @given(_windows, _batches(_floats))
    def test_float_samples(self, window, case):
        self._check(window, *case)

    @staticmethod
    def _check(window, prior, batch, cuts):
        want = GaugeProbe("g", window)
        got = GaugeProbe("g", window)
        for probe in (want, got):
            for cycle, value in prior:
                probe.observe(cycle, value)
        for cycle, value in batch:
            want.observe(cycle, value)
        for piece in _pieces(batch, cuts):
            got.observe_many(
                [cycle for cycle, _ in piece], [v for _, v in piece]
            )
        _assert_same(got, want)
        assert got.p95 == want.p95


class TestHistogramFold:
    @settings(max_examples=150, deadline=None)
    @given(_batches(st.one_of(_ints, _big_ints)))
    @example(_HUGE_PRIOR)
    def test_counted_keys(self, case):
        prior, batch, cuts = case
        want = HistogramProbe("h")
        got = HistogramProbe("h")
        for probe in (want, got):
            for key, count in prior:
                probe.add(key, count)
        for key, count in batch:
            want.add(key, count)
        for piece in _pieces(batch, cuts):
            got.add_many([k for k, _ in piece], [c for _, c in piece])
        _assert_same(got, want)

    @settings(max_examples=100, deadline=None)
    @given(_batches(st.just(1)))
    def test_unit_counts(self, case):
        prior, batch, cuts = case
        want = HistogramProbe("h")
        got = HistogramProbe("h")
        for probe in (want, got):
            for key, count in prior:
                probe.add(key, count)
        for key, _ in batch:
            want.add(key)
        for piece in _pieces(batch, cuts):
            got.add_many([k for k, _ in piece])
        _assert_same(got, want)


class TestProbeBuffer:
    """The engines' buffer: shared columns, in-place clears, and folds
    at arbitrary points leave a registry equal to per-event feeding."""

    @settings(max_examples=100, deadline=None)
    @given(
        _windows,
        st.lists(st.tuples(_cycles, _ints, _floats), max_size=300),
        st.sets(st.integers(min_value=0, max_value=300), max_size=6),
    )
    def test_registry_matches_per_event_feed(self, window, events, folds):
        want = TelemetryRegistry(window_cycles=window)
        got = TelemetryRegistry(window_cycles=window)
        for registry in (want, got):
            registry.counter("n")
            registry.counter("bytes")
            registry.counter("pj")
            registry.gauge("level")
            registry.histogram("size")
        buf = ProbeBuffer()
        cycles, ints, floats = buf.column(), buf.column(), buf.column()
        buf.feed(got.counter("n"), cycles)
        buf.feed(got.counter("bytes"), cycles, ints)
        buf.feed(got.counter("pj"), cycles, floats)
        buf.feed(got.gauge("level"), cycles, ints)
        buf.feed(got.histogram("size"), ints)
        appends = cycles.append, ints.append, floats.append
        for i, (cycle, value, pj) in enumerate(events):
            if i in folds:
                buf.fold()
                assert not cycles and not ints and not floats
            for append, item in zip(appends, (cycle, value, pj)):
                append(item)
            want.counter("n").add(cycle)
            want.counter("bytes").add(cycle, value)
            want.counter("pj").add(cycle, pj)
            want.gauge("level").observe(cycle, value)
            want.histogram("size").add(value)
        buf.fold()
        buf.fold()  # folding empty columns is a no-op
        assert got == want
        assert got.to_json() == want.to_json()
        assert pickle.loads(pickle.dumps(got)) == want

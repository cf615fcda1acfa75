"""Span tracer: recorder semantics, run-level invariants, determinism.

The load-bearing guarantees:

* **Partition invariant** — a tracked request's stage spans are
  contiguous and non-overlapping: they tile ``[arrival, end]`` exactly,
  so per-stage durations sum to the end-to-end latency. Checked both
  property-style against adversarial mark sequences (hypothesis) and on
  real runs of every coalescer arm.
* **Determinism** — sampling keys on the raw-stream ordinal with a
  seed-derived offset, so serial and parallel suite runs produce
  bit-identical span sets.
* **Zero-overhead off switch** — systems built without ``spans=`` hold
  the shared :data:`NULL_SPANS` singleton end to end and still match the
  pre-spans goldens.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import derive_seed
from repro.common.types import MemOp
from repro.engine.driver import run_benchmark
from repro.engine.parallel import run_suite_parallel
from repro.engine.system import CoalescerKind, System
from repro.telemetry import NULL_SPANS, SpanRecorder, SpanTrace, STAGES

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "golden_results.json").read_text()
)


def _admit(rec, index, now, cycle=0, addr=0x1000, op=MemOp.LOAD, core=0):
    """Admit raw request ``index`` into ``rec``; returns its id (the
    ordinal, as in every coalescer)."""
    rec.admit(index, addr, core, op, cycle, now)
    return index


def assert_partition(span_trace: SpanTrace) -> None:
    """Every request's spans tile [arrival, end] in stage order."""
    order = {name: i for i, name in enumerate(STAGES)}
    for req in span_trace.requests:
        assert req.spans, f"request {req.index} has no spans"
        cursor = req.arrival
        last_order = -1
        for stage, start, end in req.spans:
            assert start == cursor, (req.index, stage, start, cursor)
            assert end >= start, (req.index, stage)
            assert order[stage] > last_order, (req.index, stage)
            last_order = order[stage]
            cursor = end
        assert cursor == req.end
        total = sum(end - start for _, start, end in req.spans)
        assert total == req.total_cycles
        assert sum(req.durations().values()) == req.total_cycles


class TestRecorderSemantics:
    def test_sampling_offset_derives_from_seed(self):
        rec = SpanRecorder(sample_rate=16, seed=99)
        assert rec.sample_offset == derive_seed(99, "spans") % 16
        sampled = [i for i in range(64) if rec.is_sampled(i)]
        assert len(sampled) == 4
        assert all(i % 16 == rec.sample_offset for i in sampled)

    def test_rebind_changes_offset_deterministically(self):
        a = SpanRecorder(sample_rate=8, seed=1)
        b = SpanRecorder(sample_rate=8, seed=1)
        a.bind(seed=2)
        b.bind(seed=2)
        assert a.sample_offset == b.sample_offset

    def test_unsampled_requests_are_ignored(self):
        rec = SpanRecorder(sample_rate=1000, seed=0)
        index = rec.sample_offset + 1  # off the sampling grid
        _admit(rec, index, now=5)
        assert len(rec.finalize()) == 0

    def test_out_of_order_marks_are_dropped_first_wins(self):
        rec = SpanRecorder(sample_rate=1, seed=0)
        rid = _admit(rec, 0, now=12, cycle=10)
        rec.mark(rid, "maq", 30)
        rec.mark(rid, "stage1", 20)  # earlier stage: ignored
        rec.mark(rid, "maq", 99)  # duplicate stage: ignored
        rec.mark(rid, "device", 50)
        trace = rec.finalize()
        assert [s[0] for s in trace.requests[0].spans] == [
            "queue", "maq", "device",
        ]
        assert_partition(trace)

    def test_backward_cycles_are_clamped(self):
        rec = SpanRecorder(sample_rate=1, seed=0)
        rid = _admit(rec, 0, now=20, cycle=10)
        rec.mark(rid, "device", 15)  # before the queue boundary
        trace = rec.finalize()
        (request,) = trace.requests
        assert request.spans == (("queue", 10, 20), ("device", 20, 20))
        assert_partition(trace)

    def test_unfinished_requests_dropped_at_finalize(self):
        rec = SpanRecorder(sample_rate=1, seed=0)
        done = _admit(rec, 0, now=2, cycle=0)
        rec.mark(done, "device", 9)
        pending = _admit(rec, 1, now=3, cycle=1)
        rec.mark(pending, "maq", 7)  # never reaches a terminal stage
        trace = rec.finalize()
        assert [r.index for r in trace.requests] == [0]

    def test_finalize_meta_merges_sorted(self):
        rec = SpanRecorder(sample_rate=4, seed=3)
        rec.bind(benchmark="gs")
        trace = rec.finalize(n_raw=10)
        assert trace.meta_dict == {"benchmark": "gs", "n_raw": 10, "seed": 3}
        assert list(trace.meta) == sorted(trace.meta)

    def test_sample_rate_must_be_positive(self):
        with pytest.raises(ValueError):
            SpanRecorder(sample_rate=0)


class TestPartitionPropertyHypothesis:
    """Adversarial mark sequences can never break the partition."""

    @given(
        arrival=st.integers(min_value=0, max_value=1000),
        admit_delay=st.integers(min_value=0, max_value=100),
        marks=st.lists(
            st.tuples(
                st.sampled_from(STAGES[1:]),
                st.integers(min_value=0, max_value=5000),
            ),
            max_size=12,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_spans_always_tile_arrival_to_end(
        self, arrival, admit_delay, marks
    ):
        rec = SpanRecorder(sample_rate=1, seed=0)
        rid = _admit(rec, 0, now=arrival + admit_delay, cycle=arrival)
        for stage, cycle in marks:
            rec.mark(rid, stage, cycle)
        trace = rec.finalize()
        # Either the request never reached a terminal stage (dropped) or
        # its spans partition [arrival, end] exactly.
        assert len(trace) <= 1
        assert_partition(trace)


class TestRealRunsSatisfyInvariants:
    @pytest.mark.parametrize(
        "kind",
        [CoalescerKind.NONE, CoalescerKind.DMC, CoalescerKind.PAC],
    )
    def test_all_arms_partition_and_sample_exactly(self, kind):
        result = run_benchmark(
            "gs", kind, n_accesses=4000, seed=7, spans=True
        )
        trace = result.spans
        assert isinstance(trace, SpanTrace)
        assert len(trace) > 0
        assert_partition(trace)
        # Every span index sits on the deterministic sampling grid.
        for req in trace.requests:
            assert req.index % trace.sample_rate == trace.sample_offset
        assert trace.meta_dict["benchmark"] == "gs"
        assert trace.meta_dict["coalescer"] == kind.value
        assert trace.meta_dict["seed"] == 7
        assert trace.meta_dict["n_raw"] == result.n_raw

    def test_packets_reference_tracked_requests(self):
        result = run_benchmark(
            "stream", CoalescerKind.PAC, n_accesses=4000, seed=7, spans=True
        )
        trace = result.spans
        assert trace.packets
        indices = {r.index for r in trace.requests}
        for packet in trace.packets:
            assert packet.tracked
            assert packet.completion >= packet.start
            # Dropped in-flight requests may linger in packet joins, but
            # most constituents must resolve to exported spans.
            assert indices.issuperset(packet.tracked) or set(
                packet.tracked
            ) & indices

    def test_sample_rate_knob_scales_coverage(self):
        dense = run_benchmark(
            "gs", CoalescerKind.PAC, n_accesses=4000, seed=7, spans=4
        ).spans
        sparse = run_benchmark(
            "gs", CoalescerKind.PAC, n_accesses=4000, seed=7, spans=64
        ).spans
        assert dense.sample_rate == 4
        assert sparse.sample_rate == 64
        assert len(dense) > len(sparse) > 0


class TestSpanDeterminism:
    SUITE_KWARGS = dict(
        kinds=(CoalescerKind.DMC, CoalescerKind.PAC),
        benchmarks=("gs", "stream"),
        n_accesses=2000,
        seed=11,
        spans=True,
    )

    def test_parallel_equals_serial_span_sets(self):
        serial = run_suite_parallel(max_workers=1, **self.SUITE_KWARGS)
        parallel = run_suite_parallel(max_workers=4, **self.SUITE_KWARGS)
        assert set(serial) == set(parallel)
        for key in serial:
            a, b = serial[key].spans, parallel[key].spans
            assert a is not None and len(a) > 0
            # Frozen plain-data dataclasses: full structural equality.
            assert a == b, f"{key}: span sets differ across worker counts"
            assert serial[key] == parallel[key]

    def test_same_seed_same_spans_across_fresh_runs(self):
        a = run_benchmark(
            "gs", CoalescerKind.PAC, n_accesses=2000, seed=11, spans=True
        ).spans
        b = run_benchmark(
            "gs", CoalescerKind.PAC, n_accesses=2000, seed=11, spans=True
        ).spans
        assert a == b

    def test_different_seed_different_sample_set(self):
        a = run_benchmark(
            "gs", CoalescerKind.PAC, n_accesses=2000, seed=11, spans=7
        ).spans
        b = run_benchmark(
            "gs", CoalescerKind.PAC, n_accesses=2000, seed=12, spans=7
        ).spans
        # Seeds derive different offsets (mod 7 here) almost surely; at
        # minimum the traces disagree because the traces themselves do.
        assert a != b


class TestDisabledSpansStayFree:
    def test_system_defaults_to_null_recorder(self):
        system = System(coalescer=CoalescerKind.PAC)
        assert system.spans is None
        assert system.hierarchy._spans is NULL_SPANS
        assert system.coalescer._spans is NULL_SPANS
        assert system.device._spans is NULL_SPANS
        assert system.hierarchy._spans_on is False

    def test_null_recorder_is_inert(self):
        assert NULL_SPANS.enabled is False
        assert NULL_SPANS.is_sampled(0) is False
        NULL_SPANS.admit(0, 0x1000, 0, MemOp.LOAD, 0, 0)
        NULL_SPANS.mark(1, "device", 5)
        NULL_SPANS.mark_many([1, 2], "maq", 5)
        NULL_SPANS.device_span(None, vault=0, link=0, start=0,
                               completion=1, segments=())
        NULL_SPANS.bind(seed=1)

    def test_disabled_runs_attach_no_trace(self):
        result = run_benchmark(
            "gs", CoalescerKind.PAC, n_accesses=2000, seed=11
        )
        assert result.spans is None

    @pytest.mark.parametrize("kind", [CoalescerKind.DMC, CoalescerKind.PAC])
    def test_disabled_spans_still_on_golden(self, kind):
        """Golden-regression guard: the spans layer, off by default, must
        not perturb a single modeled number vs the PR-1 goldens."""
        expected = GOLDEN["gs"][kind.value]
        result = run_benchmark("gs", kind, n_accesses=8000, seed=1234)
        assert result.spans is None
        assert result.n_raw == expected["n_raw"]
        assert result.coalescing_efficiency == pytest.approx(
            expected["coalescing_efficiency"], abs=0.02
        )
        assert result.transaction_efficiency == pytest.approx(
            expected["transaction_efficiency"], abs=0.02
        )

    @pytest.mark.parametrize("kind", [CoalescerKind.DMC, CoalescerKind.PAC])
    def test_enabled_spans_do_not_perturb_model(self, kind):
        """Observer effect guard: tracing changes no modeled number."""
        plain = run_benchmark("gs", kind, n_accesses=4000, seed=7)
        traced = run_benchmark(
            "gs", kind, n_accesses=4000, seed=7, spans=True
        )
        assert traced.n_raw == plain.n_raw
        assert traced.n_issued == plain.n_issued
        assert traced.runtime_cycles == plain.runtime_cycles
        assert traced.stall_cycles == plain.stall_cycles
        assert traced.energy.total_pj == plain.energy.total_pj

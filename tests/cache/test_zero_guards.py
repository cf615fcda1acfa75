"""Zero-access / zero-raw edge guards.

Every derived metric in the front-end and result layers divides by some
population count — accesses, raw requests, issued packets, serviced
requests. An empty trace (or a stream that coalesces to nothing) must
yield well-defined zeros everywhere, never a ZeroDivisionError, on
**both** front-end engines. These tests pin that contract so a future
refactor that drops a guard fails here instead of deep inside a suite
run.
"""

from __future__ import annotations

import math

import pytest

from repro.config import TABLE1
from repro.engine.results import build_result
from repro.engine.system import CoalescerKind, System
from repro.mem.trace import AccessTrace

ARMS = (CoalescerKind.NONE, CoalescerKind.DMC, CoalescerKind.PAC)
ENGINES = ("reference", "auto")


def _system(kind: CoalescerKind, engine: str, **kw) -> System:
    return System(config=TABLE1, coalescer=kind, engine=engine, **kw)


class TestRawStreamZeroGuards:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_empty_trace_miss_rate_is_zero(self, engine):
        hierarchy = _system(CoalescerKind.NONE, engine).hierarchy
        raw = hierarchy.process(AccessTrace.empty())
        assert len(raw.packed) == 0
        assert raw.n_accesses == 0
        assert raw.miss_rate == 0.0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_summary_metrics_zero_raw_total(self, engine):
        """``summary_metrics(0)`` — the n_raw_total=0 case a zero-miss
        stream produces — must return finite fractions, not divide."""
        hierarchy = _system(CoalescerKind.PAC, engine).hierarchy
        hierarchy.process(AccessTrace.empty())
        metrics = hierarchy.summary_metrics(0)
        for key, value in metrics.items():
            assert math.isfinite(value), key
            assert value == 0.0, key

    @pytest.mark.parametrize("engine", ENGINES)
    def test_fine_grain_empty_trace(self, engine):
        system = _system(CoalescerKind.PAC, engine, fine_grain=True)
        raw = system.hierarchy.process(AccessTrace.empty())
        assert len(raw.packed) == 0
        assert raw.miss_rate == 0.0


class TestZeroRawPipeline:
    """An empty trace pushed through the whole engine — hierarchy,
    coalescer arm, device accounting, RunResult assembly + JSON view —
    for every (arm, engine) cell."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("kind", ARMS)
    def test_full_pipeline_survives_empty_trace(self, kind, engine):
        system = _system(kind, engine)
        raw = system.hierarchy.process(AccessTrace.empty())
        cache_metrics = system.hierarchy.summary_metrics(len(raw.packed))
        outcome = system.coalescer.process(raw.packed, system.device)
        result = build_result(
            "gs", kind.value, 0, outcome, system.device,
            trace_end_cycle=0, cache_metrics=cache_metrics,
        )
        assert result.miss_rate == 0.0
        assert result.mean_packet_bytes == 0.0
        assert result.coalescing_efficiency == 0.0
        assert result.transaction_efficiency == 0.0
        assert result.mean_memory_latency_cycles == 0.0
        assert result.latency_bound_runtime_cycles == 0.0
        for key, value in result.to_dict().items():
            if isinstance(value, float):
                assert math.isfinite(value), key

    def test_zero_raw_comparisons_against_baseline(self):
        """Cross-run ratio helpers must also tolerate zero baselines."""
        def _empty_result(kind):
            system = _system(kind, "auto")
            raw = system.hierarchy.process(AccessTrace.empty())
            outcome = system.coalescer.process(raw.packed, system.device)
            return build_result(
                "gs", kind.value, 0, outcome, system.device,
                trace_end_cycle=0,
            )

        base = _empty_result(CoalescerKind.NONE)
        pac = _empty_result(CoalescerKind.PAC)
        assert pac.speedup_over(base) == 0.0
        assert pac.latency_bound_speedup_over(base) == 0.0
        assert pac.bank_conflict_reduction(base) == 0.0
        assert pac.comparison_reduction(base) == 0.0
        assert pac.energy_saving(base) == 0.0
        assert pac.bandwidth_saving_bytes(base) == 0


class TestZeroAccessRejection:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_build_trace_rejects_nonpositive_accesses(self, engine):
        system = _system(CoalescerKind.NONE, engine)
        with pytest.raises(ValueError, match="positive"):
            system.build_trace(["gs"], 0, seed=1)

    def test_build_trace_rejects_empty_benchmarks(self):
        system = _system(CoalescerKind.NONE, "auto")
        with pytest.raises(ValueError, match="benchmark"):
            system.build_trace([], 1000, seed=1)

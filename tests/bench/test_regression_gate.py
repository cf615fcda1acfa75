"""The regression gate must fail loudly, never vacuously.

``Timing.items_per_second`` returns 0.0 for a non-positive duration as
a rendering safety; if that ever reached :func:`check_regression`, the
throughput gate would divide by (or compare against) a zero and either
pass vacuously or crash with an unrelated error. These tests pin the
explicit :class:`RegressionError` rejections, plus the three
machine-relative engine gates (end-to-end / coalescer / front-end).
"""

import json

import pytest

from repro.bench.report import RegressionError, check_regression


def _doc(rps=100_000.0, seconds=1.0, schema="repro-bench/4", **totals):
    return {
        "schema": schema,
        "name": "t",
        "end_to_end": {
            "gs": {"seconds": seconds, "items": 100, "samples": [seconds]}
        },
        "totals": {"requests_per_second": rps, **totals},
    }


def _baseline(tmp_path, doc):
    path = tmp_path / "BENCH_base.json"
    path.write_text(json.dumps(doc))
    return path


class TestLoudRejection:
    def test_zero_duration_timing_rejected(self, tmp_path):
        base = _baseline(tmp_path, _doc())
        with pytest.raises(RegressionError, match="zero-duration"):
            check_regression(_doc(seconds=0.0), base)

    def test_negative_duration_timing_rejected(self, tmp_path):
        base = _baseline(tmp_path, _doc())
        with pytest.raises(RegressionError, match="refusing to compare"):
            check_regression(_doc(seconds=-1.0), base)

    def test_nonpositive_current_throughput_rejected(self, tmp_path):
        base = _baseline(tmp_path, _doc())
        with pytest.raises(RegressionError, match="broken measurement"):
            check_regression(_doc(rps=0.0), base)

    def test_nonpositive_baseline_throughput_rejected(self, tmp_path):
        base = _baseline(tmp_path, _doc(rps=0.0))
        with pytest.raises(RegressionError, match="regenerate the baseline"):
            check_regression(_doc(), base)


class TestStageGates:
    def test_matching_reports_pass(self, tmp_path):
        doc = _doc(
            schema="repro-bench/7",
            end_to_end_stage_speedup=1.9,
            coalescer_stage_speedup=2.0,
            frontend_stage_speedup=1.8,
        )
        cmp = check_regression(doc, _baseline(tmp_path, doc))
        assert cmp["speedup"] == 1.0
        assert cmp["current_end_to_end_speedup"] == 1.9

    def test_end_to_end_speedup_regression_fails(self, tmp_path):
        base = _baseline(tmp_path, _doc(end_to_end_stage_speedup=1.9))
        with pytest.raises(
            RegressionError, match="end-to-end engine speedup regressed"
        ):
            check_regression(
                _doc(end_to_end_stage_speedup=1.0), base,
                max_regression=0.30,
            )

    def test_end_to_end_gate_skipped_for_old_baselines(self, tmp_path):
        # A baseline from before the end-to-end leg carries no
        # end_to_end_stage_speedup: the gate must skip, not crash.
        base = _baseline(tmp_path, _doc())
        cmp = check_regression(_doc(end_to_end_stage_speedup=1.9), base)
        assert "current_end_to_end_speedup" not in cmp

    def test_v6_device_ratio_is_history(self, tmp_path):
        # A v6 baseline still carries device_stage_speedup: it loads,
        # the other ratios gate, and no gate or key reads the device.
        base = _baseline(tmp_path, _doc(
            schema="repro-bench/6", device_stage_speedup=1.7,
            coalescer_stage_speedup=2.0, frontend_stage_speedup=1.8,
        ))
        cmp = check_regression(
            _doc(schema="repro-bench/7", device_stage_speedup=0.5,
                 coalescer_stage_speedup=2.0, frontend_stage_speedup=1.8),
            base, max_regression=0.30,
        )
        assert cmp["current_stage_speedup"] == 2.0
        assert cmp["current_frontend_speedup"] == 1.8
        assert not any("device" in key for key in cmp)
        with pytest.raises(RegressionError, match="front-end-stage"):
            check_regression(
                _doc(schema="repro-bench/7", coalescer_stage_speedup=2.0,
                     frontend_stage_speedup=1.0),
                base, max_regression=0.30,
            )

    def test_end_to_end_regression_still_fails(self, tmp_path):
        base = _baseline(tmp_path, _doc(rps=100_000.0))
        with pytest.raises(RegressionError, match="end-to-end throughput"):
            check_regression(
                _doc(rps=50_000.0), base, max_regression=0.30
            )

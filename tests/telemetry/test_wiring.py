"""Telemetry wiring: probes agree with the end-of-run aggregates.

The windowed probes and the :mod:`repro.common.stats` aggregates observe
the same events from different angles, so their totals must agree
exactly for every coalescer arm and device — the probe taxonomy is only
trustworthy if it cannot drift from the scalar results.
"""

import pytest

from repro.engine.driver import run_benchmark
from repro.engine.system import CoalescerKind
from repro.telemetry import TelemetryRegistry, timeline_rows

N = 3000
SEED = 7


@pytest.fixture(scope="module")
def pac_result():
    return run_benchmark(
        "gs", coalescer=CoalescerKind.PAC, n_accesses=N, seed=SEED,
        telemetry=True,
    )


class TestProbeTotalsMatchScalars:
    @pytest.mark.parametrize(
        "kind", [CoalescerKind.NONE, CoalescerKind.DMC, CoalescerKind.PAC]
    )
    def test_totals_agree_per_arm(self, kind):
        result = run_benchmark(
            "gs", coalescer=kind, n_accesses=N, seed=SEED, telemetry=True
        )
        counters = result.telemetry.counters
        assert counters["cache.raw_requests"].total == result.n_raw
        assert counters["device.packets"].total == result.n_issued
        assert (
            counters["device.banks.conflicts"].total == result.bank_conflicts
        )
        assert counters["device.energy_pj"].total == pytest.approx(
            result.energy.total_pj
        )

    @pytest.mark.parametrize("device", ["hbm", "ddr"])
    def test_totals_agree_per_device(self, device):
        result = run_benchmark(
            "gs", coalescer=CoalescerKind.PAC, n_accesses=2000, seed=SEED,
            device=device, telemetry=True,
        )
        counters = result.telemetry.counters
        assert counters["device.packets"].total == result.n_issued
        assert (
            counters["device.banks.conflicts"].total == result.bank_conflicts
        )


class TestPacTaxonomy:
    def test_stage_and_queue_probes_populated(self, pac_result):
        names = set(pac_result.telemetry.probe_names())
        expected = {
            "cache.raw_requests",
            "cache.demand_misses",
            "pac.stage1.allocations",
            "pac.stage2.sequences",
            "pac.stage3.packets",
            "pac.maq.occupancy",
            "pac.maq.full_stalls",
            "pac.mshr.occupancy",
            "pac.network.coalesced_requests",
            "pac.controller.entry_wait",
            "device.packets",
            "device.banks.conflicts",
            "device.links.request_flits",
            "device.vaults.queue_wait",
            "device.latency_cycles",
        }
        missing = expected - names
        assert not missing, f"unpopulated probes: {sorted(missing)}"

    def test_maq_occupancy_bounded_by_capacity(self, pac_result):
        occupancy = pac_result.telemetry.gauges["pac.maq.occupancy"]
        assert occupancy.count > 0
        assert all(agg[3] <= 16 for agg in occupancy.windows.values())

    def test_packet_size_histogram_is_protocol_legal(self, pac_result):
        # Stage 3 sees only the coalesced path; bypassed requests issue
        # without traversing the assembler.
        counters = pac_result.telemetry.counters
        sizes = pac_result.telemetry.histograms["pac.stage3.packet_bytes"]
        assert sizes.total == counters["pac.stage3.packets"].total
        assert 0 < sizes.total <= pac_result.n_issued
        assert set(sizes.bins) <= {16, 32, 48, 64, 80, 96, 112, 128, 256}

    def test_timeline_has_required_series(self, pac_result):
        rows = timeline_rows(pac_result.telemetry)
        assert rows, "timeline must not be empty"
        required = {
            "window", "start_cycle", "maq_occ_mean", "maq_occ_max",
            "bank_conflicts", "bypass_rate", "issued_pkts",
        }
        assert required <= set(rows[0])
        assert all(0.0 <= r["bypass_rate"] <= 1.0 for r in rows)
        assert sum(r["bank_conflicts"] for r in rows) == (
            pac_result.bank_conflicts
        )


class TestEnabledVsDisabled:
    def test_scalars_identical_and_disabled_has_no_registry(self):
        on = run_benchmark(
            "cg", coalescer=CoalescerKind.PAC, n_accesses=2000, seed=3,
            telemetry=True,
        )
        off = run_benchmark(
            "cg", coalescer=CoalescerKind.PAC, n_accesses=2000, seed=3,
            telemetry=False,
        )
        assert off.telemetry is None
        assert isinstance(on.telemetry, TelemetryRegistry)
        assert on.as_row() == off.as_row()
        assert on.energy == off.energy

    def test_custom_window(self):
        """An int ``telemetry`` is the window: the run records into a
        fresh registry with it."""
        result = run_benchmark(
            "gs", coalescer=CoalescerKind.PAC, n_accesses=2000, seed=3,
            telemetry=256,
        )
        assert result.telemetry.window_cycles == 256
        assert (
            result.telemetry.counters["device.packets"].total
            == result.n_issued
        )

    def test_to_dict_includes_telemetry_only_when_enabled(self):
        on = run_benchmark(
            "gs", coalescer=CoalescerKind.PAC, n_accesses=1000, seed=3,
            telemetry=True,
        )
        off = run_benchmark(
            "gs", coalescer=CoalescerKind.PAC, n_accesses=1000, seed=3,
        )
        assert "telemetry" in on.to_dict()
        assert "telemetry" not in off.to_dict()
        on.to_json()  # must stay JSON-serializable

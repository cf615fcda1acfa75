"""Tests for the run drivers and the paper's headline orderings.

These are the repository's integration tests: full workload -> cache ->
coalescer -> HMC runs, checking the *shape* claims of the paper's
evaluation on small traces.
"""

import pytest

from repro.engine.driver import run_benchmark, run_comparison
from repro.engine.parallel import run_suite_parallel
from repro.engine.system import CoalescerKind

N = 8000  # small but steady-state trace


@pytest.fixture(scope="module")
def gs_trio():
    return run_comparison("gs", n_accesses=N)


@pytest.fixture(scope="module")
def bfs_trio():
    return run_comparison("bfs", n_accesses=N)


class TestHeadlineOrderings:
    def test_pac_beats_dmc_beats_none_on_efficiency(self, gs_trio):
        # Figure 1 / Figure 6a ordering.
        none, dmc, pac = (
            gs_trio[k] for k in (
                CoalescerKind.NONE, CoalescerKind.DMC, CoalescerKind.PAC
            )
        )
        assert none.coalescing_efficiency == 0.0
        assert pac.coalescing_efficiency > dmc.coalescing_efficiency

    def test_pac_reduces_bank_conflicts(self, gs_trio):
        # Figure 6c.
        none, pac = gs_trio[CoalescerKind.NONE], gs_trio[CoalescerKind.PAC]
        assert pac.bank_conflict_reduction(none) > 0.3

    def test_pac_improves_transaction_efficiency(self, gs_trio):
        # Figure 10a: raw pinned at 2/3; PAC above it.
        none, pac = gs_trio[CoalescerKind.NONE], gs_trio[CoalescerKind.PAC]
        assert none.transaction_efficiency == pytest.approx(2 / 3)
        assert pac.transaction_efficiency > 2 / 3

    def test_pac_saves_energy(self, gs_trio):
        # Figures 13/14.
        none, dmc, pac = (
            gs_trio[k] for k in (
                CoalescerKind.NONE, CoalescerKind.DMC, CoalescerKind.PAC
            )
        )
        assert pac.energy_saving(none) > dmc.energy_saving(none) > 0

    def test_pac_improves_performance(self, gs_trio):
        # Figure 15.
        none, pac = gs_trio[CoalescerKind.NONE], gs_trio[CoalescerKind.PAC]
        assert pac.speedup_over(none) > 0

    def test_pac_saves_bandwidth(self, gs_trio):
        # Figure 10c.
        none, pac = gs_trio[CoalescerKind.NONE], gs_trio[CoalescerKind.PAC]
        assert pac.bandwidth_saving_bytes(none) > 0

    def test_bfs_is_less_coalescable_than_gs(self, gs_trio, bfs_trio):
        # Figures 6a/8/9: sparse graph traversal vs page-local gathers.
        assert (
            bfs_trio[CoalescerKind.PAC].coalescing_efficiency
            < gs_trio[CoalescerKind.PAC].coalescing_efficiency
        )

    def test_bfs_uses_more_streams(self, gs_trio, bfs_trio):
        # Figure 11c: BFS scatters across many pages.
        assert (
            bfs_trio[CoalescerKind.PAC].pac_metrics["mean_active_streams"]
            > gs_trio[CoalescerKind.PAC].pac_metrics["mean_active_streams"]
        )

    def test_bfs_bypasses_more(self, gs_trio, bfs_trio):
        # Figure 12c.
        assert (
            bfs_trio[CoalescerKind.PAC].pac_metrics["bypass_fraction"]
            > gs_trio[CoalescerKind.PAC].pac_metrics["bypass_fraction"]
        )


class TestMultiprocessing:
    def test_dmc_degrades_more_than_pac(self):
        # Figure 6b: doubling processes halves DMC efficiency but only
        # dents PAC.
        single_d = run_benchmark("hpcg", CoalescerKind.DMC, n_accesses=N)
        single_p = run_benchmark("hpcg", CoalescerKind.PAC, n_accesses=N)
        multi_d = run_benchmark(
            "hpcg", CoalescerKind.DMC, n_accesses=N, extra_benchmarks=["ssca2"]
        )
        multi_p = run_benchmark(
            "hpcg", CoalescerKind.PAC, n_accesses=N, extra_benchmarks=["ssca2"]
        )
        drop_d = single_d.coalescing_efficiency - multi_d.coalescing_efficiency
        drop_p = single_p.coalescing_efficiency - multi_p.coalescing_efficiency
        assert multi_p.coalescing_efficiency > multi_d.coalescing_efficiency


class TestDriverAPI:
    def test_run_suite_subset(self):
        results = run_suite_parallel(
            kinds=(CoalescerKind.PAC,), benchmarks=["gs", "bfs"],
            n_accesses=2000, max_workers=1,
        )
        assert set(results) == {("gs", "pac"), ("bfs", "pac")}

    def test_fine_grain_mode_produces_small_packets(self):
        res = run_benchmark(
            "hpcg", CoalescerKind.PAC, n_accesses=4000, fine_grain=True
        )
        assert res.mean_packet_bytes < 64

    def test_hbm_device_run(self):
        res = run_benchmark(
            "stream", CoalescerKind.PAC, n_accesses=4000, device="hbm"
        )
        assert res.n_issued > 0

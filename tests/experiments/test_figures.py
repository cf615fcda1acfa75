"""Tests for the figure rows of the experiment registry."""

import pytest

from repro.experiments.registry import REGISTRY
from repro.experiments.reporting import mean_of, render_series, render_table
from repro.experiments.tables import table1_configuration

SUITE = ("gs", "bfs", "stream")


def rows_of(runs, entry_id, benchmarks=SUITE):
    """The entry's rows for ``benchmarks`` only."""
    return [r for r in REGISTRY[entry_id].rows(runs)
            if r["benchmark"] in benchmarks]


class TestMotivation:
    def test_fig1_pac_above_dmc(self, runs):
        rows = rows_of(runs, "1")
        assert len(rows) == 3
        assert mean_of(rows, "pac_ratio") > mean_of(rows, "dmc_ratio")

    def test_fig2_cross_page_tiny(self, runs):
        rows = rows_of(runs, "2", ("gs", "stream"))
        # The paper's observation: cross-page opportunity is negligible
        # relative to in-page opportunity.
        for row in rows:
            assert row["cross_page_fraction"] < 0.05
            assert row["cross_page_fraction"] < row["in_page_fraction"]


class TestCoalescingFigures:
    def test_fig6b_dmc_degrades_more(self, runs):
        row, = rows_of(runs, "6b", ("hpcg",))
        assert row["pac_multi"] > row["dmc_multi"]

    def test_fig6c_reductions_positive(self, runs):
        rows = rows_of(runs, "6c")
        assert all(r["reduction"] > 0 for r in rows)

    def test_fig7_columns(self, runs):
        row, = rows_of(runs, "7", ("gs",))
        assert {"unpaged_comparisons", "pac_comparisons", "reduction"} <= set(
            row
        )

    def test_fig8_9_bfs_noisier_than_sparselu(self, runs):
        by_name = {r["benchmark"]: r for r in REGISTRY["8"].rows(runs)}
        assert (
            by_name["bfs"]["noise_fraction"]
            > by_name["sparselu"]["noise_fraction"]
        )


class TestBandwidthFigures:
    def test_fig10a_raw_pinned(self, runs):
        for row in rows_of(runs, "10a"):
            assert row["raw_efficiency"] == pytest.approx(2 / 3)
            assert row["pac_efficiency"] >= row["raw_efficiency"]

    def test_fig10b_small_sizes_dominate(self, runs):
        rows = REGISTRY["10b"].rows(runs)
        assert rows
        frac_16 = sum(r["fraction"] for r in rows if r["size_bytes"] == 16)
        assert frac_16 > 0.5

    def test_fig10c_savings_positive(self, runs):
        assert all(r["saved_bytes"] > 0 for r in rows_of(runs, "10c"))


class TestStructureFigures:
    def test_fig11a_matches_paper_n64(self, runs):
        row = {r["n"]: r for r in REGISTRY["11a"].rows(runs)}[64]
        assert row["pac_comparators"] == 64
        assert row["bitonic_comparators"] == 672
        assert row["odd_even_comparators"] == 543

    def test_fig11b_distribution_sums_to_one(self, runs):
        rows = REGISTRY["11b"].rows(runs)
        assert sum(r["fraction"] for r in rows) == pytest.approx(1.0)

    def test_fig11c_within_stream_budget(self, runs):
        rows = rows_of(runs, "11c")
        assert all(0 < r["mean_streams"] <= 16 for r in rows)


class TestLatencyFigures:
    def test_fig12a_overall_bounded_by_timeout(self, runs):
        for row in rows_of(runs, "12a"):
            assert row["overall_cycles"] <= 16 + 1e-9

    def test_fig12b_ns_conversion(self, runs):
        row, = rows_of(runs, "12b", ("gs",))
        assert row["fill_ns"] == pytest.approx(row["fill_cycles"] * 0.5)

    def test_fig12c_fractions(self, runs):
        rows = rows_of(runs, "12c")
        assert all(0 <= r["bypass_fraction"] <= 1 for r in rows)


class TestPowerPerformanceFigures:
    def test_fig13_link_categories_save(self, runs):
        rows = REGISTRY["13"].rows(runs)
        by_op = {r["operation"]: r["mean_saving"] for r in rows}
        assert by_op["LINK-LOCAL-ROUTE"] != 0 or by_op["LINK-REMOTE-ROUTE"] != 0
        assert by_op["VAULT-CTRL"] > 0

    def test_fig14_pac_beats_dmc(self, runs):
        rows = rows_of(runs, "14")
        assert mean_of(rows, "pac_saving") > mean_of(rows, "dmc_saving") > 0

    def test_fig15_gains_positive(self, runs):
        assert mean_of(rows_of(runs, "15"), "pac_gain") > 0


class TestReporting:
    def test_render_table(self):
        out = render_table(
            [{"a": 1, "b": 0.5}, {"a": 20, "b": 0.25}], title="T"
        )
        assert "T" in out and "50.00%" in out and "20" in out

    def test_render_table_empty(self):
        assert "(no rows)" in render_table([], title="x")

    def test_render_series(self):
        out = render_series(
            [{"x": "gs", "y": 0.5}, {"x": "bfs", "y": 1.0}], x="x", ys=["y"]
        )
        assert "|#" in out

    def test_table1_has_paper_rows(self):
        rows = table1_configuration()
        params = {r["parameter"]: r["value"] for r in rows}
        assert params["Core #"] == "8"
        assert params["Timeout"] == "16 Cycles"
        assert params["Avg. HMC Access Latency"] == "93 ns"
        assert "8GB" in params["HMC"]

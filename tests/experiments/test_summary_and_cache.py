"""Tests for the report, the run memo, and package API."""

import pytest

from repro.artifacts.shm import REQ_DTYPE
from repro.engine.system import CoalescerKind
from repro.experiments.registry import MULTIPROCESS_PARTNERS, Runs, report
from repro.workloads import BENCHMARK_NAMES


class TestRuns:
    def test_memoizes_runs(self):
        runs = Runs(n_accesses=2000)
        spec = runs.spec("gs")
        assert runs[spec] is runs[runs.spec("gs")]

    def test_distinct_keys_distinct_runs(self):
        runs = Runs(n_accesses=2000)
        a = runs[runs.spec("gs")]
        b = runs[runs.spec("gs", arm=CoalescerKind.DMC)]
        c = runs[runs.spec("gs", "bfs")]
        assert a is not b and a is not c

    def test_fine_grain_is_separate_key(self):
        runs = Runs(n_accesses=2000)
        a = runs[runs.spec("hpcg")]
        b = runs[runs.spec("hpcg", fine_grain=True)]
        assert a is not b
        assert b.mean_packet_bytes < a.mean_packet_bytes

    def test_arms_share_one_packed_prefix(self):
        runs = Runs(n_accesses=2000)
        pac, dmc = runs.spec("gs"), runs.spec("gs", arm=CoalescerKind.DMC)
        runs[pac], runs[dmc]
        tp = runs.prefix(pac)
        assert runs.prefix(dmc) is tp
        assert tp.raw.dtype == REQ_DTYPE  # the packed stream, no objects

    def test_seed_reaches_every_spec(self):
        assert Runs(2000, seed=7).spec("gs").seed == 7


class TestMultiprocessPartnerMap:
    def test_every_suite_has_a_partner(self):
        assert set(MULTIPROCESS_PARTNERS) == set(BENCHMARK_NAMES)

    def test_no_self_partnering(self):
        # "different tests with diverse memory access patterns"
        for bench, partner in MULTIPROCESS_PARTNERS.items():
            assert bench != partner
            assert partner in BENCHMARK_NAMES


class TestGenerateReport:
    @pytest.fixture(scope="class")
    def text(self, runs):
        return report(runs)

    def test_markdown_structure(self, text):
        assert text.startswith("# EXPERIMENTS")
        assert text.count("## ") >= 18  # Table 1 + every figure

    def test_every_figure_present(self, text):
        for marker in (
            "Figure 1 / 6a", "Figure 2", "Figure 6b", "Figure 6c",
            "Figure 7", "Figures 8/9", "Figure 10a", "Figure 10b",
            "Figure 10c", "Figure 11a", "Figure 11b", "Figure 11c",
            "Figure 12a", "Figure 12b", "Figure 12c", "Figure 13",
            "Figure 14", "Figure 15",
        ):
            assert marker in text, marker

    def test_divergence_notes_present(self, text):
        assert "Divergence note" in text or "Model note" in text
        assert "Accounting note" in text

    def test_paper_numbers_cited(self, text):
        for number in ("56.01%", "85.16%", "73.76%", "14.35%", "20.76"):
            assert number in text, number


class TestPackageAPI:
    def test_lazy_top_level_imports(self):
        import repro

        assert callable(repro.run_benchmark)
        assert repro.CoalescerKind.PAC.value == "pac"
        with pytest.raises(AttributeError):
            repro.not_a_thing

    def test_version(self):
        import repro

        assert repro.__version__

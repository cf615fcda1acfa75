"""Tests for the ablation entries of the experiment registry."""

from dataclasses import replace

import pytest

from repro.config import TABLE1
from repro.core.protocols import HBM, HMC1
from repro.engine.driver import run_spec
from repro.engine.spec import RunSpec
from repro.engine.system import CoalescerKind, System
from repro.experiments.registry import ABLATIONS, REGISTRY, Runs


def rows(runs, name):
    return REGISTRY[name].rows(runs)


class TestRegistry:
    def test_all_nine_registered(self):
        assert len(ABLATIONS) == 9
        for entry in ABLATIONS:
            assert callable(entry.rows), entry.id
            assert entry.claims, entry.id
            assert entry.section is None, entry.id


class TestSweeps:
    def test_timeout_rows(self, runs):
        out = rows(runs, "timeout")
        assert [r["timeout_cycles"] for r in out] == [2, 4, 8, 16, 32, 64]
        assert all(0 <= r["coalescing_efficiency"] < 1 for r in out)

    def test_stream_count_rows(self, runs):
        out = rows(runs, "streams")
        assert [r["comparators"] for r in out] == [2, 4, 8, 16, 32]
        assert out[1]["buffer_bytes"] > out[0]["buffer_bytes"]

    def test_protocol_rows(self, runs):
        out = rows(runs, "protocols")
        assert [r["protocol"] for r in out] == ["hmc1.0", "hmc2.1", "hbm"]
        assert out[2]["max_packet_bytes"] == 1024

    def test_sorting_rows(self, runs):
        gs = next(r for r in rows(runs, "sorting") if r["benchmark"] == "gs")
        assert gs["pac_comparisons"] < gs["sort_comparisons"]

    def test_ddr_rows(self, runs):
        assert all(
            0 <= r["ddr_row_hit_rate"] <= 1 for r in rows(runs, "ddr")
        )

    def test_prefetch_rows(self, runs):
        out = rows(runs, "prefetch")
        assert out[0]["prefetch_raw"] == 0
        assert out[1]["prefetch_raw"] > 0

    def test_prefetch_raw_is_the_hierarchy_count(self, runs):
        # The row derives the count from the prefix's cache metrics;
        # it must equal what the cache hierarchy itself counted.
        system = System(TABLE1.with_cache(prefetch_regions=1),
                        CoalescerKind.NONE)
        trace = system.build_trace(["stream"], runs.n_accesses)
        system.hierarchy.process(trace)
        assert rows(runs, "prefetch")[1]["prefetch_raw"] == (
            system.hierarchy.stats.count("prefetch_raw")
        )

    def test_shared_private_rows(self, runs):
        out = rows(runs, "shared-private")
        assert {"shared_efficiency", "private_efficiency"} <= set(out[0])

    def test_core_scaling_rows(self, runs):
        assert [r["n_cores"] for r in rows(runs, "core-scaling")] == [
            1, 2, 4, 8
        ]

    def test_address_mapping_rows(self, runs):
        out = rows(runs, "address-mapping")
        assert out[0]["policy"] == "vault-first"
        assert "pac_reduction" in out[0]


class TestSharedPrefix:
    """Each ablation design point runs its arm over the memo's shared
    prefix; that must equal running the spec end to end."""

    @pytest.mark.parametrize("fields", [
        {"config": TABLE1.with_pac(timeout_cycles=4)},
        {"config": TABLE1.with_hmc(max_packet_bytes=128), "protocol": HMC1},
        {"protocol": HBM, "device": "hbm"},
        {"device": "ddr", "arm": CoalescerKind.NONE},
        {"arm": CoalescerKind.SORT},
        {"config": replace(TABLE1, n_cores=1), "arm": CoalescerKind.DMC},
        {"config": TABLE1.with_hmc(address_policy="row-major")},
    ], ids=["timeout", "hmc1", "hbm", "ddr", "sort", "one-core", "row-major"])
    def test_memo_equals_end_to_end(self, fields):
        spec = RunSpec(("stream",), 3000, **fields)
        assert Runs(3000)[spec] == run_spec(spec)


class TestCLIIntegration:
    def test_cli_ablation_command(self, capsys):
        from repro.__main__ import main

        assert main(["--accesses", "3000", "ablation", "timeout"]) == 0
        out = capsys.readouterr().out
        assert "timeout_cycles" in out

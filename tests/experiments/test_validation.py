"""Tests for the paper-claim checklist of the experiment registry."""

import pytest

from repro.experiments.registry import (
    ENTRIES, REGISTRY, Check, render_checks, validate,
)


@pytest.fixture(scope="module")
def checks(runs):
    # Small traces: the CLI and the benchmark harness run the full-size
    # version; runs are deterministic, so every claim must hold here too.
    return validate(runs)


class TestValidation:
    def test_all_claims_evaluated(self, checks):
        assert len(checks) == sum(len(e.claims) for e in ENTRIES)
        assert {c.entry for c in checks} == {e.id for e in ENTRIES}

    def test_structural_claims_always_pass(self, checks):
        by_claim = {c.claim: c for c in checks}
        assert by_claim[
            "Comparator counts at N=64 match the paper exactly"
        ].passed
        assert by_claim[
            "Cross-page coalescing opportunity is negligible"
        ].passed

    def test_headline_claims_pass_at_small_scale(self, checks):
        by_claim = {c.claim: c for c in checks}
        assert by_claim["PAC coalesces more than DMC on average"].passed
        assert by_claim[
            "PAC saves more energy than DMC, both positive"
        ].passed

    def test_every_claim_passes(self, checks):
        failed = [f"{c.entry}: {c.claim} (measured {c.measured})"
                  for c in checks if not c.passed]
        assert not failed, failed

    def test_claims_fail_when_the_shape_flips(self, runs):
        # Swap the arms: PAC now trails DMC on every suite.
        swapped = [{**r, "pac_ratio": r["dmc_ratio"],
                    "dmc_ratio": r["pac_ratio"]}
                   for r in REGISTRY["6a"].rows(runs)]
        for entry_id in ("1", "6a"):
            checks = REGISTRY[entry_id].checks(swapped)
            assert not checks[0].passed, checks[0]

    def test_render(self, checks):
        out = render_checks(checks)
        assert "shape claims reproduced" in out
        assert "paper:" in out
        assert "6a: Figure 6a" in out

    def test_check_dataclass(self):
        c = Check("6a", "x", "1", "2", True)
        assert c.passed and c.claim == "x" and c.entry == "6a"

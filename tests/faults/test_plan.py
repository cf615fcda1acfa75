"""FaultPlan grammar, validation, and seed-derivation determinism."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import (
    FaultPlan,
    FaultSpec,
    KINDS,
    SITES,
    resolve_plan,
)


class TestSpecValidation:
    def test_known_sites_accept_their_kinds(self):
        for site, kinds in SITES.items():
            for kind in kinds:
                spec = FaultSpec(site=site, kind=kind)
                assert spec.ordinal == 0 and spec.count == 1

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec(site="nope.job", kind="crash")

    def test_unsupported_kind_rejected(self):
        with pytest.raises(ValueError, match="does not support"):
            FaultSpec(site="shm.publish", kind="crash")

    def test_bad_trigger_rejected(self):
        with pytest.raises(ValueError, match="ordinal"):
            FaultSpec(site="phase2.job", kind="crash", ordinal=-1)
        with pytest.raises(ValueError, match="ordinal"):
            FaultSpec(site="phase2.job", kind="crash", count=0)

    def test_every_kind_appears_at_some_site(self):
        reachable = {k for kinds in SITES.values() for k in kinds}
        assert reachable == set(KINDS)


class TestGrammar:
    def test_parse_single(self):
        plan = FaultPlan.parse("phase2.job:crash@0")
        assert plan.specs == (FaultSpec("phase2.job", "crash", 0, 1),)

    def test_parse_with_count_and_separators(self):
        plan = FaultPlan.parse(
            " artifact.get:corrupt@1x2 ; shm.publish:enospc@0 ,"
            " phase1.job:hang@3 ;"
        )
        assert plan.specs == (
            FaultSpec("artifact.get", "corrupt", 1, 2),
            FaultSpec("shm.publish", "enospc", 0, 1),
            FaultSpec("phase1.job", "hang", 3, 1),
        )

    def test_per_job_site_is_gone(self):
        """Every grid runs the two phases, so there is no per-job site."""
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultPlan.parse("perjob.job:transient@0")

    def test_parse_empty_is_falsy(self):
        assert not FaultPlan.parse("")
        assert not FaultPlan.parse(" ; , ")

    @pytest.mark.parametrize(
        "bad", ["phase2.job", "phase2.job:crash@x", "phase2.job:crash@1xq"]
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            FaultPlan.parse(bad)

    def test_round_trip(self):
        text = "phase2.job:crash@2x3;artifact.put:enospc@0"
        plan = FaultPlan.parse(text)
        assert plan.to_spec() == text
        assert FaultPlan.parse(plan.to_spec()) == plan


class TestFromSeed:
    def test_same_seed_same_plan(self):
        assert FaultPlan.from_seed(7) == FaultPlan.from_seed(7)
        assert FaultPlan.from_seed(7) != FaultPlan.from_seed(8)

    def test_specs_are_valid_and_bounded(self):
        for seed in range(50):
            plan = FaultPlan.from_seed(seed)
            assert 1 <= len(plan.specs) <= 3
            for spec in plan.specs:
                assert spec.kind in SITES[spec.site]
                assert 0 <= spec.ordinal <= 3
                assert 1 <= spec.count <= 2

    def test_site_restriction(self):
        plan = FaultPlan.from_seed(3, n_faults=4, sites=["shm.publish"])
        assert len(plan.specs) == 4
        assert all(s.site == "shm.publish" for s in plan.specs)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31))
    def test_seed_derivation_round_trips_through_grammar(self, seed):
        plan = FaultPlan.from_seed(seed)
        assert FaultPlan.parse(plan.to_spec()) == plan


class TestResolvePlan:
    def test_none_without_env_disables(self, monkeypatch):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert resolve_plan(None) is None

    def test_none_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "phase1.job:transient@0")
        plan = resolve_plan(None)
        assert plan is not None
        assert plan.specs[0].site == "phase1.job"

    def test_false_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "phase1.job:transient@0")
        assert resolve_plan(False) is None
        assert resolve_plan("") is None

    def test_string_and_plan_pass_through(self):
        plan = FaultPlan.parse("shm.attach:lost@1")
        assert resolve_plan(plan) is plan
        assert resolve_plan("shm.attach:lost@1") == plan
        assert resolve_plan(FaultPlan()) is None

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            resolve_plan(42)

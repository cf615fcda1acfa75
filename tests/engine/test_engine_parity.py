"""Bit-identity contract of the batched coalescer engine.

The batched kernel (:mod:`repro.core.pac_batched`) is only allowed to
exist because it is *indistinguishable* from the reference PAC pipeline:
every field of every :class:`~repro.engine.results.RunResult` (``health``
excluded from ``==`` by design) must match, across every benchmark, arm,
and protocol. This suite is the enforcement point — the perf numbers in
``BENCH_*.json`` are only meaningful while these tests pass.

The grid here intentionally trades trace length for coverage breadth:
short traces across benchmarks × protocols × fine_grain catch divergence
in per-op dispatch, window partitioning, MSHR merging, and drain
ordering far more reliably than one long trace on one configuration.
"""

from __future__ import annotations

import pytest

from repro.artifacts.shm import encode_requests
from repro.engine.driver import run_benchmark
from repro.engine.system import CoalescerKind, System
from repro.mshr.dmc import RecordingDevice
from repro.telemetry import events as ev
from repro.workloads import BENCHMARK_NAMES

GRID_ACCESSES = 4000
SEED = 1234

BENCHMARKS = ("gs", "stream", "bfs")
DEVICES = ("hmc", "hbm", "ddr")


def _run(bench, device, engine, **kw):
    return run_benchmark(
        bench,
        coalescer=CoalescerKind.PAC,
        n_accesses=GRID_ACCESSES,
        seed=SEED,
        device=device,
        engine=engine,
        **kw,
    )


class TestBitIdentity:
    @pytest.mark.parametrize("device", DEVICES)
    @pytest.mark.parametrize("bench", BENCHMARKS)
    def test_full_runresult_equality(self, bench, device):
        ref = _run(bench, device, "reference")
        bat = _run(bench, device, "auto")
        assert ref == bat

    @pytest.mark.parametrize(
        "kind", (CoalescerKind.NONE, CoalescerKind.DMC, CoalescerKind.PAC)
    )
    @pytest.mark.parametrize("bench", BENCHMARK_NAMES)
    def test_every_workload_and_arm(self, bench, kind):
        """Full-``RunResult`` equality on all 14 workloads and the three
        evaluation arms, at a short trace length."""
        ref, auto = (
            run_benchmark(
                bench, coalescer=kind, n_accesses=1500, seed=SEED,
                engine=engine,
            )
            for engine in ("reference", "auto")
        )
        assert ref == auto

    def test_fine_grain_equality(self):
        ref = _run("gs", "hmc", "reference", fine_grain=True)
        bat = _run("gs", "hmc", "auto", fine_grain=True)
        assert ref == bat

    def test_auto_resolves_to_batched_and_matches(self):
        system = System(coalescer=CoalescerKind.PAC)
        assert system.engine == "batched"
        auto = _run("stream", "hmc", "auto")
        ref = _run("stream", "hmc", "reference")
        assert auto == ref

    def test_issued_packets_identical(self):
        """The packet stream itself — not just aggregates — must match,
        constituents and submit cycles included: every engine gives a
        request of the packed stream its ordinal as id."""
        base = System(coalescer=CoalescerKind.PAC, engine="reference")
        trace = base.build_trace(["gs"], 3000, seed=7)
        raw = encode_requests(list(trace.requests()))
        ref_dev = RecordingDevice(base.device)
        ref = base.coalescer.process(raw, ref_dev)
        bat_sys = System(coalescer=CoalescerKind.PAC, engine="auto")
        bat_dev = RecordingDevice(bat_sys.device)
        bat = bat_sys.coalescer.process(raw, bat_dev)
        assert ref == bat
        assert len(ref_dev.submits) == len(bat_dev.submits) == ref.n_issued
        for a, b in zip(ref_dev.submits, bat_dev.submits):
            assert a == b
        for reg_name in ("stats",):
            assert (
                getattr(base.coalescer, reg_name).as_dict()
                == getattr(bat_sys.coalescer, reg_name).as_dict()
            )


class TestDispatchRules:
    def test_reference_always_honoured(self):
        s = System(coalescer=CoalescerKind.PAC, engine="reference")
        assert s.engine == "reference"

    @pytest.mark.parametrize("kind", [CoalescerKind.NONE, CoalescerKind.DMC])
    def test_non_pac_auto_is_reference(self, kind):
        # NONE and DMC have one coalescer, the reference class; `auto`
        # runs it between the batched front-end and device.
        from repro.mshr.dmc import MSHRBasedDMC, NullCoalescer

        s = System(coalescer=kind, engine="auto")
        assert s.engine == "batched"
        assert type(s.coalescer) is {
            CoalescerKind.NONE: NullCoalescer,
            CoalescerKind.DMC: MSHRBasedDMC,
        }[kind]

    @pytest.mark.parametrize("kind", [CoalescerKind.NONE, CoalescerKind.DMC])
    def test_non_pac_explicit_batched_accepted(self, kind):
        # The production path ("auto") runs the one coalescer of every
        # non-PAC arm, the class "reference" runs.
        s = System(coalescer=kind, engine="auto")
        assert s.engine == "batched"
        assert type(s.coalescer) is type(
            System(coalescer=kind, engine="reference").coalescer
        )

    @pytest.mark.parametrize(
        "probe_kw", [dict(spans=True), dict(telemetry=True, spans=True)]
    )
    def test_spans_accept_explicit_batched(self, probe_kw):
        from repro.core.pac_batched import BatchedPagedAdaptiveCoalescer

        s = System(coalescer=CoalescerKind.PAC, engine="auto", **probe_kw)
        assert s.engine == "batched"
        assert type(s.coalescer) is BatchedPagedAdaptiveCoalescer

    def test_telemetry_is_not_a_blocker(self):
        s = System(coalescer=CoalescerKind.PAC, engine="auto", telemetry=True)
        assert s.engine == "batched"

    def test_unknown_engine_rejected(self):
        # "batched" is what "auto" resolves to, not a value of the knob.
        for engine in ("vectorised", "batched"):
            with pytest.raises(ValueError, match="unknown engine"):
                System(coalescer=CoalescerKind.PAC, engine=engine)

    @pytest.mark.parametrize("kind", list(CoalescerKind))
    def test_for_arm_keeps_the_engine(self, kind):
        from repro.engine.spec import RunSpec

        for engine in ("auto", "reference"):
            spec = RunSpec(("gs",), 1, engine=engine).for_arm(kind)
            assert (spec.arm, spec.engine) == (kind, engine)


class TestGridLevelEngine:
    """``engine="auto"`` on multi-arm grids: every arm takes it, and
    NONE/DMC run their one coalescer between the batched twins —
    bit-identically to ``reference``."""

    def test_run_comparison_accepts_batched(self):
        from repro.engine.driver import run_comparison

        ref = run_comparison(
            "stream", n_accesses=2000, seed=11, engine="reference",
            use_artifact_cache=False,
        )
        bat = run_comparison(
            "stream", n_accesses=2000, seed=11, engine="auto",
            use_artifact_cache=False,
        )
        assert ref == bat

    def test_run_suite_parallel_accepts_batched(self):
        from repro.engine.parallel import run_suite_parallel

        ref = run_suite_parallel(
            n_accesses=1500, seed=9, benchmarks=["gs", "stream"],
            max_workers=1, engine="reference",
        )
        bat = run_suite_parallel(
            n_accesses=1500, seed=9, benchmarks=["gs", "stream"],
            max_workers=2, engine="auto",
        )
        assert ref == bat


class TestAutoDemotion:
    """``auto`` never demotes: probes, spans and fault plans all run
    on the batched engines, and no ``demote`` event is emitted."""

    def test_spans_stay_batched_and_match_reference(self):
        auto = _run("gs", "hmc", "auto", spans=True)
        ref = _run("gs", "hmc", "reference", spans=True)
        assert auto.spans is not None and len(auto.spans) > 0
        assert auto == ref
        assert System(coalescer=CoalescerKind.PAC, spans=True).engine == (
            "batched"
        )

    def test_telemetry_run_does_not_demote(self):
        log = ev.EventLog()
        with ev.installed(log):
            System(coalescer=CoalescerKind.PAC, engine="auto", telemetry=True)
        assert not [r for r in log.records if r["kind"] == "demote"]

    def test_faults_demote_auto(self):
        # No fault site sits inside an engine, so an active plan no
        # longer demotes `auto`.
        from repro.faults import FaultInjector, installed, resolve_plan

        plan = resolve_plan("artifact.get:corrupt@0")
        with installed(FaultInjector(plan)):
            s = System(coalescer=CoalescerKind.PAC, engine="auto")
            assert s.engine == "batched"

    def test_clean_run_does_not_demote(self):
        log = ev.EventLog()
        with ev.installed(log):
            system = System(coalescer=CoalescerKind.PAC, engine="auto")
        assert system.engine == "batched"
        assert not [r for r in log.records if r["kind"] == "demote"]


class TestBackendEngine:
    """Device dispatch on the one resolved engine."""

    def test_auto_dispatches_batched_device_per_protocol(self):
        # DDR has one class on both engines.
        from repro.ddr.device import DDRDevice
        from repro.hmc.batched import BatchedHBMDevice, BatchedHMCDevice

        expected = {
            "hmc": BatchedHMCDevice,
            "hbm": BatchedHBMDevice,
            "ddr": DDRDevice,
        }
        for device, cls in expected.items():
            s = System(coalescer=CoalescerKind.PAC, device=device)
            assert s.engine == "batched"
            assert type(s.device) is cls

    def test_reference_pins_scalar_device_classes(self):
        from repro.ddr.device import DDRDevice
        from repro.hmc.device import HMCDevice
        from repro.hmc.hbm import HBMDevice

        expected = {"hmc": HMCDevice, "hbm": HBMDevice, "ddr": DDRDevice}
        for device, cls in expected.items():
            s = System(
                coalescer=CoalescerKind.PAC, device=device,
                engine="reference",
            )
            assert s.engine == "reference"
            assert type(s.device) is cls

    def test_non_pac_arms_still_get_batched_backend(self):
        # The device is arm-independent: NONE/DMC run their one
        # coalescer in front of the device twin.
        from repro.hmc.batched import BatchedHMCDevice

        for kind in (CoalescerKind.NONE, CoalescerKind.DMC):
            s = System(coalescer=kind, device="hmc")
            assert s.engine == "batched"
            assert type(s.device) is BatchedHMCDevice

    @pytest.mark.parametrize("probe_kw", [
        {"spans": True}, {"telemetry": True, "spans": True},
    ])
    def test_probes_keep_auto_backend(self, probe_kw):
        from repro.hmc.batched import BatchedHMCDevice

        s = System(coalescer=CoalescerKind.PAC, engine="auto", **probe_kw)
        assert s.engine == "batched"
        assert type(s.device) is BatchedHMCDevice

    def test_faults_demote_auto_backend(self):
        # An active fault plan leaves the back-end twin in place.
        from repro.faults import FaultInjector, installed, resolve_plan
        from repro.hmc.batched import BatchedHMCDevice

        plan = resolve_plan("artifact.get:corrupt@0")
        with installed(FaultInjector(plan)):
            s = System(coalescer=CoalescerKind.PAC, engine="auto")
            assert s.engine == "batched"
            assert type(s.device) is BatchedHMCDevice

    def test_run_raw_syncs_batched_device(self):
        # run_trace/run_raw must merge the deferred window before
        # build_result reads the device's stats/energy surfaces — the
        # RunResult equality in TestBitIdentity only holds if it did,
        # but assert the mechanism directly: no residue after a run.
        s = System(coalescer=CoalescerKind.PAC)
        assert s.engine == "batched"
        s.run("gs", 2000, seed=SEED)
        assert s.device._w == [0] * len(s.device._w)

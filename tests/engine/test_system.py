"""Tests for the System wiring and trace building."""

import numpy as np
import pytest

from repro.config import TABLE1
from repro.core.pac import PagedAdaptiveCoalescer
from repro.core.protocols import HBM, HMC1, HMC2, HMC2_FINE
from repro.engine.driver import run_spec
from repro.engine.spec import RunSpec
from repro.engine.system import CoalescerKind, System, device_protocol
from repro.mshr.dmc import MSHRBasedDMC, NullCoalescer
from repro.telemetry import TelemetryRegistry


class TestConstruction:
    @pytest.mark.parametrize("probe", [
        dict(telemetry=True), dict(telemetry=False), dict(telemetry=256),
        dict(spans=True), dict(spans=16), dict(spans=TelemetryRegistry()),
    ])
    def test_probes_are_live_objects_or_none(self, probe):
        """A system takes a registry and a recorder or None; spellings
        such as ``True`` or a sample rate resolve in ``RunSpec``."""
        (name,) = probe
        with pytest.raises(TypeError, match=name):
            System(TABLE1, CoalescerKind.PAC, **probe)

    def test_coalescer_kinds(self):
        assert isinstance(
            System(TABLE1, CoalescerKind.NONE).coalescer, NullCoalescer
        )
        assert isinstance(
            System(TABLE1, CoalescerKind.DMC).coalescer, MSHRBasedDMC
        )
        assert isinstance(
            System(TABLE1, CoalescerKind.PAC).coalescer, PagedAdaptiveCoalescer
        )

    def test_unknown_device(self):
        with pytest.raises(ValueError):
            System(TABLE1, device="optane")

    def test_hbm_device(self):
        sys_ = System(TABLE1, CoalescerKind.PAC, device="hbm")
        assert sys_.device.route_by_address
        assert sys_.protocol.name == "hbm"

    @pytest.mark.parametrize("device, config, fine_grain, protocol", [
        ("hmc", TABLE1, False, HMC2),
        ("hmc", TABLE1.with_hmc(max_packet_bytes=128), False, HMC1),
        ("hmc", TABLE1.with_hmc(max_packet_bytes=512), False, HMC2),
        ("hmc", TABLE1, True, HMC2_FINE),
        ("hbm", TABLE1, False, HBM),
        ("hbm", TABLE1, True, HBM),
        ("ddr", TABLE1, False, HMC2),
        ("ddr", TABLE1, True, HMC2_FINE),
    ])
    def test_protocol_follows_the_device(
        self, device, config, fine_grain, protocol
    ):
        assert device_protocol(device, config, fine_grain) is protocol
        sys_ = System(
            config, CoalescerKind.PAC, device=device, fine_grain=fine_grain
        )
        assert sys_.protocol is protocol
        assert sys_.coalescer.protocol is protocol

    @pytest.mark.parametrize("max_bytes, fine_grain", [(64, False), (128, True)])
    def test_an_hmc_device_no_protocol_fits_is_rejected(
        self, max_bytes, fine_grain
    ):
        config = TABLE1.with_hmc(max_packet_bytes=max_bytes)
        with pytest.raises(ValueError, match=f"max_packet_bytes={max_bytes}B"):
            System(config, CoalescerKind.PAC, fine_grain=fine_grain)

    def test_protocol_is_not_an_argument(self):
        with pytest.raises(TypeError, match="protocol"):
            System(TABLE1, CoalescerKind.PAC, protocol=HMC1)

    def test_fine_grain_disables_prefetcher(self):
        sys_ = System(TABLE1, CoalescerKind.PAC, fine_grain=True)
        assert not sys_.hierarchy.prefetch_enabled
        assert sys_.protocol.grain_bytes == 16


class TestBuildTrace:
    def test_single_process(self):
        sys_ = System(TABLE1, CoalescerKind.NONE)
        trace = sys_.build_trace(["stream"], 4000)
        assert len(trace) == 4000
        assert np.all(np.diff(trace.cycles) >= 0)

    def test_multiprocess_disjoint_cores(self):
        sys_ = System(TABLE1, CoalescerKind.NONE)
        trace = sys_.build_trace(["stream", "bfs"], 4000)
        assert len(trace) == 4000
        cores = set(np.unique(trace.cores))
        # Processes pinned to disjoint halves of the 8 cores.
        assert cores <= set(range(8))
        assert max(cores) >= 4

    def test_multiprocess_disjoint_frames(self):
        # Two processes never share physical pages (Figure 6b premise).
        sys_ = System(TABLE1, CoalescerKind.NONE)
        trace = sys_.build_trace(["stream", "stream"], 4000)
        pages0 = set(trace.addrs[trace.cores < 4] // 4096)
        pages1 = set(trace.addrs[trace.cores >= 4] // 4096)
        assert not pages0 & pages1

    def test_empty_benchmarks_rejected(self):
        with pytest.raises(ValueError):
            System(TABLE1).build_trace([], 100)

    def test_deterministic(self):
        a = System(TABLE1).build_trace(["gs"], 1000, seed=5)
        b = System(TABLE1).build_trace(["gs"], 1000, seed=5)
        assert np.array_equal(a.addrs, b.addrs)


class TestRun:
    def test_run_produces_result(self):
        res = run_spec(RunSpec(("gs",), 4000, arm=CoalescerKind.PAC))
        assert res.benchmark == "gs"
        assert res.coalescer == "pac"
        assert res.n_accesses == 4000
        assert res.n_raw > 0
        assert res.n_issued <= res.n_raw
        assert 0 <= res.coalescing_efficiency < 1
        assert res.pac_metrics is not None

    def test_baseline_has_no_pac_metrics(self):
        res = run_spec(RunSpec(("gs",), 2000, arm=CoalescerKind.NONE))
        assert res.pac_metrics is None
        assert res.coalescing_efficiency == 0.0

    def test_runtime_positive(self):
        res = run_spec(RunSpec(("stream",), 2000, arm=CoalescerKind.DMC))
        assert res.runtime_cycles > 0
        assert res.mean_memory_latency_cycles > 0

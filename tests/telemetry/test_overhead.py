"""Disabled-telemetry overhead guard.

Two protections:

* **Behavioral** — with telemetry off (the default), results still match
  the pre-telemetry goldens in ``tests/golden_results.json``: adding the
  probe layer must not perturb a single modeled number.
* **Structural** — the disabled path must stay allocation-free: every
  component built without probes holds the *shared* null probe
  singletons, so the hot path pays one empty method call per event and
  the registry machinery never materializes.
"""

import json
from pathlib import Path

import pytest

from repro.config import PACConfig
from repro.core.pac import PagedAdaptiveCoalescer
from repro.core.protocols import HMC2
from repro.engine.driver import run_benchmark
from repro.engine.system import CoalescerKind, System
from repro.hmc.device import HMCDevice
from repro.telemetry.probe import (
    _NULL_COUNTER,
    _NULL_GAUGE,
    _NULL_HISTOGRAM,
)

GOLDEN = json.loads(
    (Path(__file__).parent.parent / "golden_results.json").read_text()
)
N_ACCESSES = 8000
SEED = 1234
TOLERANCE = 0.02


class TestDisabledMatchesGoldens:
    @pytest.mark.parametrize("bench", ["gs", "hpcg"])
    @pytest.mark.parametrize(
        "kind", [CoalescerKind.DMC, CoalescerKind.PAC]
    )
    def test_default_run_still_on_golden(self, bench, kind):
        expected = GOLDEN[bench][kind.value]
        result = run_benchmark(
            bench, kind, n_accesses=N_ACCESSES, seed=SEED
        )
        assert result.telemetry is None
        assert result.n_raw == expected["n_raw"]
        assert result.coalescing_efficiency == pytest.approx(
            expected["coalescing_efficiency"], abs=TOLERANCE
        )
        assert result.transaction_efficiency == pytest.approx(
            expected["transaction_efficiency"], abs=TOLERANCE
        )


class TestDisabledPathIsAllocationFree:
    def test_pac_holds_shared_nulls(self):
        pac = PagedAdaptiveCoalescer(PACConfig(), protocol=HMC2)
        assert pac._t_direct is _NULL_COUNTER
        assert pac._t_maq_occupancy is _NULL_GAUGE
        assert pac.maq._t_full_stalls is _NULL_COUNTER
        assert pac.network.assembler._t_packet_bytes is _NULL_HISTOGRAM
        assert pac.network.assembler._probes_on is False

    def test_device_holds_shared_nulls(self):
        device = HMCDevice()
        assert device._probes_on is False
        assert device._t_packets is _NULL_COUNTER
        assert device._t_latency is _NULL_GAUGE
        assert device.banks._t_conflicts is _NULL_COUNTER
        assert device.vaults._t_queue_wait is _NULL_GAUGE

    def test_system_wires_nulls_end_to_end(self):
        system = System(coalescer=CoalescerKind.PAC)
        assert system.telemetry is None
        assert system.hierarchy._t_raw is _NULL_COUNTER
        assert system.device._t_packets is _NULL_COUNTER
        assert system.coalescer._t_direct is _NULL_COUNTER

    @pytest.mark.parametrize("device", ["hmc", "hbm", "ddr"])
    def test_batched_twins_hold_shared_nulls_and_no_buffers(self, device):
        """The twins feed probes through ProbeBuffers only when a
        registry is enabled: built without one they keep the shared
        null probes and allocate no buffer."""
        from repro.cache.batched import BatchedCacheHierarchy
        from repro.core.pac_batched import BatchedPagedAdaptiveCoalescer

        system = System(coalescer=CoalescerKind.PAC, device=device)
        assert system.engine == "batched"
        pac = system.coalescer
        hierarchy = system.hierarchy
        assert type(pac) is BatchedPagedAdaptiveCoalescer
        assert type(hierarchy) is BatchedCacheHierarchy
        assert pac._t_maq_occupancy is _NULL_GAUGE
        assert pac.mshrs._t_span_blocks is _NULL_HISTOGRAM
        assert hierarchy._t_writebacks is _NULL_COUNTER
        assert system.device._t_energy is _NULL_COUNTER
        for twin in (pac, hierarchy, system.device):
            assert twin._probes_on is False
            assert not hasattr(twin, "_probe_buf")
        system.run("gs", 1500, seed=SEED)
        for twin in (pac, hierarchy, system.device):
            assert not hasattr(twin, "_probe_buf")

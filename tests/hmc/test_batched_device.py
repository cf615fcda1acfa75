"""Parity tests for the batched back-end device engine (HMC + HBM).

The contract under test: :class:`repro.hmc.batched.BatchedHMCDevice`
(and its HBM twin) must be **bit-identical** to the scalar reference —
same per-packet completion cycles, same residual busy-horizon state,
and, after :meth:`sync`, the same stats registry, latency accumulator,
and energy store, field for field.
"""

import math

import pytest

from repro.common.types import CoalescedRequest, MemOp
from repro.config import HMCConfig
from repro.hmc.batched import BatchedHBMDevice, BatchedHMCDevice
from repro.hmc.device import HMCDevice
from repro.hmc.hbm import HBMDevice, hbm_config


def pkt(addr=0, size=64, op=MemOp.LOAD, cycle=0):
    return CoalescedRequest(
        addr=addr, size=size, op=op, constituents=(1,), issue_cycle=cycle
    )


def assert_devices_equal(ref, bat):
    """Full observable-surface equality after the batched sync."""
    bat.sync()
    assert ref.stats.as_dict() == bat.stats.as_dict()
    assert ref.energy == bat.energy
    acc_r = ref.stats.accumulator("latency_cycles")
    acc_b = bat.stats.accumulator("latency_cycles")
    assert acc_r.count == acc_b.count
    assert acc_r.total == acc_b.total
    assert acc_r.min == acc_b.min
    assert acc_r.max == acc_b.max
    assert acc_r._sumsq == acc_b._sumsq
    assert ref.bank_conflicts == bat.bank_conflicts
    assert ref.banks.total_activations == bat.banks.total_activations
    assert ref.mean_latency_cycles == bat.mean_latency_cycles
    # Residual structural state (shared live with the parent class).
    assert ref.links.req_busy_until == bat.links.req_busy_until
    assert ref.links.rsp_busy_until == bat.links.rsp_busy_until
    assert ref.links._rr == bat.links._rr
    assert ref.vaults._busy_until == bat.vaults._busy_until
    assert ref.banks._busy_until == bat.banks._busy_until
    assert ref.banks._access_counts == bat.banks._access_counts


def mixed_packets(n=400, seed=7):
    """A deterministic op/size/address mix covering both crossbar
    directions, bank conflicts, and the multi-row fallback."""
    import random

    rng = random.Random(seed)
    sizes = (32, 64, 128, 256)
    packets = []
    cycle = 0
    for i in range(n):
        size = rng.choice(sizes)
        # Occasionally straddle a row boundary to hit the multi-row
        # BankArray.access fallback (row_bytes=256 on the default map).
        addr = rng.randrange(0, 1 << 22)
        if i % 17 == 0:
            addr = (addr & ~0xFF) + 224
        op = MemOp.STORE if rng.random() < 0.4 else MemOp.LOAD
        cycle += rng.randrange(0, 9)
        packets.append(pkt(addr=addr, size=size, op=op, cycle=cycle))
    return packets


def tracked_packets(n=400):
    """:func:`mixed_packets`, each carrying its own raw request (and
    every seventh a second one), plus those requests in ordinal order:
    a span recorder admits them before the packets are submitted, and a
    packet's constituents are its requests' ordinals."""
    from dataclasses import replace

    from repro.common.types import MemoryRequest

    packets, requests = [], []
    for i, p in enumerate(mixed_packets(n)):
        ids = tuple(range(len(requests), len(requests) + 1 + (i % 7 == 0)))
        requests.extend(
            MemoryRequest(addr=p.addr, op=p.op, cycle=p.issue_cycle)
            for _ in ids
        )
        packets.append(replace(p, constituents=ids))
    return packets, requests


class TestScalarSubmitParity:
    @pytest.mark.parametrize(
        "ref_cls,bat_cls",
        [(HMCDevice, BatchedHMCDevice), (HBMDevice, BatchedHBMDevice)],
    )
    def test_per_packet_completions_and_state(self, ref_cls, bat_cls):
        ref, bat = ref_cls(), bat_cls()
        for p in mixed_packets():
            assert ref.submit(p, p.issue_cycle) == bat.submit(
                p, p.issue_cycle
            )
        assert_devices_equal(ref, bat)

    def test_oversized_packet_rejected_identically(self):
        ref, bat = HMCDevice(), BatchedHMCDevice()
        for dev in (ref, bat):
            with pytest.raises(ValueError, match="exceeds device maximum"):
                dev.submit(pkt(size=512), 0)

    def test_custom_config_parity(self):
        cfg = HMCConfig(n_links=2, n_vaults=8)
        ref, bat = HMCDevice(cfg), BatchedHMCDevice(cfg)
        for p in mixed_packets(200, seed=3):
            assert ref.submit(p, p.issue_cycle) == bat.submit(
                p, p.issue_cycle
            )
        assert_devices_equal(ref, bat)


class TestHBMRouteByAddress:
    def test_route_by_address_link_choice(self):
        """HBM parity is only meaningful if the two twins actually take
        the address-routed path: every route must be local and the
        round-robin cursor must never move."""
        ref, bat = HBMDevice(), BatchedHBMDevice()
        assert ref.route_by_address and bat.route_by_address
        cfg = hbm_config()
        for vault in range(cfg.n_vaults):
            addr = vault * cfg.row_bytes
            assert ref.submit(pkt(addr=addr), 0) == bat.submit(
                pkt(addr=addr), 0
            )
        assert ref.links._rr == bat.links._rr == 0
        assert_devices_equal(ref, bat)
        assert bat.stats.count("remote_routes") == 0
        assert bat.energy.picojoules["LINK-REMOTE-ROUTE"] == 0.0

    def test_hbm_max_size_packets(self):
        # hbm_config allows row-sized (1KB) packets — exercise the
        # largest legal transfer on both twins.
        ref, bat = HBMDevice(), BatchedHBMDevice()
        for i in range(32):
            p = pkt(addr=i * 1024, size=1024, cycle=i * 3)
            assert ref.submit(p, p.issue_cycle) == bat.submit(
                p, p.issue_cycle
            )
        assert_devices_equal(ref, bat)


class TestSyncSemantics:
    def test_sync_is_idempotent(self):
        bat = BatchedHMCDevice()
        bat.submit(pkt(), 0)
        bat.sync()
        snapshot = (bat.stats.as_dict(), bat.energy.by_category())
        bat.sync()
        bat.sync()
        assert (bat.stats.as_dict(), bat.energy.by_category()) == snapshot

    def test_multi_round_sync_matches_single_reference_run(self):
        packets = mixed_packets(300, seed=23)
        ref, bat = HMCDevice(), BatchedHMCDevice()
        for i, p in enumerate(packets):
            ref.submit(p, p.issue_cycle)
            bat.submit(p, p.issue_cycle)
            if i % 37 == 0:
                bat.sync()  # merge mid-stream, repeatedly
        assert_devices_equal(ref, bat)

    def test_unsynced_window_defers_observables(self):
        bat = BatchedHMCDevice()
        bat.submit(pkt(), 0)
        assert bat.stats.count("packets") == 0
        # DRAM-TRANSFER is the one live-charged category (its 1.2 pJ/B
        # constant is inexact, so deferral would break bit-identity);
        # everything else stays in the window until sync.
        by_cat = bat.energy.by_category()
        assert set(k for k, v in by_cat.items() if v) <= {"DRAM-TRANSFER"}
        bat.sync()
        assert bat.stats.count("packets") == 1
        assert bat.energy.total_pj > bat.energy.picojoules["DRAM-TRANSFER"]

    def test_latency_window_resets(self):
        bat = BatchedHMCDevice()
        bat.submit(pkt(), 0)
        bat.sync()
        assert bat._w_lat == [0, 0, math.inf, -math.inf, 0]

    def test_sync_of_fresh_device_merges_nothing(self):
        bat = BatchedHMCDevice()
        bat.sync()
        assert bat.stats.count("packets") == 0
        assert_devices_equal(HMCDevice(), bat)


class TestConstructorRefusals:
    def test_accepts_enabled_probes(self):
        """Enabled probes record the reference's events bit for bit —
        across a buffer fold, a mid-stream sync and the closing sync."""
        from repro.telemetry import FOLD_EVENTS, TelemetryRegistry

        packets = mixed_packets(n=FOLD_EVENTS + 300)
        for ref_cls, bat_cls in (
            (HMCDevice, BatchedHMCDevice), (HBMDevice, BatchedHBMDevice),
        ):
            ref_reg = TelemetryRegistry(window_cycles=128)
            bat_reg = TelemetryRegistry(window_cycles=128)
            ref = ref_cls(probes=ref_reg.scope("device"))
            bat = bat_cls(probes=bat_reg.scope("device"))
            for i, p in enumerate(packets):
                assert ref.submit(p, p.issue_cycle) == bat.submit(
                    p, p.issue_cycle
                )
                if i == 1000:
                    bat.sync()
            assert_devices_equal(ref, bat)
            assert ref_reg.counter("device.energy_pj").total > 0
            assert ref_reg == bat_reg
            assert ref_reg.to_json() == bat_reg.to_json()

    def test_accepts_enabled_spans(self):
        """A live recorder gets the reference's five segments for every
        packet that carries a tracked request, and nothing else."""
        from repro.telemetry import SpanRecorder

        packets, requests = tracked_packets()
        for ref_cls, bat_cls in (
            (HMCDevice, BatchedHMCDevice), (HBMDevice, BatchedHBMDevice),
        ):
            traces = []
            for cls in (ref_cls, bat_cls):
                recorder = SpanRecorder(sample_rate=3, seed=1)
                for i, req in enumerate(requests):
                    recorder.admit(
                        i, req.addr, req.core_id, req.op, req.cycle,
                        req.cycle,
                    )
                dev = cls(spans=recorder)
                for p in packets:
                    dev.submit(p, p.issue_cycle)
                traces.append(recorder.finalize())
            ref, bat = traces
            assert 0 < len(ref.packets) < len(packets)
            assert {s[0] for s in ref.packets[0].segments} == {
                "link_wait", "route", "vault_wait", "dram", "response"
            }
            assert ref == bat

    def test_accepts_null_probes(self):
        from repro.telemetry import NULL_SPANS, NULL_TELEMETRY

        dev = BatchedHMCDevice(
            probes=NULL_TELEMETRY.scope("device"), spans=NULL_SPANS
        )
        dev.submit(pkt(), 0)
        dev.sync()
        assert dev.stats.count("packets") == 1

"""Parity tests for the batched DDR back-end twin.

:class:`repro.ddr.batched.BatchedDDRDevice` must be bit-identical to
:class:`repro.ddr.device.DDRDevice`: same completion cycles, same
residual open-row / busy-until / bus state, and — after :meth:`sync` —
the same stats registry (including its lazily-created key set), latency
accumulator, and energy store.
"""

import math
import random

import pytest

from repro.common.types import CoalescedRequest, MemOp
from repro.ddr.batched import BatchedDDRDevice
from repro.ddr.device import DDRConfig, DDRDevice


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
    assert ref.row_hit_rate == bat.row_hit_rate
    assert ref.bank_conflicts == bat.bank_conflicts
    # Residual structural state (shared live with the parent class).
    assert set(ref._banks) == set(bat._banks)
    for key, bank_r in ref._banks.items():
        bank_b = bat._banks[key]
        assert bank_r.open_row == bank_b.open_row, key
        assert bank_r.busy_until == bank_b.busy_until, key
    assert ref._bus_busy_until == bat._bus_busy_until


def mixed_packets(n=400, seed=7, cfg=None):
    """A deterministic mix of hits, empties, conflicts, and multi-burst
    packets spread across channels and banks."""
    cfg = cfg if cfg is not None else DDRConfig()
    rng = random.Random(seed)
    bank_stride = cfg.row_bytes * cfg.n_channels * cfg.banks_per_channel
    packets = []
    cycle = 0
    for i in range(n):
        roll = rng.random()
        if roll < 0.4:
            # Row-hit traffic: reuse a recently-touched row.
            addr = rng.randrange(0, 4) * cfg.row_bytes + rng.randrange(
                0, cfg.row_bytes - 256
            )
        elif roll < 0.7:
            # Conflict traffic: same bank, distinct rows.
            addr = rng.randrange(0, 8) * bank_stride
        else:
            addr = rng.randrange(0, 1 << 26)
        size = rng.choice((32, 64, 128, 256))
        op = MemOp.STORE if rng.random() < 0.4 else MemOp.LOAD
        cycle += rng.randrange(0, 9)
        packets.append(pkt(addr=addr, size=size, op=op, cycle=cycle))
    return packets


class TestScalarSubmitParity:
    def test_per_packet_completions_and_state(self):
        ref, bat = DDRDevice(), BatchedDDRDevice()
        for p in mixed_packets():
            assert ref.submit(p, p.issue_cycle) == bat.submit(
                p, p.issue_cycle
            )
        assert_devices_equal(ref, bat)

    def test_empty_packet_rejected_identically(self):
        # CoalescedRequest rejects size<=0 at construction, so a
        # duck-typed stub is needed to reach the device's own guard.
        from types import SimpleNamespace

        bad = SimpleNamespace(addr=0, size=0, op=MemOp.LOAD, issue_cycle=0)
        for dev in (DDRDevice(), BatchedDDRDevice()):
            with pytest.raises(ValueError, match="carry data"):
                dev.submit(bad, 0)

    def test_custom_config_parity(self):
        cfg = DDRConfig(n_channels=2, banks_per_channel=4, row_bytes=2048)
        ref, bat = DDRDevice(cfg), BatchedDDRDevice(cfg)
        for p in mixed_packets(200, seed=3, cfg=cfg):
            assert ref.submit(p, p.issue_cycle) == bat.submit(
                p, p.issue_cycle
            )
        assert_devices_equal(ref, bat)

    def test_lazy_counter_key_set_matches(self):
        """A hit-free run must not materialize ``row_hits`` — the
        reference creates counters lazily and the sync mirrors that."""
        cfg = DDRConfig()
        bank_stride = cfg.row_bytes * cfg.n_channels * cfg.banks_per_channel
        ref, bat = DDRDevice(), BatchedDDRDevice()
        for i in range(8):  # all conflicts/empties, never a hit
            p = pkt(addr=i * bank_stride, cycle=i * 50)
            ref.submit(p, p.issue_cycle)
            bat.submit(p, p.issue_cycle)
        assert_devices_equal(ref, bat)
        assert "row_hits" not in bat.stats.as_dict()


class TestResidualStateRegression:
    def test_open_row_state_carries_across_submit_sequences(self):
        """Back-to-back submit sequences must see each other's open
        rows and busy horizons exactly as the reference does — the
        hit/empty/conflict classification of sequence two depends on
        sequence one's residue."""
        first = mixed_packets(120, seed=19)
        second = mixed_packets(120, seed=29)
        ref, bat = DDRDevice(), BatchedDDRDevice()
        for p in first:
            ref.submit(p, p.issue_cycle)
            bat.submit(p, p.issue_cycle)
        assert_devices_equal(ref, bat)  # syncs bat mid-run
        # Sequence two starts from the residue sequence one left.
        for p in second:
            assert ref.submit(p, p.issue_cycle) == bat.submit(
                p, p.issue_cycle
            )
        assert_devices_equal(ref, bat)


class TestSyncSemantics:
    def test_multi_round_sync_matches_single_reference_run(self):
        packets = mixed_packets(300, seed=23)
        ref, bat = DDRDevice(), BatchedDDRDevice()
        for i, p in enumerate(packets):
            ref.submit(p, p.issue_cycle)
            bat.submit(p, p.issue_cycle)
            if i % 37 == 0:
                bat.sync()  # merge mid-stream, repeatedly
        assert_devices_equal(ref, bat)

    def test_sync_is_idempotent(self):
        bat = BatchedDDRDevice()
        bat.submit(pkt(), 0)
        bat.sync()
        snapshot = (bat.stats.as_dict(), bat.energy.by_category())
        bat.sync()
        assert (bat.stats.as_dict(), bat.energy.by_category()) == snapshot

    def test_latency_window_resets(self):
        bat = BatchedDDRDevice()
        bat.submit(pkt(), 0)
        bat.sync()
        assert bat._w_lat == [0, 0, math.inf, -math.inf, 0]

    def test_sync_of_fresh_device_merges_nothing(self):
        bat = BatchedDDRDevice()
        bat.sync()
        assert "packets" not in bat.stats.as_dict()
        assert_devices_equal(DDRDevice(), bat)


class TestConstructorRefusals:
    def test_accepts_enabled_probes(self):
        """Enabled probes record the reference's events bit for bit —
        across a buffer fold, a mid-stream sync and the closing sync."""
        from repro.telemetry import FOLD_EVENTS, TelemetryRegistry

        packets = mixed_packets(n=FOLD_EVENTS + 300)
        ref_reg = TelemetryRegistry(window_cycles=128)
        bat_reg = TelemetryRegistry(window_cycles=128)
        ref = DDRDevice(probes=ref_reg.scope("device"))
        bat = BatchedDDRDevice(probes=bat_reg.scope("device"))
        for i, p in enumerate(packets):
            assert ref.submit(p, p.issue_cycle) == bat.submit(p, p.issue_cycle)
            if i == 1000:
                bat.sync()
        assert_devices_equal(ref, bat)
        assert ref_reg.counter("device.banks.conflicts").total > 0
        assert ref_reg == bat_reg
        assert ref_reg.to_json() == bat_reg.to_json()

    def test_accepts_enabled_spans(self):
        """A live recorder gets the reference's segments for every
        packet that carries a tracked request, and nothing else."""
        from repro.telemetry import SpanRecorder
        from tests.hmc.test_batched_device import tracked_packets

        packets, requests = tracked_packets()
        traces = []
        for cls in (DDRDevice, BatchedDDRDevice):
            recorder = SpanRecorder(sample_rate=3, seed=1)
            for i, req in enumerate(requests):
                recorder.admit(i, req, req.cycle)
            dev = cls(spans=recorder)
            for p in packets:
                dev.submit(p, p.issue_cycle)
            traces.append(recorder.finalize())
        ref, bat = traces
        assert 0 < len(ref.packets) < len(packets)
        assert ref == bat

    def test_accepts_none_defaults(self):
        # The None-resolve convention: no evaluated-at-import singleton
        # defaults in the signature, NULL objects resolved in the body.
        dev = BatchedDDRDevice()
        dev.submit(pkt(), 0)
        dev.sync()
        assert dev.stats.count("packets") == 1

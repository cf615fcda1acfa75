"""Tests for the DDR4 open-page device model.

The device defers its counters, latency and activation energy to
``sync()``; each test that reads them syncs first.
"""

from types import SimpleNamespace

import pytest

from repro.common.types import CoalescedRequest, MemOp
from repro.ddr.device import DDRConfig, DDRDevice


def pkt(addr=0, size=64, op=MemOp.LOAD):
    return CoalescedRequest(addr=addr, size=size, op=op, constituents=(1,))


class TestConfig:
    def test_defaults_are_ddr4_shaped(self):
        cfg = DDRConfig()
        assert cfg.row_bytes == 8192  # the wide rows of Section 2.2.2
        assert cfg.burst_bytes == 64  # fixed 64B granularity

    def test_invalid_timing_ordering(self):
        with pytest.raises(ValueError):
            DDRConfig(row_hit_cycles=100, row_empty_cycles=60)

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            DDRConfig(n_channels=0)
        with pytest.raises(ValueError):
            DDRConfig(row_bytes=100)


class TestOpenPagePolicy:
    def test_first_access_is_row_empty(self):
        dev = DDRDevice()
        dev.submit(pkt(0), 0)
        dev.sync()
        assert dev.stats.count("row_empties") == 1

    def test_same_row_reaccess_is_hit(self):
        # The row stays open — the essence of row-buffer-hit harvesting.
        dev = DDRDevice()
        dev.submit(pkt(0), 0)
        dev.submit(pkt(64), 200)
        dev.sync()
        assert dev.stats.count("row_hits") == 1
        assert dev.row_hit_rate == pytest.approx(0.5)

    def test_different_row_same_bank_conflicts(self):
        dev = DDRDevice()
        cfg = dev.config
        stride = cfg.row_bytes * cfg.n_channels * cfg.banks_per_channel
        dev.submit(pkt(0), 0)
        dev.submit(pkt(stride), 500)  # same bank, next row
        dev.sync()
        assert dev.bank_conflicts == 1

    def test_hit_faster_than_conflict(self):
        dev_hit, dev_conf = DDRDevice(), DDRDevice()
        cfg = dev_hit.config
        stride = cfg.row_bytes * cfg.n_channels * cfg.banks_per_channel
        dev_hit.submit(pkt(0), 0)
        t_hit = dev_hit.submit(pkt(64), 1000) - 1000
        dev_conf.submit(pkt(0), 0)
        t_conf = dev_conf.submit(pkt(stride), 1000) - 1000
        assert t_hit < t_conf

    def test_channels_interleave_by_row(self):
        dev = DDRDevice()
        c0, _, _ = dev.locate(0)
        c1, _, _ = dev.locate(dev.config.row_bytes)
        assert c0 != c1


class TestBusAndAccounting:
    def test_bus_serializes_bursts(self):
        dev = DDRDevice()
        t1 = dev.submit(pkt(0), 0)
        # Back-to-back same-channel traffic queues on the data bus.
        t2 = dev.submit(pkt(64), 0)
        assert t2 > t1

    def test_multi_burst_packet(self):
        dev = DDRDevice()
        small = dev.submit(pkt(0, size=64), 0)
        dev2 = DDRDevice()
        large = dev2.submit(pkt(0, size=256), 0)
        assert large - small == 3 * dev.config.bus_cycles_per_burst

    def test_no_packet_header_overhead(self):
        dev = DDRDevice()
        dev.submit(pkt(size=64), 0)
        dev.sync()
        assert dev.total_transaction_bytes == dev.total_payload_bytes == 64

    def test_banks_facade(self):
        dev = DDRDevice()
        dev.submit(pkt(0), 0)
        dev.sync()
        assert dev.banks.total_activations == 1
        assert dev.banks.total_conflicts == 0

    def test_energy_charged(self):
        dev = DDRDevice()
        dev.submit(pkt(0), 0)
        dev.sync()
        assert dev.energy.picojoules["DRAM-ACTIVATE"] > 0
        assert dev.energy.picojoules["LINK-LOCAL-ROUTE"] == 0

    def test_invalid_packet(self):
        with pytest.raises(ValueError):
            DDRDevice().submit(
                CoalescedRequest(addr=0, size=0, op=MemOp.LOAD,
                                 constituents=(1,)), 0
            )

    def test_empty_packet_reaches_the_device_guard(self):
        # CoalescedRequest rejects size <= 0 itself, so a duck-typed
        # stub reaches the device's own guard.
        bad = SimpleNamespace(addr=0, size=0, op=MemOp.LOAD, issue_cycle=0)
        with pytest.raises(ValueError, match="carry data"):
            DDRDevice().submit(bad, 0)


class TestPaperContrast:
    def test_dense_scan_harvests_row_hits(self):
        # A sequential 64B scan inside one 8KB row: DDR's open page
        # shines (Section 2.2.1).
        dev = DDRDevice()
        for i in range(64):
            dev.submit(pkt(i * 64), i * 100)
        dev.sync()
        assert dev.row_hit_rate > 0.9

    def test_irregular_traffic_thrashes_rows(self):
        # Strided across rows of one bank: every access conflicts — the
        # regime where 3D-stacked memory + PAC wins.
        dev = DDRDevice()
        cfg = dev.config
        stride = cfg.row_bytes * cfg.n_channels * cfg.banks_per_channel
        for i in range(16):
            dev.submit(pkt((i % 4) * stride), i * 500)
        dev.sync()
        assert dev.bank_conflicts > 0
        assert dev.row_hit_rate < 0.1

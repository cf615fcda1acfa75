"""The sync cadence changes nothing: a law for every memory device.

A device may defer its accounting to ``sync()``, its merge point.
Syncing after every ``submit`` is the per-packet schedule; syncing every
k packets, or once at the end, must give bitwise the same observables:
completions, ``stats.as_dict()`` with its key set, the latency
accumulator, exact ``energy.picojoules``, residual bank and bus state,
and — with probes or a span recorder on — the registry JSON and the
``SpanTrace``.

* ``DDRDevice`` is one class with deferred accounting: it is held to
  itself, synced after every packet, every k packets and once.
* ``BatchedHMCDevice``/``BatchedHBMDevice`` defer; ``HMCDevice``/
  ``HBMDevice`` charge live and their ``sync()`` is a no-op. Each twin,
  synced every k packets, is held to its reference.

A device held only to itself would pass a model error that every
cadence shares, so each per-packet run is also checked against the
accounting its stream and completions fix (:func:`_assert_accounting`).

The streams reuse the device strategies of
``tests/hmc/test_batched_device_properties.py``; the DDR streams mix row
hits, empties, conflicts and multi-burst packets. Fixed DDR examples of
the same law are in ``tests/ddr/test_batched_device.py``.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import CoalescedRequest, MemOp
from repro.ddr.device import DDRConfig, DDRDevice
from repro.hmc.batched import BatchedHBMDevice, BatchedHMCDevice
from repro.hmc.device import HMCDevice
from repro.hmc.hbm import HBMDevice
from repro.hmc.power import ENERGY_PJ
from repro.telemetry import FOLD_EVENTS, SpanRecorder, TelemetryRegistry
from tests.hmc.test_batched_device_properties import (
    _general,
    _max_size_packets,
    _quadrant_addrs,
    _storm_addrs,
)

_DDR = DDRConfig()
_DDR_BANK_STRIDE = _DDR.row_bytes * _DDR.n_channels * _DDR.banks_per_channel
#: A second geometry: fewer banks and narrower rows, so the same
#: addresses land on other banks, rows and channels.
_DDR_SMALL = DDRConfig(n_channels=2, banks_per_channel=4, row_bytes=2048)

_ddr_addrs = st.one_of(
    # Row hits: offsets inside a few rows that stay open.
    st.builds(
        lambda row, off: row * _DDR.row_bytes + off,
        st.integers(0, 3), st.integers(0, _DDR.row_bytes - 256),
    ),
    # Conflicts: distinct rows of one bank.
    st.builds(lambda row: row * _DDR_BANK_STRIDE, st.integers(0, 9)),
    # Empties: fresh banks anywhere.
    st.integers(0, 1 << 26),
)
# 128B and 256B packets take several 64B bursts.
_ddr_packets = st.tuples(_ddr_addrs, st.sampled_from((32, 64, 128, 256)))

_hmc_packets = st.one_of(
    _general,
    st.builds(lambda a: (a, 64), _quadrant_addrs),
    _max_size_packets,
    st.builds(lambda a: (a, 128), _storm_addrs),
)

_OBSERVE = st.sampled_from(("off", "probes", "spans"))


def _streams(packets):
    return st.lists(
        st.tuples(packets, st.booleans(), st.integers(0, 6)),
        min_size=1, max_size=60,
    )


def _packets(stream):
    out, cycle = [], 0
    for i, ((addr, size), store, gap) in enumerate(stream):
        cycle += gap
        out.append(CoalescedRequest(
            addr=addr, size=size, op=MemOp.STORE if store else MemOp.LOAD,
            constituents=(i,), issue_cycle=cycle,
        ))
    return out


def _residual(dev):
    """Structural state the timing maths leaves behind, and the HMC
    components' own registries."""
    if isinstance(dev, DDRDevice):
        return (
            sorted(
                (key, bank.open_row, bank.busy_until)
                for key, bank in dev._banks.items()
            ),
            list(dev._bus_busy_until),
        )
    return (
        list(dev.links.req_busy_until), list(dev.links.rsp_busy_until),
        dev.links._rr, list(dev.vaults._busy_until),
        list(dev.banks._busy_until), list(dev.banks._access_counts),
        dev.links.stats.as_dict(), dev.vaults.stats.as_dict(),
        dev.banks.stats.as_dict(),
    )


def _run(make, packets, cadence, observe="off"):
    """Every observable of ``make()`` fed ``packets``, synced after every
    ``cadence`` packets (``None``: once, at the end)."""
    registry = recorder = None
    if observe == "probes":
        registry = TelemetryRegistry(window_cycles=64)
    if observe == "spans":
        recorder = SpanRecorder(sample_rate=3, seed=1)
        for p in packets:
            recorder.admit(
                p.constituents[0], p.addr, 0, p.op, p.issue_cycle,
                p.issue_cycle,
            )
    dev = make(
        probes=registry.scope("device") if registry else None,
        spans=recorder,
    )
    done = []
    for i, p in enumerate(packets, 1):
        done.append(dev.submit(p, p.issue_cycle))
        if cadence is not None and i % cadence == 0:
            dev.sync()
    dev.sync()
    stats = dev.stats.as_dict()
    acc = dev.stats.accumulator("latency_cycles")
    return dict(
        done=done,
        stats=stats,
        keys=sorted(stats),
        latency=(acc.count, acc.total, acc.min, acc.max, acc._sumsq),
        picojoules=dict(dev.energy.picojoules),
        residual=_residual(dev),
        probes=registry.to_json() if registry else None,
        spans=recorder.finalize() if recorder else None,
    )


def _assert_accounting(run, packets):
    """What the stream and its completions fix, whatever the cadence:
    the latency accumulator, packet and byte counts and the per-packet
    DRAM-TRANSFER charge; for DDR also the row-outcome split, the
    activation energy and the probe totals. A model error that every
    cadence shares fails here rather than passing the law."""
    latencies = [done - p.issue_cycle for done, p in zip(run["done"], packets)]
    assert run["latency"] == (
        len(latencies), sum(latencies), min(latencies), max(latencies),
        sum(lat * lat for lat in latencies),
    )
    transfer = 0.0
    for p in packets:
        transfer += p.size * ENERGY_PJ["DRAM-TRANSFER"]
    assert run["picojoules"]["DRAM-TRANSFER"] == transfer
    stats = run["stats"]
    scope = "ddr." if "ddr.packets" in stats else "hmc."
    assert stats[scope + "packets"] == len(packets)
    assert stats[scope + "payload_bytes"] == sum(p.size for p in packets)
    if scope == "hmc.":
        return
    assert stats["ddr.transaction_bytes"] == stats["ddr.payload_bytes"]
    hits, empties, conflicts = (
        stats.get("ddr." + key, 0)
        for key in ("row_hits", "row_empties", "row_conflicts")
    )
    assert hits + empties + conflicts == len(packets)
    assert run["picojoules"]["DRAM-ACTIVATE"] == (
        (empties + conflicts) * ENERGY_PJ["DRAM-ACTIVATE"]
    )
    if run["probes"] is not None:
        probes = json.loads(run["probes"])["probes"]

        def total(name):
            probe = probes.get("device." + name)
            return probe["total"] if probe else 0

        assert total("packets") == len(packets)
        assert total("banks.activations") == empties + conflicts
        assert total("banks.conflicts") == conflicts


class TestDDRCadence:
    @settings(max_examples=80, deadline=None)
    @given(
        stream=_streams(_ddr_packets),
        k=st.integers(2, 13),
        config=st.sampled_from((_DDR, _DDR_SMALL)),
        observe=_OBSERVE,
    )
    def test_cadence_changes_nothing(self, stream, k, config, observe):
        packets = _packets(stream)

        def make(**kw):
            return DDRDevice(config, **kw)

        every_packet = _run(make, packets, 1, observe)
        _assert_accounting(every_packet, packets)
        assert _run(make, packets, k, observe) == every_packet
        assert _run(make, packets, None, observe) == every_packet

    def test_probes_and_spans_across_a_buffer_fold(self):
        """Past a probe-buffer fold and a mid-stream sync, probes and
        spans still match the per-packet schedule's."""
        packets = _packets([
            ((i % 7 * _DDR_BANK_STRIDE + i % 3 * 64, 64 << i % 3),
             i % 4 == 0, i % 5)
            for i in range(FOLD_EVENTS + 300)
        ])
        for observe in ("probes", "spans"):
            runs = [
                _run(DDRDevice, packets, cadence, observe)
                for cadence in (1, 1000, None)
            ]
            _assert_accounting(runs[0], packets)
            assert runs[0] == runs[1] == runs[2]
            assert runs[0]["stats"]["ddr.row_conflicts"] > 0
        assert 0 < len(runs[0]["spans"].packets) < len(packets)

    def test_hit_free_run_creates_no_row_hits(self):
        """Counters are created lazily: a run without a row hit never
        materializes ``row_hits``, at any cadence."""
        packets = [
            CoalescedRequest(
                addr=i * _DDR_BANK_STRIDE, size=64, op=MemOp.LOAD,
                constituents=(i,), issue_cycle=i * 50,
            )
            for i in range(8)
        ]
        for cadence in (1, 3, None):
            stats = _run(DDRDevice, packets, cadence)["stats"]
            assert "ddr.row_hits" not in stats
            assert stats["ddr.row_conflicts"] + stats["ddr.row_empties"] == 8


class TestTwinCadence:
    @pytest.mark.parametrize("reference, twin", [
        (HMCDevice, BatchedHMCDevice), (HBMDevice, BatchedHBMDevice),
    ])
    @settings(max_examples=40, deadline=None)
    @given(
        stream=_streams(_hmc_packets), k=st.integers(1, 13),
        observe=_OBSERVE,
    )
    def test_twin_at_cadence_k_equals_reference(
        self, reference, twin, stream, k, observe
    ):
        packets = _packets(stream)
        expected = _run(reference, packets, 1, observe)
        _assert_accounting(expected, packets)
        assert _run(twin, packets, k, observe) == expected


class TestSyncMergePoint:
    @pytest.mark.parametrize("cls", [DDRDevice, BatchedHMCDevice, HMCDevice])
    def test_sync_is_idempotent(self, cls):
        dev = cls()
        dev.submit(_packets([((0, 64), False, 0)])[0], 0)
        dev.sync()
        snapshot = (dev.stats.as_dict(), dict(dev.energy.picojoules))
        dev.sync()
        assert (dev.stats.as_dict(), dict(dev.energy.picojoules)) == snapshot

    @pytest.mark.parametrize("cls", [DDRDevice, BatchedHMCDevice, HMCDevice])
    def test_sync_of_fresh_device_merges_nothing(self, cls):
        dev = cls()
        dev.sync()
        assert dev.stats.as_dict() == cls().stats.as_dict()
        assert dev.energy.total_pj == 0.0

"""Hypothesis adversarial suite for the batched back-end twins.

Property-based parity: for *any* legal packet stream — not just the
hand-picked mixes of the example-based suite — the batched devices must
stay bit-identical to their scalar references. The strategies are
shaped to concentrate on the spots where the twins' arithmetic could
plausibly diverge:

* **quadrant-boundary vaults** — addresses whose vault index sits at
  the edges of a link's quadrant (``vault // vaults_per_link``), where
  the local/remote crossbar classification flips;
* **max-size packets** — the largest legal transfer, where the
  multi-row fallback and flit-count memoization are most stressed;
* **bank-conflict storms** — floods of same-bank traffic, where the
  busy-horizon recurrences and conflict/queue-wait accounting dominate.

DDR has one class: :class:`~repro.ddr.device.DDRDevice` synced once is
held to itself synced after every packet (``PerPacketDDR``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import CoalescedRequest, MemOp
from repro.config import HMCConfig
from repro.ddr.device import DDRConfig, DDRDevice
from repro.hmc.batched import BatchedHBMDevice, BatchedHMCDevice
from repro.hmc.device import HMCDevice
from repro.hmc.hbm import HBMDevice
from tests.ddr.test_batched_device import PerPacketDDR

_CFG = HMCConfig()
_ROW = _CFG.row_bytes
_VAULTS = _CFG.n_vaults
_MAX_PKT = _CFG.max_packet_bytes
_VAULTS_PER_LINK = _VAULTS // _CFG.n_links

_DDR_CFG = DDRConfig()
_DDR_BANK_STRIDE = (
    _DDR_CFG.row_bytes * _DDR_CFG.n_channels * _DDR_CFG.banks_per_channel
)


def _pkt(addr, size, store, cycle):
    return CoalescedRequest(
        addr=addr,
        size=size,
        op=MemOp.STORE if store else MemOp.LOAD,
        constituents=(1,),
        issue_cycle=cycle,
    )


# Vault indices hugging quadrant edges: the first/last vault of each
# link's quadrant, where `vault // vaults_per_link == link` flips.
_EDGE_VAULTS = sorted(
    {q * _VAULTS_PER_LINK + off for q in range(_CFG.n_links) for off in (0, _VAULTS_PER_LINK - 1)}
)

# On the default vault-first map the vault index is the low bits of
# addr >> row_shift, so addr = (vault | bank<<5 | row<<10) * row_bytes
# lands exactly on the chosen vault.
_quadrant_addrs = st.builds(
    lambda vault, bank, row: (vault + (bank << 5) + (row << 10)) * _ROW,
    st.sampled_from(_EDGE_VAULTS),
    st.integers(0, 7),
    st.integers(0, 63),
)

# Max-size packets placed so some straddle a row boundary (offset near
# the row end triggers the multi-row BankArray.access fallback).
_max_size_packets = st.builds(
    lambda base, offset: (base * _ROW + offset, _MAX_PKT),
    st.integers(0, 1 << 14),
    st.sampled_from((0, _ROW - 32, _ROW - 64)),
)

# Bank-conflict storms: a handful of distinct rows of one bank.
_storm_addrs = st.builds(
    lambda row: (row << 10) * _ROW,  # vault 0, bank 0, varying row
    st.integers(0, 15),
)

_general = st.tuples(
    st.integers(0, 1 << 24),
    st.sampled_from((32, 64, 128, 256)),
)


def _streams(addr_size):
    return st.lists(
        st.tuples(addr_size, st.booleans(), st.integers(0, 6)),
        min_size=1,
        max_size=60,
    )


def _run_pair(ref, bat, stream):
    cycle = 0
    for (addr, size), store, gap in stream:
        cycle += gap
        p = _pkt(addr, size, store, cycle)
        assert ref.submit(p, p.issue_cycle) == bat.submit(p, p.issue_cycle)
    bat.sync()
    assert ref.stats.as_dict() == bat.stats.as_dict()
    assert ref.energy == bat.energy
    acc_r = ref.stats.accumulator("latency_cycles")
    acc_b = bat.stats.accumulator("latency_cycles")
    assert (acc_r.count, acc_r.total, acc_r.min, acc_r.max, acc_r._sumsq) == (
        acc_b.count, acc_b.total, acc_b.min, acc_b.max, acc_b._sumsq
    )


class TestHMCProperties:
    @settings(max_examples=60, deadline=None)
    @given(_streams(st.builds(lambda a: (a, 64), _quadrant_addrs)))
    def test_quadrant_boundary_vaults(self, stream):
        _run_pair(HMCDevice(), BatchedHMCDevice(), stream)

    @settings(max_examples=60, deadline=None)
    @given(_streams(_max_size_packets))
    def test_max_size_packets(self, stream):
        _run_pair(HMCDevice(), BatchedHMCDevice(), stream)

    @settings(max_examples=60, deadline=None)
    @given(_streams(st.builds(lambda a: (a, 128), _storm_addrs)))
    def test_bank_conflict_storm(self, stream):
        ref, bat = HMCDevice(), BatchedHMCDevice()
        _run_pair(ref, bat, stream)
        assert ref.bank_conflicts == bat.bank_conflicts

    @settings(max_examples=80, deadline=None)
    @given(_streams(_general), st.integers(1, 13))
    def test_arbitrary_stream_with_mid_stream_syncs(self, stream, every):
        """Sync granularity must never matter — including for the
        inexact-pJ DRAM-TRANSFER category (charged live, in order)."""
        ref, bat = HMCDevice(), BatchedHMCDevice()
        cycle = 0
        for i, ((addr, size), store, gap) in enumerate(stream):
            cycle += gap
            p = _pkt(addr, size, store, cycle)
            assert ref.submit(p, p.issue_cycle) == bat.submit(
                p, p.issue_cycle
            )
            if i % every == 0:
                bat.sync()
        bat.sync()
        assert ref.stats.as_dict() == bat.stats.as_dict()
        assert ref.energy == bat.energy


class TestHBMProperties:
    @settings(max_examples=60, deadline=None)
    @given(_streams(st.builds(lambda a: (a, 64), _quadrant_addrs)))
    def test_route_by_address_parity(self, stream):
        ref, bat = HBMDevice(), BatchedHBMDevice()
        _run_pair(ref, bat, stream)
        assert ref.links._rr == bat.links._rr == 0


class TestDDRProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        _streams(
            st.one_of(
                _general,
                # Conflict storm: distinct rows of one DDR bank.
                st.builds(
                    lambda r: (r * _DDR_BANK_STRIDE, 64), st.integers(0, 9)
                ),
            )
        )
    )
    def test_arbitrary_stream_parity(self, stream):
        ref, bat = PerPacketDDR(), DDRDevice()
        _run_pair(ref, bat, stream)
        assert ref._bus_busy_until == bat._bus_busy_until
        for key, bank_r in ref._banks.items():
            bank_b = bat._banks[key]
            assert (bank_r.open_row, bank_r.busy_until) == (
                bank_b.open_row, bank_b.busy_until
            )

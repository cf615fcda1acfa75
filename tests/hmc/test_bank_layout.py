"""The flat bank id: one bank layout under every address map.

:class:`~repro.hmc.bank.BankArray` keeps busy horizons and activation
counts in flat lists indexed by the bank id ``bank * n_vaults + vault``.
The devices reach that id two ways: inline, as the row index under one
mask, on the power-of-two vault-first map; and through
:meth:`AddressMap.vault_bank` everywhere else (the other policies, a
non-power-of-two geometry, and every multi-row access). These
properties hold both routes to the formula, on the reference devices
and their batched twins, and hold ``BankArray`` to a ``(vault, bank)``-
dict model of the layout the lists replaced.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import CoalescedRequest, MemOp
from repro.config import HMCConfig
from repro.hmc.bank import BankArray
from repro.hmc.batched import BatchedHBMDevice, BatchedHMCDevice
from repro.hmc.device import HMCDevice
from repro.hmc.hbm import HBMDevice, hbm_config
from repro.mem.address import AddressMap

#: name -> (config, reference class, twin class). "non-pow2" takes the
#: div/mod slow path of the address map; "hbm" is the inline path on
#: another geometry.
GEOMETRIES = {
    "vault-first": (HMCConfig(), HMCDevice, BatchedHMCDevice),
    "bank-first": (
        HMCConfig(address_policy="bank-first"), HMCDevice, BatchedHMCDevice,
    ),
    "row-major": (
        HMCConfig(address_policy="row-major"), HMCDevice, BatchedHMCDevice,
    ),
    "non-pow2": (
        HMCConfig(
            n_links=4, n_vaults=12, banks_per_vault=6, row_bytes=192,
            max_packet_bytes=192,
        ),
        HMCDevice, BatchedHMCDevice,
    ),
    "hbm": (hbm_config(), HBMDevice, BatchedHBMDevice),
}


def _address_map(cfg):
    return AddressMap(
        n_vaults=cfg.n_vaults, banks_per_vault=cfg.banks_per_vault,
        row_bytes=cfg.row_bytes, policy=cfg.address_policy,
    )


def _expected_ids(amap, addr, size):
    """``bank * n_vaults + vault`` of every row ``[addr, addr + size)``
    spans, from :meth:`AddressMap.vault_bank`."""
    row = amap.row_bytes
    first = addr - addr % row
    ids = []
    for r in range(amap.rows_spanned(addr, size)):
        vault, bank = amap.vault_bank(first + r * row)
        ids.append(bank * amap.n_vaults + vault)
    return ids


@st.composite
def _packet_shapes(draw, cfg):
    """(addr, size): any row of an 8GB-and-beyond space (row-major only
    changes bank every 2**17 rows), any 16B-aligned offset in it, so
    some packets straddle a row boundary."""
    row = draw(st.integers(0, (1 << 34) // cfg.row_bytes))
    offset = draw(st.sampled_from(range(0, cfg.row_bytes, 16)))
    size = draw(st.sampled_from(range(16, cfg.max_packet_bytes + 1, 16)))
    return row * cfg.row_bytes + offset, size


class TestDeviceBankId:
    @pytest.mark.parametrize("name", sorted(GEOMETRIES))
    @pytest.mark.parametrize("twin", [False, True], ids=["reference", "twin"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), store=st.booleans())
    def test_device_bank_id_is_the_formula(self, name, twin, data, store):
        cfg, ref_cls, twin_cls = GEOMETRIES[name]
        addr, size = data.draw(_packet_shapes(cfg))
        amap = _address_map(cfg)
        expected = _expected_ids(amap, addr, size)
        dev = (twin_cls if twin else ref_cls)(cfg)
        dev.submit(
            CoalescedRequest(
                addr=addr, size=size,
                op=MemOp.STORE if store else MemOp.LOAD, constituents=(0,),
            ),
            0,
        )
        counts = dev.banks._access_counts
        assert len(counts) == cfg.n_vaults * cfg.banks_per_vault
        touched = Counter({i: n for i, n in enumerate(counts) if n})
        assert touched == Counter(expected)
        assert dev.banks.bank_id(addr) == expected[0]
        assert dev.banks.bank_heat() == dict(Counter(
            (i % cfg.n_vaults, i // cfg.n_vaults) for i in expected
        ))

    @pytest.mark.parametrize("name", sorted(GEOMETRIES))
    def test_negative_address_raises_on_every_path(self, name):
        cfg, ref_cls, twin_cls = GEOMETRIES[name]
        for cls in (ref_cls, twin_cls):
            dev = cls(cfg)
            with pytest.raises(ValueError, match="non-negative"):
                dev.submit(
                    CoalescedRequest(
                        addr=-64, size=64, op=MemOp.LOAD, constituents=(0,),
                    ),
                    0,
                )
            assert not any(dev.banks._access_counts)


class DictBanks:
    """The ``(vault, bank)``-keyed dict layout ``BankArray`` kept before
    its flat lists: the model the lists must equal."""

    def __init__(self, amap, busy_cycles):
        self.amap = amap
        self.busy_cycles = busy_cycles
        self.busy = {}
        self.counts = {}
        self.conflicts = self.activations = 0

    def access(self, addr, size, cycle):
        row = self.amap.row_bytes
        first = addr - addr % row
        n_rows = self.amap.rows_spanned(addr, size)
        finish = cycle
        for r in range(n_rows):
            key = self.amap.vault_bank(first + r * row)
            busy = self.busy.get(key, 0)
            if busy > cycle:
                self.conflicts += 1
                start = busy
            else:
                start = cycle
            end = start + self.busy_cycles
            self.busy[key] = end
            self.counts[key] = self.counts.get(key, 0) + 1
            self.activations += 1
            finish = max(finish, end)
        return finish, n_rows


@st.composite
def _access_streams(draw, cfg):
    """Accesses on a handful of hot rows (conflicts, ties in the heat)
    mixed with rows anywhere; single- and multi-row sizes; small gaps."""
    hot = draw(st.lists(
        st.integers(0, (1 << 34) // cfg.row_bytes), min_size=1, max_size=4,
    ))
    rows = st.one_of(
        st.sampled_from(hot), st.integers(0, (1 << 34) // cfg.row_bytes),
    )
    return draw(st.lists(
        st.tuples(
            rows,
            st.integers(0, cfg.row_bytes - 1),
            st.integers(1, 3 * cfg.row_bytes),
            st.integers(0, 120),
        ),
        min_size=1, max_size=40,
    ))


class TestBankArrayModel:
    @pytest.mark.parametrize("name", sorted(GEOMETRIES))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), top=st.integers(1, 10))
    def test_equals_the_dict_model(self, name, data, top):
        cfg = GEOMETRIES[name][0]
        amap = _address_map(cfg)
        banks = BankArray(amap, cfg.bank_busy_cycles)
        model = DictBanks(amap, cfg.bank_busy_cycles)
        cycle = 0
        for row, offset, size, gap in data.draw(_access_streams(cfg)):
            cycle += gap
            addr = row * cfg.row_bytes + offset
            assert banks.access(addr, size, cycle) == model.access(
                addr, size, cycle
            )
        assert banks.total_conflicts == model.conflicts
        assert banks.total_activations == model.activations
        assert banks.bank_heat() == model.counts
        assert list(banks.bank_heat()) == sorted(model.counts)
        for vault in range(cfg.n_vaults):
            for bank in range(cfg.banks_per_vault):
                assert banks.busy_until(vault, bank) == model.busy.get(
                    (vault, bank), 0
                )
        assert banks.busiest_banks(top) == sorted(
            model.counts.items(), key=lambda kv: (-kv[1], kv[0])
        )[:top]


class TestViews:
    def test_busiest_banks_breaks_ties_by_vault_then_bank(self):
        """Equal counts rank in ascending (vault, bank) order, whatever
        order the banks were first activated in."""
        # Vault-first: row r lands on vault r % 32, bank r // 32 % 8.
        amap = AddressMap()
        banks = BankArray(amap)
        # First activations: (5, 1), (0, 2), (5, 0), (0, 1), then (3, 0)
        # twice.
        for vault, bank in ((5, 1), (0, 2), (5, 0), (0, 1), (3, 0), (3, 0)):
            banks.access((bank * 32 + vault) * amap.row_bytes, 64, 0)
        assert banks.busiest_banks(top=5) == [
            ((3, 0), 2), ((0, 1), 1), ((0, 2), 1), ((5, 0), 1), ((5, 1), 1),
        ]
        assert list(banks.bank_heat()) == [
            (0, 1), (0, 2), (3, 0), (5, 0), (5, 1),
        ]

    def test_busy_until_of_an_idle_bank_is_zero(self):
        banks = BankArray(AddressMap())
        banks.access(0, 64, 10)
        assert banks.busy_until(0, 0) == 10 + banks.busy_cycles
        assert banks.busy_until(31, 7) == 0

    @pytest.mark.parametrize("vault, bank", [(32, 0), (0, 8), (-1, 0)])
    def test_busy_until_rejects_a_bank_outside_the_device(self, vault, bank):
        with pytest.raises(ValueError, match="no bank"):
            BankArray(AddressMap()).busy_until(vault, bank)

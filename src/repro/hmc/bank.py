"""DRAM banks with closed-page policy and exact conflict counting.

HMC DRAM follows a closed-page policy (Section 2.2.2): every access
activates its row, transfers, and precharges — the bank is busy for the
whole ``busy_cycles`` window and there is no open-row hit path. A packet
arriving while its bank is busy is a *bank conflict* and waits; a
256B-aligned coalesced packet touches its row exactly once, which is how
PAC removes the four-activations-per-row pathology of raw 64B requests
(Section 2.1.1).

**Flat bank ids.** Busy horizons and activation counts live in two flat
lists indexed by the bank id ``bank * n_vaults + vault``, so the packet
path builds no ``(vault, bank)`` tuple and hashes no key. Under the
power-of-two vault-first map the bank id is the device row index under
one mask, ``(bank_mask << vault_shift) | vault_mask``; the devices
inline that. Every other policy, and negative addresses (which must
keep raising), go through :meth:`AddressMap.vault_bank` and the same
formula (:meth:`BankArray.bank_id`). The ``(vault, bank)`` views —
:meth:`busy_until`, :meth:`bank_heat`, :meth:`busiest_banks` — are
built from the lists on demand.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.common.stats import StatsRegistry
from repro.mem.address import AddressMap
from repro.telemetry import NULL_TELEMETRY


class BankArray:
    """Busy-horizon model of every bank in the device."""

    def __init__(
        self,
        address_map: AddressMap,
        busy_cycles: int = 96,
        probes=NULL_TELEMETRY,
    ) -> None:
        if busy_cycles <= 0:
            raise ValueError("bank busy time must be positive")
        self.address_map = address_map
        self.busy_cycles = busy_cycles
        self.n_vaults = address_map.n_vaults
        n_banks = address_map.total_banks
        #: Busy horizon and activation count per bank id.
        self._busy_until: List[int] = [0] * n_banks
        self._access_counts: List[int] = [0] * n_banks
        self.stats = StatsRegistry("banks")
        self._probes_on = probes.enabled
        self._t_conflicts = probes.counter("conflicts")
        self._t_activations = probes.counter("activations")
        self._t_conflict_wait = probes.gauge("conflict_wait")
        self._c_conflicts = self.stats.counter("conflicts")
        self._c_activations = self.stats.counter("activations")

    def bank_id(self, addr: int) -> int:
        """Flat id ``bank * n_vaults + vault`` of the bank ``addr`` maps to."""
        vault, bank = self.address_map.vault_bank(addr)
        return bank * self.n_vaults + vault

    def access(self, addr: int, size: int, cycle: int) -> Tuple[int, int]:
        """Perform a (possibly multi-row) access beginning at ``cycle``.

        Returns ``(finish_cycle, n_activations)``. Each spanned row is a
        separate closed-page activation on its own bank; conflicts are
        counted whenever the target bank is still busy on arrival.
        """
        n_rows = self.address_map.rows_spanned(addr, size)
        row_bytes = self.address_map.row_bytes
        first_row_addr = addr - (addr % row_bytes)
        busy_until = self._busy_until
        access_counts = self._access_counts
        finish = cycle
        for r in range(n_rows):
            bank = self.bank_id(first_row_addr + r * row_bytes)
            busy = busy_until[bank]
            if busy > cycle:
                self._c_conflicts.value += 1
                if self._probes_on:
                    self._t_conflicts.add(cycle)
                    self._t_conflict_wait.observe(cycle, busy - cycle)
                start = busy
            else:
                start = cycle
            end = start + self.busy_cycles
            busy_until[bank] = end
            access_counts[bank] += 1
            self._c_activations.value += 1
            if self._probes_on:
                self._t_activations.add(cycle)
            if end > finish:
                finish = end
        return finish, n_rows

    def busy_until(self, vault: int, bank: int) -> int:
        # A pair outside the device would alias another bank's id.
        if not (0 <= vault < self.n_vaults
                and 0 <= bank < self.address_map.banks_per_vault):
            raise ValueError(f"no bank ({vault}, {bank}) in this device")
        return self._busy_until[bank * self.n_vaults + vault]

    @property
    def total_conflicts(self) -> int:
        return self.stats.count("conflicts")

    @property
    def total_activations(self) -> int:
        return self.stats.count("activations")

    def bank_heat(self) -> Dict[Tuple[int, int], int]:
        """Activations per (vault, bank) of every bank activated at least
        once, in ascending (vault, bank) order — load-balance analysis."""
        n_vaults = self.n_vaults
        heat = {
            (bank % n_vaults, bank // n_vaults): n
            for bank, n in enumerate(self._access_counts) if n
        }
        return dict(sorted(heat.items()))

    def busiest_banks(self, top: int = 8) -> list:
        """The ``top`` most-activated (vault, bank) pairs with counts;
        equal counts rank in ascending (vault, bank) order."""
        return sorted(
            self.bank_heat().items(), key=lambda kv: (-kv[1], kv[0])
        )[:top]

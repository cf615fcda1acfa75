"""Per-operation energy model for the 3D-stacked device.

Tracks the exact categories the paper's Figure 13 reports —
VAULT-RQST-SLOT, VAULT-RSP-SLOT, VAULT-CTRL, LINK-LOCAL-ROUTE,
LINK-REMOTE-ROUTE — plus DRAM activation/transfer energy for the overall
totals (Figure 14). The constants are illustrative (HMC-literature-scale
picojoules); every result built on them is a *relative* saving, which is
what the paper reports.
"""

from __future__ import annotations

from typing import Dict

#: The Figure 13 operation categories, in presentation order.
ENERGY_CATEGORIES = (
    "VAULT-RQST-SLOT",
    "VAULT-RSP-SLOT",
    "VAULT-CTRL",
    "LINK-LOCAL-ROUTE",
    "LINK-REMOTE-ROUTE",
    "DRAM-ACTIVATE",
    "DRAM-TRANSFER",
)

#: Energy constants, picojoules. Slots are charged per cycle of queue
#: residency; routes per FLIT; ctrl per packet; activate per row;
#: transfer per byte moved on the TSVs.
ENERGY_PJ = {
    "VAULT-RQST-SLOT": 1.0,  # pJ per slot-cycle
    "VAULT-RSP-SLOT": 1.0,
    "VAULT-CTRL": 12.0,  # pJ per packet
    "LINK-LOCAL-ROUTE": 6.0,  # pJ per FLIT (SerDes dominates HMC power)
    "LINK-REMOTE-ROUTE": 16.0,  # pJ per FLIT: extra crossbar traversal
    "DRAM-ACTIVATE": 90.0,  # pJ per closed-page row activation
    "DRAM-TRANSFER": 1.2,  # pJ per byte through the TSVs
}


class EnergyModel:
    """Accumulates per-category energy for one device."""

    def __init__(self) -> None:
        self.picojoules: Dict[str, float] = {c: 0.0 for c in ENERGY_CATEGORIES}

    def charge(self, category: str, quantity: float) -> None:
        """Add ``quantity`` units of ``category`` work (cycles, FLITs,
        packets, rows, or bytes depending on the category)."""
        if category not in self.picojoules:
            raise KeyError(f"unknown energy category: {category}")
        if quantity < 0:
            raise ValueError("energy quantities are non-negative")
        self.picojoules[category] += quantity * ENERGY_PJ[category]

    @property
    def total_pj(self) -> float:
        return sum(self.picojoules.values())

    @property
    def total_nj(self) -> float:
        return self.total_pj / 1000.0

    def by_category(self) -> Dict[str, float]:
        return dict(self.picojoules)

    def merge_from(self, other: "EnergyModel") -> None:
        for cat, pj in other.picojoules.items():
            self.picojoules[cat] += pj

    def __eq__(self, other) -> bool:
        """Value equality, so RunResult comparisons (and the parallel ==
        serial determinism harness) see through the pickle round-trip."""
        return (
            isinstance(other, EnergyModel)
            and self.picojoules == other.picojoules
        )

    def __repr__(self) -> str:
        return f"EnergyModel(total={self.total_pj:.1f}pJ)"


def savings(baseline: EnergyModel, improved: EnergyModel) -> Dict[str, float]:
    """Fractional per-category savings of ``improved`` vs ``baseline``
    (the Figure 13 bars), plus ``"TOTAL"`` (Figure 14)."""
    out: Dict[str, float] = {}
    for cat in ENERGY_CATEGORIES:
        base = baseline.picojoules[cat]
        out[cat] = (base - improved.picojoules[cat]) / base if base else 0.0
    total_base = baseline.total_pj
    out["TOTAL"] = (
        (total_base - improved.total_pj) / total_base if total_base else 0.0
    )
    return out

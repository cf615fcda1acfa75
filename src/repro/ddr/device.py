"""DDR4 device with open-page policy and row-buffer-hit harvesting.

The contrast device for the paper's Section 2 argument:

* **Wide rows** (8KB vs HMC's 256B) make the open-page policy pay off:
  the row buffer stays open after each access and subsequent accesses to
  the same row are fast *row hits* — this is the conventional
  "row-buffer hit harvesting" form of coalescing (Section 2.2.1).
* **Fixed 64B bursts** (BL8 on a 64-bit bus): no request-size
  adaptivity, so a PAC-style coalescer has nothing to coalesce *into* —
  the device-side reason PAC targets 3D-stacked parts.
* **Low bank count** (16 banks x few channels vs HMC's 256 banks): less
  bank-level parallelism; under irregular traffic the open rows thrash
  and every access pays the full precharge-activate-CAS penalty.

Implements the same :class:`repro.mshr.dmc.MemoryDevice` protocol and
the accounting surface of :class:`repro.hmc.device.HMCDevice` so the
engine can swap it in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.common.stats import StatsRegistry
from repro.common.types import CoalescedRequest
from repro.hmc.power import EnergyModel


@dataclass(frozen=True)
class DDRConfig:
    """DDR4-2400-class timing at the 2GHz model clock."""

    n_channels: int = 2
    banks_per_channel: int = 16
    row_bytes: int = 8192
    burst_bytes: int = 64
    #: CAS-only access to an open row (tCL + burst), cycles.
    row_hit_cycles: int = 30
    #: Activate + CAS on an idle (precharged) bank.
    row_empty_cycles: int = 60
    #: Precharge + activate + CAS when a different row is open.
    row_conflict_cycles: int = 90
    #: Data-bus occupancy per 64B burst, cycles (~16GB/s per channel).
    bus_cycles_per_burst: int = 8

    def __post_init__(self) -> None:
        if self.n_channels <= 0 or self.banks_per_channel <= 0:
            raise ValueError("channel/bank counts must be positive")
        if self.row_bytes <= 0 or self.row_bytes % self.burst_bytes:
            raise ValueError("row size must be a multiple of the burst")
        if not (
            self.row_hit_cycles
            < self.row_empty_cycles
            < self.row_conflict_cycles
        ):
            raise ValueError("timing must order hit < empty < conflict")


class _Bank:
    __slots__ = ("open_row", "busy_until")

    def __init__(self) -> None:
        self.open_row = None
        self.busy_until = 0


class DDRDevice:
    """Open-page DDR4 behind per-channel shared data buses."""

    def __init__(
        self, config: Optional[DDRConfig] = None, probes=None, spans=None,
    ) -> None:
        self.config = config if config is not None else DDRConfig()
        # None-resolve convention (matches HMCDevice): the module-level
        # null singletons are bound here, never as evaluated-at-import
        # default arguments.
        if probes is None:
            from repro.telemetry import NULL_TELEMETRY

            probes = NULL_TELEMETRY
        if spans is None:
            from repro.telemetry import NULL_SPANS

            spans = NULL_SPANS
        self._spans = spans
        self._spans_on = spans.enabled
        cfg = self.config
        self._banks: Dict[Tuple[int, int], _Bank] = {}
        self._bus_busy_until = [0] * cfg.n_channels
        self.energy = EnergyModel()
        self.stats = StatsRegistry("ddr")
        self._probes_on = probes.enabled
        self._t_packets = probes.counter("packets")
        self._t_latency = probes.gauge("latency_cycles")
        self._t_conflicts = probes.scope("banks").counter("conflicts")
        self._t_activations = probes.scope("banks").counter("activations")
        self._t_energy = probes.counter("energy_pj")

    # -- address mapping -------------------------------------------------- #

    def locate(self, addr: int) -> Tuple[int, int, int]:
        """(channel, bank, row) with row-interleaved channel mapping."""
        cfg = self.config
        row_index = addr // cfg.row_bytes
        channel = row_index % cfg.n_channels
        bank = (row_index // cfg.n_channels) % cfg.banks_per_channel
        row = row_index // (cfg.n_channels * cfg.banks_per_channel)
        return channel, bank, row

    # -- MemoryDevice protocol --------------------------------------------- #

    def submit(self, packet: CoalescedRequest, cycle: int) -> int:
        """Service one request; returns the data-return cycle.

        Requests larger than one burst are legal (the engine may hand a
        coalesced packet to DDR for comparison runs) and are transferred
        as consecutive bursts from the same row where possible.
        """
        cfg = self.config
        if packet.size <= 0:
            raise ValueError("packet must carry data")
        channel, bank_id, row = self.locate(packet.addr)
        bank = self._banks.setdefault((channel, bank_id), _Bank())

        pj_before = self.energy.total_pj if self._probes_on else 0.0
        start = max(cycle, bank.busy_until)
        if bank.open_row is None:
            access = cfg.row_empty_cycles
            self.stats.counter("row_empties").add()
            self.energy.charge("DRAM-ACTIVATE", 1)
            if self._probes_on:
                self._t_activations.add(cycle)
        elif bank.open_row == row:
            access = cfg.row_hit_cycles
            self.stats.counter("row_hits").add()
        else:
            access = cfg.row_conflict_cycles
            self.stats.counter("row_conflicts").add()
            self.energy.charge("DRAM-ACTIVATE", 1)
            if self._probes_on:
                self._t_activations.add(cycle)
                self._t_conflicts.add(cycle)
        bank.open_row = row  # open-page: row stays open after access

        n_bursts = -(-packet.size // cfg.burst_bytes)
        dram_done = start + access
        # Bursts serialize on the channel's shared data bus.
        bus_start = max(dram_done, self._bus_busy_until[channel])
        completion = bus_start + n_bursts * cfg.bus_cycles_per_burst
        self._bus_busy_until[channel] = completion
        bank.busy_until = dram_done

        self.energy.charge("DRAM-TRANSFER", packet.size)
        self.stats.counter("packets").add()
        self.stats.counter("payload_bytes").add(packet.size)
        # DDR has no packet headers: transaction bytes == payload bytes
        # (command/address travel on dedicated pins).
        self.stats.counter("transaction_bytes").add(packet.size)
        self.stats.accumulator("latency_cycles").add(completion - cycle)
        if self._probes_on:
            self._t_packets.add(cycle)
            self._t_latency.observe(cycle, completion - cycle)
            self._t_energy.add(cycle, self.energy.total_pj - pj_before)
        if self._spans_on:
            self._record_span(
                packet, channel, cycle, start, dram_done, completion
            )
        return completion

    def _record_span(
        self, packet, channel, cycle, start, dram_done, completion
    ) -> None:
        """Hand ``packet``'s service breakdown to the span recorder: bank
        wait, DRAM access, bus transfer. The channel plays the vault
        (and link) role in the span taxonomy."""
        self._spans.device_span(
            packet,
            vault=channel,
            link=channel,
            start=cycle,
            completion=completion,
            segments=(
                ("vault_wait", cycle, start),
                ("dram", start, dram_done),
                ("response", dram_done, completion),
            ),
        )

    # -- accounting surface (mirrors HMCDevice) ----------------------------- #

    @property
    def bank_conflicts(self) -> int:
        return self.stats.count("row_conflicts")

    @property
    def row_hit_rate(self) -> float:
        hits = self.stats.count("row_hits")
        total = (
            hits
            + self.stats.count("row_conflicts")
            + self.stats.count("row_empties")
        )
        return hits / total if total else 0.0

    @property
    def mean_latency_cycles(self) -> float:
        return self.stats.accumulator("latency_cycles").mean

    @property
    def total_transaction_bytes(self) -> int:
        return self.stats.count("transaction_bytes")

    @property
    def total_payload_bytes(self) -> int:
        return self.stats.count("payload_bytes")

    class _BankFacade:
        def __init__(self, device: "DDRDevice") -> None:
            self._device = device

        @property
        def total_activations(self) -> int:
            return self._device.stats.count(
                "row_empties"
            ) + self._device.stats.count("row_conflicts")

        @property
        def total_conflicts(self) -> int:
            return self._device.stats.count("row_conflicts")

    @property
    def banks(self) -> "_BankFacade":
        """Engine-facing facade matching ``HMCDevice.banks``."""
        return DDRDevice._BankFacade(self)

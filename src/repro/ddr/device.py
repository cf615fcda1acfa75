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

**Deferred accounting.** :meth:`DDRDevice.submit` runs the open-page
timing maths per packet — the per-bank open row and busy horizon and
the per-channel bus horizon update live, because the coalescer needs
each completion cycle before it issues the next packet — but records
the packet's counters, latency sample and activation energy in a flat
window that :meth:`DDRDevice.sync` merges into ``stats`` and
``energy``. Read the stats, the latency accumulator and the energy
after ``sync()``; :meth:`repro.engine.system.System.run_raw` syncs
before it builds the result. Syncing after every ``submit`` is the
per-packet schedule, and every other cadence equals it bit for bit:

* the window sums are integers (counts, bytes, latency samples and
  their squares), so merging them equals the per-packet sums in any
  order;
* DRAM-ACTIVATE carries an integer pJ constant, so multiplying the
  merged activation count once is exact below 2**53;
* DRAM-TRANSFER (1.2 pJ/byte, not exactly representable) is charged
  live per packet, in packet order — a merged partial sum would round
  differently once the running total is nonzero;
* counters are created lazily: :meth:`DDRDevice.sync` materializes only
  a counter the window touched, so the registry's key set is the
  per-packet schedule's.

**Probes and spans.** With an enabled registry, probe events land in
the bounded columns of a :class:`~repro.telemetry.ProbeBuffer`, folded
at :data:`~repro.telemetry.FOLD_EVENTS` and at every ``sync()``. Probe
runs charge DRAM-ACTIVATE live too, so each packet's float
``energy_pj`` amount is a difference of the running total. A live
span recorder gets each packet's segments (vault_wait, dram, response;
the channel stands in for vault and link) from ``submit``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import Dict, List, Optional, Tuple

from repro.common.stats import StatsRegistry
from repro.common.types import CoalescedRequest
from repro.hmc.power import ENERGY_PJ, EnergyModel
from repro.telemetry import (
    FOLD_EVENTS,
    NULL_SPANS,
    NULL_TELEMETRY,
    ProbeBuffer,
)


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
        self.config = cfg = config if config is not None else DDRConfig()
        # None-resolve convention (matches HMCDevice): the module-level
        # null singletons are bound here, never as default arguments.
        if probes is None:
            probes = NULL_TELEMETRY
        if spans is None:
            spans = NULL_SPANS
        self._spans = spans
        self._spans_on = spans.enabled
        self._banks: Dict[Tuple[int, int], _Bank] = {}
        self._bus_busy_until = [0] * cfg.n_channels
        self.energy = EnergyModel()
        self.stats = StatsRegistry("ddr")
        # Hot-path constants, bound once.
        self._row_bytes = cfg.row_bytes
        self._n_channels = cfg.n_channels
        self._banks_per_channel = cfg.banks_per_channel
        self._burst_bytes = cfg.burst_bytes
        self._hit_cycles = cfg.row_hit_cycles
        self._empty_cycles = cfg.row_empty_cycles
        self._conflict_cycles = cfg.row_conflict_cycles
        self._bus_cycles = cfg.bus_cycles_per_burst
        self._pj_activate = ENERGY_PJ["DRAM-ACTIVATE"]
        self._pj_transfer = ENERGY_PJ["DRAM-TRANSFER"]
        self._pj_store = self.energy.picojoules
        # Window accumulator: [hits, empties, conflicts, packets,
        # payload_bytes] + latency [count, total, min, max, sumsq].
        self._w: List[int] = [0, 0, 0, 0, 0]
        self._w_lat: List = [0, 0, inf, -inf, 0]
        self._probes_on = probes.enabled
        self._t_packets = probes.counter("packets")
        self._t_latency = probes.gauge("latency_cycles")
        self._t_conflicts = probes.scope("banks").counter("conflicts")
        self._t_activations = probes.scope("banks").counter("activations")
        self._t_energy = probes.counter("energy_pj")
        if self._probes_on:
            # Event columns: submit cycles shared by the per-packet
            # probes, plus the cycles of activations and row conflicts.
            buf = self._probe_buf = ProbeBuffer()
            cycles = self._probe_cycles = buf.column()
            lats, pjs, activations, conflicts = cols = [
                buf.column() for _ in range(4)
            ]
            self._probe_appends = (cycles.append, *(c.append for c in cols))
            buf.feed(self._t_packets, cycles)
            buf.feed(self._t_latency, cycles, lats)
            buf.feed(self._t_energy, cycles, pjs)
            buf.feed(self._t_activations, activations)
            buf.feed(self._t_conflicts, conflicts)

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
        as consecutive bursts from the same row where possible. The
        accounting lands in the window :meth:`sync` merges.
        """
        size = packet.size
        if size <= 0:
            raise ValueError("packet must carry data")
        # locate(), inlined.
        row_index = packet.addr // self._row_bytes
        channel = row_index % self._n_channels
        bank_id = (row_index // self._n_channels) % self._banks_per_channel
        row = row_index // (self._n_channels * self._banks_per_channel)
        bank = self._banks.get((channel, bank_id))
        if bank is None:
            bank = self._banks[(channel, bank_id)] = _Bank()

        w = self._w
        probes_on = self._probes_on
        if probes_on:
            pj_before = self.energy.total_pj
        busy = bank.busy_until
        start = cycle if cycle >= busy else busy
        open_row = bank.open_row
        if open_row is None:
            access = self._empty_cycles
            w[1] += 1
        elif open_row == row:
            access = self._hit_cycles
            w[0] += 1
        else:
            access = self._conflict_cycles
            w[2] += 1
        bank.open_row = row  # open-page: row stays open after access

        n_bursts = -(-size // self._burst_bytes)
        dram_done = start + access
        # Bursts serialize on the channel's shared data bus.
        bus = self._bus_busy_until
        bus_busy = bus[channel]
        bus_start = dram_done if dram_done >= bus_busy else bus_busy
        completion = bus_start + n_bursts * self._bus_cycles
        bus[channel] = completion
        bank.busy_until = dram_done

        w[3] += 1
        w[4] += size
        # Charged live, in packet order: see the module docstring.
        self._pj_store["DRAM-TRANSFER"] += size * self._pj_transfer
        latency = completion - cycle
        lat = self._w_lat
        lat[0] += 1
        lat[1] += latency
        lat[4] += latency * latency
        if latency < lat[2]:
            lat[2] = latency
        if latency > lat[3]:
            lat[3] = latency

        if probes_on:
            on_cycle, on_lat, on_pj, on_activation, on_conflict = (
                self._probe_appends
            )
            if access != self._hit_cycles:
                # Live, so the energy_pj amount is this packet's (sync
                # skips it in probe runs).
                self._pj_store["DRAM-ACTIVATE"] += 1 * self._pj_activate
                on_activation(cycle)
                if access == self._conflict_cycles:
                    on_conflict(cycle)
            on_cycle(cycle)
            on_lat(latency)
            on_pj(self.energy.total_pj - pj_before)
            if len(self._probe_cycles) >= FOLD_EVENTS:
                self._probe_buf.fold()
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

    # -- merge point -------------------------------------------------------- #

    def sync(self) -> None:
        """Merge the window into ``stats`` and ``energy``, then reset it.

        A counter is created only when the window touched it, so the
        registry's key set matches a sync after every packet. Idempotent
        when empty. Folds the buffered probe events too; probe runs
        charged DRAM-ACTIVATE live, so it is not merged again.
        """
        hits, empties, conflicts, packets, payload = self._w
        stats = self.stats
        if hits:
            stats.counter("row_hits").value += hits
        if empties:
            stats.counter("row_empties").value += empties
        if conflicts:
            stats.counter("row_conflicts").value += conflicts
        if packets:
            stats.counter("packets").value += packets
            stats.counter("payload_bytes").value += payload
            # DDR has no packet headers: transaction bytes == payload
            # (command/address travel on dedicated pins).
            stats.counter("transaction_bytes").value += payload
        if self._probes_on:
            self._probe_buf.fold()
        else:
            self._pj_store["DRAM-ACTIVATE"] += (
                (empties + conflicts) * self._pj_activate
            )
        lat = self._w_lat
        if lat[0]:
            acc = stats.accumulator("latency_cycles")
            acc.count += lat[0]
            acc.total += lat[1]
            acc._sumsq += lat[4]
            if lat[2] < acc.min:
                acc.min = lat[2]
            if lat[3] > acc.max:
                acc.max = lat[3]
        self._w = [0, 0, 0, 0, 0]
        self._w_lat = [0, 0, inf, -inf, 0]

    # -- accounting surface (mirrors HMCDevice; read after sync) ------------ #

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

"""Array-backed back-end engine for the DDR4 foil.

:class:`BatchedDDRDevice` is the DDR twin of
:class:`repro.hmc.batched.BatchedHMCDevice`: identical open-page timing
maths to :class:`repro.ddr.device.DDRDevice` — the per-bank open-row /
busy-until and per-channel bus horizons are shared live, so residual
state matches the reference after every packet — with the per-packet
registry writes (three string-keyed counter lookups per packet in the
reference's hit/empty/conflict classification alone) deferred into a
flat window accumulator and merged once per :meth:`sync`.

Bit-identity follows the same argument as the HMC twin:
DRAM-ACTIVATE carries an integer pJ constant (sum counts, multiply
once, exact below 2**53); DRAM-TRANSFER (1.2 pJ/byte, not exactly
representable) charges live per packet in order — deferring it would
round differently once the running total is nonzero; latency samples
are integral. Lazily-created reference
counters are mirrored exactly: :meth:`sync` only materializes a
counter the window actually touched, so the registry's key set matches
a reference run's.

Telemetry probes follow the HMC twin's rules: events land in the
bounded columns of a :class:`~repro.telemetry.ProbeBuffer`, folded at
:data:`~repro.telemetry.FOLD_EVENTS` and at every :meth:`sync`, and
probe runs charge DRAM-ACTIVATE live too, so each packet's float
``energy_pj`` amount matches the reference's.
"""

from __future__ import annotations

from math import inf
from typing import List, Optional

from repro.ddr.device import DDRConfig, DDRDevice, _Bank
from repro.hmc.power import ENERGY_PJ
from repro.telemetry import FOLD_EVENTS, ProbeBuffer


class BatchedDDRDevice(DDRDevice):
    """DDRDevice with deferred window accounting (the back-end engine)."""

    def __init__(
        self,
        config: Optional[DDRConfig] = None,
        probes=None,
        spans=None,
    ) -> None:
        if spans is not None and spans.enabled:
            raise ValueError(
                "BatchedDDRDevice materializes no per-packet segments; "
                "use DDRDevice (engine='reference') for span runs"
            )
        super().__init__(config, probes=probes, spans=spans)
        cfg = self.config
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
        # payload_bytes] + deferred latency list
        # [count, total, min, max, sumsq].
        self._w: List[int] = [0, 0, 0, 0, 0]
        self._w_lat: List = [0, 0, inf, -inf, 0]
        if self._probes_on:
            # Event columns for the probes DDRDevice registered: submit
            # cycles shared by the per-packet probes, plus the cycles of
            # activations and of row conflicts.
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

    # -- MemoryDevice protocol --------------------------------------------- #

    def submit(self, packet, cycle: int) -> int:
        """Reference timing maths, deferred accounting."""
        size = packet.size
        if size <= 0:
            raise ValueError("packet must carry data")
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
                # Live, as the reference charges it (sync skips it).
                self._pj_store["DRAM-ACTIVATE"] += 1 * self._pj_activate
                on_activation(cycle)
                if access == self._conflict_cycles:
                    on_conflict(cycle)
            on_cycle(cycle)
            on_lat(latency)
            on_pj(self.energy.total_pj - pj_before)
            if len(self._probe_cycles) >= FOLD_EVENTS:
                self._probe_buf.fold()
        return completion

    # -- merge point -------------------------------------------------------- #

    def sync(self) -> None:
        """Merge the window into the shared registries and reset it.

        Counters are created only when the window touched them — the
        reference creates them lazily on first event, so the registry's
        key set stays identical run-for-run. Idempotent when empty.
        Folds the buffered probe events too; probe runs charged
        DRAM-ACTIVATE live, so it is not merged again.
        """
        w = self._w
        hits, empties, conflicts, packets, payload = w
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
            # DDR has no packet headers: transaction bytes == payload.
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

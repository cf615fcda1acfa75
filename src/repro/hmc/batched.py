"""Array-backed back-end engine: the batched HMC/HBM device twins.

:class:`BatchedHMCDevice` re-implements the :class:`repro.hmc.device.
HMCDevice` ``submit`` path with **deferred accounting**: the queueing
arithmetic (link serialization, crossbar routing, vault admission, bank
busy-until) is unchanged — it is the feedback loop the coalescer's MSHR
release heap depends on, so each packet's completion cycle must be
available immediately — but every observable side effect (StatsRegistry
counters, the latency accumulator, EnergyModel charges) is deferred and
merged into the shared registries once per :meth:`sync`, not once per
packet.

**Class counts.** Most of a packet's accounting is fixed by its
*class*: its (size, op) pair, whether its crossbar hop is local or
remote, and whether it takes the inline single-row DRAM access. Per
packet, :meth:`submit` therefore does only what depends on timing — the
queue wait, the response-slot cycles, the bank conflicts and the
latency total, sum of squares, minimum and maximum — plus one count per
class: a per-(size, op) record of ``[request FLITs, response FLITs,
DRAM-TRANSFER pJ, local single-row, remote single-row, local multi-row,
remote multi-row]``. The record is built when its class is first seen,
and that is when the packet size is checked against the device maximum;
an oversized size never gets a record, so every packet of it raises.
The multi-row fallback's row count depends on the address, so it adds
its rows live. :meth:`sync` derives the rest from the class counts:
packets, payload, transaction bytes, FLITs, local/remote routes and
their FLITs, admissions (one per packet), request-slot cycles (the
queue wait plus ``VAULT_CTRL_CYCLES + 1`` per packet), activations,
rows and the energy quantities.

**Bit-identity.** Every derived quantity is an exact integer, so it
equals the reference's per-packet sum whatever the summation order.
Six of the seven energy categories carry integer-valued pJ constants,
so multiplying a merged integer quantity once is exact below 2**53.
DRAM-TRANSFER (1.2 pJ/byte is not exactly representable) is the one
category that cannot defer — a merged partial sum rounds differently
from the reference's running total once that total is nonzero — so it
is charged live per packet, in packet order. Its per-packet amount is
the class record's ``size * pJ/byte``: the same float product the
reference computes for every packet, computed once per class, so each
addition and the running total are the reference's. Latency samples are
integers too, covered by the argument ``Accumulator.add_repeat``
documents. Structural state (link/vault busy horizons, the flat bank
lists of :class:`~repro.hmc.bank.BankArray` indexed by the bank id
``bank * n_vaults + vault``, the round-robin cursor) is shared live
with the parent, so residual state matches the reference after every
packet. The twin's :meth:`submit` finds the bank id as the parent's
does: the row index under one mask on the power-of-two vault-first
map, else ``AddressMap.vault_bank`` and the same formula inside the
``BankArray.access`` fallback.

**Telemetry probes.** With an enabled registry the twin records every
probe event the reference records — same probes, cycles and values —
by appending to the bounded columns of a
:class:`~repro.telemetry.ProbeBuffer`, folded into the probes whenever
a column reaches :data:`~repro.telemetry.FOLD_EVENTS` and at every
:meth:`sync`. The one float probe, ``energy_pj``, is a difference of
the running :attr:`EnergyModel.total_pj`, which sums all seven
categories; so in probe runs every category is charged live per packet
as the reference charges it (the derived energy quantities are then
dropped at :meth:`sync`), and the float amounts fold one at a time in
packet order.

**Spans.** With a live :class:`~repro.telemetry.SpanRecorder` the twin
records each packet's five segments (link_wait, route, vault_wait,
dram, response) through the reference's ``_record_span``, so both call
:meth:`~repro.telemetry.SpanRecorder.device_span` with the same
arguments; every boundary is a local of :meth:`submit`. The recorder
keeps only packets that carry a tracked request.
"""

from __future__ import annotations

from math import inf
from typing import Dict, List, Optional

from repro.common.types import HMC_CONTROL_OVERHEAD_BYTES
from repro.config import HMCConfig
from repro.hmc.device import (
    _STORE,
    LOCAL_ROUTE_CYCLES,
    REMOTE_ROUTE_CYCLES,
    HMCDevice,
)
from repro.hmc.hbm import hbm_config
from repro.hmc.link import CYCLES_PER_FLIT
from repro.hmc.vault import VAULT_CTRL_CYCLES
from repro.telemetry import FOLD_EVENTS, ProbeBuffer

#: Class-record slots: the (size, op) pair's FLIT counts and its
#: DRAM-TRANSFER charge ``size * pJ/byte``, then one count per route x
#: DRAM-path class. A multi-row slot sits two after its single-row twin.
_REQ_FLITS, _RSP_FLITS, _TRANSFER_PJ = 0, 1, 2
_LOCAL_ROW, _REMOTE_ROW, _LOCAL_ROWS, _REMOTE_ROWS = range(3, 7)

#: Live per-packet sums: the integer quantities that depend on timing
#: (or, for the multi-row rows, on the address).
_W_QWAIT, _W_RSP_SLOT, _W_CONFLICTS, _W_MULTI_ROWS, _W_LAT, _W_LAT_SQ = (
    range(6)
)


class BatchedHMCDevice(HMCDevice):
    """HMCDevice with class-count accounting (the back-end engine)."""

    def __init__(
        self,
        config: Optional[HMCConfig] = None,
        probes=None,
        spans=None,
    ) -> None:
        super().__init__(config, probes=probes, spans=spans)
        #: Class records by packet size, one table per op direction.
        self._classes_load: Dict[int, List[int]] = {}
        self._classes_store: Dict[int, List[int]] = {}
        self._w = [0] * 6
        #: The window's latency extremes.
        self._w_lat: List = [inf, -inf]
        if self._probes_on:
            self._init_probe_buffer()

    def _init_probe_buffer(self) -> None:
        """Event columns for every probe the reference ``submit`` feeds
        (the probes themselves were registered by ``HMCDevice``): one
        column of submit cycles shared by the per-packet probes, plus
        the columns of the link, vault and bank event sites."""
        buf = self._probe_buf = ProbeBuffer()
        cycles = self._probe_cycles = buf.column()
        (sizes, lats, pjs, req_flits, remote, rsp_cycles, rsp_flits,
         vault_cycles, vault_waits, bank_cycles, conflict_cycles,
         conflict_waits) = cols = [buf.column() for _ in range(12)]
        self._probe_appends = (cycles.append, *(c.append for c in cols))
        buf.feed(self._t_packets, cycles)
        buf.feed(self._t_payload, cycles, sizes)
        buf.feed(self._t_latency, cycles, lats)
        buf.feed(self._t_energy, cycles, pjs)
        buf.feed(self._t_remote, remote)
        buf.feed(self._lt_req_flits, cycles, req_flits)
        buf.feed(self._lt_rsp_flits, rsp_cycles, rsp_flits)
        buf.feed(self._vt_queue_wait, vault_cycles, vault_waits)
        buf.feed(self._bt_activations, bank_cycles)
        buf.feed(self._bt_conflicts, conflict_cycles)
        buf.feed(self._bt_conflict_wait, conflict_cycles, conflict_waits)

    # -- MemoryDevice protocol --------------------------------------------- #

    def submit(self, packet, cycle: int) -> int:
        """Reference timing maths, deferred accounting.

        The returned completion cycle (and all busy-horizon state) is
        bit-identical to :meth:`HMCDevice.submit`; the counter /
        energy / latency effects wait in the class counts and the live
        sums until :meth:`sync`.
        """
        size = packet.size
        is_store = packet.op == _STORE
        classes = self._classes_store if is_store else self._classes_load
        counts = classes.get(size)
        if counts is None:
            # A class is created once a size passed the check, so later
            # packets of the class skip it.
            if size > self._max_packet_bytes:
                raise ValueError(
                    f"packet of {size}B exceeds device maximum "
                    f"{self._max_packet_bytes}B"
                )
            flits = self._flits_for(size, is_store)
            counts = classes[size] = [
                flits.request, flits.response,
                size * self._pj_dram_transfer, 0, 0, 0, 0,
            ]
        req_flits = counts[_REQ_FLITS]
        rsp_flits = counts[_RSP_FLITS]
        addr = packet.addr
        single_row = False
        if self._am_vault_first and addr >= 0:
            row_shift = self._am_row_shift
            row_index = addr >> row_shift
            vault = row_index & self._am_vault_mask
            bank = row_index & self._am_bank_id_mask
            single_row = (addr + size - 1) >> row_shift == row_index
        else:
            vault = self._vault_bank(addr)[0]
        w = self._w
        probes_on = self._probes_on
        if probes_on:
            pj_before = self.energy.total_pj

        # 1. Link serialization (request direction).
        if self.route_by_address:
            link = vault % self._n_links
        else:
            links = self.links
            link = links._rr
            links._rr = (link + 1) % self._n_links
        req_busy = self._req_busy
        start = req_busy[link]
        if cycle > start:
            start = cycle
        t = start + req_flits * CYCLES_PER_FLIT
        req_busy[link] = t

        # 2. Crossbar routing.
        local = vault // self._vaults_per_link == link
        if local:
            t += LOCAL_ROUTE_CYCLES
            route_class = _LOCAL_ROW
        else:
            t += REMOTE_ROUTE_CYCLES
            route_class = _REMOTE_ROW

        # 3. Vault admission.
        arrival_at_vault = t
        vault_busy = self._vault_busy
        start = vault_busy[vault]
        if t > start:
            start = t
        t = start + VAULT_CTRL_CYCLES
        vault_busy[vault] = t
        wait = start - arrival_at_vault
        if wait > 0:
            w[_W_QWAIT] += wait
        dram_start = t

        # 4. DRAM access. The multi-row fallback writes its conflict and
        # activation counters straight through BankArray.access —
        # counter addition commutes, so the post-sync totals still match
        # the reference exactly.
        if single_row:
            busy_until = self._bank_busy_until
            busy = busy_until[bank]
            if busy > t:
                w[_W_CONFLICTS] += 1
                start = busy
            else:
                start = t
            end = start + self._bank_cycles
            busy_until[bank] = end
            self._bank_counts[bank] += 1
            counts[route_class] += 1
            t = end
            n_rows = 1
        else:
            t, n_rows = self.banks.access(addr, size, t)
            counts[route_class + 2] += 1
            w[_W_MULTI_ROWS] += n_rows
        # Charged live, in packet order: see the module docstring.
        self._pj_store["DRAM-TRANSFER"] += counts[_TRANSFER_PJ]

        # 5. Response route + serialization.
        route_back = LOCAL_ROUTE_CYCLES if local else REMOTE_ROUTE_CYCLES
        response_ready = t + route_back
        rsp_busy = self._rsp_busy
        start = rsp_busy[link]
        if response_ready > start:
            start = response_ready
        completion = start + rsp_flits * CYCLES_PER_FLIT
        rsp_busy[link] = completion
        w[_W_RSP_SLOT] += completion - t + 1

        latency = completion - cycle
        w[_W_LAT] += latency
        w[_W_LAT_SQ] += latency * latency
        extremes = self._w_lat
        if latency < extremes[0]:
            extremes[0] = latency
        if latency > extremes[1]:
            extremes[1] = latency

        if probes_on:
            # Probe runs charge the six integer-pJ categories live too
            # (sync drops their derived quantities), so energy_pj sees
            # the reference's running total after every packet.
            pj_store = self._pj_store
            pj_store["VAULT-RQST-SLOT"] += (
                (dram_start - arrival_at_vault + 1) * self._pj_rqst_slot
            )
            pj_store["VAULT-CTRL"] += 1 * self._pj_vault_ctrl
            pj_store["DRAM-ACTIVATE"] += n_rows * self._pj_dram_activate
            if local:
                pj_store["LINK-LOCAL-ROUTE"] += (
                    (req_flits + rsp_flits) * self._pj_link_local
                )
            else:
                pj_store["LINK-REMOTE-ROUTE"] += (
                    (req_flits + rsp_flits) * self._pj_link_remote
                )
            pj_store["VAULT-RSP-SLOT"] += (
                (completion - t + 1) * self._pj_rsp_slot
            )
            (on_cycle, on_size, on_lat, on_pj, on_req, on_remote,
             on_rsp_cycle, on_rsp, on_vault_cycle, on_vault_wait,
             on_bank_cycle, on_conflict_cycle,
             on_conflict_wait) = self._probe_appends
            on_cycle(cycle)
            on_size(size)
            on_lat(latency)
            on_pj(self.energy.total_pj - pj_before)
            on_req(req_flits)
            if not local:
                on_remote(cycle)
            on_rsp_cycle(response_ready)
            on_rsp(rsp_flits)
            on_vault_cycle(arrival_at_vault)
            on_vault_wait(wait)
            # Multi-row accesses fed the bank probes inside
            # BankArray.access; the inline single-row path feeds them here.
            if single_row:
                on_bank_cycle(dram_start)
                if busy > dram_start:
                    on_conflict_cycle(dram_start)
                    on_conflict_wait(busy - dram_start)
            if len(self._probe_cycles) >= FOLD_EVENTS:
                self._probe_buf.fold()
        if self._spans_on:
            # The forward hop took ``route_back`` cycles too, so the
            # link serialization ended that long before vault arrival.
            self._record_span(
                packet, vault, link, cycle, arrival_at_vault - route_back,
                arrival_at_vault, dram_start, t, completion,
            )
        return completion

    # -- merge point -------------------------------------------------------- #

    def sync(self) -> None:
        """Merge the class counts and live sums into the shared
        registries, then zero them.

        Every merged quantity is an exact integer (module docstring):
        counters add it, integer-pJ energy categories multiply it once,
        and the latency accumulator takes the window's count (its
        packets), sums and extremes. DRAM-TRANSFER never appears here —
        it charged live, per packet. Idempotent when nothing was
        submitted since the last sync. Folds the buffered probe events
        too; in probe runs the energy was charged live, so the derived
        energy quantities are dropped instead of merged.
        """
        packets = payload = req_flits = rsp_flits = 0
        local = remote = local_flits = remote_flits = one_row = 0
        for classes in (self._classes_load, self._classes_store):
            for size, counts in classes.items():
                (req, rsp, _, local_row, remote_row, local_rows,
                 remote_rows) = counts
                n_local = local_row + local_rows
                n_remote = remote_row + remote_rows
                n = n_local + n_remote
                packets += n
                payload += size * n
                req_flits += req * n
                rsp_flits += rsp * n
                local += n_local
                remote += n_remote
                local_flits += (req + rsp) * n_local
                remote_flits += (req + rsp) * n_remote
                one_row += local_row + remote_row
                counts[_LOCAL_ROW:] = (0, 0, 0, 0)
        w = self._w
        self._c_packets.value += packets
        self._c_payload.value += payload
        self._c_txbytes.value += payload + HMC_CONTROL_OVERHEAD_BYTES * packets
        self._c_local_routes.value += local
        self._c_remote_routes.value += remote
        self._lc_req_flits.value += req_flits
        self._lc_rsp_flits.value += rsp_flits
        self._vc_admitted.value += packets
        self._vc_queue_wait.value += w[_W_QWAIT]
        self._bc_conflicts.value += w[_W_CONFLICTS]
        self._bc_activations.value += one_row
        if self._probes_on:
            self._probe_buf.fold()
        else:
            pj_store = self._pj_store
            pj_store["VAULT-RQST-SLOT"] += (
                (w[_W_QWAIT] + packets * (VAULT_CTRL_CYCLES + 1))
                * self._pj_rqst_slot
            )
            pj_store["VAULT-RSP-SLOT"] += w[_W_RSP_SLOT] * self._pj_rsp_slot
            pj_store["VAULT-CTRL"] += packets * self._pj_vault_ctrl
            pj_store["LINK-LOCAL-ROUTE"] += local_flits * self._pj_link_local
            pj_store["LINK-REMOTE-ROUTE"] += (
                remote_flits * self._pj_link_remote
            )
            pj_store["DRAM-ACTIVATE"] += (
                (one_row + w[_W_MULTI_ROWS]) * self._pj_dram_activate
            )
        if packets:
            acc = self._acc_latency
            acc.count += packets
            acc.total += w[_W_LAT]
            acc._sumsq += w[_W_LAT_SQ]
            low, high = self._w_lat
            if low < acc.min:
                acc.min = low
            if high > acc.max:
                acc.max = high
        self._w = [0] * 6
        self._w_lat = [inf, -inf]


class BatchedHBMDevice(BatchedHMCDevice):
    """HBM twin: batched engine on the HBM-shaped geometry, with the
    address-routed (per-channel) link selection of
    :class:`repro.hmc.hbm.HBMDevice`."""

    def __init__(
        self,
        config: Optional[HMCConfig] = None,
        probes=None,
        spans=None,
    ) -> None:
        super().__init__(
            config if config is not None else hbm_config(),
            probes=probes,
            spans=spans,
        )
        self.route_by_address = True

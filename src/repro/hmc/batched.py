"""Array-backed back-end engine: the batched HMC/HBM device twins.

:class:`BatchedHMCDevice` re-implements the :class:`repro.hmc.device.
HMCDevice` ``submit`` path with **deferred accounting**: the queueing
arithmetic (link serialization, crossbar routing, vault admission, bank
busy-until) is unchanged — it is the feedback loop the coalescer's MSHR
release heap depends on, so each packet's completion cycle must be
available immediately — but every observable side effect (StatsRegistry
counters, the latency accumulator, EnergyModel charges) lands in a flat
window accumulator and is merged into the shared registries once per
:meth:`sync`, not once per packet. :meth:`submit` — the
:class:`repro.mshr.dmc.MemoryDevice` protocol method the coalescer
drives — keeps the reference's timing maths and replaces its
per-packet counter/energy/accumulator writes with indexed increments
on one local list.

**Bit-identity.** The merged totals equal the reference's per-packet
accumulation bitwise: six of the seven energy categories carry
integer-valued pJ constants, so summing integer quantities and
multiplying once is exact below 2**53. DRAM-TRANSFER (1.2 pJ/byte is
not exactly representable) is the one category that cannot defer — a
window-merged partial sum rounds differently from the reference's
running total once that total is nonzero — so it alone is charged live
per packet, in packet order, exactly as the reference charges it.
Latency samples are integral floats, covered by the same exactness
argument ``Accumulator.add_repeat`` documents (counts and sums stay
exact integers until the merge). Structural state (link/vault/bank
busy horizons, bank
access counts, the round-robin cursor) is shared live with the parent,
so residual state matches the reference after every packet.

**Telemetry probes.** With an enabled registry the twin records every
probe event the reference records — same probes, cycles and values —
by appending to the bounded columns of a
:class:`~repro.telemetry.ProbeBuffer`, folded into the probes whenever
a column reaches :data:`~repro.telemetry.FOLD_EVENTS` and at every
:meth:`sync`. The one float probe, ``energy_pj``, is a difference of
the running :attr:`EnergyModel.total_pj`, which sums all seven
categories; so in probe runs every category is charged live per packet
as the reference charges it (the window's energy quantities are then
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
from typing import List, Optional

from repro.common.types import HMC_CONTROL_OVERHEAD_BYTES, MemOp
from repro.config import HMCConfig
from repro.hmc.device import (
    LOCAL_ROUTE_CYCLES,
    REMOTE_ROUTE_CYCLES,
    HMCDevice,
)
from repro.hmc.hbm import hbm_config
from repro.hmc.link import CYCLES_PER_FLIT
from repro.hmc.vault import VAULT_CTRL_CYCLES
from repro.telemetry import FOLD_EVENTS, ProbeBuffer

#: Window-accumulator slots — all integer counts. DRAM-TRANSFER is
#: deliberately absent: its pJ constant (1.2) is not exactly
#: representable, so it charges live per packet (see module docstring).
(
    _W_PACKETS,
    _W_PAYLOAD,
    _W_REQ_FLITS,
    _W_RSP_FLITS,
    _W_LOCAL,
    _W_REMOTE,
    _W_LOCAL_FLITS,
    _W_REMOTE_FLITS,
    _W_ADMITTED,
    _W_QWAIT,
    _W_RQST_SLOT,
    _W_RSP_SLOT,
    _W_CONFLICTS,
    _W_ACTIVATIONS,
    _W_ACT_ROWS,
) = range(15)

_W_SLOTS = 15


def _fresh_window() -> List[int]:
    return [0] * _W_SLOTS


class BatchedHMCDevice(HMCDevice):
    """HMCDevice with deferred window accounting (the back-end engine)."""

    def __init__(
        self,
        config: Optional[HMCConfig] = None,
        probes=None,
        spans=None,
    ) -> None:
        super().__init__(config, probes=probes, spans=spans)
        self._w = _fresh_window()
        # Deferred latency accumulator: [count, total, min, max, sumsq].
        self._w_lat: List = [0, 0, inf, -inf, 0]
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
        energy / latency effects sit in the window until :meth:`sync`.
        """
        size = packet.size
        if size > self._max_packet_bytes:
            raise ValueError(
                f"packet of {size}B exceeds device maximum "
                f"{self._max_packet_bytes}B"
            )
        is_store = packet.op == MemOp.STORE
        flit_cache = self._flits_store if is_store else self._flits_load
        flits = flit_cache.get(size)
        if flits is None:
            flits = self._flits_for(size, is_store)
            flit_cache[size] = flits
        req_flits = flits.request
        rsp_flits = flits.response
        addr = packet.addr
        single_row = False
        if self._am_vault_first and addr >= 0:
            row_shift = self._am_row_shift
            row_index = addr >> row_shift
            vault = row_index & self._am_vault_mask
            vb = (
                vault,
                (row_index >> self._am_vault_shift) & self._am_bank_mask,
            )
            single_row = (addr + size - 1) >> row_shift == row_index
        else:
            vb = self._vault_bank(addr)
            vault = vb[0]
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
        w[_W_REQ_FLITS] += req_flits

        # 2. Crossbar routing (energy deferred as FLIT counts).
        local = vault // self._vaults_per_link == link
        if local:
            t += LOCAL_ROUTE_CYCLES
            w[_W_LOCAL] += 1
            w[_W_LOCAL_FLITS] += req_flits + rsp_flits
        else:
            t += REMOTE_ROUTE_CYCLES
            w[_W_REMOTE] += 1
            w[_W_REMOTE_FLITS] += req_flits + rsp_flits

        # 3. Vault admission (slot cycles deferred as an int sum).
        arrival_at_vault = t
        vault_busy = self._vault_busy
        start = vault_busy[vault]
        if t > start:
            start = t
        t = start + VAULT_CTRL_CYCLES
        vault_busy[vault] = t
        w[_W_ADMITTED] += 1
        wait = start - arrival_at_vault
        if wait > 0:
            w[_W_QWAIT] += wait
        w[_W_RQST_SLOT] += t - arrival_at_vault + 1
        dram_start = t

        # 4. DRAM access. The multi-row fallback writes its counters
        # straight through BankArray.access — counter addition commutes,
        # so the post-sync totals still match the reference exactly.
        if single_row:
            busy_until = self._bank_busy_until
            busy = busy_until.get(vb, 0)
            if busy > t:
                w[_W_CONFLICTS] += 1
                start = busy
            else:
                start = t
            end = start + self._bank_cycles
            busy_until[vb] = end
            counts = self._bank_counts
            counts[vb] = counts.get(vb, 0) + 1
            w[_W_ACTIVATIONS] += 1
            t = end
            n_rows = 1
        else:
            t, n_rows = self.banks.access(addr, size, t, vb0=vb)
        w[_W_ACT_ROWS] += n_rows
        # Charged live, in packet order: see the module docstring.
        self._pj_store["DRAM-TRANSFER"] += size * self._pj_dram_transfer

        # 5. Response route + serialization.
        route_back = LOCAL_ROUTE_CYCLES if local else REMOTE_ROUTE_CYCLES
        response_ready = t + route_back
        rsp_busy = self._rsp_busy
        start = rsp_busy[link]
        if response_ready > start:
            start = response_ready
        completion = start + rsp_flits * CYCLES_PER_FLIT
        rsp_busy[link] = completion
        w[_W_RSP_FLITS] += rsp_flits
        w[_W_RSP_SLOT] += completion - t + 1

        # Accounting, deferred.
        w[_W_PACKETS] += 1
        w[_W_PAYLOAD] += size
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
            # Probe runs charge the six integer-pJ categories live too
            # (sync drops their window quantities), so energy_pj sees
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
        """Merge the window accumulator into the shared registries.

        Counter merges are integer sums (order-free, exact); integer-pJ
        energy categories multiply their deferred quantity once (exact
        below 2**53); the latency accumulator merges exact-integer
        window sums. DRAM-TRANSFER never appears here — it charged
        live, per packet (see module docstring). Idempotent when the
        window is empty. Folds the buffered probe events too; in probe
        runs the energy was charged live, so the window's energy
        quantities are dropped instead of merged.
        """
        w = self._w
        self._c_packets.value += w[_W_PACKETS]
        self._c_payload.value += w[_W_PAYLOAD]
        self._c_txbytes.value += (
            w[_W_PAYLOAD] + HMC_CONTROL_OVERHEAD_BYTES * w[_W_PACKETS]
        )
        self._c_local_routes.value += w[_W_LOCAL]
        self._c_remote_routes.value += w[_W_REMOTE]
        self._lc_req_flits.value += w[_W_REQ_FLITS]
        self._lc_rsp_flits.value += w[_W_RSP_FLITS]
        self._vc_admitted.value += w[_W_ADMITTED]
        self._vc_queue_wait.value += w[_W_QWAIT]
        self._bc_conflicts.value += w[_W_CONFLICTS]
        self._bc_activations.value += w[_W_ACTIVATIONS]
        if self._probes_on:
            self._probe_buf.fold()
        else:
            pj_store = self._pj_store
            pj_store["VAULT-RQST-SLOT"] += (
                w[_W_RQST_SLOT] * self._pj_rqst_slot
            )
            pj_store["VAULT-RSP-SLOT"] += w[_W_RSP_SLOT] * self._pj_rsp_slot
            pj_store["VAULT-CTRL"] += w[_W_PACKETS] * self._pj_vault_ctrl
            pj_store["LINK-LOCAL-ROUTE"] += (
                w[_W_LOCAL_FLITS] * self._pj_link_local
            )
            pj_store["LINK-REMOTE-ROUTE"] += (
                w[_W_REMOTE_FLITS] * self._pj_link_remote
            )
            pj_store["DRAM-ACTIVATE"] += (
                w[_W_ACT_ROWS] * self._pj_dram_activate
            )
        lat = self._w_lat
        if lat[0]:
            acc = self._acc_latency
            acc.count += lat[0]
            acc.total += lat[1]
            acc._sumsq += lat[4]
            if lat[2] < acc.min:
                acc.min = lat[2]
            if lat[3] > acc.max:
                acc.max = lat[3]
        self._w = _fresh_window()
        self._w_lat = [0, 0, inf, -inf, 0]


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

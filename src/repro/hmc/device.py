"""The HMC device facade: links -> crossbar -> vaults -> banks, with
latency, bank-conflict, and energy accounting.

Implements the :class:`repro.mshr.dmc.MemoryDevice` protocol —
``submit(packet, cycle) -> completion_cycle`` — as a queueing model:

1. The controller picks the next SERDES link round-robin and serializes
   the request FLITs.
2. The crossbar routes to the target vault: a *local* hop if the vault
   sits in the link's quadrant, otherwise a costlier *remote* hop
   (Section 2.1.2).
3. The vault controller admits the packet (queue wait counted and
   charged as request-slot energy).
4. The banks perform the closed-page access; conflicts counted exactly.
5. The response routes and serializes back; response-slot energy covers
   its wait for the link.
"""

from __future__ import annotations

from typing import Optional

from repro.common.stats import StatsRegistry
from repro.common.types import (
    HMC_CONTROL_OVERHEAD_BYTES,
    CoalescedRequest,
    MemOp,
)
from repro.config import HMCConfig
from repro.hmc.bank import BankArray
from repro.hmc.link import CYCLES_PER_FLIT, LinkSet
from repro.hmc.power import ENERGY_PJ, EnergyModel
from repro.hmc.vault import VAULT_CTRL_CYCLES, VaultSet
from repro.mem.address import AddressMap

#: Crossbar traversal latencies, cycles.
LOCAL_ROUTE_CYCLES = 2
REMOTE_ROUTE_CYCLES = 8

#: ``MemOp.STORE``, bound once: per packet, the enum's class-attribute
#: lookup costs several times the comparison itself.
_STORE = MemOp.STORE


class HMCDevice:
    """Cycle-approximate Hybrid Memory Cube.

    Pass a :class:`repro.telemetry.SpanRecorder` as ``spans`` to record
    the per-packet latency breakdown (link wait, route, vault wait,
    DRAM, response) of packets that carry tracked requests.
    """

    def __init__(
        self, config: Optional[HMCConfig] = None, probes=None, spans=None,
    ) -> None:
        self.config = config if config is not None else HMCConfig()
        if probes is None:
            from repro.telemetry import NULL_TELEMETRY

            probes = NULL_TELEMETRY
        if spans is None:
            from repro.telemetry import NULL_SPANS

            spans = NULL_SPANS
        self._spans = spans
        self._spans_on = spans.enabled
        cfg = self.config
        self.address_map = AddressMap(
            n_vaults=cfg.n_vaults,
            banks_per_vault=cfg.banks_per_vault,
            row_bytes=cfg.row_bytes,
            policy=cfg.address_policy,
        )
        self.links = LinkSet(
            cfg.n_links, cfg.n_vaults, probes=probes.scope("links")
        )
        self.vaults = VaultSet(cfg.n_vaults, probes=probes.scope("vaults"))
        self.banks = BankArray(
            self.address_map, cfg.bank_busy_cycles,
            probes=probes.scope("banks"),
        )
        self.energy = EnergyModel()
        self.stats = StatsRegistry("hmc")
        #: When True (HBM), a packet uses the channel its address maps to
        #: instead of the HMC controller's round-robin link choice.
        self.route_by_address = False
        self._probes_on = probes.enabled
        self._t_packets = probes.counter("packets")
        self._t_payload = probes.counter("payload_bytes")
        self._t_latency = probes.gauge("latency_cycles")
        self._t_energy = probes.counter("energy_pj")
        self._t_remote = probes.counter("remote_routes")
        # Pre-resolved hot-path handles: the energy store and per-category
        # pJ constants are bound once; ``submit`` performs the same
        # ``store[cat] += quantity * pj`` accumulation as
        # EnergyModel.charge (bit-identical, no per-packet call).
        energy = self.energy
        self._pj_store = energy.picojoules
        self._pj_link_local = ENERGY_PJ["LINK-LOCAL-ROUTE"]
        self._pj_link_remote = ENERGY_PJ["LINK-REMOTE-ROUTE"]
        self._pj_rqst_slot = ENERGY_PJ["VAULT-RQST-SLOT"]
        self._pj_rsp_slot = ENERGY_PJ["VAULT-RSP-SLOT"]
        self._pj_vault_ctrl = ENERGY_PJ["VAULT-CTRL"]
        self._pj_dram_activate = ENERGY_PJ["DRAM-ACTIVATE"]
        self._pj_dram_transfer = ENERGY_PJ["DRAM-TRANSFER"]
        stats = self.stats
        self._c_local_routes = stats.counter("local_routes")
        self._c_remote_routes = stats.counter("remote_routes")
        self._c_packets = stats.counter("packets")
        self._c_payload = stats.counter("payload_bytes")
        self._c_txbytes = stats.counter("transaction_bytes")
        self._acc_latency = stats.accumulator("latency_cycles")
        self._vault_bank = self.address_map.vault_bank
        self._max_packet_bytes = cfg.max_packet_bytes
        # Inline vault and bank-id decomposition for the dominant
        # power-of-two vault-first mapping (same shift/mask arithmetic as
        # AddressMap.vault_bank): the bank id ``bank * n_vaults + vault``
        # is the row index under one mask. Other modes — and negative
        # addresses, which must keep raising — fall back to the bound
        # method and BankArray.access.
        amap = self.address_map
        self._am_vault_first = amap._mode == AddressMap._MODE_VAULT_FIRST
        self._am_row_shift = amap._row_shift
        self._am_vault_mask = amap._vault_mask
        self._am_bank_id_mask = (
            (amap._bank_mask << amap._vault_shift) | amap._vault_mask
        )
        # Link/vault busy-horizon state, bound once. ``submit`` performs
        # the serialization/admission arithmetic inline (identical to
        # LinkSet.serialize_* / VaultSet.admit, which stay the canonical
        # definitions for direct users and tests).
        links = self.links
        vaults = self.vaults
        self._n_links = links.n_links
        self._vaults_per_link = links.vaults_per_link
        self._req_busy = links.req_busy_until
        self._rsp_busy = links.rsp_busy_until
        self._lc_req_flits = links._c_request_flits
        self._lc_rsp_flits = links._c_response_flits
        self._lt_req_flits = links._t_request_flits
        self._lt_rsp_flits = links._t_response_flits
        self._links_probes_on = links._probes_on
        self._vault_busy = vaults._busy_until
        self._vc_admitted = vaults._c_admitted
        self._vc_queue_wait = vaults._c_queue_wait
        self._vt_queue_wait = vaults._t_queue_wait
        self._vaults_probes_on = vaults._probes_on
        # Bank hot path, bound once: ``submit`` performs the dominant
        # single-row closed-page access inline (same arithmetic and
        # side effects as BankArray.access, which stays canonical for
        # multi-row spans and direct users).
        banks = self.banks
        self._bank_busy_until = banks._busy_until
        self._bank_counts = banks._access_counts
        self._bank_cycles = banks.busy_cycles
        self._bc_conflicts = banks._c_conflicts
        self._bc_activations = banks._c_activations
        self._bt_conflicts = banks._t_conflicts
        self._bt_activations = banks._t_activations
        self._bt_conflict_wait = banks._t_conflict_wait
        self._banks_probes_on = banks._probes_on
        # FLIT counts per (op-direction, size): packet sizes come from a
        # protocol-legal handful of values, so two tiny dicts replace the
        # per-packet lru_cache wrapper call.
        self._flits_load = {}
        self._flits_store = {}
        from repro.hmc.packet import _flits_for

        self._flits_for = _flits_for

    def submit(self, packet: CoalescedRequest, cycle: int) -> int:
        """Process one packet; returns the response-arrival cycle."""
        size = packet.size
        if size > self._max_packet_bytes:
            raise ValueError(
                f"packet of {size}B exceeds device maximum "
                f"{self._max_packet_bytes}B"
            )
        is_store = packet.op == _STORE
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
            bank = row_index & self._am_bank_id_mask
            single_row = (addr + size - 1) >> row_shift == row_index
        else:
            vault = self._vault_bank(addr)[0]
        pj_before = self.energy.total_pj if self._probes_on else 0.0

        # 1. Link serialization (request direction) — round-robin pick
        # and busy-horizon advance inlined from LinkSet.
        links = self.links
        if self.route_by_address:
            link = vault % self._n_links
        else:
            link = links._rr
            links._rr = (link + 1) % self._n_links
        req_busy = self._req_busy
        start = req_busy[link]
        if cycle > start:
            start = cycle
        t = start + req_flits * CYCLES_PER_FLIT
        req_busy[link] = t
        self._lc_req_flits.value += req_flits
        if self._links_probes_on:
            self._lt_req_flits.add(cycle, req_flits)
        link_done = t

        # 2. Crossbar routing. The route energy for both directions is
        # charged in one batch at step 5: the per-FLIT constants (6.0 and
        # 16.0 pJ) and FLIT counts are integers, so pj*(req+rsp) equals
        # pj*req + pj*rsp exactly and the accumulated total is
        # bit-identical to charging each direction separately.
        local = vault // self._vaults_per_link == link
        if local:
            t += LOCAL_ROUTE_CYCLES
            self._c_local_routes.value += 1
        else:
            t += REMOTE_ROUTE_CYCLES
            self._c_remote_routes.value += 1

        # 3. Vault controller admission; the packet holds a request slot
        # from crossbar arrival until DRAM access begins. Inlined from
        # VaultSet.admit.
        arrival_at_vault = t
        vault_busy = self._vault_busy
        start = vault_busy[vault]
        if t > start:
            start = t
        t = start + VAULT_CTRL_CYCLES
        vault_busy[vault] = t
        self._vc_admitted.value += 1
        wait = start - arrival_at_vault
        if wait > 0:
            self._vc_queue_wait.value += wait
        if self._vaults_probes_on:
            self._vt_queue_wait.observe(arrival_at_vault, wait)
        dram_start = t
        pj_store = self._pj_store
        pj_store["VAULT-RQST-SLOT"] += (
            (t - arrival_at_vault + 1) * self._pj_rqst_slot
        )
        pj_store["VAULT-CTRL"] += 1 * self._pj_vault_ctrl

        # 4. DRAM access (closed-page banks). The dominant single-row
        # case runs inline (same side effects as BankArray.access).
        if single_row:
            busy_until = self._bank_busy_until
            busy = busy_until[bank]
            if busy > t:
                self._bc_conflicts.value += 1
                if self._banks_probes_on:
                    self._bt_conflicts.add(t)
                    self._bt_conflict_wait.observe(t, busy - t)
                start = busy
            else:
                start = t
            end = start + self._bank_cycles
            busy_until[bank] = end
            self._bank_counts[bank] += 1
            self._bc_activations.value += 1
            if self._banks_probes_on:
                self._bt_activations.add(t)
            t = end
            n_rows = 1
        else:
            t, n_rows = self.banks.access(addr, size, t)
        dram_done = t
        pj_store["DRAM-ACTIVATE"] += n_rows * self._pj_dram_activate
        pj_store["DRAM-TRANSFER"] += size * self._pj_dram_transfer

        # 5. Response: route back and serialize; the response occupies a
        # vault response slot until its last FLIT leaves the link.
        route_back = LOCAL_ROUTE_CYCLES if local else REMOTE_ROUTE_CYCLES
        if local:
            pj_store["LINK-LOCAL-ROUTE"] += (
                (req_flits + rsp_flits) * self._pj_link_local
            )
        else:
            pj_store["LINK-REMOTE-ROUTE"] += (
                (req_flits + rsp_flits) * self._pj_link_remote
            )
        response_ready = t + route_back
        rsp_busy = self._rsp_busy
        start = rsp_busy[link]
        if response_ready > start:
            start = response_ready
        completion = start + rsp_flits * CYCLES_PER_FLIT
        rsp_busy[link] = completion
        self._lc_rsp_flits.value += rsp_flits
        if self._links_probes_on:
            self._lt_rsp_flits.add(response_ready, rsp_flits)
        pj_store["VAULT-RSP-SLOT"] += (completion - t + 1) * self._pj_rsp_slot

        # Accounting (latency accumulation inlined from Accumulator.add).
        self._c_packets.value += 1
        self._c_payload.value += size
        self._c_txbytes.value += size + HMC_CONTROL_OVERHEAD_BYTES
        latency = completion - cycle
        acc = self._acc_latency
        acc.count += 1
        acc.total += latency
        acc._sumsq += latency * latency
        if latency < acc.min:
            acc.min = latency
        if latency > acc.max:
            acc.max = latency
        if self._probes_on:
            self._t_packets.add(cycle)
            self._t_payload.add(cycle, size)
            self._t_latency.observe(cycle, completion - cycle)
            self._t_energy.add(cycle, self.energy.total_pj - pj_before)
            if not local:
                self._t_remote.add(cycle)
        if self._spans_on:
            self._record_span(
                packet, vault, link, cycle, link_done, arrival_at_vault,
                dram_start, dram_done, completion,
            )
        return completion

    def sync(self) -> None:
        """Merge deferred accounting into ``stats`` and ``energy``.

        Every device has this merge point, and callers invoke it after
        the last ``submit`` of a run. It is a no-op here: this class
        charges every packet live. :class:`repro.hmc.batched.
        BatchedHMCDevice` defers its accounting and overrides it.
        """

    def _record_span(
        self, packet, vault, link, cycle, link_done, arrival_at_vault,
        dram_start, dram_done, completion,
    ) -> None:
        """Hand ``packet``'s service breakdown to the span recorder: link
        wait, crossbar route, vault wait, DRAM access, response."""
        self._spans.device_span(
            packet,
            vault=vault,
            link=link,
            start=cycle,
            completion=completion,
            segments=(
                ("link_wait", cycle, link_done),
                ("route", link_done, arrival_at_vault),
                ("vault_wait", arrival_at_vault, dram_start),
                ("dram", dram_start, dram_done),
                ("response", dram_done, completion),
            ),
        )

    # -- convenience metrics -------------------------------------------------

    @property
    def bank_conflicts(self) -> int:
        return self.banks.total_conflicts

    @property
    def mean_latency_cycles(self) -> float:
        return self.stats.accumulator("latency_cycles").mean

    @property
    def total_transaction_bytes(self) -> int:
        return self.stats.count("transaction_bytes")

    @property
    def total_payload_bytes(self) -> int:
        return self.stats.count("payload_bytes")

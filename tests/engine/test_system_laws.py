"""Whole-System laws on the real devices.

The coalescer property suites (``tests/core/test_invariants.py`` and
its neighbours) drive each arm against a fixed-latency stub. Here the
whole phase-2 path of a :class:`~repro.engine.system.System` runs
instead: the cache pass's packed raw stream through the arm's coalescer
into the real HMC, HBM or DDR device, on both engines, with the device
wrapped in a :class:`~repro.mshr.dmc.RecordingDevice` that keeps every
submitted packet. The grid covers the none/dmc/pac/sortdmc arms on gs,
bfs, stream and ``atomichist`` (atomics and fences). Every cell must
obey laws 1–5 and 7–9; law 6 runs the none/dmc/pac arms on gs and
``atomichist`` with telemetry and spans on, at half the accesses:

1. **Conservation** — every raw request that is not a fence appears in
   exactly one submitted packet's constituents or is counted in
   ``n_merged``; a fence appears in none.
2. **Totals** — ``n_issued`` and ``payload_bytes`` equal the number of
   submits and the sum of their sizes (so ``transaction_bytes`` adds
   32B of control per submit).
3. **Page legality** — no packet crosses a page. The sorting-network
   arm is exempt: it merges across page boundaries by design
   (:mod:`repro.mshr.sorting`), the capability PAC's paging gives up.
4. **Runtime** — ``runtime_cycles`` is at least every completion the
   device returned.
5. **Coverage** — every constituent's ``[addr, addr + size)`` lies
   inside the packet that carries it: issued bytes cover requested
   bytes. PAC on HBM is exempt: its idle-bypass path issues one 32B
   grain for a 64B line request (``_direct_to_mshr`` and its batched
   twin), an under-fetch whose fix changes HBM PAC results and so
   belongs to a change of its own.
6. **Sync cadence** — a device synced after every k-th submit (k = 1
   and 37) gives a ``RunResult`` equal to the plain :func:`run_arm`'s,
   telemetry JSON byte for byte. ``tests/test_sync_cadence.py`` holds
   each device to the same law on synthetic packet streams.
7. **Per-packet energy** — ``VAULT-CTRL`` is 12 pJ per submit on HMC
   and HBM and 0 on DDR; ``DRAM-TRANSFER`` is 1.2 pJ per payload byte
   (to 1e-9 relative: 1.2 is not exactly representable).
8. **Energy by count** — ``DRAM-ACTIVATE`` is 90 pJ per bank activation
   the result counts, and the two route categories charge every FLIT
   of every submit once: ``LINK-LOCAL-ROUTE``/6 + ``LINK-REMOTE-ROUTE``
   /16 is the submits' summed request + response FLITs
   (:func:`~repro.hmc.packet.packet_flits`) on HMC and HBM, and 0 on
   DDR, which has no links. Both hold exactly. With law 7 this accounts
   for five of the seven categories; the two slot categories charge
   queue residency, which no count outside the device gives.
9. **Stream bound** — on the PAC arm the aggregator's
   ``occupancy_at_insert`` and ``occupancy_samples`` histograms hold no
   key above ``config.pac.n_streams``: no window occupies more streams
   than the hardware has. bfs at four streams reaches the bound on every
   device and engine, so the law is not vacuous.
"""

from __future__ import annotations

import copy
import functools
from collections import Counter

import pytest

from repro.artifacts import compute_trace_pass
from repro.common.types import HMC_CONTROL_OVERHEAD_BYTES, MemOp, PAGE_BYTES
from repro.config import TABLE1
from repro.engine.driver import run_arm
from repro.engine.spec import RunSpec
from repro.engine.system import CoalescerKind
from repro.hmc.packet import packet_flits
from repro.hmc.power import ENERGY_PJ
from repro.mshr.dmc import RecordingDevice

N = 3000
#: Law 6's size: at k = 1 a batched HMC/HBM device merges its deferred
#: accounting once per packet, which costs far more than the packet.
N_CADENCE = 1500
SEED = 21

BENCHES = ("gs", "bfs", "stream", "atomichist")
ARMS = (
    CoalescerKind.NONE, CoalescerKind.DMC, CoalescerKind.PAC,
    CoalescerKind.SORT,
)


class CompletionTap(RecordingDevice):
    """Also keeps the completion cycle the device returned per submit."""

    def __init__(self, device) -> None:
        super().__init__(device)
        self.completions = []

    def submit(self, packet, cycle: int) -> int:
        done = super().submit(packet, cycle)
        self.completions.append(done)
        return done


class SyncEvery(CompletionTap):
    """Also syncs the wrapped device after every ``k``-th submit."""

    def __init__(self, device, k: int) -> None:
        super().__init__(device)
        self.k = k

    def submit(self, packet, cycle: int) -> int:
        done = super().submit(packet, cycle)
        if len(self.submits) % self.k == 0:
            self.device.sync()
        return done


@pytest.fixture(scope="module")
def prefixes():
    """Trace + cache passes by arm-free spec: each is computed once and
    shared by every arm of this module's grid."""
    return {}


def _prefix(spec: RunSpec, prefixes: dict):
    key = spec.for_arm(CoalescerKind.NONE)
    if key not in prefixes:
        prefixes[key] = compute_trace_pass(key)
    return prefixes[key]


def _recorded_run(spec: RunSpec, prefixes: dict, tap=CompletionTap):
    """``spec``'s arm over its shared prefix, folding in a copy of what
    the prefix's probes observed as :func:`run_arm` does, with the
    device wrapped in ``tap``: (raw stream, RunResult, tap, system)."""
    tp = _prefix(spec, prefixes)
    telemetry, spans = copy.deepcopy(tp.probes) if tp.probes else (None, None)
    system = spec.system(telemetry=telemetry, spans=spans)
    tap = system.device = tap(system.device)
    result = system.run_raw(tp)
    return tp.raw, result, tap, system


def _max_occupancy(system) -> int:
    """The largest occupied-stream count either aggregator histogram
    holds."""
    stats = system.coalescer.aggregator.stats
    return max(
        max(stats.histogram(name).bins, default=0)
        for name in ("occupancy_at_insert", "occupancy_samples")
    )


@pytest.mark.parametrize("bench", BENCHES)
@pytest.mark.parametrize("arm", ARMS, ids=lambda kind: kind.value)
@pytest.mark.parametrize("engine", ("auto", "reference"))
@pytest.mark.parametrize("device", ("hmc", "hbm", "ddr"))
def test_whole_system_laws(device, engine, arm, bench, prefixes):
    spec = RunSpec(
        (bench,), N, arm=arm, seed=SEED, device=device, engine=engine
    )
    raw, result, tap, system = _recorded_run(spec, prefixes)
    packets = [packet for packet, _ in tap.submits]
    assert packets, "the run submitted nothing"

    # 1. Conservation.
    fence = raw["op"] == int(MemOp.FENCE)
    served = Counter(rid for p in packets for rid in p.constituents)
    assert all(count == 1 for count in served.values())
    assert not any(fence[rid] for rid in served)
    assert len(served) + result.n_merged == int((~fence).sum())
    assert result.n_raw == len(raw)

    # 2. Totals.
    assert result.n_issued == len(packets)
    assert result.payload_bytes == sum(p.size for p in packets)
    assert result.transaction_bytes == (
        result.payload_bytes + HMC_CONTROL_OVERHEAD_BYTES * len(packets)
    )

    # 3. Page legality.
    if arm is not CoalescerKind.SORT:
        for p in packets:
            assert p.addr // PAGE_BYTES == (p.addr + p.size - 1) // PAGE_BYTES

    # 4. Runtime.
    assert result.runtime_cycles >= max(tap.completions)

    # 5. Coverage (PAC on HBM under-fetches on idle bypass; see above).
    if not (arm is CoalescerKind.PAC and device == "hbm"):
        addrs, sizes = raw["addr"], raw["size"]
        uncovered = [
            rid for p in packets for rid in p.constituents
            if addrs[rid] < p.addr
            or addrs[rid] + sizes[rid] > p.addr + p.size
        ]
        assert not uncovered, (
            f"{len(uncovered)} constituents outside their packet, "
            f"first raw request {uncovered[0]}"
        )

    # 7. Per-packet energy.
    pj = result.energy.picojoules
    assert pj["VAULT-CTRL"] == (
        0.0 if device == "ddr" else ENERGY_PJ["VAULT-CTRL"] * len(packets)
    )
    assert pj["DRAM-TRANSFER"] == pytest.approx(
        ENERGY_PJ["DRAM-TRANSFER"] * result.payload_bytes, rel=1e-9
    )

    # 8. Energy by count.
    assert pj["DRAM-ACTIVATE"] == (
        ENERGY_PJ["DRAM-ACTIVATE"] * result.bank_activations
    )
    flits = pj["LINK-LOCAL-ROUTE"] / ENERGY_PJ["LINK-LOCAL-ROUTE"] + (
        pj["LINK-REMOTE-ROUTE"] / ENERGY_PJ["LINK-REMOTE-ROUTE"]
    )
    assert flits == (
        0 if device == "ddr" else sum(packet_flits(p).total for p in packets)
    )

    # 9. Stream bound.
    if arm is CoalescerKind.PAC:
        assert _max_occupancy(system) <= spec.config.pac.n_streams


@pytest.mark.parametrize("bench", ("gs", "atomichist"))
@pytest.mark.parametrize("arm", ARMS[:3], ids=lambda kind: kind.value)
@pytest.mark.parametrize("engine", ("auto", "reference"))
@pytest.mark.parametrize("device", ("hmc", "hbm", "ddr"))
def test_sync_cadence_changes_nothing(device, engine, arm, bench, prefixes):
    """6. Sync cadence, with telemetry and spans on."""
    spec = RunSpec(
        (bench,), N_CADENCE, arm=arm, seed=SEED, device=device,
        engine=engine, telemetry=True, spans=True,
    )
    plain = run_arm(spec, _prefix(spec, prefixes))
    for k in (1, 37):
        _, result, tap, _ = _recorded_run(
            spec, prefixes, functools.partial(SyncEvery, k=k)
        )
        assert len(tap.submits) > k
        assert result == plain, k
        assert result.telemetry.to_json() == plain.telemetry.to_json(), k


@pytest.mark.parametrize("device", ("hmc", "hbm", "ddr"))
def test_recording_changes_nothing(device, prefixes):
    """The wrapper only listens: a recorded run's RunResult equals the
    same arm's plain :func:`run_arm` over the same prefix."""
    spec = RunSpec(("atomichist",), N, seed=SEED, device=device)
    _, recorded, _, _ = _recorded_run(spec, prefixes)
    assert recorded == run_arm(spec, _prefix(spec, prefixes))


@pytest.mark.parametrize("engine", ("auto", "reference"))
@pytest.mark.parametrize("device", ("hmc", "hbm", "ddr"))
def test_stream_bound_is_reached(device, engine, prefixes):
    """9. The stream bound, at four streams: bfs fills every one, and no
    more."""
    spec = RunSpec(
        ("bfs",), N, seed=SEED, device=device, engine=engine,
        config=TABLE1.with_pac(n_streams=4),
    )
    _, _, _, system = _recorded_run(spec, prefixes)
    assert _max_occupancy(system) == 4

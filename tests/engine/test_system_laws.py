"""Whole-System laws on the real devices.

The coalescer property suites (``tests/core/test_invariants.py`` and
its neighbours) drive each arm against a fixed-latency stub. Here the
whole phase-2 path of a :class:`~repro.engine.system.System` runs
instead: the cache pass's packed raw stream through the arm's coalescer
into the real HMC, HBM or DDR device, on both engines, with the device
wrapped in a :class:`~repro.mshr.dmc.RecordingDevice` that keeps every
submitted packet. The grid covers the none/dmc/pac/sortdmc arms on gs,
bfs, stream and ``atomichist`` (atomics and fences). Every cell must
obey four laws:

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
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.artifacts import compute_trace_pass
from repro.common.types import HMC_CONTROL_OVERHEAD_BYTES, MemOp, PAGE_BYTES
from repro.engine.driver import run_arm
from repro.engine.spec import RunSpec
from repro.engine.system import CoalescerKind
from repro.mshr.dmc import RecordingDevice

N = 3000
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


def _recorded_run(spec: RunSpec, prefixes: dict):
    """``spec``'s arm over its shared prefix, device recorded:
    (raw stream, RunResult, tap)."""
    tp = _prefix(spec, prefixes)
    system = spec.system()
    tap = system.device = CompletionTap(system.device)
    result = system.run_raw(
        tp.raw,
        benchmark=tp.benchmark,
        n_accesses=tp.n_accesses,
        trace_end_cycle=tp.trace_end_cycle,
        cache_metrics=tp.cache_metrics,
    )
    return tp.raw, result, tap


@pytest.mark.parametrize("bench", BENCHES)
@pytest.mark.parametrize("arm", ARMS, ids=lambda kind: kind.value)
@pytest.mark.parametrize("engine", ("auto", "reference"))
@pytest.mark.parametrize("device", ("hmc", "hbm", "ddr"))
def test_whole_system_laws(device, engine, arm, bench, prefixes):
    spec = RunSpec(
        (bench,), N, arm=arm, seed=SEED, device=device, engine=engine
    )
    raw, result, tap = _recorded_run(spec, prefixes)
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


@pytest.mark.parametrize("device", ("hmc", "hbm", "ddr"))
def test_recording_changes_nothing(device, prefixes):
    """The wrapper only listens: a recorded run's RunResult equals the
    same arm's plain :func:`run_arm` over the same prefix."""
    spec = RunSpec(("atomichist",), N, seed=SEED, device=device)
    _, recorded, _ = _recorded_run(spec, prefixes)
    assert recorded == run_arm(spec, _prefix(spec, prefixes))

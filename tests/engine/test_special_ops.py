"""End-to-end tests for atomic and fence handling across all arms."""

import numpy as np
import pytest

from repro.artifacts.shm import encode_requests
from repro.common.types import MemOp
from repro.config import TABLE1
from repro.engine.system import CoalescerKind, System
from repro.mshr.dmc import RecordingDevice
from repro.workloads import get_workload

N = 4000


class TestAtomicHistWorkload:
    def test_generates_special_ops(self):
        trace = get_workload("atomichist").generate(2000, n_cores=4)
        ops = set(np.unique(trace.ops))
        assert int(MemOp.ATOMIC) in ops
        assert int(MemOp.FENCE) in ops
        assert int(MemOp.LOAD) in ops

    def test_not_in_canonical_fourteen(self):
        from repro.workloads import BENCHMARK_NAMES

        assert "atomichist" not in BENCHMARK_NAMES
        assert len(BENCHMARK_NAMES) == 14


class TestHierarchyRouting:
    def test_atomics_bypass_caches(self):
        system = System(TABLE1, CoalescerKind.PAC)
        trace = system.build_trace(["atomichist"], N)
        raw = system.hierarchy.process(trace)
        n_atomic_raw = int(np.sum(raw.packed["op"] == int(MemOp.ATOMIC)))
        # Every atomic access reaches memory (no cache filtering).
        assert n_atomic_raw == int(np.sum(trace.ops == int(MemOp.ATOMIC)))

    def test_fences_propagate_as_markers(self):
        system = System(TABLE1, CoalescerKind.PAC)
        trace = system.build_trace(["atomichist"], N)
        raw = system.hierarchy.process(trace)
        assert (raw.packed["op"] == int(MemOp.FENCE)).any()

    def test_repeated_atomics_not_cached(self):
        # Unlike a load, a re-issued atomic to the same address still
        # reaches memory.
        from repro.cache.hierarchy import CacheHierarchy
        from repro.config import CacheConfig
        from repro.mem.trace import AccessTrace

        h = CacheHierarchy(CacheConfig(), n_cores=1, secondary_cap=0)
        trace = AccessTrace(
            addrs=np.array([0, 0, 0]),
            sizes=np.full(3, 8),
            ops=np.full(3, int(MemOp.ATOMIC)),
            cores=np.zeros(3),
            cycles=np.arange(3) * 100,
        )
        raw = h.process(trace)
        assert len(raw.packed) == 3


@pytest.mark.parametrize(
    "kind", [CoalescerKind.NONE, CoalescerKind.DMC,
             CoalescerKind.PAC, CoalescerKind.SORT]
)
class TestAllArmsHandleSpecialOps:
    def test_run_completes_and_conserves(self, kind):
        system = System(TABLE1, kind)
        result = system.run("atomichist", N)
        assert result.n_issued > 0
        assert result.n_issued + result.n_merged <= result.n_raw
        assert result.runtime_cycles > 0

    def test_atomics_uncoalesced(self, kind):
        system = System(TABLE1, kind)
        trace = system.build_trace(["atomichist"], N)
        raw = (
            system.hierarchy.process(trace)
        )
        n_atomics = int(np.sum(raw.packed["op"] == int(MemOp.ATOMIC)))
        device = RecordingDevice(system.device)
        outcome = system.coalescer.process(raw.packed, device)
        assert outcome.n_issued == len(device.submits)
        atomic_packets = [
            p for p, _ in device.submits if p.source == "atomic"
        ]
        assert len(atomic_packets) == n_atomics
        assert all(len(p.constituents) == 1 for p in atomic_packets)


class TestFenceSemantics:
    def test_fence_splits_pac_aggregation(self):
        from repro.common.types import MemoryRequest, PAGE_BYTES
        from repro.core.pac import PagedAdaptiveCoalescer
        from repro.config import PACConfig

        class Mem:
            def submit(self, packet, cycle):
                return cycle + 30

        pac = PagedAdaptiveCoalescer(PACConfig(idle_bypass=False))
        stream = [
            MemoryRequest(addr=PAGE_BYTES, cycle=0),
            MemoryRequest(addr=0, op=MemOp.FENCE, cycle=1),
            MemoryRequest(addr=PAGE_BYTES + 64, cycle=2),
        ]
        out = pac.process(encode_requests(stream), Mem())
        # Without the fence these two adjacent blocks would coalesce.
        assert out.n_issued == 2

    def test_fence_flushes_sorting_window(self):
        from repro.common.types import MemoryRequest
        from repro.mshr.sorting import SortingNetworkCoalescer

        class Mem:
            def submit(self, packet, cycle):
                return cycle + 30

        coal = SortingNetworkCoalescer()
        stream = [
            MemoryRequest(addr=0, cycle=0),
            MemoryRequest(addr=0, op=MemOp.FENCE, cycle=1),
            MemoryRequest(addr=64, cycle=2),
        ]
        out = coal.process(encode_requests(stream), Mem())
        assert out.n_issued == 2

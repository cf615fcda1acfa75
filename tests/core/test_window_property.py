"""Properties of the batched kernel's window partitioning.

``window_bounds`` is the structural foundation of the batched coalescer
engine: it splits the raw stream's op column into fence-delimited
quiescent windows whose stage-1 state is provably empty at every
boundary. Two invariant families are pinned here:

1. **Partition laws** (pure, on arbitrary streams): the windows tile
   the stream's ordinals in order; fences appear only as window-final
   elements; every window except possibly the last is fence-terminated.
2. **Engine equality on synthetic streams**: the batched kernel and the
   reference pipeline produce identical coalescing outcomes over
   hypothesis-generated request mixes — loads, stores, atomics (bypass)
   and fences (window boundaries) — against the real HMC device model.
   This complements ``tests/engine/test_engine_parity.py`` (workload
   traces) with adversarial op mixes the workloads never emit, e.g.
   fence-only streams and back-to-back fences (empty windows).
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.artifacts.shm import encode_requests
from repro.common.types import MemOp, MemoryRequest, PAGE_BYTES
from repro.core.pac_batched import window_bounds
from repro.mshr.dmc import RecordingDevice

SETTINGS = dict(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def request_streams(draw, with_fences=True, idle_gaps=False):
    """Cycle-ordered streams over a few pages, with all four ops. With
    ``idle_gaps`` some requests follow a 10,000-cycle pause, long enough
    for the idle bypass to switch the coalescing network off."""
    gaps = st.integers(min_value=0, max_value=12)
    if idle_gaps:
        gaps = gaps | st.just(10_000)
    n = draw(st.integers(min_value=0, max_value=50))
    pages = draw(
        st.lists(
            st.integers(min_value=0, max_value=1 << 18),
            min_size=1, max_size=4, unique=True,
        )
    )
    ops = [MemOp.LOAD, MemOp.LOAD, MemOp.STORE, MemOp.ATOMIC]
    if with_fences:
        ops.append(MemOp.FENCE)
    reqs = []
    cycle = 0
    for _ in range(n):
        cycle += draw(gaps)
        reqs.append(
            MemoryRequest(
                addr=draw(st.sampled_from(pages)) * PAGE_BYTES
                + draw(st.integers(min_value=0, max_value=63)) * 64,
                size=64,
                op=draw(st.sampled_from(ops)),
                cycle=cycle,
            )
        )
    return reqs


def _bounds(reqs):
    return window_bounds(encode_requests(reqs)["op"])


class TestPartitionLaws:
    @given(reqs=request_streams())
    @settings(**SETTINGS)
    def test_concatenation_is_identity(self, reqs):
        flat = [i for start, stop in _bounds(reqs) for i in range(start, stop)]
        assert flat == list(range(len(reqs)))

    @given(reqs=request_streams())
    @settings(**SETTINGS)
    def test_fences_only_at_window_ends(self, reqs):
        bounds = _bounds(reqs)
        for start, stop in bounds:
            assert stop > start, "window_bounds must not emit empty windows"
            for req in reqs[start:stop - 1]:
                assert req.op is not MemOp.FENCE
        # Every window but (possibly) the last is closed by its fence.
        for _, stop in bounds[:-1]:
            assert reqs[stop - 1].op is MemOp.FENCE

    @given(reqs=request_streams(with_fences=False))
    @settings(**SETTINGS)
    def test_fence_free_stream_is_one_window(self, reqs):
        bounds = _bounds(reqs)
        if not reqs:
            assert bounds == []
        else:
            assert bounds == [(0, len(reqs))]

    def test_back_to_back_fences_make_singleton_windows(self):
        fences = [
            MemoryRequest(addr=0, op=MemOp.FENCE, cycle=i) for i in range(3)
        ]
        assert [stop - start for start, stop in _bounds(fences)] == [1, 1, 1]


class TestEngineEqualityOnSyntheticStreams:
    @given(reqs=request_streams(), probes=st.booleans())
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_batched_matches_reference(self, reqs, probes):
        """With probes on, every probe must also record the same events,
        each pinned to its cycle by one-cycle windows."""
        from repro.engine.system import CoalescerKind, System
        from repro.telemetry import TelemetryRegistry

        ref_sys, bat_sys = (
            System(
                coalescer=CoalescerKind.PAC, engine=engine,
                telemetry=TelemetryRegistry(window_cycles=1) if probes else None,
            )
            for engine in ("reference", "auto")
        )
        raw = encode_requests(reqs)
        ref_dev = RecordingDevice(ref_sys.device)
        bat_dev = RecordingDevice(bat_sys.device)
        ref = ref_sys.coalescer.process(raw, ref_dev)
        bat = bat_sys.coalescer.process(raw, bat_dev)
        bat_sys.device.sync()
        assert ref_sys.telemetry == bat_sys.telemetry
        assert ref.n_issued == bat.n_issued
        assert ref.n_merged == bat.n_merged
        assert ref.last_completion_cycle == bat.last_completion_cycle
        assert ref_dev.submits == bat_dev.submits
        assert ref == bat
        assert (
            ref_sys.coalescer.stats.as_dict()
            == bat_sys.coalescer.stats.as_dict()
        )
        assert (
            ref_sys.coalescer.aggregator.stats.as_dict()
            == bat_sys.coalescer.aggregator.stats.as_dict()
        )
        assert (
            ref_sys.coalescer.maq.stats.as_dict()
            == bat_sys.coalescer.maq.stats.as_dict()
        )

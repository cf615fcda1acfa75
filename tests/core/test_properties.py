"""Property-based coalescing invariants (the ISSUE's three laws).

Complements :mod:`tests.core.test_invariants` with the conservation /
bounds / monotonicity trio stated for the telemetry harness:

1. **Payload conservation** — no request is lost or duplicated:
   DMC satisfies ``n_raw == n_issued + n_merged`` (one packet per
   non-merged request); PAC satisfies the packet-granular form
   ``sum(constituents per issued packet) + n_merged == n_raw``.
2. **Efficiency bounds** — ``coalescing_efficiency`` in ``[0, 1]`` for
   every arm on every stream.
3. **Window monotonicity** — against a zero-latency memory (no
   in-flight merge window), widening PAC's coalescing timeout never
   *increases* the issued packet count. Zero latency is load-bearing:
   with in-flight packets, a longer timeout shifts issue times and can
   lose MSHR merge opportunities, making the general case legitimately
   non-monotone (verified empirically at ~4% of random streams).

Telemetry is enabled on a subset of cases to pin a fourth law: probes
observe the same events the outcome counts, so their totals must match.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.artifacts.shm import encode_requests
from repro.common.types import MemOp, MemoryRequest, PAGE_BYTES
from repro.config import PACConfig
from repro.core.pac import PagedAdaptiveCoalescer
from repro.core.protocols import HMC2
from repro.mshr.dmc import MSHRBasedDMC, NullCoalescer
from repro.telemetry import TelemetryRegistry


class FixedLatencyMemory:
    def __init__(self, latency=50):
        self.latency = latency

    def submit(self, packet, cycle):
        return cycle + self.latency


@st.composite
def request_streams(draw):
    """Cycle-ordered line-granular load/store streams over a few pages.

    FENCEs are excluded deliberately: a fence enters ``n_raw`` but emits
    no packet, so the conservation laws below hold for data requests
    only — the form the telemetry cross-checks use.
    """
    n = draw(st.integers(min_value=1, max_value=60))
    n_pages = draw(st.integers(min_value=1, max_value=5))
    pages = draw(
        st.lists(
            st.integers(min_value=0, max_value=1 << 20),
            min_size=n_pages, max_size=n_pages, unique=True,
        )
    )
    reqs = []
    cycle = 0
    for _ in range(n):
        cycle += draw(st.integers(min_value=0, max_value=16))
        reqs.append(
            MemoryRequest(
                addr=draw(st.sampled_from(pages)) * PAGE_BYTES
                + draw(st.integers(min_value=0, max_value=63)) * 64,
                size=64,
                op=draw(st.sampled_from([MemOp.LOAD, MemOp.STORE])),
                cycle=cycle,
            )
        )
    return reqs


COMMON_SETTINGS = dict(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestPayloadConservation:
    @given(request_streams())
    @settings(**COMMON_SETTINGS)
    def test_dmc_request_granular(self, reqs):
        out = MSHRBasedDMC(16).process(
            encode_requests(reqs), FixedLatencyMemory()
        )
        assert out.n_raw == out.n_issued + out.n_merged
        assert out.n_raw == len(reqs)

    @given(request_streams())
    @settings(**COMMON_SETTINGS)
    def test_pac_packet_granular(self, reqs):
        pac = PagedAdaptiveCoalescer(PACConfig(), protocol=HMC2)
        out = pac.process(encode_requests(reqs), FixedLatencyMemory())
        constituents = sum(len(p.constituents) for p in out.issued)
        assert constituents + out.n_merged == out.n_raw == len(reqs)

    @given(request_streams())
    @settings(**COMMON_SETTINGS)
    def test_pac_conserves_with_telemetry_attached(self, reqs):
        registry = TelemetryRegistry(window_cycles=64)
        pac = PagedAdaptiveCoalescer(
            PACConfig(), protocol=HMC2, probes=registry.scope("pac")
        )
        out = pac.process(encode_requests(reqs), FixedLatencyMemory())
        constituents = sum(len(p.constituents) for p in out.issued)
        assert constituents + out.n_merged == len(reqs)
        # Every packet reaching the MSHR stage arrived by exactly one of
        # three routes — the assembler (coalesced path), the C-bit
        # bypass, or the idle-bypass direct path — and then either
        # merged into an in-flight packet or issued to memory.
        stage3 = registry.counters["pac.stage3.packets"].total
        bypassed = registry.counters["pac.network.bypassed_requests"].total
        direct = registry.counters["pac.controller.direct_requests"].total
        merges = registry.counters["pac.mshr.packet_merges"].total
        assert stage3 + bypassed + direct == out.n_issued + merges


class TestEfficiencyBounds:
    @given(request_streams())
    @settings(**COMMON_SETTINGS)
    def test_pac_in_unit_interval(self, reqs):
        pac = PagedAdaptiveCoalescer(PACConfig(), protocol=HMC2)
        out = pac.process(encode_requests(reqs), FixedLatencyMemory())
        assert 0.0 <= out.coalescing_efficiency <= 1.0

    @given(request_streams())
    @settings(**COMMON_SETTINGS)
    def test_dmc_in_unit_interval(self, reqs):
        out = MSHRBasedDMC(16).process(
            encode_requests(reqs), FixedLatencyMemory()
        )
        assert 0.0 <= out.coalescing_efficiency <= 1.0

    @given(request_streams())
    @settings(**COMMON_SETTINGS)
    def test_null_is_zero(self, reqs):
        out = NullCoalescer(16).process(
            encode_requests(reqs), FixedLatencyMemory()
        )
        assert out.coalescing_efficiency == 0.0


class TestWindowMonotonicity:
    @given(request_streams())
    @settings(**COMMON_SETTINGS)
    def test_issued_non_increasing_in_timeout(self, reqs):
        issued = []
        for timeout in (1, 4, 16, 64, 256):
            pac = PagedAdaptiveCoalescer(
                PACConfig(timeout_cycles=timeout), protocol=HMC2
            )
            out = pac.process(
                encode_requests(reqs), FixedLatencyMemory(latency=0)
            )
            issued.append(out.n_issued)
        assert issued == sorted(issued, reverse=True), (
            f"issued counts not monotone over widening windows: {issued}"
        )

"""Span parity: span runs on the batched engines.

With span tracing on, ``engine="auto"`` keeps the cache front-end, the
PAC kernel and the memory device on their batched twins, which call the
same :class:`~repro.telemetry.SpanRecorder` methods at the same sites as
the reference engines. Each tracked request must therefore see the same
stamps in the same order, so a span run must produce a full
:class:`~repro.engine.results.RunResult` — :class:`SpanTrace` included —
equal to ``engine="reference"``, and byte-identical Perfetto and CSV
exports. The NONE and DMC arms run their one coalescer between the
batched front-end and device.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings

from repro.artifacts.shm import encode_requests
from repro.common.types import PAGE_BYTES, MemOp, MemoryRequest
from repro.config import TABLE1
from repro.engine.driver import run_benchmark, run_comparison
from repro.engine.system import CoalescerKind, System
from repro.mshr.dmc import RecordingDevice
from repro.telemetry import SpanRecorder, TelemetryRegistry
from repro.telemetry import events as ev
from tests.core.test_window_property import request_streams

N = 4000
SEED = 1234


def _pair(bench="gs", device="hmc", kind=CoalescerKind.PAC, spans=True,
          n_accesses=N, **kw):
    """(reference run, auto run) of one span-run configuration."""
    return [
        run_benchmark(
            bench, coalescer=kind, n_accesses=n_accesses, seed=SEED,
            device=device, engine=engine, spans=spans, **kw,
        )
        for engine in ("reference", "auto")
    ]


def _assert_identical(ref, auto):
    assert ref.spans is not None and len(ref.spans) > 0
    assert ref.spans.packets
    assert ref == auto
    assert ref.spans == auto.spans


class TestSpanParity:
    @pytest.mark.parametrize("device", ("hmc", "hbm", "ddr"))
    @pytest.mark.parametrize("bench", ("gs", "stream", "bfs"))
    def test_grid(self, bench, device):
        _assert_identical(*_pair(bench, device))

    @pytest.mark.parametrize("bench", ("gs", "bfs"))
    def test_every_request_tracked(self, bench):
        ref, auto = _pair(bench, spans=1)
        assert ref.spans.sample_rate == 1
        _assert_identical(ref, auto)

    @pytest.mark.parametrize("kind", (CoalescerKind.NONE, CoalescerKind.DMC))
    def test_reference_coalescer_between_batched_twins(self, kind):
        _assert_identical(*_pair("gs", kind=kind))

    def test_fine_grain(self):
        _assert_identical(*_pair("gs", fine_grain=True))

    def test_with_telemetry(self):
        ref, auto = _pair("bfs", telemetry=256)
        _assert_identical(ref, auto)
        assert ref.telemetry.to_json() == auto.telemetry.to_json()

    def test_comparison(self):
        """Every arm of a span grid folds the origins of the one shared
        cache pass, and equals its standalone run on either engine."""
        for bench in ("gs", "stream", "bfs"):
            ref, auto = (
                run_comparison(
                    bench, n_accesses=2000, seed=SEED, engine=engine,
                    spans=True, use_artifact_cache=False,
                )
                for engine in ("reference", "auto")
            )
            assert ref == auto
            for kind, result in ref.items():
                assert result.spans == auto[kind].spans
                alone = run_benchmark(
                    bench, coalescer=kind, n_accesses=2000, seed=SEED,
                    spans=True,
                )
                assert alone == result, (bench, kind)
                assert alone.spans == result.spans

    def test_exports_are_byte_identical(self, tmp_path):
        from repro.telemetry import write_perfetto, write_spans_csv

        files = []
        for result, engine in zip(_pair("stream"), ("reference", "auto")):
            perfetto = tmp_path / f"{engine}.json"
            csv = tmp_path / f"{engine}.csv"
            write_perfetto(result.spans, perfetto)
            write_spans_csv(result.spans, csv)
            files.append((perfetto.read_bytes(), csv.read_bytes()))
        assert files[0] == files[1]


class TestSpanRunsStayBatched:
    @pytest.mark.parametrize("probe_kw", [
        dict(spans=SpanRecorder),
        dict(spans=SpanRecorder, telemetry=TelemetryRegistry),
    ])
    @pytest.mark.parametrize("device", ("hmc", "hbm", "ddr"))
    def test_every_component_is_a_twin(self, device, probe_kw):
        from repro.cache.batched import BatchedCacheHierarchy
        from repro.core.pac_batched import BatchedPagedAdaptiveCoalescer
        from repro.ddr.device import DDRDevice
        from repro.hmc.batched import BatchedHBMDevice, BatchedHMCDevice

        log = ev.EventLog()
        with ev.installed(log):
            s = System(
                coalescer=CoalescerKind.PAC, device=device,
                **{name: make() for name, make in probe_kw.items()},
            )
        assert s.engine == "batched"
        assert type(s.hierarchy) is BatchedCacheHierarchy
        assert type(s.coalescer) is BatchedPagedAdaptiveCoalescer
        assert type(s.device) is {
            "hmc": BatchedHMCDevice,
            "hbm": BatchedHBMDevice,
            "ddr": DDRDevice,  # one class on both engines
        }[device]
        assert not [r for r in log.records if r["kind"] == "demote"]

    def test_span_run_emits_no_demote(self):
        log = ev.EventLog()
        with ev.installed(log):
            run_benchmark(
                "stream", coalescer=CoalescerKind.NONE, n_accesses=1000,
                seed=SEED, spans=True,
            )
        assert not [r for r in log.records if r["kind"] == "demote"]

    def test_sorting_network_arm_refuses_spans(self):
        with pytest.raises(ValueError, match="sortdmc"):
            System(coalescer=CoalescerKind.SORT, spans=SpanRecorder())
        System(coalescer=CoalescerKind.SORT)


# --------------------------------------------------------------------- #
# The PAC kernel on synthetic streams


def _kernel_traces(reqs, config=TABLE1):
    """Both PAC kernels over ``reqs`` with every request tracked:
    (reference, batched) as (system, outcome, SpanTrace, submits)
    tuples, ``submits`` the ``(packet, cycle)`` pairs the device got."""
    out = []
    for engine in ("reference", "auto"):
        system = System(
            config=config, coalescer=CoalescerKind.PAC, engine=engine,
            spans=SpanRecorder(sample_rate=1, seed=SEED),
        )
        device = RecordingDevice(system.device)
        outcome = system.coalescer.process(encode_requests(reqs), device)
        system.device.sync()
        out.append(
            (system, outcome, system.spans.finalize(), device.submits)
        )
    return out


def _assert_kernels_identical(reqs, config=TABLE1):
    (ref_sys, ref, ref_spans, ref_submits), (
        bat_sys, bat, bat_spans, bat_submits
    ) = _kernel_traces(reqs, config)
    assert ref_submits == bat_submits
    assert ref == bat
    assert ref.n_merged == bat.n_merged
    assert (
        ref_sys.coalescer.stats.as_dict() == bat_sys.coalescer.stats.as_dict()
    )
    assert ref_spans == bat_spans
    return ref_sys, ref_spans


_TWO_STREAMS = replace(TABLE1, pac=replace(TABLE1.pac, n_streams=2))


class TestKernelSpanParity:
    @given(reqs=request_streams(idle_gaps=True))
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_synthetic_streams(self, reqs):
        _assert_kernels_identical(reqs, _TWO_STREAMS)

    def test_every_rare_path(self):
        """Paths the paper workloads seldom or never take: stage-1
        forced flushes (two slots under bursts over six pages), the
        idle bypass switching the network off and on, merges on the
        direct path, MAQ-full stalls (four entries), atomics and
        back-to-back fences."""
        config = replace(
            TABLE1, pac=replace(TABLE1.pac, n_streams=2, maq_entries=4)
        )
        rng = random.Random(3)
        reqs = []
        cycle = 0
        for burst in range(3):
            cycle += 10_000  # idle gap: the controller disables the network
            # Two loads of one line while the network is off: the second
            # merges into the first's MSHR entry on the direct path.
            line = (40 + burst) * PAGE_BYTES
            reqs.append(MemoryRequest(addr=line, cycle=cycle))
            reqs.append(MemoryRequest(addr=line, cycle=cycle + 1))
            cycle += 1
            for _ in range(80):
                cycle += rng.randint(0, 2)
                reqs.append(MemoryRequest(
                    addr=rng.randint(1, 6) * PAGE_BYTES
                    + rng.randint(0, 63) * 64,
                    op=rng.choice([MemOp.LOAD, MemOp.STORE]), cycle=cycle,
                ))
            reqs.append(MemoryRequest(
                addr=50 * PAGE_BYTES, size=16, op=MemOp.ATOMIC,
                cycle=cycle + 1,
            ))
            reqs.append(MemoryRequest(addr=0, op=MemOp.FENCE, cycle=cycle + 2))
            reqs.append(MemoryRequest(addr=0, op=MemOp.FENCE, cycle=cycle + 2))
            cycle += 2
        system, spans = _assert_kernels_identical(reqs, config)
        pac = system.coalescer
        assert pac.aggregator.stats.count("forced_flushes") > 0
        assert pac.stats.count("network_disables") > 0
        assert pac.stats.count("network_enables") > 0
        assert pac.maq.stats.count("full_stalls") > 0
        assert pac.stats.count("atomics") == 3
        assert pac.stats.count("fences") == 6
        stage_paths = {tuple(s[0] for s in r.spans) for r in spans.requests}
        assert ("queue", "mshr") in stage_paths  # a direct-path merge
        assert ("queue", "device") in stage_paths  # direct issue, atomics
        assert (
            "queue", "stage1", "network", "maq", "device"
        ) in stage_paths

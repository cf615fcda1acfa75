"""Telemetry parity: probe runs on the batched engines.

With telemetry probes on, ``engine="auto"`` keeps the cache front-end,
the PAC kernel and the memory device on their batched twins, which feed
the probes through bulk folds. Each twin must record exactly the events
its reference records, so a probe run must produce a full
:class:`~repro.engine.results.RunResult` — telemetry registry included —
equal to ``engine="reference"``, and a byte-identical
``registry.to_json()``. The NONE and DMC arms run their reference
coalescer between the batched front- and back-end, so they check that
mixed feeding (per-event and folded) lands in the same registry.
"""

from __future__ import annotations

import pytest

from repro.artifacts.shm import encode_requests
from repro.engine.driver import run_benchmark, run_comparison
from repro.engine.system import CoalescerKind, System
from repro.telemetry import FOLD_EVENTS, ProbeBuffer, TelemetryRegistry

N = 4000
SEED = 1234


def _pair(bench="gs", device="hmc", kind=CoalescerKind.PAC, window=None,
          n_accesses=N, **kw):
    """(reference run, auto run) of one probe-run configuration."""
    return [
        run_benchmark(
            bench, coalescer=kind, n_accesses=n_accesses, seed=SEED,
            device=device, engine=engine,
            telemetry=TelemetryRegistry(window_cycles=window) if window else True,
            **kw,
        )
        for engine in ("reference", "auto")
    ]


def _assert_identical(ref, auto):
    assert ref.telemetry is not None
    assert ref == auto
    assert ref.telemetry.to_json() == auto.telemetry.to_json()


class TestTelemetryParity:
    @pytest.mark.parametrize("device", ("hmc", "hbm", "ddr"))
    @pytest.mark.parametrize("bench", ("gs", "stream", "bfs"))
    def test_grid(self, bench, device):
        _assert_identical(*_pair(bench, device))

    def test_fine_grain(self):
        _assert_identical(*_pair("gs", fine_grain=True))

    @pytest.mark.parametrize("bench, window", [("bfs", 256), ("gs", 1)])
    def test_custom_window(self, bench, window):
        # One-cycle windows pin every event to its exact cycle.
        ref, auto = _pair(bench, window=window)
        assert ref.telemetry.window_cycles == window
        _assert_identical(ref, auto)

    @pytest.mark.parametrize("kind", (CoalescerKind.NONE, CoalescerKind.DMC))
    def test_reference_coalescer_between_batched_twins(self, kind):
        from repro.cache.batched import BatchedCacheHierarchy
        from repro.hmc.batched import BatchedHMCDevice

        system = System(coalescer=kind, telemetry=True)
        assert system.engine == "batched"
        assert type(system.hierarchy) is BatchedCacheHierarchy
        assert type(system.device) is BatchedHMCDevice
        _assert_identical(*_pair("gs", kind=kind))

    def test_probe_run_resolves_every_component_batched(self):
        from repro.core.pac_batched import BatchedPagedAdaptiveCoalescer

        system = System(coalescer=CoalescerKind.PAC, telemetry=True)
        assert system.engine == "batched"
        assert type(system.coalescer) is BatchedPagedAdaptiveCoalescer

    def test_forced_flushes_and_idle_disables(self):
        """Events the paper workloads never fire: stage-1 forced flushes
        (two slots under bursts over six pages) and the idle bypass
        switching the network off and on between bursts. One-cycle
        windows pin each event to its exact cycle."""
        import random
        from dataclasses import replace

        from repro.common.types import PAGE_BYTES, MemOp, MemoryRequest
        from repro.config import TABLE1

        rng = random.Random(3)
        reqs = []
        cycle = 0
        for _ in range(3):
            cycle += 10_000  # idle gap: the controller disables the network
            for _ in range(80):
                cycle += rng.randint(0, 2)
                reqs.append(MemoryRequest(
                    addr=rng.randint(1, 6) * PAGE_BYTES
                    + rng.randint(0, 63) * 64,
                    op=rng.choice([MemOp.LOAD, MemOp.STORE]), cycle=cycle,
                ))
        config = replace(TABLE1, pac=replace(TABLE1.pac, n_streams=2))
        registries = []
        for engine in ("reference", "auto"):
            system = System(
                config=config, coalescer=CoalescerKind.PAC, engine=engine,
                telemetry=TelemetryRegistry(window_cycles=1),
            )
            system.coalescer.process(encode_requests(reqs), system.device)
            system.device.sync()
            registries.append(system.telemetry)
        ref, bat = registries
        for name in ("pac.stage1.forced_flushes",
                     "pac.controller.network_disables",
                     "pac.controller.network_enables"):
            assert ref.counters[name].total > 0, name
        assert ref == bat
        assert ref.to_json() == bat.to_json()

    def test_comparison(self):
        """Every arm of a probe grid folds the ``cache.*`` probes of the
        one shared cache pass, and equals its standalone run on either
        engine, registry JSON included."""
        for bench in ("gs", "stream", "bfs"):
            ref, auto = (
                run_comparison(
                    bench, n_accesses=2000, seed=SEED, engine=engine,
                    telemetry=True, use_artifact_cache=False,
                )
                for engine in ("reference", "auto")
            )
            assert ref == auto
            for kind, result in ref.items():
                json_doc = result.telemetry.to_json()
                assert json_doc == auto[kind].telemetry.to_json()
                alone = run_benchmark(
                    bench, coalescer=kind, n_accesses=2000, seed=SEED,
                    telemetry=True,
                )
                assert alone == result, (bench, kind)
                assert alone.telemetry.to_json() == json_doc


def test_probe_buffers_fold_when_full(monkeypatch):
    """Buffers fold mid-run whenever a column fills, so their memory is
    bounded by FOLD_EVENTS (plus one loop step's events), not by run
    length — and the folded-in-pieces registry still matches."""
    longest = []
    fold = ProbeBuffer.fold

    def recording_fold(self):
        longest.append(max(len(col) for col in self._columns))
        fold(self)

    monkeypatch.setattr(ProbeBuffer, "fold", recording_fold)
    # bfs streams mostly bypass stages 2-3: more MAQ events than raw
    # requests, so the MAQ column fills before the per-request one.
    ref, auto = _pair("bfs", n_accesses=8000)
    _assert_identical(ref, auto)
    assert max(longest) >= FOLD_EVENTS  # some column filled mid-run
    assert max(longest) <= FOLD_EVENTS + 64

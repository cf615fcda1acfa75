"""RunSpec: construction, artifact keys, and what the entry points that
build specs must preserve.

* **Validation** — bad sizes and empty mixes fail at construction,
  before any pool work starts; a spec hashes and pickles (it is a memo
  key and a pool job's argument).
* **Keys** — ``spec.trace_key()``/``pass_key()`` are the store's key
  functions applied to the spec, so artifact keys stay identical.
* **Probe templates** — a registry or recorder handed to a multi-run
  entry point is a template: every run gets a fresh one with the same
  window or sample rate, so each result equals its standalone run.
* **Fault scopes** — the ``demote`` events a fault plan causes, per
  execution path.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import numpy as np
import pytest

from repro.artifacts import store
from repro.config import TABLE1
from repro.engine.driver import run_benchmark, run_comparison, run_suite
from repro.engine.parallel import run_suite_parallel
from repro.engine.spec import RunSpec
from repro.engine.system import CoalescerKind
from repro.telemetry import SpanRecorder, TelemetryRegistry
from repro.telemetry import events as ev

N = 1500
SEED = 11
BENCHES = ("gs", "bfs")
WINDOW = 256
RATE = 4


class TestConstruction:
    def test_seed_resolves_to_config_seed(self):
        assert RunSpec(("gs",), N).seed == TABLE1.seed
        assert RunSpec(("gs",), N, seed=5).seed == 5

    @pytest.mark.parametrize("n", [0, -3])
    def test_rejects_non_positive_accesses(self, n):
        with pytest.raises(ValueError, match="n_accesses"):
            RunSpec(("gs",), n)

    @pytest.mark.parametrize("field,value", [
        ("n_accesses", 2000.0), ("n_accesses", True), ("n_accesses", "2000"),
        ("seed", 1.5), ("seed", "7"), ("seed", False),
    ])
    def test_rejects_non_integer_sizes_and_seeds(self, field, value):
        with pytest.raises(TypeError, match=field):
            RunSpec(("gs",), **{"n_accesses": N, field: value})

    def test_numpy_integers_normalise_to_int(self):
        spec = RunSpec(("gs",), np.int64(N), seed=np.int32(SEED))
        assert spec == RunSpec(("gs",), N, seed=SEED)
        assert type(spec.n_accesses) is int and type(spec.seed) is int

    def test_rejects_empty_benchmarks(self):
        with pytest.raises(ValueError, match="benchmark"):
            RunSpec((), N)

    def test_entry_points_reject_bad_sizes(self):
        with pytest.raises(ValueError, match="n_accesses"):
            run_benchmark("gs", n_accesses=0)
        with pytest.raises(ValueError, match="n_accesses"):
            run_suite_parallel(benchmarks=("gs",), n_accesses=-1)

    def test_hash_and_pickle_round_trip(self):
        spec = RunSpec(
            ["gs", "bfs"], N, arm=CoalescerKind.DMC, seed=SEED,
            device="hbm", fine_grain=True, scale="B",
            **RunSpec.probe_settings(TelemetryRegistry(WINDOW), RATE),
        )
        assert spec.benchmarks == ("gs", "bfs")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert {spec: 1}[clone] == 1

    def test_label_and_probe_settings(self):
        spec = RunSpec(("gs", "bfs"), N)
        assert spec.label == "gs+bfs"
        assert RunSpec.probe_settings(True, True) == {
            "telemetry_window": TelemetryRegistry.DEFAULT_WINDOW_CYCLES,
            "span_rate": SpanRecorder.DEFAULT_SAMPLE_RATE,
        }
        assert RunSpec.probe_settings(
            TelemetryRegistry(WINDOW), SpanRecorder(sample_rate=RATE)
        ) == {"telemetry_window": WINDOW, "span_rate": RATE}
        assert RunSpec.probe_settings(False, None) == {
            "telemetry_window": None, "span_rate": None,
        }


class TestKeys:
    @pytest.mark.parametrize(
        "benchmarks, kw",
        [
            (("stream",), {}),
            (("stream",), {"fine_grain": True}),
            (("gs", "bfs"), {}),
            (("gs", "bfs", "ep"), {"device": "hbm", "scale": "B"}),
            (("hpcg",), {"seed": 3,
                         "config": TABLE1.with_pac(n_streams=8)}),
        ],
    )
    def test_keys_are_the_store_keys(self, benchmarks, kw):
        spec = RunSpec(benchmarks, N, **kw)
        args = (benchmarks[0], N, spec.seed, spec.config)
        common = dict(
            device=spec.device, scale=spec.scale,
            extra_benchmarks=benchmarks[1:],
        )
        assert spec.trace_key() == store.trace_key(*args, **common)
        assert spec.pass_key() == store.pass_key(
            *args, fine_grain=spec.fine_grain, **common
        )

    def test_keys_ignore_arm_engine_and_probes(self):
        spec = RunSpec(("gs",), N, seed=SEED)
        other = replace(
            spec.for_arm(CoalescerKind.NONE), engine="reference",
            telemetry_window=WINDOW, span_rate=RATE,
        )
        assert other.trace_key() == spec.trace_key()
        assert other.pass_key() == spec.pass_key()
        assert replace(spec, fine_grain=True).pass_key() != spec.pass_key()
        assert replace(spec, fine_grain=True).trace_key() == spec.trace_key()


def _templates():
    return (
        TelemetryRegistry(window_cycles=WINDOW),
        SpanRecorder(sample_rate=RATE),
    )


def _standalone(bench: str, kind: CoalescerKind = CoalescerKind.PAC):
    registry, recorder = _templates()
    return run_benchmark(
        bench, coalescer=kind, n_accesses=N, seed=SEED,
        telemetry=registry, spans=recorder,
    )


def _assert_same_run(result, ref):
    assert result == ref
    assert result.telemetry.window_cycles == WINDOW
    assert result.telemetry.to_json() == ref.telemetry.to_json()
    assert result.spans.sample_rate == RATE
    assert result.spans == ref.spans


class TestProbeTemplates:
    def test_run_benchmark_fills_the_instances_it_is_handed(self):
        registry, recorder = _templates()
        result = run_benchmark(
            "gs", n_accesses=N, seed=SEED, telemetry=registry,
            spans=recorder,
        )
        assert result.telemetry is registry
        assert registry.probe_names()
        assert result.spans.sample_rate == RATE

    def test_run_suite(self):
        registry, recorder = _templates()
        out = run_suite(
            benchmarks=BENCHES, n_accesses=N, seed=SEED,
            telemetry=registry, spans=recorder,
        )
        for bench in BENCHES:
            _assert_same_run(out[bench], _standalone(bench))
        # Templates are read, never filled.
        assert registry.probe_names() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_suite_parallel(self, workers):
        registry, recorder = _templates()
        out = run_suite_parallel(
            kinds=(CoalescerKind.PAC,), benchmarks=BENCHES, n_accesses=N,
            seed=SEED, max_workers=workers, telemetry=registry,
            spans=recorder,
        )
        for bench in BENCHES:
            _assert_same_run(out[(bench, "pac")], _standalone(bench))
        assert registry.probe_names() == []

    def test_run_comparison_arms_keep_the_settings(self):
        registry, recorder = _templates()
        trio = run_comparison(
            "gs", n_accesses=N, seed=SEED, telemetry=registry,
            spans=recorder,
        )
        for kind, result in trio.items():
            _assert_same_run(result, _standalone("gs", kind))


class TestDemoteCountsUnderFaults:
    """``demote`` events per execution path under a suite fault plan.
    No fault site sits inside an engine, so ``auto`` stays batched on
    every path — including the two-phase one, which builds its
    front-end and arm systems under the suite's injector."""

    PLAN = "phase2.job:transient@0"

    def _demotes(self, fn, **kw) -> int:
        log = ev.EventLog()
        with ev.installed(log):
            fn(
                benchmarks=BENCHES, n_accesses=N, seed=SEED,
                faults=self.PLAN, **kw,
            )
        return sum(1 for r in log.records if r["kind"] == "demote")

    def test_per_job_suite_parallel(self):
        assert self._demotes(
            run_suite_parallel, kinds=(CoalescerKind.PAC,), max_workers=1,
            pipeline="per-job",
        ) == 0

    def test_run_suite(self):
        assert self._demotes(run_suite) == 0

    @pytest.mark.parametrize("use_cache", [False, True])
    def test_two_phase_serial(self, use_cache):
        assert self._demotes(
            run_suite_parallel, kinds=(CoalescerKind.PAC,), max_workers=1,
            pipeline="two-phase", use_artifact_cache=use_cache,
        ) == 0

    def test_no_plan_no_demotes(self):
        log = ev.EventLog()
        with ev.installed(log):
            run_suite(benchmarks=BENCHES, n_accesses=N, seed=SEED)
            run_suite_parallel(
                kinds=(CoalescerKind.PAC,), benchmarks=BENCHES,
                n_accesses=N, seed=SEED, max_workers=1,
            )
        assert not [r for r in log.records if r["kind"] == "demote"]

"""RunSpec: construction, artifact keys, and what the entry points that
build specs must preserve.

* **Validation** — bad sizes, empty mixes, unknown names, bad scales
  and bad probe settings fail at construction, before any pool work
  starts; spellings
  of one simulation give one spec; a spec hashes and pickles (it is a
  memo key and a pool job's argument).
* **Keys** — ``spec.pass_key()`` is the store's key function applied
  to the spec, so artifact keys stay identical.
* **Fields** — an entry point passes the spec fields it does not set
  itself through unchanged, and rejects one it does set.
* **Probe settings** — ``telemetry`` and ``spans`` are spec fields:
  ``True`` or a positive int, checked where the spec is built. Every
  run gets a fresh registry and recorder at the spec's window and
  sample rate, so each result equals its standalone run — although a
  grid computes each benchmark's cache pass once and folds what it
  observed into every arm.
* **Fault scopes** — the ``demote`` events a fault plan causes, per
  execution path.
"""

from __future__ import annotations

import pickle
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from repro.artifacts import store
from repro.config import TABLE1
from repro.engine.driver import run_benchmark, run_comparison
from repro.engine.parallel import run_suite_parallel
from repro.engine.spec import RunSpec
from repro.engine.system import CoalescerKind, System
from repro.telemetry import SpanRecorder, TelemetryRegistry
from repro.telemetry import events as ev

N = 1500
SEED = 11
BENCHES = ("gs", "bfs")
WINDOW = 256
RATE = 4
ARMS = (CoalescerKind.NONE, CoalescerKind.DMC, CoalescerKind.PAC)
#: One bad value per validated field; a grid's other benchmark is good.
BAD_FIELDS = [
    ("benchmarks", ("gs", "nope")),
    ("device", "dram"),
    ("engine", "fast"),
    ("scale", "Q"),
    ("scale", 0),
    ("scale", -1.5),
    ("scale", float("inf")),
    ("scale", float("nan")),
    ("scale", None),
    ("telemetry", 0),
    ("spans", -3),
]
#: One wrong-typed probe setting per case: TypeError naming the field.
BAD_PROBES = [
    ("spans", 2.5),
    ("spans", "8"),
    ("spans", SpanRecorder()),
    ("telemetry", TelemetryRegistry()),
    ("telemetry", 512.0),
]


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

    @pytest.mark.parametrize("entry", [
        "run_benchmark", "run_comparison", "run_suite_parallel", "System",
    ])
    def test_string_arm_fails_before_anything_runs(self, entry, monkeypatch):
        """A string arm is rejected before any trace is generated."""

        def no_trace(*args, **kwargs):
            raise AssertionError("a string arm reached trace generation")

        monkeypatch.setattr(System, "build_trace", no_trace)
        call = {
            "run_benchmark": lambda: run_benchmark(
                "gs", coalescer="none", n_accesses=N),
            "run_comparison": lambda: run_comparison(
                "gs", kinds=("none",), n_accesses=N),
            "run_suite_parallel": lambda: run_suite_parallel(
                kinds=("none",), benchmarks=("gs",), n_accesses=N,
                max_workers=1),
            "System": lambda: System(TABLE1, "none"),
        }[entry]
        with pytest.raises(TypeError, match="arm|coalescer"):
            call()

    @pytest.mark.parametrize("entry, field, value", [
        (entry, field, value)
        for entry in ("run_benchmark", "run_comparison", "run_suite_parallel")
        for field, value in (
            ("benchmarks", ("bfs",)), ("arm", CoalescerKind.DMC),
        )
        # The grid's benchmarks are its own argument, not a field.
        if (entry, field) != ("run_suite_parallel", "benchmarks")
    ])
    def test_a_field_the_entry_point_sets_fails_before_anything_runs(
        self, entry, field, value, monkeypatch
    ):
        """An entry point sets the benchmarks and the arm from its own
        arguments; the same field passed through ``**fields`` is a
        TypeError naming it, before any trace."""

        def no_trace(*args, **kwargs):
            raise AssertionError(f"{field}= reached trace generation")

        monkeypatch.setattr(System, "build_trace", no_trace)
        kw = {field: value}
        call = {
            "run_benchmark": lambda: run_benchmark("gs", n_accesses=N, **kw),
            "run_comparison": lambda: run_comparison(
                "gs", n_accesses=N, **kw),
            "run_suite_parallel": lambda: run_suite_parallel(
                benchmarks=("gs",), n_accesses=N, max_workers=1, **kw),
        }[entry]
        with pytest.raises(TypeError, match=field):
            call()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_spans_on_sortdmc_fail_before_anything_runs(self, workers):
        """The rule is checked where every grid spec is built: nothing
        is logged as started, at any worker count."""
        log = ev.EventLog()
        with ev.installed(log), pytest.raises(ValueError, match="sortdmc"):
            run_suite_parallel(
                kinds=(CoalescerKind.PAC, CoalescerKind.SORT),
                benchmarks=("gs", "stream"), n_accesses=N, spans=True,
                max_workers=workers,
            )
        kinds = {d["kind"] for d in log.records}
        assert not kinds & {"suite.start", "phase.start", "run.start"}
        with pytest.raises(ValueError, match="sortdmc"):
            RunSpec(("gs",), N, arm=CoalescerKind.SORT, spans=RATE)

    @pytest.mark.parametrize("field, value", BAD_FIELDS)
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunSpec(**{"benchmarks": ("gs",), "n_accesses": N, field: value})

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("field, value", BAD_FIELDS)
    def test_bad_field_fails_before_anything_runs(self, field, value, workers):
        """A grid with one bad field logs nothing and stores nothing —
        not even the passes of its good benchmarks — at any worker
        count."""
        kw = dict(
            kinds=(CoalescerKind.PAC,), benchmarks=("gs",), n_accesses=500,
            max_workers=workers,
        )
        kw[field] = value
        log = ev.EventLog()
        with ev.installed(log), pytest.raises(ValueError, match=field):
            run_suite_parallel(**kw)
        assert log.records == []
        assert list(store.get_store().entries()) == []

    @pytest.mark.parametrize("entry", [
        "run_benchmark", "run_comparison", "run_suite_parallel",
    ])
    @pytest.mark.parametrize("field, value", BAD_PROBES)
    def test_wrong_typed_probe_fails_before_anything_runs(
        self, entry, field, value
    ):
        """A probe setting is a bool or an int: a float, a string or a
        live registry or recorder is a TypeError naming the field, and
        nothing is logged."""
        kw = {"n_accesses": 500, field: value}
        call = {
            "run_benchmark": lambda: run_benchmark("gs", **kw),
            "run_comparison": lambda: run_comparison("gs", **kw),
            "run_suite_parallel": lambda: run_suite_parallel(
                benchmarks=("gs",), max_workers=1, **kw),
        }[entry]
        log = ev.EventLog()
        with ev.installed(log), pytest.raises(TypeError, match=field):
            call()
        assert log.records == []

    @pytest.mark.parametrize("spellings", [
        [dict(scale="A"), dict(scale="a"), dict(scale=1.0), dict(scale=1)],
        [dict(telemetry=True),
         dict(telemetry=TelemetryRegistry.DEFAULT_WINDOW_CYCLES)],
        [dict(spans=True), dict(spans=SpanRecorder.DEFAULT_SAMPLE_RATE),
         dict(spans=np.int64(SpanRecorder.DEFAULT_SAMPLE_RATE))],
        [dict(telemetry=False, spans=None), dict()],
        [dict(benchmarks=("GS",)), dict(benchmarks=("gs",))],
        [dict(benchmarks=("Gs", "BFS")), dict(benchmarks=("gs", "bfs"))],
    ])
    def test_one_simulation_has_one_spec(self, spellings):
        specs = [
            RunSpec(**{"benchmarks": ("gs",), "n_accesses": N, **kw})
            for kw in spellings
        ]
        assert len(set(specs)) == 1
        assert len({spec.pass_key() for spec in specs}) == 1

    def test_views_key_results_by_lowercase_name(self):
        kw = dict(kinds=(CoalescerKind.PAC,), n_accesses=500, seed=SEED)
        assert run_comparison("GS", **kw) == run_comparison("gs", **kw)
        suite = run_suite_parallel(
            kinds=(CoalescerKind.PAC,), benchmarks=("BFS", "gs"),
            n_accesses=500, seed=SEED, max_workers=1,
        )
        assert set(suite) == {("bfs", "pac"), ("gs", "pac")}

    def test_case_variants_repeat_a_grid_axis(self):
        with pytest.raises(ValueError, match="non-empty and distinct"):
            run_suite_parallel(
                benchmarks=("GS", "gs"), n_accesses=500, max_workers=1
            )

    def test_hash_and_pickle_round_trip(self):
        spec = RunSpec(
            ["gs", "bfs"], N, arm=CoalescerKind.DMC, seed=SEED,
            device="hbm", fine_grain=True, scale="B", telemetry=WINDOW,
            spans=RATE,
        )
        assert spec.benchmarks == ("gs", "bfs")
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert {spec: 1}[clone] == 1

    def test_label_and_probe_settings(self):
        spec = RunSpec(("gs", "bfs"), N)
        assert spec.label == "gs+bfs"
        assert (spec.telemetry, spec.spans) == (None, None)
        on = RunSpec(("gs",), N, telemetry=True, spans=True)
        assert (on.telemetry, on.spans) == (
            TelemetryRegistry.DEFAULT_WINDOW_CYCLES,
            SpanRecorder.DEFAULT_SAMPLE_RATE,
        )
        given = RunSpec(("gs",), N, telemetry=WINDOW, spans=RATE)
        assert (given.telemetry, given.spans) == (WINDOW, RATE)


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
        assert spec.pass_key() == store.pass_key(
            *args, fine_grain=spec.fine_grain, **common
        )

    def test_keys_ignore_arm_engine_and_probes(self):
        spec = RunSpec(("gs",), N, seed=SEED)
        other = replace(
            spec.for_arm(CoalescerKind.NONE), engine="reference",
            telemetry=WINDOW, spans=RATE,
        )
        assert other.pass_key() == spec.pass_key()
        assert replace(spec, fine_grain=True).pass_key() != spec.pass_key()


def _standalone(bench: str, kind: CoalescerKind = CoalescerKind.PAC, **kw):
    return run_benchmark(
        bench, coalescer=kind, n_accesses=N, seed=SEED, telemetry=WINDOW,
        spans=RATE, **kw,
    )


def _assert_same_run(result, ref):
    assert result == ref
    assert result.telemetry.window_cycles == WINDOW
    assert result.telemetry.to_json() == ref.telemetry.to_json()
    assert result.spans.sample_rate == RATE
    assert result.spans == ref.spans


class TestProbeSettings:
    def test_run_benchmark_takes_the_settings(self):
        result = run_benchmark(
            "gs", n_accesses=N, seed=SEED, telemetry=WINDOW, spans=RATE,
        )
        assert result.telemetry.window_cycles == WINDOW
        assert result.telemetry.probe_names()
        assert result.spans.sample_rate == RATE
        assert len(result.spans) > 0

    def test_a_five_cycle_window(self):
        result = run_benchmark("gs", n_accesses=500, seed=SEED, telemetry=5)
        assert result.telemetry.window_cycles == 5
        assert result.telemetry.probe_names()
        assert result.spans is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_run_suite_parallel(self, workers):
        out = run_suite_parallel(
            kinds=(CoalescerKind.PAC,), benchmarks=BENCHES, n_accesses=N,
            seed=SEED, max_workers=workers, telemetry=WINDOW, spans=RATE,
        )
        for bench in BENCHES:
            _assert_same_run(out[(bench, "pac")], _standalone(bench))

    def test_run_comparison_arms_keep_the_settings(self):
        trio = run_comparison(
            "gs", n_accesses=N, seed=SEED, telemetry=WINDOW, spans=RATE,
        )
        for kind, result in trio.items():
            _assert_same_run(result, _standalone("gs", kind))

    # Every arm of a probe grid equals its standalone run: the shared
    # cache pass folds into each arm the probes and span origins the
    # arm's own pass would have recorded.

    @pytest.fixture(scope="class")
    def standalone(self):
        return {
            (bench, kind.value): _standalone(bench, kind)
            for bench in ("gs", "stream", "bfs") for kind in ARMS
        }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("store", ["cold", "warm", "off"])
    def test_every_arm_and_benchmark(self, standalone, workers, store):
        kw = dict(
            kinds=ARMS, benchmarks=("gs", "stream", "bfs"), n_accesses=N,
            seed=SEED, max_workers=workers,
            use_artifact_cache=store != "off",
        )
        if store == "warm":
            run_suite_parallel(**kw)  # the same grid's passes, stored
        out = run_suite_parallel(telemetry=WINDOW, spans=RATE, **kw)
        assert sorted(out) == sorted(standalone)
        for cell, result in out.items():
            _assert_same_run(result, standalone[cell])

    @pytest.mark.parametrize("device", ["hmc", "hbm", "ddr"])
    @pytest.mark.parametrize("engine", ["auto", "reference"])
    def test_devices_and_engines(self, device, engine):
        trio = run_comparison(
            "gs", n_accesses=N, seed=SEED, device=device, engine=engine,
            telemetry=WINDOW, spans=RATE,
        )
        for kind, result in trio.items():
            _assert_same_run(
                result, _standalone("gs", kind, device=device, engine=engine)
            )

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("mode", [
        {"fine_grain": True}, {"extra_benchmarks": ("bfs",)},
    ], ids=["fine-grain", "co-run"])
    def test_fine_grain_and_co_run(self, mode, workers):
        out = run_suite_parallel(
            kinds=ARMS, benchmarks=("gs", "stream"), n_accesses=N,
            seed=SEED, max_workers=workers, telemetry=WINDOW, spans=RATE,
            **mode,
        )
        for (bench, arm), result in out.items():
            _assert_same_run(
                result, _standalone(bench, CoalescerKind(arm), **mode)
            )

    def test_run_arm_refuses_a_pass_without_the_probes(self):
        """A stored pass holds no probe events: folding it into a probe
        arm would silently drop the cache probes, so it raises."""
        from repro.artifacts import compute_trace_pass
        from repro.engine.driver import run_arm

        spec = RunSpec(("gs",), N, seed=SEED, spans=RATE)
        with pytest.raises(ValueError, match="probes"):
            run_arm(spec, compute_trace_pass(replace(spec, spans=None)))
        with pytest.raises(ValueError, match="probes"):
            run_arm(spec, compute_trace_pass(replace(spec, spans=8)))
        assert run_arm(spec, compute_trace_pass(spec)) == run_benchmark(
            "gs", n_accesses=N, seed=SEED, spans=RATE,
        )


class TestDemoteCountsUnderFaults:
    """``demote`` events under a suite fault plan. No fault site sits
    inside an engine, so ``auto`` stays batched on every grid — plain
    or probed, cached or not — although it builds its front-end and arm
    systems under the suite's injector."""

    PLAN = "phase2.job:transient@0"

    def _kinds(self, fn, **kw) -> Counter:
        log = ev.EventLog()
        with ev.installed(log):
            fn(benchmarks=BENCHES, n_accesses=N, seed=SEED, **kw)
        return Counter(r["kind"] for r in log.records)

    def _demotes(self, fn, **kw) -> int:
        return self._kinds(fn, faults=self.PLAN, **kw)["demote"]

    def test_probe_suite_parallel(self):
        assert self._demotes(
            run_suite_parallel, kinds=(CoalescerKind.PAC,), max_workers=1,
            telemetry=True, spans=True,
        ) == 0

    def test_run_suite(self, monkeypatch):
        """Without ``faults=`` the plan reaches a one-arm grid through
        ``$REPRO_FAULTS``, and fires there."""
        monkeypatch.setenv("REPRO_FAULTS", self.PLAN)
        kinds = self._kinds(
            run_suite_parallel, kinds=(CoalescerKind.PAC,), max_workers=1
        )
        assert kinds["job.retry"] == 1
        assert kinds["demote"] == 0

    @pytest.mark.parametrize("use_cache", [False, True])
    def test_two_phase_serial(self, use_cache):
        assert self._demotes(
            run_suite_parallel, kinds=(CoalescerKind.PAC,), max_workers=1,
            use_artifact_cache=use_cache,
        ) == 0

    def test_no_plan_no_demotes(self):
        log = ev.EventLog()
        with ev.installed(log):
            run_comparison("gs", n_accesses=N, seed=SEED)
            run_suite_parallel(
                kinds=(CoalescerKind.PAC,), benchmarks=BENCHES,
                n_accesses=N, seed=SEED, max_workers=1,
            )
        assert not [r for r in log.records if r["kind"] == "demote"]

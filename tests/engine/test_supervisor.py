"""PoolSupervisor unit tests against hostile module-level workers."""

from __future__ import annotations

import os
import time
from fractions import Fraction

import numpy as np
import pytest

from repro.engine.health import RunHealth
from repro.engine import supervisor as supervisor_mod
from repro.engine.driver import run_comparison
from repro.engine.parallel import run_suite_parallel
from repro.engine.supervisor import (
    PoolSupervisor,
    SuiteExecutionError,
    SupervisedJob,
    resolve_supervision,
)
from repro.engine.system import CoalescerKind, System


# Worker functions must be module-level (picklable). Each takes the
# args tuple the supervisor built for it.

def _echo(args):
    return ("ok",) + args


def _crash(args):
    os._exit(17)


def _hang(args):
    time.sleep(60)
    return "never"


def _raise_value_error(args):
    raise ValueError("deterministic logic bug")


def _flaky(args):
    """Fails with OSError until its marker file has `succeed_after`
    lines; cross-process state so retries (fresh workers) see it."""
    path, succeed_after = args
    with open(path, "a") as fh:
        fh.write("attempt\n")
    with open(path) as fh:
        attempts = len(fh.readlines())
    if attempts <= succeed_after:
        raise OSError(f"flaky failure #{attempts}")
    return attempts


def _job(key, fn_args, label=None):
    return SupervisedJob(
        key=key, label=label or str(key), build_args=lambda: fn_args
    )


@pytest.fixture(autouse=True)
def _fast_backoff(monkeypatch):
    monkeypatch.setattr(supervisor_mod, "BACKOFF_BASE", 0.01)


def _supervisor(health, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("job_timeout", 5.0)
    kw.setdefault("max_retries", 2)
    return PoolSupervisor(health=health, **kw)


class TestHappyPath:
    def test_runs_all_jobs(self):
        health = RunHealth(jobs=3)
        sup = _supervisor(health)
        try:
            out = sup.run(_echo, [_job(i, (i,)) for i in range(3)])
        finally:
            sup.shutdown()
        assert out == {i: ("ok", i) for i in range(3)}
        assert health.events == 0
        assert health.failures == []


class TestRetries:
    def test_transient_failure_retried_to_success(self, tmp_path):
        marker = tmp_path / "flaky"
        health = RunHealth(jobs=1)
        sup = _supervisor(health)
        try:
            out = sup.run(_flaky, [_job("f", (str(marker), 2))])
        finally:
            sup.shutdown()
        assert out == {"f": 3}
        assert health.retries == 2
        # Deterministic backoff: base * (2**0 + 2**1), no jitter.
        assert health.backoff_seconds == pytest.approx(0.01 * 3)
        assert len(health.failures) == 2

    def test_exhaustion_without_fallback_raises(self, tmp_path):
        marker = tmp_path / "flaky"
        health = RunHealth(jobs=1)
        sup = _supervisor(health)
        try:
            with pytest.raises(SuiteExecutionError, match="terminally"):
                sup.run(_flaky, [_job("f", (str(marker), 99))])
        finally:
            sup.shutdown()
        assert health.retries == 2  # max_retries, then terminal

    def test_exhaustion_with_fallback_degrades(self, tmp_path):
        marker = tmp_path / "flaky"
        health = RunHealth(jobs=1)
        sup = _supervisor(health)
        try:
            out = sup.run(
                _flaky,
                [_job("f", (str(marker), 99), label="flaky-job")],
                fallback=lambda job: "degraded-result",
                fallback_label="serial",
            )
        finally:
            sup.shutdown()
        assert out == {"f": "degraded-result"}
        assert health.degradations == ["serial:flaky-job"]

    def test_non_retryable_error_skips_retries(self):
        health = RunHealth(jobs=1)
        sup = _supervisor(health)
        try:
            out = sup.run(
                _raise_value_error,
                [_job("v", (), label="logic")],
                fallback=lambda job: "fallback",
            )
        finally:
            sup.shutdown()
        assert out == {"v": "fallback"}
        assert health.retries == 0
        assert health.failures == ["logic:ValueError"]

    def test_non_retryable_without_fallback_is_terminal(self):
        health = RunHealth(jobs=1)
        sup = _supervisor(health)
        try:
            with pytest.raises(SuiteExecutionError):
                sup.run(_raise_value_error, [_job("v", ())])
        finally:
            sup.shutdown()


class TestCrashRecovery:
    def test_crashed_worker_is_replaced(self):
        health = RunHealth(jobs=1)
        sup = _supervisor(health, max_retries=1)
        try:
            out = sup.run(
                _crash,
                [_job("c", (), label="crasher")],
                fallback=lambda job: "survived",
            )
        finally:
            sup.shutdown()
        assert out == {"c": "survived"}
        assert health.pool_rebuilds >= 1
        assert any("BrokenProcessPool" in f for f in health.failures)

    def test_innocent_jobs_complete_despite_crash(self):
        out, _ = _run_crasher_beside_innocents()
        assert out["c"] == "survived"
        for i in range(3):
            assert out[i] == ("ok", i)

    def test_crash_is_never_charged_to_innocent_jobs(self):
        """A crash is charged only to a job that ran alone. A dead
        worker's job is unknowable (the executor marks queued calls
        running), so charging every job seen running would let an
        innocent one exhaust its retries beside a retrying crasher and
        land on the fallback — about one run in six of this scenario."""
        for _ in range(50):
            out, health = _run_crasher_beside_innocents()
            assert out == {"c": "survived", **{i: ("ok", i) for i in range(3)}}
            assert health.degradations == ["serial:crasher"]


def _run_crasher_beside_innocents():
    health = RunHealth(jobs=4)
    sup = _supervisor(health, max_retries=1)
    jobs = [_job("c", (), label="crasher")] + [_job(i, (i,)) for i in range(3)]
    try:
        out = sup.run(_crash_or_echo, jobs, fallback=lambda job: "survived")
    finally:
        sup.shutdown()
    return out, health


def _crash_or_echo(args):
    if not args:
        os._exit(17)
    return ("ok",) + args


class TestTimeouts:
    def test_hung_worker_is_killed_and_replaced(self):
        health = RunHealth(jobs=1)
        sup = _supervisor(health, job_timeout=0.5, max_retries=1)
        try:
            out = sup.run(
                _hang,
                [_job("h", (), label="hung")],
                fallback=lambda job: "recovered",
            )
        finally:
            sup.shutdown()
        assert out == {"h": "recovered"}
        assert health.timeouts >= 1
        assert health.pool_rebuilds >= 1
        assert any("TimeoutError" in f for f in health.failures)


class TestSerialRetries:
    """One worker: the same loop runs every job in the parent, and no
    test here may build a pool."""

    @pytest.fixture(autouse=True)
    def _no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-worker supervisor built a pool")

        monkeypatch.setattr(supervisor_mod, "ProcessPoolExecutor", no_pool)

    def test_serial_retries_to_success(self, tmp_path, monkeypatch):
        monkeypatch.setattr(supervisor_mod, "BACKOFF_BASE", 0.001)
        marker = tmp_path / "flaky"
        health = RunHealth(jobs=1)
        sup = _supervisor(health, workers=1)
        out = sup.run(_flaky, [_job("f", (str(marker), 1))])
        assert out == {"f": 2}
        assert health.retries == 1

    def test_serial_exhaustion_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(supervisor_mod, "BACKOFF_BASE", 0.001)
        marker = tmp_path / "flaky"
        health = RunHealth(jobs=1)
        sup = _supervisor(health, workers=1, max_retries=1)
        with pytest.raises(SuiteExecutionError):
            sup.run(_flaky, [_job("f", (str(marker), 99))])

    @pytest.mark.parametrize("site, fires", [
        ("phase2.job", True), ("phase1.job", False), (None, False),
    ])
    def test_plan_fires_at_the_batch_site_by_ordinal(self, site, fires):
        """The supervisor scopes its plan to each call: job ``i`` of a
        batch carries ordinal ``i``, and only the batch's site fires."""
        health = RunHealth(jobs=3)
        sup = _supervisor(health, workers=1, plan="phase2.job:transient@1")
        out = sup.run(_echo, [_job(i, (i,)) for i in range(3)], site=site)
        assert out == {i: ("ok", i) for i in range(3)}
        assert health.failures == (["1:OSError"] if fires else [])
        assert health.retries == int(fires)

    def test_one_worker_builds_no_pool(self):
        health = RunHealth(jobs=3)
        sup = _supervisor(health, workers=1)
        out = sup.run(_echo, [_job(i, (i,)) for i in range(3)])
        sup.shutdown()
        assert out == {i: ("ok", i) for i in range(3)}
        assert health.events == 0

    def test_serial_exhaustion_with_fallback_degrades(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(supervisor_mod, "BACKOFF_BASE", 0.001)
        marker = tmp_path / "flaky"
        health = RunHealth(jobs=1)
        sup = _supervisor(health, workers=1)
        out = sup.run(
            _flaky,
            [_job("f", (str(marker), 99), label="flaky-job")],
            fallback=lambda job: "degraded-result",
        )
        assert out == {"f": "degraded-result"}
        assert health.retries == 2
        assert health.failures == ["flaky-job:OSError"] * 3
        assert health.degradations == ["serial:flaky-job"]

    def test_serial_logic_error_propagates(self):
        called = []
        health = RunHealth(jobs=1)
        sup = _supervisor(health, workers=1)
        with pytest.raises(ValueError, match="deterministic logic bug"):
            sup.run(
                _raise_value_error,
                [_job("v", (), label="logic")],
                fallback=called.append,
            )
        assert called == []
        assert health.retries == 0 and health.degradations == []


class TestSettings:
    """Bad supervision settings fail loudly, naming their source."""

    @pytest.mark.parametrize("env,text", [
        ("REPRO_JOB_TIMEOUT", "soon"), ("REPRO_JOB_TIMEOUT", "0"),
        ("REPRO_MAX_RETRIES", "three"), ("REPRO_MAX_RETRIES", "2.5"),
        ("REPRO_MAX_RETRIES", "-1"),
    ])
    def test_bad_variable(self, monkeypatch, env, text):
        monkeypatch.setenv(env, text)
        with pytest.raises(ValueError, match=rf"\${env}"):
            resolve_supervision()

    @pytest.mark.parametrize("kw", [
        dict(job_timeout=0), dict(job_timeout=-1.0),
        dict(max_retries=-2),
    ])
    def test_bad_argument(self, monkeypatch, kw):
        # An argument wins over a valid variable, and is what is named.
        monkeypatch.setenv("REPRO_JOB_TIMEOUT", "9")
        (name,) = kw
        with pytest.raises(ValueError, match=rf"^{name} must be"):
            resolve_supervision(**kw)

    @pytest.mark.parametrize("kw", [
        dict(max_retries=2.5), dict(max_retries=True), dict(max_retries="2"),
        dict(job_timeout=True), dict(job_timeout="30"),
    ])
    def test_argument_of_wrong_type(self, kw):
        """An argument is never coerced: ``max_retries=2.5`` would run 2
        retries and ``job_timeout=True`` a 1 s timeout."""
        (name,) = kw
        with pytest.raises(TypeError, match=rf"^{name} must be"):
            resolve_supervision(**kw)

    @pytest.mark.parametrize("kw, want", [
        (dict(max_retries=np.int64(3)), (300.0, 3)),
        (dict(job_timeout=Fraction(1, 4)), (0.25, 3)),
    ])
    def test_integral_and_real_arguments_are_accepted(
        self, monkeypatch, kw, want
    ):
        for env in ("REPRO_JOB_TIMEOUT", "REPRO_MAX_RETRIES"):
            monkeypatch.delenv(env, raising=False)
        assert resolve_supervision(**kw) == want

    def test_grid_runs_resolve_settings_before_running(self, monkeypatch):
        def no_trace(*args, **kwargs):
            raise AssertionError("ran with bad supervision settings")

        monkeypatch.setattr(System, "build_trace", no_trace)
        monkeypatch.setenv("REPRO_MAX_RETRIES", "three")
        with pytest.raises(ValueError, match="REPRO_MAX_RETRIES"):
            run_comparison("gs", n_accesses=500)
        monkeypatch.delenv("REPRO_MAX_RETRIES")
        with pytest.raises(ValueError, match="job_timeout"):
            run_suite_parallel(
                kinds=(CoalescerKind.PAC, CoalescerKind.NONE),
                benchmarks=("gs", "stream"), n_accesses=500,
                max_workers=2, job_timeout=0,
            )

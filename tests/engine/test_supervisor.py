"""PoolSupervisor unit tests against hostile module-level workers."""

from __future__ import annotations

import os
import time

import pytest

from repro.engine.health import RunHealth
from repro.engine.supervisor import (
    PoolSupervisor,
    SuiteExecutionError,
    SupervisedJob,
    run_serial_with_retries,
)


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
        key=key, label=label or str(key), build_args=lambda attempt: fn_args
    )


def _supervisor(health, **kw):
    kw.setdefault("workers", 2)
    kw.setdefault("job_timeout", 5.0)
    kw.setdefault("max_retries", 2)
    kw.setdefault("backoff_base", 0.01)
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
    def test_serial_retries_to_success(self, tmp_path):
        marker = tmp_path / "flaky"
        health = RunHealth(jobs=1)
        out = run_serial_with_retries(
            _flaky,
            [_job("f", (str(marker), 1))],
            health,
            max_retries=2,
            backoff_base=0.001,
        )
        assert out == {"f": 2}
        assert health.retries == 1

    def test_serial_exhaustion_raises(self, tmp_path):
        marker = tmp_path / "flaky"
        health = RunHealth(jobs=1)
        with pytest.raises(SuiteExecutionError):
            run_serial_with_retries(
                _flaky,
                [_job("f", (str(marker), 99))],
                health,
                max_retries=1,
                backoff_base=0.001,
            )

"""Host-speed gauge: rescales timed walls to a reference host speed.

Shared hosts drift in speed by tens of percent within minutes, on each
core separately, and the drift shows in CPU time as much as in wall
time. :func:`host_probe` times a fixed mix of interpreter and NumPy work
that never touches the repository. :class:`Clock` probes the host
before and after every timed call; a wall times ``PROBE_REF_S`` over the
mean of its two probes is the wall at the reference speed. A change to
the simulator moves the timed call and not the probes, so it moves the
rescaled wall in full. One noisy probe skews the two samples beside it;
the median over many samples (:func:`median_scaled`) bounds its effect.

Run as a script, this module is the helper process that probes a second
core: it answers each line on standard input with one probe time.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional

import numpy as np

#: Seconds :func:`host_probe` takes on a 2-core x86-64 VM when no
#: neighbour slows it down.
PROBE_REF_S = 0.15


class _Item:
    __slots__ = ("addr", "size", "cycle", "tag")

    def __init__(self, addr: int, size: int, cycle: int) -> None:
        self.addr, self.size, self.cycle = addr, size, cycle
        self.tag = addr >> 12

    def end(self) -> int:
        return self.addr + self.size


def host_probe() -> float:
    """Seconds for the fixed probe work on the calling core. Its arrays
    stay small so that it never sets a process's peak RSS."""
    t0 = time.perf_counter()
    counts: Dict[int, int] = {}
    for i in range(150_000):
        counts[i & 1023] = counts.get(i & 511, 0) + i
    heap: list = []
    tags: Dict[int, int] = {}
    for i in range(40_000):
        item = _Item((i * 2654435761) & 0xFFFFFF, 64, i)
        heapq.heappush(heap, (item.end(), i))
        tags[item.tag] = tags.get(item.tag, 0) + 1
        if len(heap) > 64:
            heapq.heappop(heap)
    a = np.random.default_rng(0).integers(0, 1 << 30, 50_000)
    for _ in range(24):
        b = np.sort(a >> 6)
        np.unique(b & 0xFFF)
        np.cumsum(b % 7)
    return time.perf_counter() - t0


class HostGauge:
    """Probes the cores a timed call will use: this process's core, and
    with ``cores=2`` also a second one through a helper process running
    the probe at the same time. Use as a context manager; the helper is
    stopped on exit."""

    def __init__(self, cores: int = 1) -> None:
        if cores not in (1, 2):
            raise ValueError(f"cores must be 1 or 2, got {cores}")
        self.cores = cores
        self._helper = None

    def __enter__(self) -> "HostGauge":
        if self.cores == 2:
            self._helper = subprocess.Popen(
                [sys.executable, __file__], stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, text=True,
            )
        return self

    def __exit__(self, *exc) -> None:
        helper, self._helper = self._helper, None
        if helper is None:
            return
        try:
            helper.stdin.close()
            helper.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            helper.kill()
            helper.wait()
        finally:
            helper.stdout.close()

    def probe(self) -> float:
        """Mean probe seconds over the cores."""
        if self._helper is None:
            return host_probe()
        self._helper.stdin.write("\n")
        self._helper.stdin.flush()
        mine = host_probe()
        theirs = float(self._helper.stdout.readline())
        return (mine + theirs) / 2


@dataclass(frozen=True)
class Sample:
    """One timed call and the host probes on either side of it."""

    wall: float
    before: float
    after: float

    @property
    def scaled(self) -> float:
        """The wall at the reference host speed."""
        return self.wall * PROBE_REF_S * 2 / (self.before + self.after)


def median_scaled(samples: Iterable[Sample]) -> float:
    return statistics.median(s.scaled for s in samples)


class Clock:
    """Times calls between host probes. The probe after one call is the
    probe before the next, so a series of calls costs one probe each."""

    def __init__(self, gauge: HostGauge) -> None:
        self.gauge = gauge
        self._last: Optional[float] = None

    def time(self, fn, *args, **kwargs):
        """``(fn(*args, **kwargs), Sample)``; garbage is collected
        before the call so that one call's garbage is not timed in the
        next."""
        gc.collect()
        before = self._last if self._last is not None else self.gauge.probe()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        self._last = self.gauge.probe()
        return out, Sample(wall, before, self._last)


if __name__ == "__main__":
    for _ in sys.stdin:
        print(host_probe(), flush=True)

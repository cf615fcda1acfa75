"""What to simulate, as one value: :class:`RunSpec`.

The paper's evaluation is a grid — benchmarks × coalescer arms, on
HMC/HBM/DDR, in fine-grain and co-run modes. A :class:`RunSpec` is one
cell of it. The public entry points (:mod:`repro.engine.driver`,
:mod:`repro.engine.parallel`) build specs from their keyword arguments
once; everything below them — pool jobs, the artifact pipeline, the
figure memo — takes a spec, and the artifact keys derive from it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.artifacts import store
from repro.config import SimulationConfig, TABLE1
from repro.core.protocols import MemoryProtocol
from repro.engine.system import (
    DEVICES,
    ENGINES,
    CoalescerKind,
    System,
    check_choice,
    refuse_spans,
)
from repro.telemetry import SpanRecorder, TelemetryRegistry
from repro.workloads.base import size_factor, workload_key


@dataclass(frozen=True)
class RunSpec:
    """One run's inputs: frozen, hashable and picklable.

    ``benchmarks`` lists the primary benchmark first, then its
    co-runners (the paper's multiprocessing mode). ``seed`` resolves to
    ``config.seed`` at construction, so every process that receives the
    spec derives the same per-benchmark seeds. Probes are carried as
    settings — ``telemetry_window`` (cycles) and ``span_rate`` (one
    raw request in N), ``None`` for off — never as live objects: every
    :meth:`system` built from a spec gets a fresh registry and recorder.
    Spans on the sortdmc arm fail here, so a grid rejects them before
    anything runs; so do an unknown benchmark, device or engine, and a
    scale that is neither a positive number nor a size class letter
    (:class:`ValueError` naming the field). ``scale`` may be given as
    either and is stored as its factor.
    """

    benchmarks: Tuple[str, ...]
    n_accesses: int
    arm: CoalescerKind = CoalescerKind.PAC
    config: SimulationConfig = TABLE1
    seed: Optional[int] = None
    device: str = "hmc"
    protocol: Optional[MemoryProtocol] = None
    fine_grain: bool = False
    scale: float = 1.0
    engine: str = "auto"
    telemetry_window: Optional[int] = None
    span_rate: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "benchmarks", tuple(self.benchmarks))
        if not self.benchmarks:
            raise ValueError("a run needs at least one benchmark")
        # One simulation, one spec: names lowercase and a scale becomes
        # its factor, so "GS" and "gs", or "A", "a" and 1.0, compare and
        # hash equal and share one pass_key().
        try:
            benchmarks = tuple(map(workload_key, self.benchmarks))
        except KeyError as err:
            raise ValueError(f"benchmarks: {err.args[0]}") from None
        try:
            scale = size_factor(self.scale)
        except KeyError as err:
            raise ValueError(f"scale: {err.args[0]}") from None
        object.__setattr__(self, "benchmarks", benchmarks)
        object.__setattr__(self, "scale", scale)
        check_choice("device", self.device, DEVICES)
        check_choice("engine", self.engine, ENGINES)
        if not isinstance(self.arm, CoalescerKind):
            raise TypeError(
                f"arm must be a CoalescerKind, got "
                f"{type(self.arm).__name__} {self.arm!r}"
            )
        if self.span_rate is not None:
            refuse_spans(self.arm)
        if self.seed is None:
            object.__setattr__(self, "seed", self.config.seed)
        # Integers only, normalised to int: a float or str would run
        # (truncated or parsed) under a spec that neither compares nor
        # hashes equal to the int one, splitting memo and artifact keys.
        for name in ("n_accesses", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(
                value, numbers.Integral
            ):
                raise TypeError(
                    f"{name} must be an integer, got "
                    f"{type(value).__name__} {value!r}"
                )
            object.__setattr__(self, name, int(value))
        if self.n_accesses <= 0:
            raise ValueError(
                f"n_accesses must be positive, got {self.n_accesses}"
            )

    @staticmethod
    def probe_settings(telemetry, spans) -> dict:
        """Spec fields for the entry points' probe arguments.

        ``telemetry`` is a bool or a :class:`TelemetryRegistry` (its
        window is kept); ``spans`` is a bool, an int sample rate or a
        :class:`SpanRecorder` (its rate is kept). A falsy value is off.
        """
        if not telemetry:
            window = None
        elif telemetry is True:
            window = TelemetryRegistry.DEFAULT_WINDOW_CYCLES
        else:
            window = telemetry.window_cycles
        if not spans:
            rate = None
        elif spans is True:
            rate = SpanRecorder.DEFAULT_SAMPLE_RATE
        elif isinstance(spans, int):
            rate = spans
        else:
            rate = spans.sample_rate
        return {"telemetry_window": window, "span_rate": rate}

    @property
    def label(self) -> str:
        """Result label: the benchmark mix, ``"gs+bfs"`` for co-runs."""
        return "+".join(self.benchmarks)

    def for_arm(self, arm: CoalescerKind) -> "RunSpec":
        """This spec on ``arm``. The engine carries over unchanged:
        every arm runs on either engine (NONE, DMC and SORT keep their
        one coalescer between the engine's front-end and device)."""
        return replace(self, arm=arm)

    def system(self, telemetry=None, spans=None) -> System:
        """A fresh :class:`System` for this spec. ``telemetry``/``spans``
        hand in a live registry/recorder to fill instead of the fresh
        ones the probe settings call for."""
        if telemetry is None and self.telemetry_window is not None:
            telemetry = TelemetryRegistry(window_cycles=self.telemetry_window)
        if spans is None:
            spans = self.span_rate
        return System(
            config=self.config,
            coalescer=self.arm,
            protocol=self.protocol,
            device=self.device,
            fine_grain=self.fine_grain,
            telemetry=telemetry,
            spans=spans,
            engine=self.engine,
        )

    def pass_key(self) -> str:
        """Artifact key of this spec's cache-pass raw stream."""
        return store.pass_key(
            self.benchmarks[0], self.n_accesses, self.seed, self.config,
            device=self.device, scale=self.scale,
            extra_benchmarks=self.benchmarks[1:], fine_grain=self.fine_grain,
        )

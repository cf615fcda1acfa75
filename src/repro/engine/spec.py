"""What to simulate, as one value: :class:`RunSpec`.

The paper's evaluation is a grid — benchmarks × coalescer arms, on
HMC/HBM/DDR, in fine-grain and co-run modes. A :class:`RunSpec` is one
cell of it. The public entry points (:mod:`repro.engine.driver`,
:mod:`repro.engine.parallel`) set the benchmarks and the arm from their
own arguments and pass every other field through unchanged
(:meth:`RunSpec.entry`); everything below them — pool jobs,
the artifact pipeline, the figure memo — takes a spec, and the artifact
keys derive from it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.artifacts import store
from repro.config import SimulationConfig, TABLE1
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

#: The fields an entry point sets from its own arguments: the benchmark
#: names and the coalescer kind(s).
ENTRY_SET = ("benchmarks", "arm")


def _probe_setting(name: str, value, default: int) -> Optional[int]:
    """``telemetry``'s window or ``spans``' sample rate: ``None`` or
    ``False`` is off, ``True`` the default, a positive int as given."""
    if value is None or value is False:
        return None
    if value is True:
        return default
    if not isinstance(value, numbers.Integral):
        raise TypeError(
            f"{name} must be a bool, a positive int or None, got "
            f"{type(value).__name__} {value!r}"
        )
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return int(value)


@dataclass(frozen=True)
class RunSpec:
    """One run's inputs: frozen, hashable and picklable. The entry
    points take these fields as ``**fields`` and document them here
    only.

    * ``benchmarks`` — the primary benchmark first, then its
      co-runners (the paper's multiprocessing mode, Figure 6b).
    * ``n_accesses`` — CPU accesses of the whole mix, a positive int.
    * ``arm`` — the :class:`CoalescerKind` between caches and memory.
    * ``config`` — the :class:`~repro.config.SimulationConfig`
      (Table 1 by default).
    * ``seed`` — the run seed. ``None`` resolves to ``config.seed``
      here, so every process that receives the spec derives the same
      per-benchmark seeds.
    * ``device`` — ``"hmc"``, ``"hbm"`` or the conventional ``"ddr"``
      foil. The packet protocol follows from it
      (:func:`~repro.engine.system.device_protocol`).
    * ``fine_grain`` — the Figure 10b data-size coalescing mode: demand
      accesses travel at their CPU data size, the prefetcher is off.
    * ``scale`` — the NAS-style size class, a positive finite factor or
      a letter (``"A"`` is 1.0); stored as its factor.
    * ``engine`` — an oracle hook. ``"auto"`` runs the production
      path: the batched front-end, PAC kernel and HMC/HBM device twins,
      with probes, spans or a fault plan too. ``"reference"`` runs the
      scalar classes they are bit-identical to. NONE, DMC and SORT run
      their one coalescer, and DDR its one device class, on either.
    * ``telemetry`` — windowed probes onto ``result.telemetry``, at
      this many cycles per window; ``True`` is
      :attr:`TelemetryRegistry.DEFAULT_WINDOW_CYCLES`.
    * ``spans`` — per-request lifecycle spans onto ``result.spans``,
      sampling one raw request in this many; ``True`` is
      :attr:`SpanRecorder.DEFAULT_SAMPLE_RATE`.

    ``telemetry`` and ``spans`` are off at ``None`` or ``False`` and are
    stored as the int they resolve to. They are settings, never live
    objects: every :meth:`system` built from a spec gets a fresh
    registry and recorder. Spans on the sortdmc arm (it records none)
    fail here, so a grid rejects them before anything runs; so do an
    unknown benchmark, device or engine, a bad scale and a non-positive
    probe setting (:class:`ValueError` naming the field), and a probe
    setting that is neither a bool nor an int (:class:`TypeError`).
    Names lowercase, a scale becomes its factor and ``True`` its
    default, so every spelling of one simulation gives one spec.
    """

    benchmarks: Tuple[str, ...]
    n_accesses: int
    arm: CoalescerKind = CoalescerKind.PAC
    config: SimulationConfig = TABLE1
    seed: Optional[int] = None
    device: str = "hmc"
    fine_grain: bool = False
    scale: float = 1.0
    engine: str = "auto"
    telemetry: Optional[int] = None
    spans: Optional[int] = None

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
        for name, default in (
            ("telemetry", TelemetryRegistry.DEFAULT_WINDOW_CYCLES),
            ("spans", SpanRecorder.DEFAULT_SAMPLE_RATE),
        ):
            object.__setattr__(
                self, name, _probe_setting(name, getattr(self, name), default)
            )
        if self.spans is not None:
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

    @classmethod
    def entry(
        cls, benchmarks, n_accesses, fields: dict,
        arm: CoalescerKind = CoalescerKind.PAC,
    ) -> "RunSpec":
        """The spec an entry point builds: ``benchmarks`` and ``arm``
        from its own arguments, every other field from its ``**fields``
        unchanged. A field in ``fields`` that the entry point sets
        itself raises :class:`TypeError` naming it.
        """
        own = [name for name in ENTRY_SET if name in fields]
        if own:
            raise TypeError(
                f"{', '.join(own)}: set from the entry point's own "
                "arguments, not as a field"
            )
        return cls(benchmarks, n_accesses, arm=arm, **fields)

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
        """A fresh :class:`System` for this spec, with a fresh registry
        and recorder where the probe settings call for them.
        :func:`~repro.engine.driver.run_arm` hands in ``telemetry`` and
        ``spans`` instead: copies of what the shared cache pass
        observed, for the arm to fill."""
        if telemetry is None and self.telemetry is not None:
            telemetry = TelemetryRegistry(window_cycles=self.telemetry)
        if spans is None and self.spans is not None:
            spans = SpanRecorder(sample_rate=self.spans, seed=self.config.seed)
        return System(
            config=self.config,
            coalescer=self.arm,
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

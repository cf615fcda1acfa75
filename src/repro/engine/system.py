"""System wiring: workload -> page table -> caches -> coalescer -> HMC.

:class:`System` assembles one simulated machine per the paper's Figure 3
and runs a workload through it. The coalescer slot takes one of four
configurations — the paper's three evaluation arms plus the prior-art
sorting-network design:

* ``CoalescerKind.NONE`` — standard HMC controller, no aggregation;
* ``CoalescerKind.DMC``  — conventional MSHR-based coalescing;
* ``CoalescerKind.PAC``  — the paged adaptive coalescer;
* ``CoalescerKind.SORT`` — the request-sorting coalescer of Wang et
  al. [32] (the Figure 11a comparison, run live).

Devices: ``"hmc"`` (default), ``"hbm"``, and the conventional ``"ddr"``
foil.
"""

from __future__ import annotations

import enum
from typing import Optional, Sequence

import numpy as np

from repro.cache.hierarchy import CacheHierarchy
from repro.common.rng import derive_seed
from repro.config import SimulationConfig, TABLE1
from repro.core.pac import PagedAdaptiveCoalescer
from repro.core.pac_batched import BatchedPagedAdaptiveCoalescer
from repro.core.protocols import HMC2, HMC2_FINE, MemoryProtocol
from repro.engine.results import RunResult, build_result
from repro.hmc.device import HMCDevice
from repro.hmc.hbm import HBMDevice, hbm_config
from repro.mem.pagetable import FrameAllocator, PageTable
from repro.mem.trace import AccessTrace
from repro.mshr.dmc import Coalescer, MSHRBasedDMC, NullCoalescer
from repro.telemetry import (
    NULL_SPANS,
    NULL_TELEMETRY,
    SpanRecorder,
    TelemetryRegistry,
)
from repro.workloads import get_workload


class CoalescerKind(enum.Enum):
    """The paper's three evaluation arms plus the prior-art sorting
    network coalescer (Wang et al. [32]) PAC is contrasted with."""

    NONE = "none"
    DMC = "dmc"
    PAC = "pac"
    SORT = "sortdmc"


#: Values of the ``engine=`` knob. ``"auto"`` (the default) names the
#: production path; ``"reference"`` selects the scalar classes the
#: parity suites hold it to.
ENGINES = ("auto", "reference")

#: The ``device=`` choices.
DEVICES = ("hmc", "hbm", "ddr")


def check_choice(field: str, value, choices: tuple) -> None:
    """Raise :class:`ValueError` naming ``field`` when ``value`` is not
    one of ``choices``."""
    if value not in choices:
        raise ValueError(
            f"unknown {field} {value!r}; expected one of {choices}"
        )


def refuse_spans(kind: CoalescerKind) -> None:
    """Raise :class:`ValueError` when arm ``kind`` cannot record spans."""
    if kind is CoalescerKind.SORT:
        raise ValueError(
            f"coalescer={kind.value!r} records no spans; trace the pac, "
            "dmc or none arm instead"
        )


class System:
    """One simulated node: cores + caches + coalescer + 3D-stacked memory."""

    def __init__(
        self,
        config: SimulationConfig = TABLE1,
        coalescer: CoalescerKind = CoalescerKind.PAC,
        protocol: Optional[MemoryProtocol] = None,
        device: str = "hmc",
        fine_grain: bool = False,
        telemetry: Optional[TelemetryRegistry] = None,
        spans: Optional[SpanRecorder] = None,
        engine: str = "auto",
    ) -> None:
        if not isinstance(coalescer, CoalescerKind):
            raise TypeError(
                f"coalescer must be a CoalescerKind, got "
                f"{type(coalescer).__name__} {coalescer!r}"
            )
        for name, probe, cls in (
            ("telemetry", telemetry, TelemetryRegistry),
            ("spans", spans, SpanRecorder),
        ):
            if probe is not None and not isinstance(probe, cls):
                raise TypeError(
                    f"{name} must be a {cls.__name__} or None, got "
                    f"{type(probe).__name__} {probe!r}"
                )
        self.config = config
        self.kind = coalescer
        self.fine_grain = fine_grain
        check_choice("engine", engine, ENGINES)
        check_choice("device", device, DEVICES)
        #: The resolved engine of every component: ``"auto"`` resolves
        #: to ``"batched"``, the batched front-end, PAC kernel and
        #: HMC/HBM device twins (NONE, DMC and SORT keep their only
        #: coalescer, DDR its only device class); ``"reference"`` to the
        #: scalar classes. Probes and spans never change it.
        self.engine = "reference" if engine == "reference" else "batched"
        #: The registry and recorder this system fills, or None (off).
        #: :meth:`repro.engine.spec.RunSpec.system` builds them from a
        #: spec's probe settings.
        self.telemetry = telemetry
        self.spans = spans
        probes = telemetry if telemetry is not None else NULL_TELEMETRY
        if spans is not None:
            refuse_spans(coalescer)
        span_rec = spans if spans is not None else NULL_SPANS
        batched = self.engine == "batched"
        if device == "hmc":
            if batched:
                from repro.hmc.batched import BatchedHMCDevice as _hmc_cls
            else:
                _hmc_cls = HMCDevice
            self.device = _hmc_cls(
                config.hmc, probes=probes.scope("device"), spans=span_rec
            )
            default_protocol = HMC2_FINE if fine_grain else HMC2
        elif device == "hbm":
            if batched:
                from repro.hmc.batched import BatchedHBMDevice as _hbm_cls
            else:
                _hbm_cls = HBMDevice
            self.device = _hbm_cls(
                hbm_config(), probes=probes.scope("device"), spans=span_rec
            )
            from repro.core.protocols import HBM as HBM_PROTO

            default_protocol = HBM_PROTO
        else:
            # Conventional DDR4 foil (Section 2): open-page, fixed 64B
            # bursts. Coalesced packets transfer as consecutive bursts.
            # One class on both engines.
            from repro.ddr.device import DDRDevice

            self.device = DDRDevice(
                probes=probes.scope("device"), spans=span_rec
            )
            default_protocol = HMC2_FINE if fine_grain else HMC2
        self.protocol = protocol if protocol is not None else default_protocol
        device_max = getattr(
            self.device, "config", None
        )
        if device_max is not None and hasattr(device_max, "max_packet_bytes"):
            if self.protocol.max_packet_bytes > device_max.max_packet_bytes:
                raise ValueError(
                    f"protocol {self.protocol.name!r} emits packets up to "
                    f"{self.protocol.max_packet_bytes}B but the device "
                    f"accepts at most {device_max.max_packet_bytes}B — "
                    "pass a matching protocol/device pair"
                )
        # The hierarchy is built lazily: phase-2 pipeline jobs
        # (:meth:`run_raw`) consume a pre-computed raw stream and never
        # touch the caches, so they skip constructing per-core L1s + LLC
        # entirely.
        self._probes = probes
        self._span_rec = span_rec
        self._hierarchy: Optional[CacheHierarchy] = None
        self.coalescer = self._build_coalescer(probes, span_rec)

    @property
    def hierarchy(self) -> CacheHierarchy:
        if self._hierarchy is None:
            if self.engine == "batched":
                from repro.cache.batched import BatchedCacheHierarchy

                hierarchy_cls = BatchedCacheHierarchy
            else:
                hierarchy_cls = CacheHierarchy
            # Fine-grain mode traces demand accesses at their CPU data
            # size; line-granular prefetch traffic would drown the
            # Figure 10b size distribution, so the prefetcher is off
            # there.
            self._hierarchy = hierarchy_cls(
                self.config.cache,
                n_cores=self.config.n_cores,
                prefetch_enabled=not self.fine_grain,
                probes=self._probes.scope("cache"),
                spans=self._span_rec,
            )
        return self._hierarchy

    def _build_coalescer(
        self, probes=NULL_TELEMETRY, spans=NULL_SPANS
    ) -> Coalescer:
        if self.kind == CoalescerKind.NONE:
            return NullCoalescer(
                self.config.pac.n_mshrs, probes=probes.scope("none"),
                spans=spans,
            )
        if self.kind == CoalescerKind.DMC:
            return MSHRBasedDMC(
                self.config.pac.n_mshrs, probes=probes.scope("dmc"),
                spans=spans,
            )
        if self.kind == CoalescerKind.SORT:
            from repro.mshr.sorting import SortingNetworkCoalescer

            return SortingNetworkCoalescer(
                window=self.config.pac.n_streams,
                timeout_cycles=self.config.pac.timeout_cycles,
                n_mshrs=self.config.pac.n_mshrs,
                protocol=self.protocol,
            )
        if self.kind == CoalescerKind.PAC:
            cls = (
                BatchedPagedAdaptiveCoalescer
                if self.engine == "batched"
                else PagedAdaptiveCoalescer
            )
            return cls(
                self.config.pac, protocol=self.protocol,
                probes=probes.scope("pac"), spans=spans,
            )
        raise TypeError(f"unknown coalescer {self.kind!r}")

    # ------------------------------------------------------------------ #

    def build_trace(
        self,
        benchmarks: Sequence[str],
        n_accesses: int,
        seed: Optional[int] = None,
        scale=1.0,
    ) -> AccessTrace:
        """Generate and translate the physical-address trace.

        With multiple benchmark names, each runs as a separate *process*
        with its own page table over a shared frame pool, pinned to a
        disjoint core subset and interleaved in time — the paper's
        multiprocessing mode (Figure 6b).

        The ``"reference"`` engine pins generation to the
        retained scalar generators (where one exists); the vectorized
        generators are bit-identical, so the two paths produce the same
        trace.
        """
        if not benchmarks:
            raise ValueError("need at least one benchmark")
        if self.engine == "reference":
            from repro.workloads.base import reference_trace_gen

            with reference_trace_gen():
                return self._build_trace(benchmarks, n_accesses, seed, scale)
        return self._build_trace(benchmarks, n_accesses, seed, scale)

    def _build_trace(
        self,
        benchmarks: Sequence[str],
        n_accesses: int,
        seed: Optional[int],
        scale,
    ) -> AccessTrace:
        seed = self.config.seed if seed is None else seed
        if self.spans is not None:
            # Bind the resolved run seed so serial and parallel suites
            # derive the same sampling offset.
            self.spans.bind(seed=seed)
        allocator = FrameAllocator(
            total_frames=self.config.hmc.capacity_bytes // 4096,
            shuffle=True,
            seed=derive_seed(seed, "frames"),
        )
        n_procs = len(benchmarks)
        cores_per_proc = max(1, self.config.n_cores // n_procs)
        merged: Optional[AccessTrace] = None
        for pid, name in enumerate(benchmarks):
            generator = get_workload(
                name, seed=derive_seed(seed, name, str(pid)), scale=scale
            )
            share = n_accesses // n_procs + (1 if pid < n_accesses % n_procs else 0)
            trace = generator.generate(share, n_cores=cores_per_proc)
            pagetable = PageTable(allocator, pid=pid)
            trace.addrs = pagetable.translate_array(trace.addrs)
            # Pin this process to its core subset.
            trace.cores = trace.cores + pid * cores_per_proc
            merged = trace if merged is None else merged.concat(trace)
        return merged.sorted_by_cycle()

    def run_trace(
        self, trace: AccessTrace, benchmark: str = "custom"
    ) -> RunResult:
        """Push a translated trace through caches, coalescer, and memory:
        the cache pass, then :meth:`run_raw` over the stream it emits."""
        if self.fine_grain:
            raw = self.hierarchy.fine_grain_stream(trace).packed
        else:
            raw = self.hierarchy.process(trace).packed
        return self.run_raw(
            raw,
            benchmark=benchmark,
            n_accesses=len(trace),
            trace_end_cycle=int(trace.cycles[-1]) if len(trace) else 0,
            cache_metrics=self.hierarchy.summary_metrics(len(raw)),
        )

    def run_raw(
        self,
        raw: np.ndarray,
        benchmark: str,
        n_accesses: int,
        trace_end_cycle: int,
        cache_metrics: dict,
    ) -> RunResult:
        """Run the coalescer+device half against a pre-computed packed
        raw stream (a :data:`~repro.artifacts.shm.REQ_DTYPE` array).

        This is the phase-2 entry point of the artifact pipeline: the
        trace and hierarchy pass happened elsewhere (possibly in another
        process, possibly last week), so the caller supplies the stream,
        the trace geometry, and the hierarchy's summary metrics. Probes
        and spans record what this half observes; what the cache pass
        observed reaches them only through the registry and recorder
        this system was built with (:func:`repro.engine.driver.run_arm`
        hands in copies of the pass's own).
        """
        outcome = self.coalescer.process(raw, self.device)
        # Merge the device's deferred accounting before build_result
        # reads its stats/energy surfaces.
        self.device.sync()
        span_trace = None
        if self.spans is not None:
            span_trace = self.spans.finalize(
                benchmark=benchmark,
                coalescer=self.kind.value,
                n_accesses=n_accesses,
                n_raw=outcome.n_raw,
                config_hash=self.config.config_hash(),
            )
        return build_result(
            benchmark=benchmark,
            coalescer_name=self.kind.value,
            n_accesses=n_accesses,
            outcome=outcome,
            device=self.device,
            trace_end_cycle=trace_end_cycle,
            pac_metrics=self._pac_metrics(),
            cache_metrics=cache_metrics,
            telemetry=self.telemetry,
            spans=span_trace,
        )

    def _pac_metrics(self) -> Optional[dict]:
        if not isinstance(self.coalescer, PagedAdaptiveCoalescer):
            return None
        pac = self.coalescer
        return {
            "bypass_fraction": pac.bypass_fraction,
            "mean_active_streams": pac.mean_active_streams,
            "mean_request_latency": pac.mean_request_latency,
            "mean_maq_fill_cycles": pac.mean_maq_fill_cycles,
            "mean_stage2_cycles": pac.mean_stage2_cycles,
            "mean_stage3_cycles": pac.mean_stage3_cycles,
            "direct_requests": float(pac.stats.count("direct_requests")),
        }

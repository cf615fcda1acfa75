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
foil. Each fixes the packet protocol (:func:`device_protocol`).
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional, Sequence

from repro.cache.hierarchy import CacheHierarchy
from repro.common.rng import derive_seed
from repro.config import SimulationConfig, TABLE1
from repro.core.pac import PagedAdaptiveCoalescer
from repro.core.pac_batched import BatchedPagedAdaptiveCoalescer
from repro.core.protocols import HBM, HMC1, HMC2, HMC2_FINE, MemoryProtocol
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

if TYPE_CHECKING:
    from repro.artifacts import TracePass


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


def device_protocol(
    device: str, config: SimulationConfig = TABLE1, fine_grain: bool = False
) -> MemoryProtocol:
    """The packet protocol ``device`` implements (Section 4.1: porting
    PAC is swapping this descriptor). HBM speaks :data:`HBM`. The DDR
    foil takes HMC 2.1's packets. An HMC device speaks the widest of
    HMC 2.1 and HMC 1.0 whose packets fit ``config.hmc.max_packet_bytes``
    (a 128B device is HMC 1.0). Fine-grain mode (Figure 10b) coalesces
    HMC 2.1 packets over 16B FLITs on HMC and DDR. An HMC device that no
    candidate fits raises :class:`ValueError`.
    """
    check_choice("device", device, DEVICES)
    if device == "hbm":
        return HBM
    candidates = (HMC2_FINE,) if fine_grain else (HMC2, HMC1)
    if device == "ddr":
        return candidates[0]
    max_bytes = config.hmc.max_packet_bytes
    for protocol in candidates:
        if protocol.max_packet_bytes <= max_bytes:
            return protocol
    raise ValueError(
        f"no HMC protocol fits config.hmc.max_packet_bytes={max_bytes}B; "
        f"the narrowest takes {candidates[-1].max_packet_bytes}B packets"
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
        #: The packet protocol, fixed by the device (a ``ValueError`` for
        #: an HMC config no protocol fits, before anything is built).
        self.protocol = device_protocol(device, config, fine_grain)
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
        elif device == "hbm":
            if batched:
                from repro.hmc.batched import BatchedHBMDevice as _hbm_cls
            else:
                _hbm_cls = HBMDevice
            self.device = _hbm_cls(
                hbm_config(), probes=probes.scope("device"), spans=span_rec
            )
        else:
            # Conventional DDR4 foil (Section 2): open-page, fixed 64B
            # bursts. Coalesced packets transfer as consecutive bursts.
            # One class on both engines.
            from repro.ddr.device import DDRDevice

            self.device = DDRDevice(
                probes=probes.scope("device"), spans=span_rec
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
            self._hierarchy = hierarchy_cls(
                self.config.cache,
                n_cores=self.config.n_cores,
                fine_grain=self.fine_grain,
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

    def run_raw(self, tp: "TracePass") -> RunResult:
        """Run the coalescer+device half over ``tp``, a trace + cache
        pass (:func:`repro.artifacts.pipeline.build_trace_pass`): its
        packed raw stream, trace geometry and cache metrics.

        The pass may have run on this system
        (:func:`repro.engine.driver.run_spec`), on another one in
        another process, or last week (the artifact pipeline's phase 2).
        Probes and spans record what this half observes; what the cache
        pass observed reaches them only through the registry and
        recorder this system was built with
        (:func:`repro.engine.driver.run_arm` hands in copies of the
        pass's own).
        """
        outcome = self.coalescer.process(tp.raw, self.device)
        # Merge the device's deferred accounting before build_result
        # reads its stats/energy surfaces.
        self.device.sync()
        span_trace = None
        if self.spans is not None:
            span_trace = self.spans.finalize(
                benchmark=tp.benchmark,
                coalescer=self.kind.value,
                n_accesses=tp.n_accesses,
                n_raw=outcome.n_raw,
                config_hash=self.config.config_hash(),
            )
        return build_result(
            benchmark=tp.benchmark,
            coalescer_name=self.kind.value,
            n_accesses=tp.n_accesses,
            outcome=outcome,
            device=self.device,
            trace_end_cycle=tp.trace_end_cycle,
            pac_metrics=self._pac_metrics(),
            cache_metrics=tp.cache_metrics,
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

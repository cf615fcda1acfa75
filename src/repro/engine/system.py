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
from typing import List, Optional, Sequence, Tuple

from repro.cache.hierarchy import CacheHierarchy, RawStream
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


#: Spellings of the ``engine=`` knob. ``"auto"`` (the default) and
#: ``"batched"`` both name the production path; ``"reference"`` selects
#: the scalar classes the parity suites hold it to.
ENGINES = ("auto", "reference", "batched")


class System:
    """One simulated node: cores + caches + coalescer + 3D-stacked memory."""

    def __init__(
        self,
        config: SimulationConfig = TABLE1,
        coalescer: CoalescerKind = CoalescerKind.PAC,
        protocol: Optional[MemoryProtocol] = None,
        device: str = "hmc",
        fine_grain: bool = False,
        telemetry=False,
        spans=False,
        engine: str = "auto",
    ) -> None:
        self.config = config
        self.kind = coalescer
        self.fine_grain = fine_grain
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        #: The resolved engine of every component: ``"batched"`` runs
        #: the batched front-end, PAC kernel and device twins (NONE, DMC
        #: and SORT keep their only coalescer), ``"reference"`` the
        #: scalar classes. Probes and spans never change it.
        self.engine = "reference" if engine == "reference" else "batched"
        # ``telemetry`` is False (off), True (fresh registry at the
        # default window), or a caller-supplied TelemetryRegistry (e.g.
        # with a custom window_cycles).
        if telemetry is True:
            self.telemetry = TelemetryRegistry()
        elif telemetry is False or telemetry is None:
            self.telemetry = None
        else:
            self.telemetry = telemetry
        probes = self.telemetry if self.telemetry is not None else NULL_TELEMETRY
        # ``spans`` is False (off), True (default 1-in-16 sampling), an
        # int sample rate, or a caller-supplied SpanRecorder.
        if spans is True:
            self.spans = SpanRecorder(seed=config.seed)
        elif spans is False or spans is None:
            self.spans = None
        elif isinstance(spans, int):
            self.spans = SpanRecorder(sample_rate=spans, seed=config.seed)
        else:
            self.spans = spans
        if self.spans is not None and coalescer is CoalescerKind.SORT:
            raise ValueError(
                f"coalescer={coalescer.value!r} records no spans; trace "
                "the pac, dmc or none arm instead"
            )
        span_rec = self.spans if self.spans is not None else NULL_SPANS
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
        elif device == "ddr":
            # Conventional DDR4 foil (Section 2): open-page, fixed 64B
            # bursts. Coalesced packets transfer as consecutive bursts.
            if batched:
                from repro.ddr.batched import BatchedDDRDevice as _ddr_cls
            else:
                from repro.ddr.device import DDRDevice as _ddr_cls

            self.device = _ddr_cls(
                probes=probes.scope("device"), spans=span_rec
            )
            default_protocol = HMC2_FINE if fine_grain else HMC2
        else:
            raise ValueError(f"unknown device {device!r}")
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
        # entirely. Probe runs build it eagerly to keep the probe
        # registration order (cache before coalescer) identical to the
        # historical wiring.
        self._probes = probes
        self._span_rec = span_rec
        self._hierarchy: Optional[CacheHierarchy] = None
        if self.telemetry is not None or self.spans is not None:
            _ = self.hierarchy
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

    @hierarchy.setter
    def hierarchy(self, value: CacheHierarchy) -> None:
        self._hierarchy = value

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
        pac_cfg = self.config.pac
        if self.fine_grain and not pac_cfg.fine_grain:
            from dataclasses import replace

            pac_cfg = replace(pac_cfg, fine_grain=True)
        cls = (
            BatchedPagedAdaptiveCoalescer
            if self.engine == "batched"
            else PagedAdaptiveCoalescer
        )
        return cls(
            pac_cfg, protocol=self.protocol, probes=probes.scope("pac"),
            spans=spans,
        )

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
        self, trace: AccessTrace, benchmark: str = "custom",
        raw: Optional[RawStream] = None,
    ) -> RunResult:
        """Push a translated trace through caches, coalescer, and memory.

        ``raw`` optionally supplies an already-computed raw request
        stream for this trace (produced by this system's hierarchy, or a
        shared one installed as ``self.hierarchy``); the cache pass is
        then skipped. The hierarchy pass is deterministic, so reusing
        one stream across coalescer arms is bit-identical to
        re-processing the same trace per arm.
        """
        if raw is None:
            if self.fine_grain:
                raw = self.hierarchy.fine_grain_stream(trace)
            else:
                raw = self.hierarchy.process(trace)
        cache_metrics = self.hierarchy.summary_metrics(len(raw.requests))
        trace_end = int(trace.cycles[-1]) if len(trace) else 0
        outcome = self.coalescer.process(raw.requests, self.device)
        if self.engine == "batched":
            # Merge the device's deferred window accounting before
            # build_result reads its stats/energy surfaces.
            self.device.sync()
        span_trace = None
        if self.spans is not None:
            span_trace = self.spans.finalize(
                benchmark=benchmark,
                coalescer=self.kind.value,
                n_accesses=len(trace),
                n_raw=outcome.n_raw,
                config_hash=self.config.config_hash(),
            )
        return build_result(
            benchmark=benchmark,
            coalescer_name=self.kind.value,
            n_accesses=len(trace),
            outcome=outcome,
            device=self.device,
            trace_end_cycle=trace_end,
            pac_metrics=self._pac_metrics(),
            cache_metrics=cache_metrics,
            telemetry=self.telemetry,
            spans=span_trace,
        )

    def run_raw(
        self,
        requests,
        benchmark: str,
        n_accesses: int,
        trace_end_cycle: int,
        cache_metrics: dict,
    ) -> RunResult:
        """Run the coalescer+device half against a pre-computed raw
        request stream.

        This is the phase-2 entry point of the artifact pipeline: the
        trace and hierarchy pass happened elsewhere (possibly in another
        process, possibly last week), so the caller supplies the stream,
        the trace geometry, and the hierarchy's summary metrics.
        Telemetry and spans observe the cache pass, which this path
        skips — probe runs must go end-to-end instead.
        """
        if self.telemetry is not None or self.spans is not None:
            raise ValueError(
                "run_raw skips the cache pass, which telemetry/spans "
                "probes must observe — use run_trace/run for probe runs"
            )
        outcome = self.coalescer.process(requests, self.device)
        if self.engine == "batched":
            self.device.sync()
        return build_result(
            benchmark=benchmark,
            coalescer_name=self.kind.value,
            n_accesses=n_accesses,
            outcome=outcome,
            device=self.device,
            trace_end_cycle=trace_end_cycle,
            pac_metrics=self._pac_metrics(),
            cache_metrics=cache_metrics,
            telemetry=None,
            spans=None,
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

    def run(
        self,
        benchmark: str,
        n_accesses: int,
        seed: Optional[int] = None,
        extra_benchmarks: Sequence[str] = (),
        scale=1.0,
    ) -> RunResult:
        """Generate + run in one step. ``scale`` selects the NAS-style
        size class (number or letter; see repro.workloads.SIZE_CLASSES)."""
        names = [benchmark, *extra_benchmarks]
        trace = self.build_trace(names, n_accesses, seed=seed, scale=scale)
        label = "+".join(names)
        return self.run_trace(trace, benchmark=label)

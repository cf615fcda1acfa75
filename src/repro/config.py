"""Simulation configuration (paper Table 1).

Defaults reproduce the paper's simulated environment:

==========================  ==============================
Parameter                   Value
==========================  ==============================
ISA                         RV64IMAFDC (trace-modeled)
Cores                       8
CPU frequency               2 GHz
Cache                       8-way, 16KB L1, 8MB L2 (LLC)
Coalescing streams          16
Timeout                     16 cycles
MAQ entries & MSHRs         16
HMC                         4 links, 8GB, 256B blocks
Avg. HMC access latency     93 ns
==========================  ==============================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional


@dataclass(frozen=True)
class CacheConfig:
    """Cache hierarchy parameters (Table 1: 8-way, 16KB L1, 8MB L2)."""

    line_bytes: int = 64
    l1_bytes: int = 16 * 1024
    l1_ways: int = 8
    llc_bytes: int = 8 * 1024 * 1024
    llc_ways: int = 8
    #: Region streamer prefetcher: on a demand miss continuing a detected
    #: ascending stride, the remaining lines of the current 256B-aligned
    #: region plus this many further whole regions are requested
    #: back-to-back (stopping at the page boundary). The paper relies on
    #: exactly this traffic: "stream or stride prefetchers issue requests
    #: with the granularity of cache lines (64B); PAC can coalesce not
    #: only raw requests but also the prefetch requests" (Section 4.2).
    #: 0 disables prefetching.
    prefetch_regions: int = 1

    def __post_init__(self) -> None:
        for name in ("line_bytes", "l1_bytes", "l1_ways", "llc_bytes", "llc_ways"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.l1_bytes % (self.line_bytes * self.l1_ways):
            raise ValueError("L1 size must divide into ways * line size")
        if self.llc_bytes % (self.line_bytes * self.llc_ways):
            raise ValueError("LLC size must divide into ways * line size")
        if self.prefetch_regions < 0:
            raise ValueError("prefetch_regions must be >= 0")

    @property
    def l1_sets(self) -> int:
        return self.l1_bytes // (self.line_bytes * self.l1_ways)


@dataclass(frozen=True)
class PACConfig:
    """Paged adaptive coalescer parameters (Sections 3, 5.2)."""

    n_streams: int = 16
    timeout_cycles: int = 16
    maq_entries: int = 16
    n_mshrs: int = 16
    #: Enable the network-controller bypass: when the MAQ is empty and
    #: MSHRs are free, raw requests skip the coalescing network entirely
    #: (Section 3.2).
    idle_bypass: bool = True

    def __post_init__(self) -> None:
        if self.n_streams <= 0:
            raise ValueError("need at least one coalescing stream")
        if self.timeout_cycles <= 0:
            raise ValueError("timeout must be positive")
        if self.maq_entries <= 0 or self.n_mshrs <= 0:
            raise ValueError("MAQ entries and MSHR count must be positive")


@dataclass(frozen=True)
class HMCConfig:
    """HMC 2.1 device parameters (Table 1: 4 links, 8GB, 256B blocks)."""

    n_links: int = 4
    capacity_bytes: int = 8 << 30
    n_vaults: int = 32
    banks_per_vault: int = 8
    row_bytes: int = 256
    max_packet_bytes: int = 256
    #: Average device access latency the paper reports (93ns), used as the
    #: DRAM core latency target of the queueing model.
    avg_access_ns: float = 93.0
    #: Closed-page bank busy time per activation (tRC-equivalent), cycles
    #: at the 2GHz core clock.
    bank_busy_cycles: int = 96
    #: Device address-interleaving policy: "vault-first" (HMC default),
    #: "bank-first", or "row-major" (ablation worst case).
    address_policy: str = "vault-first"

    def __post_init__(self) -> None:
        if self.n_links <= 0 or self.n_vaults <= 0 or self.banks_per_vault <= 0:
            raise ValueError("link/vault/bank counts must be positive")
        if self.n_vaults % self.n_links:
            raise ValueError("vaults must divide evenly across links")
        if self.max_packet_bytes % self.row_bytes and self.row_bytes % self.max_packet_bytes:
            raise ValueError("max packet size and row size must nest")


@dataclass(frozen=True)
class SimulationConfig:
    """Top-level configuration wiring every subsystem together."""

    n_cores: int = 8
    cpu_ghz: float = 2.0
    cache: CacheConfig = field(default_factory=CacheConfig)
    pac: PACConfig = field(default_factory=PACConfig)
    hmc: HMCConfig = field(default_factory=HMCConfig)
    seed: int = 0xBAC

    def __post_init__(self) -> None:
        if self.n_cores <= 0:
            raise ValueError("need at least one core")
        if self.cpu_ghz <= 0:
            raise ValueError("CPU frequency must be positive")

    @property
    def ns_per_cycle(self) -> float:
        return 1.0 / self.cpu_ghz

    def config_hash(self) -> str:
        """Short stable digest of the full configuration, stamped into
        telemetry/span export metadata so result files are traceable to
        the exact parameter set that produced them."""
        import hashlib

        return hashlib.sha256(repr(self).encode()).hexdigest()[:12]

    def with_pac(self, **kwargs) -> "SimulationConfig":
        """Copy with PAC parameters overridden (ablation helper)."""
        return replace(self, pac=replace(self.pac, **kwargs))

    def with_hmc(self, **kwargs) -> "SimulationConfig":
        return replace(self, hmc=replace(self.hmc, **kwargs))

    def with_cache(self, **kwargs) -> "SimulationConfig":
        return replace(self, cache=replace(self.cache, **kwargs))


#: The paper's Table 1 configuration.
TABLE1 = SimulationConfig()

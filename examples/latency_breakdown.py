#!/usr/bin/env python3
"""Where do the cycles go? HMC latency breakdown under PAC.

Runs GS with and without coalescing with every raw request traced
(``spans=1``), so the HMC device records one packet span per issued
packet. Prints the latency component breakdown (link wait, crossbar
route, vault queueing, DRAM, response) and the vault heat map. Shows
*mechanistically* where PAC's latency savings come from: shorter vault
queues and fewer conflicted DRAM activations.

Run:  python examples/latency_breakdown.py [n_accesses]
"""

import sys
from collections import Counter

from repro.common.stats import percentile
from repro.engine.driver import run_benchmark
from repro.engine.system import CoalescerKind
from repro.hmc.device import REMOTE_ROUTE_CYCLES

COMPONENTS = ("link_wait", "route", "vault_wait", "dram", "response")


def packet_spans(kind, n_accesses):
    """Device spans of every packet one GS run issued."""
    result = run_benchmark(
        "gs", coalescer=kind, n_accesses=n_accesses, spans=1
    )
    return result.spans.packets


def durations(span):
    return {name: end - start for name, start, end in span.segments}


def component_means(spans):
    totals = Counter()
    for span in spans:
        totals.update(durations(span))
    return {c: totals[c] / max(1, len(spans)) for c in COMPONENTS}


def latency_percentiles(spans):
    totals = sorted(span.completion - span.start for span in spans)
    return {q: percentile(totals, f) for q, f in
            (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))}


def remote_fraction(spans):
    remote = sum(durations(s)["route"] == REMOTE_ROUTE_CYCLES for s in spans)
    return remote / max(1, len(spans))


def main() -> None:
    n_accesses = int(sys.argv[1]) if len(sys.argv) > 1 else 30_000
    base = packet_spans(CoalescerKind.NONE, n_accesses)
    pac = packet_spans(CoalescerKind.PAC, n_accesses)

    print("HMC latency breakdown on GS (cycles per packet)\n")
    print(f"{'component':12s} {'no coalescing':>14s} {'PAC':>10s}")
    print("-" * 38)
    base_means = component_means(base)
    pac_means = component_means(pac)
    for comp in COMPONENTS:
        print(f"{comp:12s} {base_means[comp]:>14.1f} {pac_means[comp]:>10.1f}")

    print(f"\n{'percentile':12s} {'no coalescing':>14s} {'PAC':>10s}")
    print("-" * 38)
    bp, pp = latency_percentiles(base), latency_percentiles(pac)
    for q in ("p50", "p95", "p99"):
        print(f"{q:12s} {bp[q]:>14.0f} {pp[q]:>10.0f}")

    print(f"\npackets: {len(base):,} -> {len(pac):,} "
          f"(remote-route fraction {remote_fraction(base):.0%} -> "
          f"{remote_fraction(pac):.0%})")

    heat = sorted(Counter(span.vault for span in pac).items())
    peak = max(count for _, count in heat)
    print("\nPAC vault heat (packets per vault):")
    for vault, count in heat:
        bar = "#" * max(1, round(count / peak * 30))
        print(f"  vault {vault:2d} {count:>6,} |{bar}")


if __name__ == "__main__":
    main()

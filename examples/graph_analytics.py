#!/usr/bin/env python3
"""Graph analytics under PAC: why BFS is the hard case.

Reproduces the paper's graph-workload story end to end:

1. Runs BFS and PageRank (GAPBS signatures) plus SparseLU as a dense
   foil through the PAC system.
2. Clusters each raw request stream with DBSCAN at eps=4KB — the
   Figures 8/9 analysis — showing BFS's requests scattered as noise
   while SparseLU's cluster tightly.
3. Correlates that with the PAC-internal signals the paper highlights:
   coalescing-stream utilization (Figure 11c) and the stage-2/3 bypass
   proportion (Figure 12c).

Run:  python examples/graph_analytics.py
"""

from repro.analysis.clustering import cluster_requests
from repro.artifacts import decode_requests
from repro.config import TABLE1
from repro.engine.system import CoalescerKind, System

WORKLOADS = ("bfs", "pr", "sparselu")
N_ACCESSES = 30_000


def main() -> None:
    print("Graph analytics through the paged adaptive coalescer")
    print("=" * 60)
    rows = []
    for bench in WORKLOADS:
        system = System(TABLE1, CoalescerKind.PAC)
        trace = system.build_trace([bench], N_ACCESSES)
        raw = system.hierarchy.process(trace).packed
        outcome = system.coalescer.process(raw, system.device)

        summary = cluster_requests(decode_requests(raw), window_cycles=None)
        pac = system.coalescer
        rows.append(
            {
                "bench": bench,
                "raw": len(raw),
                "efficiency": outcome.coalescing_efficiency,
                "noise": summary.noise_fraction,
                "clusters": summary.n_clusters,
                "streams": pac.mean_active_streams,
                "bypass": pac.bypass_fraction,
                "conflicts": system.device.bank_conflicts,
            }
        )

    print(f"\n{'':10s}{'raw reqs':>10s}{'coal.eff':>10s}{'DBSCAN noise':>14s}"
          f"{'clusters':>10s}{'streams':>9s}{'bypass':>8s}")
    for r in rows:
        print(
            f"{r['bench']:10s}{r['raw']:>10,}{r['efficiency']:>10.1%}"
            f"{r['noise']:>14.1%}{r['clusters']:>10,}{r['streams']:>9.2f}"
            f"{r['bypass']:>8.1%}"
        )

    bfs = next(r for r in rows if r["bench"] == "bfs")
    slu = next(r for r in rows if r["bench"] == "sparselu")
    print(
        "\nReading the table (matches the paper's Figures 8/9, 11c, 12c):"
        f"\n * BFS requests are {bfs['noise']:.0%} DBSCAN noise — sparse"
        " probes across disparate pages, so streams rarely pair up"
        f" ({bfs['streams']:.1f} pages live per window) and"
        f" {bfs['bypass']:.0%} of requests skip stages 2-3."
        f"\n * SparseLU is only {slu['noise']:.0%} noise — dense 2-page task"
        f" blocks coalesce into large packets ({slu['efficiency']:.0%}"
        " of requests eliminated)."
    )


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Run every design-choice ablation back to back.

A compact tour of the nine ablation sweeps (see DESIGN.md section 4):
timeout, stream count, protocol portability, the sorting-network
baseline, DDR-vs-HMC, prefetch coalescing, shared-vs-private coalescers,
core scaling, and address interleaving — each with its shape claims.

Run:  python examples/ablation_tour.py [n_accesses]
"""

import sys
import time

from repro.experiments import ABLATIONS, Runs, render_checks, render_table


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 6000
    runs = Runs(n_accesses=n)
    for entry in ABLATIONS:
        t0 = time.time()
        rows = entry.rows(runs)
        title = f"ablation: {entry.id} — {entry.title}"
        print(render_table(rows, title=title))
        print(render_checks(entry.checks(rows)))
        print(f"({time.time() - t0:.1f}s)\n")


if __name__ == "__main__":
    main()

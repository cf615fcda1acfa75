#!/usr/bin/env python3
"""A guided tour of the reproduction: validate every paper claim, then
show the two figures that tell the story.

Runs the shape-claim checklist (the same one behind
``python -m repro validate``), then prints Figure 6a (coalescing
efficiency) and Figure 15 (performance) as ASCII bar charts. One
``Runs`` memo feeds all three, so the figures reuse the checklist's
simulations.

Run:  python examples/paper_tour.py [n_accesses]
"""

import sys

from repro.experiments import (
    REGISTRY, Runs, render_checks, render_series, validate,
)


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 12_000
    runs = Runs(n_accesses=n)

    print("=" * 70)
    print("PAC reproduction — paper claim checklist")
    print("=" * 70)
    print(render_checks(validate(runs)))

    print()
    print("=" * 70)
    print(
        render_series(
            REGISTRY["6a"].rows(runs),
            x="benchmark",
            ys=["dmc_ratio", "pac_ratio"],
            title="Figure 6a: coalescing efficiency (DMC vs PAC)",
        )
    )
    print()
    print(
        render_series(
            REGISTRY["15"].rows(runs),
            x="benchmark",
            ys=["pac_gain_latency_bound"],
            title="Figure 15: PAC performance gain (latency-bound model)",
        )
    )


if __name__ == "__main__":
    main()

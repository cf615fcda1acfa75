"""Compare two reports of ``perf/run.py``: parent (A) against change (B).

    python3 perf/compare.py A.json B.json

Prints one row per (workload, end-to-end metric): both medians over the
report's ``--trace 0`` runs with their quartiles, the relative change
(positive = worse), the metric's bound from ``BENCHMARK.json`` and a
verdict:

* ``unresolved`` — the run-to-run spread of either side, the distance
  between the quartiles of its runs over their median, exceeds the
  bound, and B does not read better than A on every run;
* ``regressed`` — otherwise, if B's median is worse than A's by more
  than the bound;
* ``ok`` — otherwise.

``failed_frac`` has an absolute bound of 0: any increase regresses.
Exits 1 unless every row is ``ok``.
"""

from __future__ import annotations

import json
import sys
from typing import List, Tuple

from run import load_spec


def spread(m: dict) -> float:
    """Run-to-run spread of a metric summary, relative to its median."""
    return (m["q3"] - m["q1"]) / m["value"]


def verdict(a: dict, b: dict, bound: float, better: str) -> Tuple[str, float]:
    """``(verdict, worsening)`` for one metric summary pair; the
    worsening is relative to A's median, positive when B is worse."""
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (b["value"] - a["value"]) / a["value"]
    if max(spread(a), spread(b)) > bound:
        if better == "lower":
            wins = max(b["samples"]) < min(a["samples"])
        else:
            wins = min(b["samples"]) > max(a["samples"])
        return ("ok" if wins else "unresolved"), worse
    return ("regressed" if worse > bound else "ok"), worse


def rows(a: dict, b: dict, spec: dict) -> List[dict]:
    out = []
    for workload in a["workloads"]:
        ea = a["workloads"][workload]["end_to_end"]
        eb = b["workloads"][workload]["end_to_end"]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            v, worse = verdict(ea[name], eb[name], metric["bound"],
                               metric["better"])
            out.append({
                "workload": workload, "metric": name, "a": ea[name],
                "b": eb[name], "worse": worse, "bound": metric["bound"],
                "verdict": v,
            })
        fa, fb = ea["failed_frac"], eb["failed_frac"]
        out.append({
            "workload": workload, "metric": "failed_frac", "a": fa, "b": fb,
            "worse": fb["value"] - fa["value"], "bound": 0.0,
            "verdict": "regressed" if fb["value"] > fa["value"] else "ok",
        })
    return out


def _cell(m: dict) -> str:
    if "q1" not in m:
        return f"{m['value']:.4g}"
    return f"{m['value']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        raise SystemExit("usage: compare.py A.json B.json")
    a, b = (json.loads(open(path).read()) for path in argv)
    table = rows(a, b, load_spec())
    print(f"{'workload':<18} {'metric':<14} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'worse':>8} {'bound':>6}  verdict")
    for r in table:
        print(f"{r['workload']:<18} {r['metric']:<14} {_cell(r['a']):>32} "
              f"{_cell(r['b']):>32} {r['worse']:>+8.3f} {r['bound']:>6.2f}"
              f"  {r['verdict']}")
    return 0 if all(r["verdict"] == "ok" for r in table) else 1


if __name__ == "__main__":
    sys.exit(main())

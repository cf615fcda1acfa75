"""Regenerate every table, figure and ablation of the registry and
assert its shape claims.

Each case times one pass of the entry's row function (rounds beyond the
first would only measure the memo), prints the rows and the checklist,
and fails with the measured and paper text of every claim that does
not hold.
"""

import pytest

from repro.experiments.registry import ENTRIES, render_checks
from repro.experiments.reporting import render_table


@pytest.mark.parametrize("entry", ENTRIES, ids=lambda e: e.id)
def test_entry(benchmark, runs, entry):
    rows = benchmark.pedantic(entry.rows, args=(runs,), rounds=1,
                              iterations=1)
    checks = entry.checks(rows)
    print()
    print(render_table(rows, title=entry.title))
    print(render_checks(checks))
    failed = [f"{c.claim}: measured {c.measured} (paper: {c.paper})"
              for c in checks if not c.passed]
    assert not failed, "\n".join(failed)

"""The bench's engine legs: what each one times and counts.

The throughput gate divides the ``end_to_end`` leg's items by its
seconds, so the items must be the raw requests the timed comparison
actually processes: every arm's ``n_raw``, summed.
"""

import pytest

from repro.bench import STAGES, BenchConfig, stage_legs


@pytest.mark.parametrize("bench", ["gs", "stream"])
def test_end_to_end_items_are_the_comparisons_raw_requests(bench):
    cfg = BenchConfig(benchmarks=(bench,), n_accesses=2000)
    legs = stage_legs(bench, cfg)
    assert tuple(legs) == STAGES
    items, prepare = legs["end_to_end"]
    results = prepare("auto")()
    assert [kind.value for kind in results] == ["none", "dmc", "pac"]
    assert items == sum(r.n_raw for r in results.values())
    # Each arm sees the one raw stream the stage legs share.
    assert items == 3 * legs["cache"][0]

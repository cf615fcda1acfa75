"""Regeneration of every table and figure in the paper's evaluation.

:mod:`repro.experiments.registry` declares each table, figure and
ablation once — its rows, paper values and shape claims — and renders
``repro figure``/``ablation``/``report``/``validate`` and the
``benchmarks/`` harness from that one list;
:mod:`repro.experiments.reporting` renders rows as ASCII tables.
"""

from repro.experiments.registry import (
    ABLATIONS,
    DEFAULT_N,
    ENTRIES,
    FIGURES,
    REGISTRY,
    Check,
    Claim,
    Entry,
    Runs,
    render_checks,
    report,
    validate,
)
from repro.experiments.reporting import render_series, render_table
from repro.experiments.tables import table1_configuration

__all__ = [
    "ABLATIONS",
    "DEFAULT_N",
    "ENTRIES",
    "FIGURES",
    "REGISTRY",
    "Check",
    "Claim",
    "Entry",
    "Runs",
    "render_checks",
    "report",
    "validate",
    "render_series",
    "render_table",
    "table1_configuration",
]

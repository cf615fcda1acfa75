"""Telemetry exporters: flat CSV, JSON, and the ``repro trace`` timeline.

Two consumers drive the formats:

* **Figure scripts** want long-form CSV — one row per (probe, window)
  with exact aggregates, ready for pandas/gnuplot pivoting.
* **Humans** want the merged per-window timeline the ``repro trace``
  subcommand prints: MAQ occupancy, bank conflicts, bypass rate and
  issue counts side by side per window.
"""

from __future__ import annotations

import csv
import io
from typing import Dict, List, Optional

from repro.telemetry.probe import TelemetryRegistry

#: Column order of the long-form CSV export.
CSV_FIELDS = (
    "probe",
    "kind",
    "window",
    "start_cycle",
    "count",
    "value",
    "mean",
    "min",
    "max",
)


def csv_rows(registry: TelemetryRegistry) -> List[Dict]:
    """Long-form rows: one per (windowed probe, window) plus one per
    histogram bin (``window`` column carries the bin key there)."""
    rows: List[Dict] = []
    w_cycles = registry.window_cycles
    for name, probe in sorted(registry.counters.items()):
        for w, value in sorted(probe.windows.items()):
            rows.append(
                {
                    "probe": name,
                    "kind": "counter",
                    "window": w,
                    "start_cycle": w * w_cycles,
                    "count": value,
                    "value": value,
                    "mean": "",
                    "min": "",
                    "max": "",
                }
            )
    for name, probe in sorted(registry.gauges.items()):
        for w, (n, total, lo, hi) in sorted(probe.windows.items()):
            rows.append(
                {
                    "probe": name,
                    "kind": "gauge",
                    "window": w,
                    "start_cycle": w * w_cycles,
                    "count": n,
                    "value": total,
                    "mean": total / n if n else 0.0,
                    "min": lo,
                    "max": hi,
                }
            )
    for name, probe in sorted(registry.histograms.items()):
        for key, count in sorted(probe.bins.items()):
            rows.append(
                {
                    "probe": name,
                    "kind": "histogram",
                    "window": key,
                    "start_cycle": "",
                    "count": count,
                    "value": count,
                    "mean": "",
                    "min": "",
                    "max": "",
                }
            )
    return rows


def metadata_lines(metadata: Optional[Dict]) -> List[str]:
    """``# key=value`` comment lines (sorted) for self-describing CSV
    exports; empty when no metadata is given."""
    if not metadata:
        return []
    return [f"# {key}={metadata[key]}" for key in sorted(metadata)]


def to_csv(registry: TelemetryRegistry, metadata: Optional[Dict] = None) -> str:
    """The long-form export as CSV text, optionally led by ``# key=value``
    run-metadata lines (benchmark, seed, config hash, window size)."""
    buf = io.StringIO()
    for line in metadata_lines(metadata):
        buf.write(line + "\n")
    writer = csv.DictWriter(buf, fieldnames=CSV_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in csv_rows(registry):
        writer.writerow(row)
    return buf.getvalue()


def write_csv(
    registry: TelemetryRegistry, path, metadata: Optional[Dict] = None
) -> int:
    """Write the long-form CSV to ``path``; returns the data-row count."""
    rows = csv_rows(registry)
    with open(path, "w", newline="") as fh:
        for line in metadata_lines(metadata):
            fh.write(line + "\n")
        writer = csv.DictWriter(fh, fieldnames=CSV_FIELDS, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return len(rows)


# --------------------------------------------------------------------------- #
# The merged per-window timeline (the `repro trace` table).

#: The headline series `repro trace` prints, mapped to their probes.
#: Missing probes render as zero so every coalescer arm shares a layout.
TIMELINE_COLUMNS = (
    # (column, probe name, kind, aggregate)
    ("raw_reqs", "cache.raw_requests", "counter", None),
    ("maq_occ_mean", "pac.maq.occupancy", "gauge", "mean"),
    ("maq_occ_max", "pac.maq.occupancy", "gauge", "max"),
    ("maq_stalls", "pac.maq.full_stalls", "counter", None),
    ("bank_conflicts", "device.banks.conflicts", "counter", None),
    ("issued_pkts", "device.packets", "counter", None),
)


def timeline_rows(registry: TelemetryRegistry) -> List[Dict]:
    """One row per window spanning the run, with the headline series.

    ``bypass_rate`` is derived per window from the network-controller
    counters: (idle-bypass direct requests + C-bit bypassed requests) /
    raw requests entering the coalescer.
    """
    lo, hi = registry.span_windows()
    if hi < lo:
        return []
    w_cycles = registry.window_cycles
    counters = registry.counters
    gauges = registry.gauges

    rows: List[Dict] = []
    for w in range(lo, hi + 1):
        row: Dict = {"window": w, "start_cycle": w * w_cycles}
        for column, name, kind, agg in TIMELINE_COLUMNS:
            if kind == "counter":
                probe = counters.get(name)
                row[column] = probe.window_value(w) if probe else 0
            else:
                probe = gauges.get(name)
                if probe is None:
                    row[column] = 0.0
                elif agg == "max":
                    row[column] = probe.window_max(w)
                else:
                    row[column] = round(probe.window_mean(w), 2)
        row["bypass_rate"] = round(_bypass_rate(registry, w), 3)
        rows.append(row)
    return rows


def _bypass_rate(registry: TelemetryRegistry, window: int) -> float:
    """Fraction of the window's coalescer-entering requests that skipped
    the coalescing network (idle-bypass direct path or C=0 streams)."""
    counters = registry.counters

    def _get(name: str) -> int:
        probe = counters.get(name)
        return probe.window_value(window) if probe else 0

    direct = _get("pac.controller.direct_requests")
    cbit = _get("pac.network.bypassed_requests")
    coalesced = _get("pac.network.coalesced_requests")
    total = direct + cbit + coalesced
    if not total:
        return 0.0
    return (direct + cbit) / total


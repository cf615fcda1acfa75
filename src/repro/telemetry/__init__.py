"""Cycle-level telemetry: windowed probes, span tracing, and exporters.

Enable with ``run_benchmark(..., telemetry=True)`` (or ``repro trace``);
the populated :class:`TelemetryRegistry` rides on
:attr:`repro.engine.results.RunResult.telemetry`. Per-request span
tracing (``repro spans``) enables with ``spans=True`` and rides on
:attr:`RunResult.spans` as a :class:`SpanTrace`. See ARCHITECTURE.md,
"Telemetry" and "Tracing" for the probe and span taxonomies.
"""

from repro.telemetry.probe import (
    FOLD_EVENTS,
    CounterProbe,
    GaugeProbe,
    HistogramProbe,
    NULL_TELEMETRY,
    NullTelemetry,
    ProbeBuffer,
    TelemetryRegistry,
    TelemetryScope,
)
from repro.telemetry.export import (
    csv_rows,
    timeline_csv,
    timeline_rows,
    to_csv,
    write_csv,
)
from repro.telemetry.spans import (
    NULL_SPANS,
    NullSpanRecorder,
    PacketSpan,
    RequestSpan,
    STAGES,
    SpanRecorder,
    SpanTrace,
)
from repro.telemetry.attribution import (
    attribution_rows,
    critical_path,
    end_to_end_percentiles,
    stage_breakdown,
    top_k_rows,
)
from repro.telemetry.perfetto import (
    spans_to_csv,
    to_perfetto_json,
    to_trace_events,
    validate_trace_events,
    write_perfetto,
    write_spans_csv,
)

__all__ = [
    "CounterProbe",
    "FOLD_EVENTS",
    "GaugeProbe",
    "HistogramProbe",
    "NULL_SPANS",
    "NULL_TELEMETRY",
    "NullSpanRecorder",
    "NullTelemetry",
    "PacketSpan",
    "ProbeBuffer",
    "RequestSpan",
    "STAGES",
    "SpanRecorder",
    "SpanTrace",
    "TelemetryRegistry",
    "TelemetryScope",
    "attribution_rows",
    "critical_path",
    "csv_rows",
    "end_to_end_percentiles",
    "spans_to_csv",
    "stage_breakdown",
    "timeline_csv",
    "timeline_rows",
    "to_csv",
    "to_perfetto_json",
    "to_trace_events",
    "top_k_rows",
    "validate_trace_events",
    "write_csv",
    "write_perfetto",
    "write_spans_csv",
]

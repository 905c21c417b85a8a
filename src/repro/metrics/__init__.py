"""Measurement: counters, timelines, latencies, heat maps, statistics."""

from .collectors import (
    ClusterMetrics,
    LatencyRecorder,
    MdsMetrics,
    RunEvent,
    Timeline,
)
from .heatmap import HeatSampler, default_heat
from .render import (
    render_table,
    render_timelines,
    report_row,
    reports_to_csv,
    sparkline,
    timeline_to_csv,
)
from .stats import Summary, coefficient_of_variation, speedup, summarize
from .tracing import TraceEvent, TraceRecorder, record_run

__all__ = [
    "ClusterMetrics",
    "HeatSampler",
    "LatencyRecorder",
    "MdsMetrics",
    "RunEvent",
    "Summary",
    "TraceEvent",
    "TraceRecorder",
    "Timeline",
    "coefficient_of_variation",
    "record_run",
    "render_table",
    "render_timelines",
    "report_row",
    "reports_to_csv",
    "sparkline",
    "timeline_to_csv",
    "default_heat",
    "speedup",
    "summarize",
]

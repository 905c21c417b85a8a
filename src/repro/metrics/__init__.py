"""Measurement: counters, timelines, latencies, heat maps, statistics."""

from .collectors import (
    ClusterMetrics,
    LatencyRecorder,
    MdsMetrics,
    OpRecord,
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
from .tracing import load_ops, record_run, replay_workload, save_ops

__all__ = [
    "ClusterMetrics",
    "HeatSampler",
    "LatencyRecorder",
    "MdsMetrics",
    "OpRecord",
    "RunEvent",
    "Summary",
    "Timeline",
    "coefficient_of_variation",
    "load_ops",
    "record_run",
    "replay_workload",
    "render_table",
    "render_timelines",
    "report_row",
    "reports_to_csv",
    "save_ops",
    "sparkline",
    "timeline_to_csv",
    "default_heat",
    "speedup",
    "summarize",
]

"""Text and CSV rendering of simulation results.

Dependency-free figure rendering: stacked per-rank throughput timelines as
unicode sparklines (the Fig 4/7/10 shape), aligned tables, and CSV export
so results can be plotted with any external tool.
"""

from __future__ import annotations

import csv
import io
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import SimReport

GLYPHS = " .:-=+*#%@"


def sparkline(series: Sequence[float], width: int = 60,
              peak: float | None = None) -> str:
    """Compress *series* into a *width*-character intensity line."""
    data = np.asarray(list(series), dtype=float)
    if data.size == 0:
        return ""
    if data.size > width:
        data = np.array([chunk.mean()
                         for chunk in np.array_split(data, width)])
    top = peak if peak is not None else (data.max() or 1.0)
    if top <= 0:
        top = 1.0
    out = []
    for value in data:
        index = int(min(1.0, max(0.0, value / top)) * (len(GLYPHS) - 1))
        out.append(GLYPHS[index])
    return "".join(out)


def render_timelines(report: "SimReport", width: int = 60,
                     shared_scale: bool = True) -> str:
    """Per-rank throughput sparklines (one row per MDS), Fig 7 style.

    With *shared_scale* all rows use the same peak so relative rank load
    is visible; otherwise each row auto-scales.
    """
    timeline = report.metrics.timeline
    horizon = report.makespan or timeline.end_time
    rows = []
    peak = None
    if shared_scale:
        peak = max(
            (timeline.series(rank, until=horizon).max()
             for rank in sorted(report.metrics.per_mds)),
            default=1.0,
        ) or 1.0
    for rank in sorted(report.metrics.per_mds):
        series = timeline.series(rank, until=horizon)
        rows.append(f"mds{rank} |{sparkline(series, width, peak)}| "
                    f"{report.metrics.per_mds[rank].ops_served} ops")
    return "\n".join(rows)


def render_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """A fixed-width aligned table."""
    cells = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in cells:
        lines.append("  ".join(cell.rjust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def report_row(report: "SimReport") -> dict[str, object]:
    """One flat dict of headline metrics (CSV-friendly)."""
    latency = report.latency_summary()
    return {
        "policy": report.policy_name,
        "num_mds": report.config.num_mds,
        "num_clients": report.config.num_clients,
        "seed": report.config.seed,
        "makespan_s": round(report.makespan, 4),
        "throughput_ops": round(report.throughput, 1),
        "total_ops": report.total_ops,
        "forwards": report.total_forwards,
        "prefix_traversals": report.metrics.total_prefix_traversals,
        "migrations": report.total_migrations,
        "session_flushes": report.total_session_flushes,
        "latency_mean_ms": round(latency.mean * 1e3, 4),
        "latency_p99_ms": round(latency.p99 * 1e3, 4),
    }


def reports_to_csv(reports: Sequence["SimReport"]) -> str:
    """Headline metrics of several runs as a CSV string."""
    if not reports:
        return ""
    rows = [report_row(report) for report in reports]
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def timeline_to_csv(report: "SimReport") -> str:
    """The per-second, per-rank throughput matrix as CSV (for plotting
    the stacked Fig 4/7/10 curves externally)."""
    timeline = report.metrics.timeline
    horizon = report.makespan or timeline.end_time
    ranks = sorted(report.metrics.per_mds)
    series = {rank: timeline.series(rank, until=horizon) for rank in ranks}
    n = max((len(s) for s in series.values()), default=0)
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["second"] + [f"mds{rank}" for rank in ranks])
    for second in range(n):
        writer.writerow(
            [second] + [
                (series[rank][second] if second < len(series[rank]) else 0.0)
                for rank in ranks
            ]
        )
    return buffer.getvalue()

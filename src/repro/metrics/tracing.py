"""Op-level recording and replay.

:func:`record_run` keeps an :class:`~repro.metrics.collectors.OpRecord`
for every client op of one run in the run-record stream (``report.ops``).
:func:`save_ops` and :func:`load_ops` write and read them as JSON lines,
and :func:`replay_workload` turns them into a
:class:`~repro.workloads.patterns.TraceWorkload`, enabling the
record-once / replay-against-many-balancers methodology the paper uses
to compare strategies "on the same storage system".
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from ..clients.ops import OpKind
from .collectors import OpRecord

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import SimReport, SimulatedCluster
    from ..workloads.patterns import TraceWorkload


def record_run(cluster: "SimulatedCluster", workload,
               **kwargs) -> "SimReport":
    """Run *workload* on *cluster*, recording every op (``report.ops``).

    Recording is on for this run only and changes nothing in it.
    """
    cluster.metrics.record_ops = True
    try:
        return cluster.run_workload(workload, **kwargs)
    finally:
        cluster.metrics.record_ops = False


def save_ops(ops: Iterable[OpRecord], path: str | Path) -> Path:
    """Write *ops* to *path*, one JSON object per line."""
    path = Path(path)
    with path.open("w") as handle:
        for op in ops:
            handle.write(json.dumps(asdict(op), separators=(",", ":")) + "\n")
    return path


def load_ops(path: str | Path) -> list[OpRecord]:
    """The op records :func:`save_ops` wrote to *path*."""
    with Path(path).open() as handle:
        return [OpRecord(**json.loads(line)) for line in handle
                if line.strip()]


def replay_workload(ops: Iterable[OpRecord]) -> "TraceWorkload":
    """The recorded ops as a workload: each client's ops in recorded
    order, clients renumbered from 0 in id order."""
    from ..workloads.patterns import TraceWorkload

    per_client: dict[int, list[tuple]] = {}
    for op in ops:
        per_client.setdefault(op.client_id, []).append(
            (OpKind(op.op), op.path, op.dst) if op.dst
            else (OpKind(op.op), op.path))
    if not per_client:
        raise ValueError("empty trace")
    return TraceWorkload({new_id: per_client[old_id] for new_id, old_id
                          in enumerate(sorted(per_client))})

"""Op-level trace recording and replay.

:func:`record_run` captures every client operation of a run (completion
time, kind, path, latency, serving rank) in a :class:`TraceRecorder`.
Recorded traces can be saved/loaded as JSON-lines and converted into a
:class:`~repro.workloads.patterns.TraceWorkload`, enabling the
record-once / replay-against-many-balancers methodology the paper uses
to compare strategies "on the same storage system".
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from ..dataclass import dataclass
from ..clients.ops import OpKind

if TYPE_CHECKING:  # pragma: no cover
    from ..clients.ops import MetaReply
    from ..cluster import SimulatedCluster
    from ..workloads.patterns import TraceWorkload


@dataclass(frozen=True)
class TraceEvent:
    """One completed client operation."""

    time: float
    client_id: int
    kind: str
    path: str
    latency: float
    served_by: int
    forwards: int
    ok: bool
    dst: str | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), separators=(",", ":"))

    @classmethod
    def from_json(cls, line: str) -> "TraceEvent":
        return cls(**json.loads(line))


class TraceRecorder:
    """Collects :class:`TraceEvent` records (see :func:`record_run`)."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def record_reply(self, now: float, client_id: int,
                     reply: "MetaReply") -> None:
        """The trace sink: clients call it with every reply while
        :func:`record_run` records."""
        self.events.append(TraceEvent(
            time=round(now, 6), client_id=client_id, kind=reply.kind.value,
            path=reply.path, latency=round(reply.latency, 6),
            served_by=reply.served_by, forwards=reply.forwards,
            ok=reply.ok, dst=reply.dst,
        ))

    # -- persistence ------------------------------------------------------
    def save(self, path: str | Path) -> Path:
        path = Path(path)
        with path.open("w") as handle:
            for event in self.events:
                handle.write(event.to_json() + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "TraceRecorder":
        recorder = cls()
        with Path(path).open() as handle:
            for line in handle:
                line = line.strip()
                if line:
                    recorder.events.append(TraceEvent.from_json(line))
        return recorder

    # -- analysis / replay --------------------------------------------------
    def per_client(self) -> dict[int, list[TraceEvent]]:
        out: dict[int, list[TraceEvent]] = {}
        for event in self.events:
            out.setdefault(event.client_id, []).append(event)
        return out

    def to_workload(self) -> "TraceWorkload":
        """Convert into a replayable workload (ops in recorded order)."""
        from ..workloads.patterns import TraceWorkload

        per_client = self.per_client()
        if not per_client:
            raise ValueError("empty trace")
        remapped = {
            new_id: [
                ((OpKind(e.kind), e.path, e.dst) if e.dst
                 else (OpKind(e.kind), e.path))
                for e in events
            ]
            for new_id, (_old, events) in enumerate(
                sorted(per_client.items())
            )
        }
        return TraceWorkload(remapped)

    def summary(self) -> dict[str, float]:
        if not self.events:
            return {"events": 0}
        latencies = [event.latency for event in self.events]
        return {
            "events": len(self.events),
            "clients": len(self.per_client()),
            "mean_latency": sum(latencies) / len(latencies),
            "forwarded": sum(1 for e in self.events if e.forwards),
            "errors": sum(1 for e in self.events if not e.ok),
        }


def record_run(cluster: "SimulatedCluster", workload,
               **kwargs) -> tuple["TraceRecorder", object]:
    """Run *workload* on *cluster* while recording every op.

    The recorder is the cluster's trace sink for this run only; recording
    changes nothing in the run.  Returns (recorder, SimReport).
    """
    recorder = TraceRecorder()
    cluster.metrics.trace = recorder.record_reply
    try:
        report = cluster.run_workload(workload, **kwargs)
    finally:
        cluster.metrics.trace = None
    return recorder, report

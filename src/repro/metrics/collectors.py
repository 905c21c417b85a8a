"""Metric collection: per-rank counters, throughput timelines, latencies.

These feed every figure in the evaluation: stacked per-MDS throughput
curves (Figs 4, 7, 10), latency-vs-throughput scaling (Fig 5), request and
forward counts (Fig 3), and session-flush counts (§4.1).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import field
from typing import Any, ClassVar, Optional

import numpy as np

from ..dataclass import dataclass


@dataclass
class MdsMetrics:
    """Counters of one MDS rank."""

    rank: int = 0
    ops_served: int = 0
    forwards: int = 0
    traversal_hits: int = 0
    #: Remote prefix-path traversals (stale/uncached remote ancestors).
    prefix_traversals: int = 0
    fetches: int = 0
    stores: int = 0
    session_flushes: int = 0
    migrations: int = 0
    imports: int = 0
    inodes_migrated: int = 0
    fragmentations: int = 0
    scatter_gathers: int = 0
    #: Request count since the last heartbeat (for the ``req`` metric).
    reqs_in_window: int = 0
    # Fault accounting.
    crashes: int = 0
    restarts: int = 0
    migrations_aborted: int = 0
    #: Requests bounced off this (dead) rank and retried elsewhere.
    dead_letters: int = 0

    def take_request_rate(self, window: float) -> float:
        count = self.reqs_in_window
        self.reqs_in_window = 0
        return count / window if window > 0 else 0.0


class Timeline:
    """Per-second, per-rank op counts -> the stacked throughput curves."""

    def __init__(self, bucket: float = 1.0) -> None:
        if bucket <= 0:
            raise ValueError("bucket must be positive")
        self.bucket = bucket
        self._counts: dict[int, dict[int, int]] = defaultdict(
            lambda: defaultdict(int)
        )
        self.end_time = 0.0

    def record(self, rank: int, now: float, amount: int = 1) -> None:
        self._counts[rank][int(now / self.bucket)] += amount
        if now > self.end_time:
            self.end_time = now

    # The nested defaultdict uses a lambda factory, which pickle rejects;
    # timelines must cross process/cache boundaries (forked harness cells,
    # cached SimReports), so (de)hydrate through plain dicts.
    def __getstate__(self) -> dict:
        return {
            "bucket": self.bucket,
            "end_time": self.end_time,
            "counts": {rank: dict(buckets)
                       for rank, buckets in self._counts.items()},
        }

    def __setstate__(self, state: dict) -> None:
        self.bucket = state["bucket"]
        self.end_time = state["end_time"]
        self._counts = defaultdict(lambda: defaultdict(int))
        for rank, buckets in state["counts"].items():
            self._counts[rank].update(buckets)

    def series(self, rank: int, until: float | None = None) -> np.ndarray:
        """Requests/second for *rank*, one value per bucket."""
        horizon = until if until is not None else self.end_time
        n = int(horizon / self.bucket) + 1
        out = np.zeros(n)
        for bucket_index, count in self._counts.get(rank, {}).items():
            if bucket_index < n:
                out[bucket_index] = count / self.bucket
        return out

    def ranks(self) -> list[int]:
        return sorted(self._counts.keys())

    def total_series(self, until: float | None = None) -> np.ndarray:
        horizon = until if until is not None else self.end_time
        n = int(horizon / self.bucket) + 1
        out = np.zeros(n)
        for rank in self.ranks():
            series = self.series(rank, horizon)
            out[: len(series)] += series
        return out

    def total_ops(self) -> int:
        return sum(
            count for per_rank in self._counts.values()
            for count in per_rank.values()
        )


class LatencyRecorder:
    """Per-client request latencies (seconds)."""

    def __init__(self) -> None:
        self._samples: dict[int, list[float]] = defaultdict(list)

    def record(self, client_id: int, latency: float) -> None:
        self._samples[client_id].append(latency)

    # -- windowed views (for online health checks) ----------------------
    def marks(self) -> dict[int, int]:
        """Per-client sample counts right now -- a resumable cursor.

        Samples arrive in simulation-event order per client, so a later
        :meth:`since` with these marks returns exactly the samples recorded
        after this call, deterministically.
        """
        return {client: len(samples)
                for client, samples in self._samples.items()}

    def since(self, marks: dict[int, int]) -> np.ndarray:
        """All samples recorded after :meth:`marks` returned *marks*."""
        chunks = [
            np.asarray(samples[marks.get(client, 0):], dtype=float)
            for client, samples in sorted(self._samples.items())
        ]
        chunks = [chunk for chunk in chunks if chunk.size]
        if not chunks:
            return np.zeros(0)
        return np.concatenate(chunks)

    def client_latencies(self, client_id: int) -> np.ndarray:
        return np.asarray(self._samples.get(client_id, ()), dtype=float)

    def all_latencies(self) -> np.ndarray:
        if not self._samples:
            return np.zeros(0)
        return np.concatenate(
            [np.asarray(v, dtype=float) for v in self._samples.values()]
        )

    def mean(self) -> float:
        lat = self.all_latencies()
        return float(lat.mean()) if lat.size else 0.0

    def percentile(self, q: float) -> float:
        lat = self.all_latencies()
        return float(np.percentile(lat, q)) if lat.size else 0.0

    def std(self) -> float:
        lat = self.all_latencies()
        return float(lat.std()) if lat.size else 0.0


#: Policy-lifecycle event kinds: rollout, guard, breaker and version
#: commits.  Every other :class:`RunEvent` is a fault or a recovery.
LIFECYCLE_KINDS = frozenset({
    "canary-start", "canary-promote", "canary-rollback", "guard-veto",
    "breaker-open", "breaker-probation", "breaker-close",
    "breaker-permanent", "policy-commit",
})
#: Kinds whose producer makes its own record object: a balancer tick's
#: ``BalanceDecision``, a shadow's ``ShadowTick`` and a client's
#: :class:`OpRecord`.
SELF_RECORDED_KINDS = frozenset({"decision", "shadow", "op"})


@dataclass(frozen=True)
class RunEvent:
    """One fault, recovery or policy-lifecycle event of a run."""

    time: float
    kind: str      # e.g. "crash", "takeover", "canary-start", "guard-veto"
    rank: int      # rank the event concerns; -1 for cluster-wide events
    detail: str = ""


@dataclass(slots=True)
class OpRecord:
    """One completed client op, kept only while the run is recorded
    (``ClusterMetrics.record_ops``).  ``time`` is the reply's arrival at
    the client and ``latency`` runs from issue to then, as the report's
    latencies do; ``rank`` served the op after ``forwards`` forwards."""

    kind: ClassVar[str] = "op"
    time: float
    rank: int
    client_id: int
    op: str
    path: str
    dst: Optional[str]
    latency: float
    forwards: int
    result: Any
    error: Optional[str]


class RunRecordViews:
    """Read-only views over ``records``, the run-record stream.

    The stream holds :class:`RunEvent`, ``BalanceDecision``,
    ``ShadowTick`` and :class:`OpRecord` records in the order they
    happened; each has ``time``, ``kind`` and ``rank``.
    """

    records: list

    @property
    def ops(self) -> list[OpRecord]:
        return [r for r in self.records if r.kind == "op"]

    @property
    def decisions(self) -> list:
        return [r for r in self.records if r.kind == "decision"]

    @property
    def shadow_log(self) -> list:
        return [r for r in self.records if r.kind == "shadow"]

    @property
    def lifecycle_events(self) -> list[RunEvent]:
        return [r for r in self.records if r.kind in LIFECYCLE_KINDS]

    @property
    def fault_events(self) -> list[RunEvent]:
        return [r for r in self.records
                if r.kind not in LIFECYCLE_KINDS
                and r.kind not in SELF_RECORDED_KINDS]


@dataclass
class ClusterMetrics(RunRecordViews):
    """Everything measured during one simulation run."""

    per_mds: dict[int, MdsMetrics] = field(default_factory=dict)
    timeline: Timeline = field(default_factory=Timeline)
    latencies: LatencyRecorder = field(default_factory=LatencyRecorder)
    client_finish_times: dict[int, float] = field(default_factory=dict)
    client_op_counts: dict[int, int] = field(default_factory=dict)
    #: The run-record stream, appended to through :meth:`record`.
    records: list = field(default_factory=list)
    #: True while a run is being recorded: every client appends an
    #: :class:`OpRecord` per reply (see ``metrics.tracing.record_run``).
    record_ops: bool = False

    def record(self, time: float, kind: str, rank: int,
               detail="") -> None:
        """Append one record to the stream: the ``events=`` sink of every
        producer.  Faults and lifecycle events pass a string *detail*; a
        ``"decision"`` or ``"shadow"`` producer passes its own record."""
        self.records.append(detail if kind in SELF_RECORDED_KINDS
                            else RunEvent(time, kind, rank, detail))

    def mds(self, rank: int) -> MdsMetrics:
        metrics = self.per_mds.get(rank)
        if metrics is None:
            metrics = MdsMetrics(rank=rank)
            self.per_mds[rank] = metrics
        return metrics

    # -- aggregates ------------------------------------------------------
    @property
    def total_ops(self) -> int:
        return sum(m.ops_served for m in self.per_mds.values())

    @property
    def total_forwards(self) -> int:
        return sum(m.forwards for m in self.per_mds.values())

    @property
    def total_hits(self) -> int:
        return sum(m.traversal_hits for m in self.per_mds.values())

    @property
    def total_prefix_traversals(self) -> int:
        return sum(m.prefix_traversals for m in self.per_mds.values())

    @property
    def total_migrations(self) -> int:
        return sum(m.migrations for m in self.per_mds.values())

    @property
    def total_session_flushes(self) -> int:
        return sum(m.session_flushes for m in self.per_mds.values())

    def makespan(self) -> float:
        return max(self.client_finish_times.values(), default=0.0)

    def client_runtimes(self) -> dict[int, float]:
        return dict(self.client_finish_times)

"""Decision-log analysis: study the emergent behaviour of a balancer.

The paper's goal is "a framework that allows users to study the emergent
behavior of different strategies".  This module turns a run's decision log
and throughput timeline into the quantities those studies need: migration
cadence, thrash (units that move repeatedly or ping-pong back), time to
first balance, settle time, and a balance-quality timeline (the per-window
coefficient of variation of per-rank throughput the paper's stacked
figures show visually).

Note: analysis is post-hoc (it reads a finished ``SimReport``); nothing
here influences the run.
"""

from __future__ import annotations

from dataclasses import field
from typing import TYPE_CHECKING

import numpy as np

from ..dataclass import dataclass

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import SimReport


@dataclass(frozen=True)
class Migration:
    """One export event from the decision log."""

    time: float
    source: int
    target: int
    path: str
    load: float


@dataclass
class ThrashReport:
    """Units that moved more than once, and A->B->A ping-pongs."""

    repeat_moves: dict[str, int] = field(default_factory=dict)
    ping_pongs: list[tuple[str, int, int]] = field(default_factory=list)

    @property
    def total_excess_moves(self) -> int:
        return sum(count - 1 for count in self.repeat_moves.values())

    @property
    def is_thrashing(self) -> bool:
        return bool(self.ping_pongs) or self.total_excess_moves > 0


class DecisionAnalysis:
    """Post-hoc analysis of one run's balancing behaviour."""

    def __init__(self, migrations: list[Migration], makespan: float,
                 num_ranks: int) -> None:
        self.migrations = sorted(migrations, key=lambda m: m.time)
        self.makespan = makespan
        self.num_ranks = num_ranks

    @classmethod
    def from_report(cls, report: "SimReport") -> "DecisionAnalysis":
        migrations = [
            Migration(time=decision.time, source=decision.rank,
                      target=target, path=path, load=load)
            for decision in report.decisions
            for (path, load, target) in decision.exports
        ]
        return cls(migrations, report.makespan,
                   num_ranks=report.config.num_mds)

    # -- cadence ------------------------------------------------------
    @property
    def migration_count(self) -> int:
        return len(self.migrations)

    def time_to_first_balance(self) -> float:
        """When the first export was decided (inf if never)."""
        return self.migrations[0].time if self.migrations else float("inf")

    def settle_time(self) -> float:
        """When the last export was decided (0 if never).

        A well-behaved balancer settles early (paper Fig 9: "moves the
        large subtrees ... and then stops migrating"); a thrashing one
        keeps going until the job ends (Fig 10 bottom).
        """
        return self.migrations[-1].time if self.migrations else 0.0

    def settle_fraction(self) -> float:
        """Settle time as a fraction of the makespan."""
        if not self.migrations or self.makespan <= 0:
            return 0.0
        return min(1.0, self.settle_time() / self.makespan)

    def load_moved(self) -> float:
        return sum(m.load for m in self.migrations)

    # -- thrash --------------------------------------------------------
    def thrash(self) -> ThrashReport:
        report = ThrashReport()
        history: dict[str, list[Migration]] = {}
        for migration in self.migrations:
            history.setdefault(migration.path, []).append(migration)
        for path, moves in history.items():
            if len(moves) > 1:
                report.repeat_moves[path] = len(moves)
            for first, second in zip(moves, moves[1:]):
                if (second.target == first.source
                        and second.source == first.target):
                    report.ping_pongs.append(
                        (path, first.source, first.target)
                    )
        return report

    # -- per-rank flow ---------------------------------------------------
    def exports_by_rank(self) -> dict[int, int]:
        out = {rank: 0 for rank in range(self.num_ranks)}
        for migration in self.migrations:
            out[migration.source] += 1
        return out

    def imports_by_rank(self) -> dict[int, int]:
        out = {rank: 0 for rank in range(self.num_ranks)}
        for migration in self.migrations:
            out[migration.target] += 1
        return out


def balance_timeline(report: "SimReport",
                     window: float = 10.0) -> list[tuple[float, float]]:
    """Per-window balance quality: (window end time, cv of per-rank rate).

    cv 0 means perfectly even service across ranks in that window; high cv
    means one rank did all the work.  Windows with no traffic are skipped.
    """
    if window <= 0:
        raise ValueError("window must be positive")
    timeline = report.metrics.timeline
    horizon = report.makespan or timeline.end_time
    ranks = sorted(report.metrics.per_mds)
    if not ranks:
        return []
    series = {rank: timeline.series(rank, until=horizon) for rank in ranks}
    n = max(len(s) for s in series.values())
    out: list[tuple[float, float]] = []
    step = max(1, int(window / timeline.bucket))
    for start in range(0, n, step):
        rates = []
        for rank in ranks:
            chunk = series[rank][start:start + step]
            rates.append(float(chunk.sum()))
        total = sum(rates)
        if total <= 0:
            continue
        mean = total / len(rates)
        cv = float(np.std(rates) / mean) if mean else 0.0
        out.append(((start + step) * timeline.bucket, cv))
    return out


def summarize_behaviour(report: "SimReport") -> str:
    """A human-readable behaviour summary of one run."""
    analysis = DecisionAnalysis.from_report(report)
    thrash = analysis.thrash()
    balance = balance_timeline(report)
    final_cv = balance[-1][1] if balance else float("nan")
    lines = [
        f"policy: {report.policy_name}",
        f"makespan: {report.makespan:.1f}s, throughput "
        f"{report.throughput:.0f} req/s",
        f"migrations: {analysis.migration_count} "
        f"(first at {analysis.time_to_first_balance():.1f}s, settled at "
        f"{analysis.settle_time():.1f}s = "
        f"{analysis.settle_fraction():.0%} of the run)",
        f"load moved: {analysis.load_moved():.0f}",
        f"thrash: {analysis.thrash().total_excess_moves} excess moves, "
        f"{len(thrash.ping_pongs)} ping-pongs",
        f"final balance cv: {final_cv:.3f}",
    ]
    lines.extend(lifecycle_lines(report))
    return "\n".join(lines)


def lifecycle_lines(report: "SimReport") -> list[str]:
    """Lifecycle trace lines (guard vetoes, breaker, rollout events).

    Empty for runs with no lifecycle activity, so pre-lifecycle output is
    unchanged.
    """
    events = getattr(report, "lifecycle_events", None) or []
    # The version log is part of the lifecycle story too, but only worth
    # printing once something beyond the initial injection happened.
    interesting = [e for e in events if e.kind != "policy-commit"]
    if not interesting:
        return []
    kinds = [event.kind for event in events]
    vetoes = kinds.count("guard-veto")
    lines = [
        f"lifecycle: {len(interesting)} events "
        f"({vetoes} guard vetoes)",
    ]
    for event in interesting:
        who = "cluster" if event.rank < 0 else f"mds{event.rank}"
        lines.append(
            f"  {event.time:8.1f}s {event.kind:<18} {who}: {event.detail}"
        )
    log = getattr(report, "policy_log", None) or []
    if len(log) > 1:
        lines.append("policy versions:")
        for version in log:
            note = f" ({version.note})" if version.note else ""
            lines.append(
                f"  v{version.version} '{version.name}'"
                f" @ {version.time:.1f}s{note}"
            )
    return lines

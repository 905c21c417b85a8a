"""Canary rollout: stage a policy on one rank, promote or roll back.

The paper's injection path (``ceph tell mds.* ...``) swaps the balancer on
every rank at once; a bad policy therefore melts the whole cluster (the
Greedy Spill scenario).  The canary controller stages the rollout instead:

1. at ``at`` seconds the candidate policy replaces the live one on a
   single *canary rank* (the rest of the cluster keeps the live policy);
2. for ``window`` seconds the controller watches deterministic health
   signals -- Lua error count, breaker state, migration count, ping-pong
   moves, guard vetoes, and p99 request latency against the pre-rollout
   baseline;
3. on a healthy window the candidate is promoted to every rank; on a
   violation the canary rank reverts to the live policy and the version
   store rolls back to the pre-canary head.

The controller is driven from the canary rank's own heartbeat ticks (no
private timers), and every signal it reads is simulator state, so runs
stay bit-identical across serial, ``--jobs N`` and forked-grid execution.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

import numpy as np

from ..core.api import MantlePolicy
from ..core.balancer import MantleBalancer


class CanaryController:
    """Stages one candidate policy through canary -> promote/rollback."""

    def __init__(self, cluster, candidate: MantlePolicy,
                 rank: Optional[int] = None,
                 at: float = 30.0, window: float = 20.0,
                 max_errors: int = 0,
                 max_migrations: Optional[int] = None,
                 max_ping_pongs: int = 0,
                 latency_factor: float = 2.0) -> None:
        if cluster.balancer is None:
            raise RuntimeError("inject a live policy before arming a canary")
        if window <= 0:
            raise ValueError("canary window must be positive")
        candidate.compile_all()
        self.cluster = cluster
        self.candidate = candidate
        #: Default canary: the highest rank (root subtrees live on rank 0,
        #: so the blast radius of a bad candidate is smallest there).
        self.rank = (len(cluster.mdss) - 1) if rank is None else rank
        if not 0 <= self.rank < len(cluster.mdss):
            raise ValueError(f"no such rank {self.rank}")
        self.at = at
        self.window = window
        self.max_errors = max_errors
        self.max_migrations = max_migrations
        self.max_ping_pongs = max_ping_pongs
        self.latency_factor = latency_factor
        self.primary = cluster.balancer
        #: The candidate runs in its own balancer with its own state (its
        #: WRstate writes must not leak into the live policy's), but it
        #: shares the cluster guard and event sink.
        self.balancer = MantleBalancer(
            candidate,
            error_threshold=cluster.config.policy_error_threshold,
            guard=cluster.guard,
            events=cluster.metrics.record,
        )
        #: armed -> watching -> promoted | rolled-back.
        self.phase = "armed"
        self.started_at: Optional[float] = None
        self.violations: list[str] = []
        self._latency_marks: Optional[dict[int, int]] = None
        self._baseline_p99 = 0.0
        head = cluster.policy_store.head
        self.baseline_version = head.version if head is not None else None
        # Record the candidate in the version store up front (the paper
        # stores the balancer version in RADOS before injection).  Time 0.0:
        # arming is pre-run bookkeeping -- see repro.lifecycle.store.
        self.candidate_version = cluster.policy_store.commit(
            candidate, 0.0, note=f"canary candidate for mds{self.rank}"
        ).version

    # -- heartbeat-driven state machine ---------------------------------
    def on_heartbeat(self, mds, now: float) -> None:
        """Called by the canary rank's MdsServer on each heartbeat tick."""
        if mds.rank != self.rank:
            return
        if self.phase == "armed" and now >= self.at:
            self._start(mds, now)
        elif (self.phase == "watching"
                and now >= self.started_at + self.window):
            self._evaluate(mds, now)

    def _start(self, mds, now: float) -> None:
        self.phase = "watching"
        self.started_at = now
        latencies = self.cluster.metrics.latencies
        self._latency_marks = latencies.marks()
        self._baseline_p99 = latencies.percentile(99.0)
        mds.balancer = self.balancer
        self.cluster.metrics.record(
            now, "canary-start", self.rank,
            f"policy '{self.candidate.name}' "
            f"(v{self.candidate_version}) on mds{self.rank}, "
            f"window {self.window:g}s",
        )

    def _evaluate(self, mds, now: float) -> None:
        self.violations = self.health_violations()
        if self.violations:
            self._rollback(mds, now)
        else:
            self._promote(now)

    # -- health signals (all pure simulator state) ----------------------
    def health_violations(self) -> list[str]:
        reasons: list[str] = []
        balancer = self.balancer
        if balancer.errors > self.max_errors:
            reasons.append(
                f"lua errors {balancer.errors} > {self.max_errors}"
            )
        if balancer.tripped:
            reasons.append("circuit breaker tripped")
        migrations = balancer.migrations_decided()
        if (self.max_migrations is not None
                and migrations > self.max_migrations):
            reasons.append(
                f"migrations {migrations} > {self.max_migrations}"
            )
        ping_pongs = self._ping_pong_moves()
        if ping_pongs > self.max_ping_pongs:
            reasons.append(
                f"ping-pong moves {ping_pongs} > {self.max_ping_pongs}"
            )
        vetoes = sum(len(d.vetoes) for d in balancer.decisions)
        if vetoes > 0:
            reasons.append(f"{vetoes} stability-guard vetoes")
        if self._baseline_p99 > 0 and self._latency_marks is not None:
            window_lat = self.cluster.metrics.latencies.since(
                self._latency_marks
            )
            if window_lat.size:
                p99 = float(np.percentile(window_lat, 99.0))
                ceiling = self.latency_factor * self._baseline_p99
                if p99 > ceiling:
                    reasons.append(
                        f"p99 latency {p99 * 1e3:.1f}ms > "
                        f"{self.latency_factor:g}x baseline "
                        f"{self._baseline_p99 * 1e3:.1f}ms"
                    )
        return reasons

    def _ping_pong_moves(self) -> int:
        """Re-exports of the same path by the candidate inside the window
        (the unit came back and was shipped out again)."""
        counts = Counter(
            path
            for decision in self.balancer.decisions
            for (path, _load, _target) in decision.exports
        )
        return sum(count - 1 for count in counts.values() if count > 1)

    # -- outcomes -------------------------------------------------------
    def _promote(self, now: float) -> None:
        self.phase = "promoted"
        for mds in self.cluster.mdss:
            mds.balancer = self.balancer
        self.cluster.balancer = self.balancer
        self.cluster.metrics.record(
            now, "canary-promote", -1,
            f"policy '{self.candidate.name}' "
            f"(v{self.candidate_version}) promoted to all ranks",
        )

    def _rollback(self, mds, now: float) -> None:
        self.phase = "rolled-back"
        mds.balancer = self.primary
        detail = "; ".join(self.violations)
        if self.baseline_version is not None:
            restored = self.cluster.policy_store.rollback(
                self.baseline_version, now,
                note=f"canary failed: {detail}",
            )
            detail += (f"; store rolled back to v{self.baseline_version}"
                       f" (as v{restored.version})")
        self.cluster.metrics.record(
            now, "canary-rollback", self.rank,
            f"policy '{self.candidate.name}' rolled back: {detail}",
        )

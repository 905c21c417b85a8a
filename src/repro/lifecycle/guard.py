"""Online stability guard: live ping-pong damping.

:mod:`repro.core.inspector` detects thrash *post hoc* -- a unit that moved
A->B->A shows up in the finished report.  The paper's Greedy Spill scenario
(§6, Fig 10 bottom) shows why that is not enough: a policy that keeps
bouncing the same subtree between two ranks melts the cluster long before
anyone reads a report.  The :class:`StabilityGuard` lifts the same
detection into the live path: it remembers every export decision inside a
sliding window and vetoes a re-export whose reversal count inside that
window reaches the configured bounce budget.

Determinism: the guard consults only the decision log it was fed (unit
path, source, target, decision time) -- all pure simulator state -- so
guarded runs stay bit-identical across serial, ``--jobs N`` and forked-grid
execution.
"""

from __future__ import annotations

from typing import Callable


class StabilityGuard:
    """Veto re-exports of units that keep bouncing between ranks.

    One guard serves the whole cluster (every balancer consults the same
    move history -- a bounce is a cluster-wide property, not a per-rank
    one).  ``events`` is the ``(time, kind, rank, detail)`` sink each
    veto is recorded to (kind ``"guard-veto"``), normally
    :meth:`ClusterMetrics.record`.
    """

    def __init__(self, events: Callable[[float, str, int, str], None],
                 window: float = 60.0, max_bounces: int = 2) -> None:
        if window <= 0:
            raise ValueError("guard window must be positive")
        if max_bounces < 1:
            raise ValueError("max_bounces must be >= 1")
        self.window = window
        self.max_bounces = max_bounces
        self.events = events
        #: path -> [(time, source, target), ...] inside the window.
        self._moves: dict[str, list[tuple[float, int, int]]] = {}

    # -- the live-path check -------------------------------------------
    def allow(self, path: str, source: int, target: int,
              now: float) -> bool:
        """May *source* export the unit at *path* to *target* right now?

        Returns False (and records a veto) when the proposed move is a
        reversal and the unit's reversal count inside the window --
        counting the proposed move itself -- reaches ``max_bounces``.
        """
        history = self._pruned(path, now)
        if not history:
            return True
        last_src, last_dst = history[-1][1], history[-1][2]
        if (source, target) != (last_dst, last_src):
            return True  # not a reversal of the unit's last move
        bounces = 1  # the proposed reversal
        for earlier, later in zip(history, history[1:]):
            if (later[1], later[2]) == (earlier[2], earlier[1]):
                bounces += 1
        if bounces < self.max_bounces:
            return True
        self.events(now, "guard-veto", source,
                    f"{path}: mds{source}->mds{target} bounce "
                    f"{bounces} within {self.window:g}s")
        return False

    def record(self, path: str, source: int, target: int,
               now: float) -> None:
        """Log an export the balancer actually decided."""
        self._pruned(path, now).append((now, source, target))

    def _pruned(self, path: str, now: float) -> list[tuple[float, int, int]]:
        history = self._moves.setdefault(path, [])
        floor = now - self.window
        if history and history[0][0] < floor:
            self._moves[path] = history = [move for move in history
                                           if move[0] >= floor]
        return history

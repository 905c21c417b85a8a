"""Shadow evaluation: dry-run a candidate policy against live bindings.

Pre-injection validation (:mod:`repro.core.validator`) answers "does this
policy parse and stay inside its budget?".  The shadow evaluator answers
the operational question: *what would it have done, tick by tick, on the
live cluster?*  On every balancing tick the live balancer stashes the
exact inputs it decided on -- the per-rank metric dicts and the counter
snapshots -- and the shadow runs the candidate's hooks over copies of them
through the same :func:`~repro.core.environment.run_hooks` the balancer
uses, recording whether the candidate would have migrated and where.
Nothing it computes ever touches the cluster.

Passivity is load-bearing: the shadow judges the candidate on exactly the
bindings the live policy decided on, so it takes no snapshots of its own
and reuses the live tick's dicts read-only.  It keeps a private
:class:`BalancerState` so candidate ``WRstate`` writes stay invisible.
"""

from __future__ import annotations

from dataclasses import field
from typing import ClassVar, Optional

from ..dataclass import dataclass
from ..core.api import MantlePolicy
from ..core.environment import HookError, run_hooks
from ..core.state import BalancerState


@dataclass(frozen=True)
class ShadowTick:
    """Divergence record of one balancing tick."""

    kind: ClassVar[str] = "shadow"
    time: float
    rank: int
    live_went: bool
    shadow_went: bool = False
    live_targets: dict[int, float] = field(default_factory=dict)
    shadow_targets: dict[int, float] = field(default_factory=dict)
    #: Per-rank target deltas (shadow minus live), only for ranks where
    #: the two disagree.
    target_deltas: dict[int, float] = field(default_factory=dict)
    diverged: bool = False
    error: Optional[str] = None
    skipped: Optional[str] = None


class ShadowEvaluator:
    """Runs a candidate policy's hooks beside the live one, never applying
    its decisions.  Each :meth:`observe` returns the tick's record; the
    live balancer appends it to the run-record stream."""

    def __init__(self, policy: MantlePolicy) -> None:
        policy.compile_all()
        self.policy = policy
        self.state = BalancerState()

    def observe(self, now: float, rank: int, live_decision,
                inputs) -> ShadowTick:
        """Evaluate the candidate on one tick's exact binding inputs.

        *inputs* is ``(mds_metrics, auth_counters, all_counters)`` stashed
        by the live balancer, or ``None`` when the live tick never built
        bindings (skipped, or errored while scoring) -- the shadow then
        skips too, for the same reason.
        """
        if inputs is None:
            return ShadowTick(
                time=now, rank=rank, live_went=live_decision.went,
                skipped=live_decision.skipped or "live tick errored",
            )
        mds_metrics, auth_counters, all_counters = inputs
        # Copies: the candidate's mdsload must not clobber the live
        # "load" values other components may still read.
        metrics = [dict(m) for m in mds_metrics]
        try:
            _go, targets = run_hooks(self.policy, rank, metrics,
                                     auth_counters, all_counters, self.state)
        except HookError as exc:
            return ShadowTick(
                time=now, rank=rank, live_went=live_decision.went,
                live_targets=dict(live_decision.targets),
                diverged=live_decision.went, error=str(exc.error),
            )
        went = bool(targets)
        live_targets = dict(live_decision.targets)
        deltas = {
            r: targets.get(r, 0.0) - live_targets.get(r, 0.0)
            for r in sorted(set(targets) | set(live_targets))
            if targets.get(r, 0.0) != live_targets.get(r, 0.0)
        }
        return ShadowTick(
            time=now, rank=rank, live_went=live_decision.went,
            shadow_went=went, live_targets=live_targets,
            shadow_targets=targets, target_deltas=deltas,
            diverged=went != live_decision.went or bool(deltas),
        )


def shadow_summary(policy: str, ticks: list[ShadowTick]) -> dict:
    """Aggregate stats of a shadow named *policy* over its *ticks*."""
    evaluated = [t for t in ticks if t.skipped is None]
    return {
        "policy": policy,
        "ticks": len(ticks),
        "evaluated": len(evaluated),
        "would_migrate": sum(1 for t in evaluated if t.shadow_went),
        "live_migrated": sum(1 for t in evaluated if t.live_went),
        "divergences": sum(1 for t in ticks if t.diverged),
        "errors": sum(1 for t in ticks if t.error is not None),
    }

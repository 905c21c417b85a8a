"""The Mantle balancer driver.

Runs once per heartbeat tick on each MDS (paper Fig 2's "migrate?" box):

1. score every rank with the policy's ``mds_bal_mdsload`` formula over the
   (stale) heartbeat table;
2. execute the ``when``/``where`` decision chunk in the Mantle environment;
3. if the policy produced ``targets``, partition the namespace -- walking
   from this rank's subtree roots downward, racing the policy's dirfrag
   selectors against each target load (§3.2 "How Much");
4. hand the chosen export units to the migration mechanism.

Any Lua error or budget blow-up in injected code aborts the tick without
touching the cluster -- the decoupling safety property the paper argues
for.
"""

from __future__ import annotations

from dataclasses import field
from typing import TYPE_CHECKING, Callable, ClassVar, Optional

from ..dataclass import dataclass
from ..luapolicy.errors import LuaError
from ..mds.migration import ExportUnit
from ..namespace.directory import Directory
from .api import MantlePolicy
from .environment import build_decision_bindings, extract_targets
from .selectors import choose_best
from .state import BalancerState

if TYPE_CHECKING:  # pragma: no cover
    from ..mds.server import MdsServer


@dataclass(slots=True)
class BalanceDecision:
    """Record of one balancing tick (for tests, reports and debugging)."""

    kind: ClassVar[str] = "decision"
    time: float
    rank: int
    went: bool
    targets: dict[int, float] = field(default_factory=dict)
    exports: list[tuple[str, float, int]] = field(default_factory=list)
    error: Optional[str] = None
    skipped: Optional[str] = None
    #: True when this tick ran on the fallback (circuit-breaker) policy.
    fallback: bool = False
    #: True when this tick re-tried the injected policy on probation
    #: (half-open breaker).
    probation: bool = False
    #: Exports vetoed by the stability guard: ``(path, target_rank)``.
    vetoes: list[tuple[str, int]] = field(default_factory=list)


class MantleBalancer:
    """Attaches a :class:`MantlePolicy` to the MDS mechanisms.

    A *circuit breaker* guards against persistently-broken injected code:
    after ``error_threshold`` consecutive Lua errors the balancer trips and
    swaps in the built-in original CephFS policy (Table 1) instead of
    silently idling forever -- the cluster keeps balancing even when the
    injected policy is garbage.  A clean tick before the threshold resets
    the counter.

    The breaker is *half-open*: with ``probation_ticks > 0``, after that
    many consecutive clean (non-skipped) fallback ticks the balancer
    re-tries the injected policy once on probation.  A clean probation
    tick closes the breaker; a second failure trips it permanently.
    States: ``closed -> open -> probation -> closed | permanent``.

    Optional lifecycle collaborators:

    * ``guard`` -- a :class:`repro.lifecycle.StabilityGuard` consulted
      before every export (live ping-pong damping);
    * ``shadow`` -- a :class:`repro.lifecycle.ShadowEvaluator` fed each
      tick's exact binding inputs, never affecting decisions;
    * ``events`` -- ``(time, kind, rank, detail)`` sink for breaker
      transitions, each tick's decision (kind ``"decision"``) and each
      shadow tick (kind ``"shadow"``), normally
      :meth:`ClusterMetrics.record`.
    """

    def __init__(self, policy: MantlePolicy,
                 state: BalancerState | None = None,
                 error_threshold: int = 3,
                 probation_ticks: int = 0,
                 guard=None,
                 shadow=None,
                 events: Optional[Callable[[float, str, int, str], None]]
                 = None) -> None:
        policy.compile_all()
        self.policy = policy
        self.state = state or BalancerState()
        self.metaload_fn = policy.metaload_fn()
        self.mdsload_fn = policy.mdsload_fn()
        self.decisions: list[BalanceDecision] = []
        self.errors = 0
        self.error_threshold = error_threshold
        self.probation_ticks = probation_ticks
        self.consecutive_errors = 0
        #: Breaker state: closed | open | probation | permanent.
        self.breaker = "closed"
        self._clean_fallback_ticks = 0
        self.guard = guard
        self.shadow = shadow
        self.events = events
        self._active = policy
        self._tick_inputs = None
        # Per-tick metaload memos.  Within one tick `now` is fixed and the
        # first counter snapshot decays the counters in place, so repeated
        # evaluations return bit-identical values -- caching them skips
        # re-walking subtrees once per target rank.
        self._dir_load_memo: dict[int, float] = {}
        self._unit_load_memo: dict[int, float] = {}

    # -- circuit breaker ------------------------------------------------
    @property
    def tripped(self) -> bool:
        """Is the fallback policy in charge right now?"""
        return self.breaker in ("open", "permanent")

    def active_policy(self) -> MantlePolicy:
        """The policy actually in charge (the fallback once tripped)."""
        return self._active

    def _emit(self, now: float, kind: str, rank: int, detail: str) -> None:
        if self.events is not None:
            self.events(now, kind, rank, detail)

    def _record_error(self, now: float, rank: int) -> None:
        self.errors += 1
        if self.breaker == "probation":
            self._trip(now, rank, permanent=True)
            return
        self.consecutive_errors += 1
        if (self.breaker == "closed"
                and self.consecutive_errors >= self.error_threshold):
            self._trip(now, rank)

    def _trip(self, now: float, rank: int, permanent: bool = False) -> None:
        # Imported lazily: policies -> balancer would be a cycle.
        from .policies.original import original_policy
        fallback = original_policy()
        fallback.compile_all()
        self.breaker = "permanent" if permanent else "open"
        self._clean_fallback_ticks = 0
        self._active = fallback
        self.metaload_fn = fallback.metaload_fn()
        self.mdsload_fn = fallback.mdsload_fn()
        if permanent:
            self._emit(now, "breaker-permanent", rank,
                       f"policy '{self.policy.name}' failed probation; "
                       "fallback is permanent")
        else:
            self._emit(now, "breaker-open", rank,
                       f"policy '{self.policy.name}' tripped after "
                       f"{self.consecutive_errors} consecutive errors")

    def _enter_probation(self, now: float, rank: int) -> None:
        self.breaker = "probation"
        self._active = self.policy
        self.metaload_fn = self.policy.metaload_fn()
        self.mdsload_fn = self.policy.mdsload_fn()
        self._emit(now, "breaker-probation", rank,
                   f"re-trying policy '{self.policy.name}' after "
                   f"{self._clean_fallback_ticks} clean fallback ticks")

    def _after_clean_tick(self, decision: BalanceDecision, now: float,
                          rank: int) -> None:
        """Bookkeeping for an error-free tick (possibly skipped)."""
        if self.breaker == "closed":
            self.consecutive_errors = 0
        elif self.breaker == "open" and decision.skipped is None:
            self._clean_fallback_ticks += 1
        elif self.breaker == "probation" and decision.skipped is None:
            self.breaker = "closed"
            self.consecutive_errors = 0
            self._emit(now, "breaker-close", rank,
                       f"policy '{self.policy.name}' survived probation; "
                       "breaker closed")

    # ------------------------------------------------------------------
    def tick(self, mds: "MdsServer") -> BalanceDecision:
        now = mds.engine.now
        self._dir_load_memo.clear()
        self._unit_load_memo.clear()
        self._tick_inputs = None
        if (self.breaker == "open" and self.probation_ticks > 0
                and self._clean_fallback_ticks >= self.probation_ticks):
            self._enter_probation(now, mds.rank)
        decision = BalanceDecision(time=now, rank=mds.rank, went=False,
                                   fallback=self.tripped,
                                   probation=self.breaker == "probation")
        self.decisions.append(decision)
        self._emit(now, "decision", mds.rank, decision)
        self._tick_inner(mds, decision)
        if decision.error is None:
            self._after_clean_tick(decision, now, mds.rank)
        if self.shadow is not None:
            self._emit(now, "shadow", mds.rank,
                       self.shadow.observe(now, mds.rank, decision,
                                           self._tick_inputs))
            self._tick_inputs = None
        return decision

    def _tick_inner(self, mds: "MdsServer",
                    decision: BalanceDecision) -> None:
        now = mds.engine.now
        num_ranks = len(mds.peers)
        if num_ranks < 2:
            decision.skipped = "single MDS"
            return
        if mds.migrator.in_flight > 0:
            decision.skipped = "migration in flight"
            return
        alive = set(mds.hb_table.alive_ranks(now, mds.beacon_grace))
        alive.add(mds.rank)
        missing = [rank for rank in range(num_ranks)
                   if rank not in alive and not mds.hb_table.is_down(rank)]
        if missing:
            decision.skipped = "heartbeats incomplete"
            return
        if len(alive) < 2:
            decision.skipped = "no live peers"
            return

        mds_metrics = self._score_ranks(mds, num_ranks, alive, decision)
        if mds_metrics is None:
            return

        targets = self._run_decision(mds, mds_metrics, alive, decision)
        if not targets:
            return
        decision.went = True
        decision.targets = dict(targets)

        self._ship(mds, targets, decision)

    # -- step 1: score all ranks ------------------------------------------
    def _score_ranks(self, mds: "MdsServer", num_ranks: int,
                     alive: set[int],
                     decision: BalanceDecision) -> Optional[list[dict]]:
        metrics_list: list[dict] = []
        for rank in range(num_ranks):
            beat = mds.hb_table.get(rank)
            if rank in alive and beat is not None:
                metrics = beat.as_metrics()
                metrics["alive"] = 1.0
            else:
                # Dead rank: zeroed metrics, flagged for the policy.
                metrics = {"auth": 0.0, "all": 0.0, "cpu": 0.0, "mem": 0.0,
                           "q": 0.0, "req": 0.0, "alive": 0.0}
            metrics_list.append(metrics)
        try:
            for rank, metrics in enumerate(metrics_list):
                if metrics["alive"]:
                    metrics["load"] = self.mdsload_fn(metrics_list, rank)
                else:
                    metrics["load"] = 0.0
        except LuaError as exc:
            self._record_error(mds.engine.now, mds.rank)
            decision.error = f"mdsload: {exc}"
            return None
        return metrics_list

    # -- step 2: when/where decision ---------------------------------------
    def _run_decision(self, mds: "MdsServer", mds_metrics: list[dict],
                      alive: set[int],
                      decision: BalanceDecision) -> dict[int, float]:
        now = mds.engine.now
        wrstate, rdstate = self.state.bound_functions(mds.rank)
        # Snapshot once and share; within one tick `now` is fixed, so the
        # repeated snapshots the old code took were bit-identical anyway.
        local_counters = mds.all_load.snapshot(now)
        auth_counters = mds.auth_load.snapshot(now)
        all_counters = mds.all_load.snapshot(now)
        if self.shadow is not None:
            # Stash the *exact* inputs this tick decided on, so the shadow
            # evaluates its candidate against identical bindings without
            # touching (and re-decaying) any live counter.
            self._tick_inputs = (mds_metrics, local_counters,
                                 auth_counters, all_counters)
        bindings = build_decision_bindings(
            whoami=mds.rank,
            mds_metrics=mds_metrics,
            local_counters=local_counters,
            auth_metaload=self.metaload_fn(auth_counters),
            all_metaload=self.metaload_fn(all_counters),
            wrstate=wrstate,
            rdstate=rdstate,
        )
        try:
            result = self._active.decision_chunk().run(bindings)
        except LuaError as exc:
            self._record_error(now, mds.rank)
            decision.error = f"decision: {exc}"
            return {}
        go = result.global_value("go")
        if go is None or go is False:
            return {}
        raw_targets = result.python_value("targets")
        targets = extract_targets(raw_targets, len(mds_metrics))
        targets.pop(mds.rank, None)
        # Never ship anything to a dead rank, whatever the policy says.
        return {rank: load for rank, load in targets.items()
                if rank in alive}

    # -- step 3+4: partition the namespace and export -----------------------
    def _ship(self, mds: "MdsServer", targets: dict[int, float],
              decision: BalanceDecision) -> None:
        now = mds.engine.now
        # Serve the biggest target first, consuming export units as we go.
        taken: set[int] = set()
        for rank, raw_target in sorted(targets.items(),
                                       key=lambda kv: kv[1], reverse=True):
            target = raw_target * self._active.need_min_factor
            if target <= self._active.min_unit_load:
                continue
            units = self._partition_namespace(mds, target, now, taken)
            for unit, load in units:
                path = unit.path()
                if (self.guard is not None
                        and not self.guard.allow(path, mds.rank, rank, now)):
                    decision.vetoes.append((path, rank))
                    continue
                if self.guard is not None:
                    self.guard.record(path, mds.rank, rank, now)
                decision.exports.append((path, load, rank))
                mds.migrator.export(unit, rank)

    def _partition_namespace(
        self, mds: "MdsServer", target: float, now: float,
        taken: set[int],
    ) -> list[tuple[ExportUnit, float]]:
        """Walk from this rank's subtree roots, racing dirfrag selectors.

        Paper §2.2.3 / §3.2: start at the root subtrees; at each directory
        consider its child subtrees and dirfrags as candidate units; ship
        the selector-chosen subset; if the target is not met, drill down
        into the hottest remaining directory.
        """
        exports: list[tuple[ExportUnit, float]] = []
        remaining = target
        frontier = self._roots(mds)
        visited: set[int] = {id(d) for d in frontier}
        while frontier and remaining > self._active.min_unit_load:
            frontier.sort(
                key=lambda d: self._dir_metaload(d, now),
                reverse=True,
            )
            directory = frontier.pop(0)
            units = self._candidates(mds, directory, now, taken)
            # Subtrees too popular to move whole are drilled into instead;
            # dirfrags cannot be divided further, so they always qualify.
            ceiling = remaining * self._active.max_overshoot
            fitting = [
                (unit, load) for unit, load in units
                if not unit.is_subtree or load <= ceiling
            ]
            chosen_dirs: set[int] = set()
            if fitting:
                outcome = choose_best(self._active.howmuch, fitting, remaining)
                for unit, load in outcome.chosen:
                    exports.append((unit, load))
                    remaining -= load
                    taken.add(id(unit.target))
                    if unit.is_subtree:
                        chosen_dirs.add(id(unit.target))
            # Drill down into unexported, owned subdirectories.
            for child in directory.subdirs.values():
                if id(child) in chosen_dirs or id(child) in taken:
                    continue
                if id(child) in visited:
                    continue
                if child.authority() == mds.rank:
                    visited.add(id(child))
                    frontier.append(child)
        return exports

    def _dir_metaload(self, directory: Directory, now: float) -> float:
        memo = self._dir_load_memo
        key = id(directory)
        value = memo.get(key)
        if value is None:
            value = self.metaload_fn(directory.counters.snapshot(now))
            memo[key] = value
        return value

    def _roots(self, mds: "MdsServer") -> list[Directory]:
        roots = mds.namespace.subtree_roots(mds.rank)
        # Nested subtree roots are reached by drill-down from their
        # outermost ancestor; keep only the outermost ones.
        outer: list[Directory] = []
        for root in roots:
            if not any(other is not root and _is_ancestor(other, root)
                       for other in roots):
                outer.append(root)
        # A rank that owns individual dirfrags (but no subtree) must still
        # be able to shed them: include the directories holding its frags.
        seen = {id(d) for d in outer}
        for directory in mds.namespace.root.walk():
            if id(directory) in seen:
                continue
            if directory.authority() == mds.rank:
                continue  # reached by drill-down from a root above
            if any(frag.explicit_auth == mds.rank
                   for frag in directory.frags.values()):
                seen.add(id(directory))
                outer.append(directory)
        return outer

    def _candidates(self, mds: "MdsServer", directory: Directory,
                    now: float, taken: set[int]):
        units: list[tuple[ExportUnit, float]] = []
        for child in directory.subdirs.values():
            if id(child) in taken:
                continue
            if self._fully_owned(child, mds.rank) and not self._frozen(child):
                unit = ExportUnit(child)
                load = self._unit_load(unit, now)
                if load > self._active.min_unit_load:
                    units.append((unit, load))
        # Dirfrags are atomic export units: offered even when the directory
        # has a single frag (a hot leaf directory can only move whole, as
        # CephFS's biggest-first heuristic does -- overshooting if need be).
        for frag in directory.frags.values():
            if id(frag) in taken or frag.frozen:
                continue
            if frag.authority() != mds.rank:
                continue
            load = self._frag_metaload(frag, now)
            if load > self._active.min_unit_load:
                units.append((ExportUnit(frag), load))
        return units

    def _unit_load(self, unit: ExportUnit, now: float) -> float:
        memo = self._unit_load_memo
        key = id(unit.target)
        value = memo.get(key)
        if value is None:
            value = unit.load(self.metaload_fn, now)
            memo[key] = value
        return value

    def _frag_metaload(self, frag, now: float) -> float:
        memo = self._unit_load_memo
        key = id(frag)
        value = memo.get(key)
        if value is None:
            value = self.metaload_fn(frag.load_snapshot(now))
            memo[key] = value
        return value

    @staticmethod
    def _fully_owned(directory: Directory, rank: int) -> bool:
        if directory.authority() != rank:
            return False
        for node in directory.walk():
            if node.explicit_auth not in (None, rank):
                return False
            for frag in node.frags.values():
                if frag.explicit_auth not in (None, rank):
                    return False
        return True

    @staticmethod
    def _frozen(directory: Directory) -> bool:
        return any(
            frag.frozen
            for node in directory.walk()
            for frag in node.frags.values()
        )

    # -- reporting ------------------------------------------------------
    def migrations_decided(self) -> int:
        return sum(len(decision.exports) for decision in self.decisions)

    def last_decision(self) -> Optional[BalanceDecision]:
        return self.decisions[-1] if self.decisions else None


def _is_ancestor(ancestor: Directory, node: Directory) -> bool:
    current = node.parent
    while current is not None:
        if current is ancestor:
            return True
        current = current.parent
    return False

"""The fault injector: executes a :class:`FaultSchedule` against a cluster.

Every fault and every recovery is recorded as a
:class:`~repro.metrics.collectors.RunEvent` in the cluster's run-record
stream, so reports can show when a rank died, when its authority moved,
and when it came back.

Determinism: the injector schedules its handlers on the cluster's event
engine (same heap, same tie-breaking) and draws randomness only from the
dedicated ``faults`` RNG stream, so a given (seed, schedule) pair always
replays the exact same run -- the property the chaos tests assert.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .schedule import (
    AbortMigrations,
    CrashMds,
    DegradeCpu,
    FaultEvent,
    FaultSchedule,
    HeartbeatLoss,
    Partition,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..cluster import SimulatedCluster
    from ..mds.server import MdsServer


class FaultState:
    """Live fault conditions consulted by the mechanisms.

    Currently only heartbeat-link state: :meth:`heartbeat_link` is called
    by every rank for every beat it sends; ``None`` means the beat is
    dropped, a float is extra delay to add on top of the normal pack +
    network time.
    """

    def __init__(self, rng) -> None:
        self.rng = rng
        #: (active_until, src|None, dst|None, drop_prob, extra_delay)
        self._links: list[tuple[float, Optional[int], Optional[int],
                                float, float]] = []
        #: (active_until, frozenset(group_a), frozenset(group_b))
        self._partitions: list[tuple[float, frozenset, frozenset]] = []

    def add_link_fault(self, until: float, src: Optional[int],
                       dst: Optional[int], drop_prob: float,
                       extra_delay: float) -> None:
        self._links.append((until, src, dst, drop_prob, extra_delay))

    def add_partition(self, until: float, group_a: frozenset,
                      group_b: frozenset) -> None:
        self._partitions.append((until, group_a, group_b))

    def heartbeat_link(self, src: int, dst: int,
                       now: float) -> Optional[float]:
        """Fate of a heartbeat from *src* to *dst* sent at *now*.

        Returns None when the beat is dropped, else the extra delay (>= 0)
        to add to its delivery.
        """
        for until, group_a, group_b in self._partitions:
            if now < until and ((src in group_a and dst in group_b)
                                or (src in group_b and dst in group_a)):
                return None
        extra = 0.0
        for until, link_src, link_dst, drop_prob, extra_delay in self._links:
            if now >= until:
                continue
            if link_src is not None and link_src != src:
                continue
            if link_dst is not None and link_dst != dst:
                continue
            if drop_prob < 1.0 and self.rng.random() >= drop_prob:
                continue
            if extra_delay > 0:
                extra += extra_delay
            else:
                return None
        return extra

    def partitioned(self, src: int, dst: int, now: float) -> bool:
        return any(
            now < until and ((src in a and dst in b)
                             or (src in b and dst in a))
            for until, a, b in self._partitions
        )


class FaultInjector:
    """Arms a :class:`FaultSchedule` on a cluster's event engine."""

    def __init__(self, cluster: "SimulatedCluster",
                 schedule: FaultSchedule, rng) -> None:
        self.cluster = cluster
        self.schedule = schedule
        self.state = FaultState(rng)
        self.armed = False

    # -- lifecycle ------------------------------------------------------
    def arm(self) -> None:
        """Validate the schedule and put every event on the engine heap."""
        if self.armed:
            return
        self.armed = True
        self.schedule.validate(len(self.cluster.mdss))
        for mds in self.cluster.mdss:
            mds.fault_state = self.state
        engine = self.cluster.engine
        for event in self.schedule.events:
            engine.schedule_at(max(event.at, engine.now), self._fire, event)

    # -- dispatch -------------------------------------------------------
    def _fire(self, event: FaultEvent) -> None:
        if isinstance(event, CrashMds):
            self._crash(event)
        elif isinstance(event, HeartbeatLoss):
            self._heartbeat_loss(event)
        elif isinstance(event, Partition):
            self._partition(event)
        elif isinstance(event, DegradeCpu):
            self._degrade(event)
        elif isinstance(event, AbortMigrations):
            self._abort_migrations(event)
        else:  # pragma: no cover - schedule.validate rejects unknowns
            raise TypeError(f"unknown fault event {event!r}")

    def _record(self, kind: str, rank: int, detail: str = "") -> None:
        self.cluster.metrics.record(
            self.cluster.engine.now, kind, rank, detail)

    # -- crash / restart / takeover -------------------------------------
    def _crash(self, event: CrashMds) -> None:
        mds = self.cluster.mdss[event.rank]
        if not mds.alive:
            return
        aborted = mds.migrator.in_flight
        mds.crash()
        self._record("crash", event.rank,
                     f"{aborted} exports in flight" if aborted else "")
        engine = self.cluster.engine
        grace = mds.beacon_grace
        # The monitor declares the rank dead after the beacon grace, so
        # live peers (which may never have heard a beat from it) stop
        # waiting for its heartbeats.
        engine.schedule(grace, self._declare_down, event.rank)
        if event.takeover_by is not None:
            delay = (event.takeover_after if event.takeover_after is not None
                     else grace)
            engine.schedule(delay, self._takeover, event.rank,
                            event.takeover_by)
        if event.restart_after is not None:
            engine.schedule(event.restart_after, self._restart, event.rank)

    def _declare_down(self, rank: int) -> None:
        mds = self.cluster.mdss[rank]
        if mds.alive:
            return  # came back before the grace expired
        for peer in self.cluster.mdss:
            if peer.rank != rank and peer.alive:
                peer.hb_table.mark_down(rank)
        self._record("declared-down", rank)

    def _takeover(self, dead_rank: int, standby_rank: int) -> None:
        dead = self.cluster.mdss[dead_rank]
        standby = self.cluster.mdss[standby_rank]
        if dead.alive or not standby.alive:
            return
        self._record("takeover-begin", standby_rank,
                     f"replaying mds{dead_rank} journal")
        self.cluster.engine.process(
            self._takeover_run(dead, standby),
            name=f"takeover:mds{dead_rank}->mds{standby_rank}",
        )

    def _takeover_run(self, dead: "MdsServer", standby: "MdsServer"):
        # The standby replays the dead rank's journal before it may serve
        # that rank's metadata.
        yield from dead.journal.replay_segments(
            dead.config.replay_segment_window)
        if dead.alive or not standby.alive:
            return  # the dead rank restarted mid-replay; it keeps its trees
        moved = self._reassign_authority(dead.rank, standby.rank)
        self._record("takeover", standby.rank,
                     f"mds{dead.rank}->mds{standby.rank}, "
                     f"{moved} authority entries")

    def _reassign_authority(self, dead_rank: int, to_rank: int) -> int:
        """Point every subtree/dirfrag authored by *dead_rank* at *to_rank*."""
        moved = 0
        root = self.cluster.namespace.root
        if root.authority() == dead_rank:
            root.set_auth(to_rank)
            moved += 1
        for directory in root.walk():
            if directory is not root and directory.explicit_auth == dead_rank:
                directory.set_auth(to_rank)
                moved += 1
            for frag in directory.frags.values():
                if frag.explicit_auth == dead_rank:
                    frag.set_auth(to_rank)
                    moved += 1
        return moved

    def _restart(self, rank: int) -> None:
        mds = self.cluster.mdss[rank]
        if mds.alive:
            return
        self._record("restart-begin", rank)
        process = mds.restart()

        def recovered(_completion) -> None:
            self._record("restart", rank,
                         f"replayed {mds.journal.segments_replayed} segments")

        process.completion.add_callback(recovered)

    # -- network --------------------------------------------------------
    def _heartbeat_loss(self, event: HeartbeatLoss) -> None:
        now = self.cluster.engine.now
        self.state.add_link_fault(now + event.duration, event.src, event.dst,
                                  event.drop_prob, event.extra_delay)
        src = "any" if event.src is None else f"mds{event.src}"
        dst = "any" if event.dst is None else f"mds{event.dst}"
        self._record("heartbeat-loss", event.src if event.src is not None
                     else -1,
                     f"{src}->{dst} p={event.drop_prob} "
                     f"delay={event.extra_delay} for {event.duration}s")

    def _partition(self, event: Partition) -> None:
        now = self.cluster.engine.now
        until = now + event.duration
        self.state.add_partition(until, frozenset(event.group_a),
                                 frozenset(event.group_b))
        self._record("partition", -1,
                     f"{sorted(event.group_a)} | {sorted(event.group_b)} "
                     f"for {event.duration}s")
        self.cluster.engine.schedule_at(until, self._record,
                                        "partition-heal", -1, "")

    # -- degradation & aborts -------------------------------------------
    def _degrade(self, event: DegradeCpu) -> None:
        mds = self.cluster.mdss[event.rank]
        mds.cpu_factor = event.factor
        self._record("degrade-cpu", event.rank, f"factor={event.factor}")
        if event.duration is not None:
            def restore() -> None:
                if mds.cpu_factor == event.factor:
                    mds.cpu_factor = 1.0
                    self._record("degrade-heal", event.rank)
            self.cluster.engine.schedule(event.duration, restore)

    def _abort_migrations(self, event: AbortMigrations) -> None:
        targets = (self.cluster.mdss if event.rank == -1
                   else [self.cluster.mdss[event.rank]])
        total = 0
        for mds in targets:
            total += len(mds.migrator.abort_all("injected abort"))
        self._record("abort-migrations", event.rank, f"{total} aborted")

"""MDS heartbeats.

Every 10 seconds each MDS packages its metrics and sends them to every
other rank (paper Fig 2, "send HB"/"recv HB").  Heartbeats take time to
pack, cross the network, and unpack, so every rank balances on a *stale*
view of the cluster -- the paper blames exactly this staleness for
non-reproducible balancing (§2.2.2).
"""

from __future__ import annotations

from dataclasses import field

from ..dataclass import dataclass


@dataclass(frozen=True, slots=True)
class HeartBeat:
    """One rank's metrics snapshot, as shipped to its peers.

    Field names mirror the Mantle environment (paper Table 2):
    ``auth``/``all`` metadata loads, ``cpu``/``mem`` utilisation, ``q``
    queue length, ``req`` request rate.
    """

    rank: int
    sent_at: float
    auth_metaload: float
    all_metaload: float
    cpu: float        # percent, 0-100
    mem: float        # percent, 0-100
    queue_length: float
    request_rate: float
    epoch: int = 0

    def as_metrics(self) -> dict[str, float]:
        return {
            "auth": self.auth_metaload,
            "all": self.all_metaload,
            "cpu": self.cpu,
            "mem": self.mem,
            "q": self.queue_length,
            "req": self.request_rate,
        }


@dataclass
class HeartbeatTable:
    """Latest heartbeat received from each rank (including self).

    Entries do not live forever: :meth:`evict_stale` drops ranks whose
    heartbeats stopped arriving (they are remembered in :attr:`down`, the
    MDSMap-style failure knowledge), so balancers stop shipping load to
    ranks that went silent.  A fresh beat from a down rank revives it.
    """

    received: dict[int, HeartBeat] = field(default_factory=dict)
    received_at: dict[int, float] = field(default_factory=dict)
    #: Ranks declared dead -- either evicted for staleness or marked down
    #: explicitly (the monitor noticing a missed beacon).
    down: set[int] = field(default_factory=set)

    def store(self, beat: HeartBeat, now: float) -> None:
        current = self.received.get(beat.rank)
        if current is None or beat.sent_at >= current.sent_at:
            self.received[beat.rank] = beat
            self.received_at[beat.rank] = now
            self.down.discard(beat.rank)

    def get(self, rank: int) -> HeartBeat | None:
        return self.received.get(rank)

    def staleness(self, rank: int, now: float) -> float:
        beat = self.received.get(rank)
        return now - beat.sent_at if beat else float("inf")

    def have_all(self, num_ranks: int) -> bool:
        return all(rank in self.received for rank in range(num_ranks))

    # -- liveness -------------------------------------------------------
    def evict_stale(self, now: float, timeout: float) -> list[int]:
        """Evict ranks whose last beat arrived more than *timeout* ago.

        Evicted ranks move to :attr:`down`; returns the ranks evicted.
        """
        evicted = [rank for rank, at in self.received_at.items()
                   if now - at > timeout]
        for rank in evicted:
            del self.received[rank]
            del self.received_at[rank]
            self.down.add(rank)
        return evicted

    def alive_ranks(self, now: float, timeout: float) -> list[int]:
        """Ranks with a beat fresher than *timeout* and not declared down."""
        return sorted(
            rank for rank, at in self.received_at.items()
            if now - at <= timeout and rank not in self.down
        )

    def mark_down(self, rank: int) -> None:
        """Declare *rank* dead (failure detected out of band)."""
        self.received.pop(rank, None)
        self.received_at.pop(rank, None)
        self.down.add(rank)

    def is_down(self, rank: int) -> bool:
        return rank in self.down

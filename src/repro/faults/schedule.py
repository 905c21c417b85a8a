"""Declarative fault schedules.

A schedule is a list of timestamped fault events.  Schedules are plain
data: they can be built in code, loaded from a JSON file (the CLI's
``--faults`` flag), validated against a cluster size, and round-tripped
through dicts.  Determinism note: the schedule carries *when* and *what*;
all randomness (e.g. probabilistic heartbeat drops) comes from the
cluster's dedicated ``faults`` RNG stream, so the same seed + schedule
replays identically.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Optional, Union

from ..dataclass import dataclass


@dataclass(frozen=True)
class CrashMds:
    """Kill rank *rank* at time *at*.

    Optionally restart the same rank ``restart_after`` seconds later
    (journal replay, then back in service), and/or have standby rank
    ``takeover_by`` replay the dead rank's journal and assume authority
    over its subtrees ``takeover_after`` seconds after the crash
    (defaulting to the beacon grace -- a takeover cannot begin before the
    failure has been detected).
    """

    at: float
    rank: int
    restart_after: Optional[float] = None
    takeover_by: Optional[int] = None
    takeover_after: Optional[float] = None


@dataclass(frozen=True)
class HeartbeatLoss:
    """Drop (or delay) heartbeats on a link for a while.

    ``src``/``dst`` of ``None`` match any rank.  With ``extra_delay`` of 0
    a matching beat is dropped outright (with probability ``drop_prob``);
    with a positive ``extra_delay`` it is delayed instead.
    """

    at: float
    duration: float
    src: Optional[int] = None
    dst: Optional[int] = None
    drop_prob: float = 1.0
    extra_delay: float = 0.0


@dataclass(frozen=True)
class Partition:
    """Full network partition between two rank groups for *duration*.

    Heartbeats between the groups are dropped in both directions; each
    side keeps beating within itself, so after the beacon grace the two
    sides consider each other dead.
    """

    at: float
    duration: float
    group_a: tuple[int, ...]
    group_b: tuple[int, ...]


@dataclass(frozen=True)
class DegradeCpu:
    """Multiply rank *rank*'s service times by *factor* (a limping CPU).

    With a *duration* the factor reverts to 1.0 afterwards; without one
    the rank limps for the rest of the run.
    """

    at: float
    rank: int
    factor: float
    duration: Optional[float] = None


@dataclass(frozen=True)
class AbortMigrations:
    """Abort every in-flight export at *rank* (-1 = every rank)."""

    at: float
    rank: int = -1


FaultEvent = Union[CrashMds, HeartbeatLoss, Partition, DegradeCpu,
                   AbortMigrations]

_KINDS: dict[str, type] = {
    "crash": CrashMds,
    "heartbeat_loss": HeartbeatLoss,
    "partition": Partition,
    "degrade_cpu": DegradeCpu,
    "abort_migrations": AbortMigrations,
}
_NAMES = {cls: name for name, cls in _KINDS.items()}


class FaultSchedule:
    """An ordered set of fault events."""

    def __init__(self, events: list[FaultEvent] | None = None) -> None:
        self.events: list[FaultEvent] = sorted(events or [],
                                               key=lambda e: e.at)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def add(self, event: FaultEvent) -> "FaultSchedule":
        self.events.append(event)
        self.events.sort(key=lambda e: e.at)
        return self

    # -- (de)serialisation ----------------------------------------------
    @classmethod
    def from_dicts(cls, raw: list[dict]) -> "FaultSchedule":
        events: list[FaultEvent] = []
        for index, entry in enumerate(raw):
            entry = dict(entry)
            kind = entry.pop("kind", None)
            event_cls = _KINDS.get(kind)
            if event_cls is None:
                raise ValueError(
                    f"fault #{index}: unknown kind {kind!r} "
                    f"(expected one of {sorted(_KINDS)})"
                )
            if event_cls is Partition:
                entry["group_a"] = tuple(entry.get("group_a", ()))
                entry["group_b"] = tuple(entry.get("group_b", ()))
            try:
                events.append(event_cls(**entry))
            except TypeError as exc:
                raise ValueError(f"fault #{index} ({kind}): {exc}") from exc
        return cls(events)

    @classmethod
    def from_file(cls, path: str) -> "FaultSchedule":
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
        if isinstance(raw, dict):
            raw = raw.get("faults", [])
        if not isinstance(raw, list):
            raise ValueError(f"{path}: expected a JSON list of fault events")
        return cls.from_dicts(raw)

    def to_dicts(self) -> list[dict]:
        out = []
        for event in self.events:
            entry = {"kind": _NAMES[type(event)]}
            entry.update({k: (list(v) if isinstance(v, tuple) else v)
                          for k, v in asdict(event).items()
                          if v is not None})
            out.append(entry)
        return out

    # -- validation -----------------------------------------------------
    def validate(self, num_mds: int) -> None:
        """Raise ValueError if any event cannot apply to *num_mds* ranks."""
        for event in self.events:
            if event.at < 0:
                raise ValueError(f"{event!r}: negative time")
            if isinstance(event, CrashMds):
                self._check_rank(event.rank, num_mds, event)
                if event.takeover_by is not None:
                    self._check_rank(event.takeover_by, num_mds, event)
                    if event.takeover_by == event.rank:
                        raise ValueError(
                            f"{event!r}: a rank cannot take over from itself"
                        )
            elif isinstance(event, HeartbeatLoss):
                for rank in (event.src, event.dst):
                    if rank is not None:
                        self._check_rank(rank, num_mds, event)
                if not 0.0 <= event.drop_prob <= 1.0:
                    raise ValueError(f"{event!r}: drop_prob not a probability")
                if event.duration <= 0:
                    raise ValueError(f"{event!r}: duration must be positive")
            elif isinstance(event, Partition):
                if not event.group_a or not event.group_b:
                    raise ValueError(f"{event!r}: empty partition group")
                for rank in (*event.group_a, *event.group_b):
                    self._check_rank(rank, num_mds, event)
                if set(event.group_a) & set(event.group_b):
                    raise ValueError(f"{event!r}: groups overlap")
                if event.duration <= 0:
                    raise ValueError(f"{event!r}: duration must be positive")
            elif isinstance(event, DegradeCpu):
                self._check_rank(event.rank, num_mds, event)
                if event.factor <= 0:
                    raise ValueError(f"{event!r}: factor must be positive")
            elif isinstance(event, AbortMigrations):
                if event.rank != -1:
                    self._check_rank(event.rank, num_mds, event)

    @staticmethod
    def _check_rank(rank: int, num_mds: int, event: FaultEvent) -> None:
        if not 0 <= rank < num_mds:
            raise ValueError(f"{event!r}: rank {rank} out of range "
                             f"(cluster has {num_mds} ranks)")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultSchedule({len(self.events)} events)"

"""Client sessions at an MDS.

Sessions carry coherency/consistency state (permissions, capabilities).
The paper measures that distributing metadata multiplies session count and
that sessions are *flushed* when slave MDS ranks rename or migrate
directories -- 157 sessions with 1 MDS vs 936 with 4 ranks spilled evenly
(§4.1).  Each flush stalls the session's client briefly; in aggregate this
is a big part of why migration can cost more than parallelism buys.
"""

from __future__ import annotations

from dataclasses import field

from ..dataclass import dataclass


@dataclass
class Session:
    """One client's session with one MDS rank."""

    client_id: int
    rank: int
    opened_at: float
    requests: int = 0
    flushes: int = 0
    #: Paths of subtrees this session holds capabilities on (directory
    #: paths the client has recently operated in).
    cap_paths: set[str] = field(default_factory=set)


class SessionTable:
    """All sessions at one MDS rank."""

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self._sessions: dict[int, Session] = {}
        self.sessions_opened = 0
        self.total_flushes = 0

    def get_or_open(self, client_id: int, now: float) -> Session:
        session = self._sessions.get(client_id)
        if session is None:
            session = Session(client_id=client_id, rank=self.rank,
                              opened_at=now)
            self._sessions[client_id] = session
            self.sessions_opened += 1
        return session

    def record_request(self, client_id: int, dir_path: str,
                       now: float) -> Session:
        session = self.get_or_open(client_id, now)
        session.requests += 1
        session.cap_paths.add(dir_path)
        return session

    def sessions_with_caps_under(self, path: str) -> list[Session]:
        """Sessions holding caps on *path* or anything below it."""
        prefix = path.rstrip("/")
        out = []
        for session in self._sessions.values():
            for cap in session.cap_paths:
                if cap == prefix or cap.startswith(prefix + "/") or prefix == "":
                    out.append(session)
                    break
        return out

    def flush_under(self, path: str) -> int:
        """Flush every session with caps under *path*; returns the count."""
        flushed = self.sessions_with_caps_under(path)
        for session in flushed:
            session.flushes += 1
        self.total_flushes += len(flushed)
        return len(flushed)

    def reset(self) -> int:
        """Drop every session (an MDS crash kills its session table).

        Clients re-open sessions lazily on their next request.  Returns the
        number of sessions dropped.
        """
        dropped = len(self._sessions)
        self._sessions.clear()
        return dropped

    def __len__(self) -> int:
        return len(self._sessions)

"""Inode migration: the two-phase commit mechanism.

Paper §2, "Migrate": "inode migrations are performed as a two-phase commit,
where the importer journals metadata, the exporter logs the event, and the
importer journals the event."  While a unit is in flight it is frozen --
requests touching it are stalled -- and client sessions with capabilities on
it are flushed (§4.1), which is where the real cost of a migration comes
from.
"""

from __future__ import annotations

import contextlib
from typing import TYPE_CHECKING, Iterator, Optional, Union

from ..namespace.directory import Directory
from ..namespace.dirfrag import DirFrag
from ..sim.engine import CancelledError, Process

if TYPE_CHECKING:  # pragma: no cover
    from .server import MdsServer


class MigrationAborted(Exception):
    """Thrown into a migration process to abort it mid-flight."""


class ExportUnit:
    """Something the balancer can ship: a whole subtree or one dirfrag."""

    def __init__(self, target: Union[Directory, DirFrag]) -> None:
        self.target = target

    @property
    def is_subtree(self) -> bool:
        return isinstance(self.target, Directory)

    def path(self) -> str:
        return self.target.path()

    def dir_path(self) -> str:
        """Path of the owning directory (for session-cap matching)."""
        if self.is_subtree:
            return self.target.path()
        return self.target.directory.path()

    def inode_count(self) -> int:
        if self.is_subtree:
            return sum(d.entry_count() for d in self.target.walk()) + 1
        return len(self.target)

    def frags(self) -> Iterator[DirFrag]:
        if self.is_subtree:
            for directory in self.target.walk():
                yield from directory.frags.values()
        else:
            yield self.target

    def freeze(self) -> None:
        for frag in self.frags():
            frag.frozen = True

    def unfreeze(self) -> None:
        for frag in self.frags():
            frag.frozen = False

    def set_auth(self, rank: int) -> None:
        if self.is_subtree:
            self.target.set_auth(rank)
            # The whole subtree now inherits the importer's authority.
            self.target.clear_descendant_auth()
        else:
            self.target.set_auth(rank)

    def load(self, metaload_fn, now: float) -> float:
        """Policy-defined metadata load of this unit."""
        if self.is_subtree:
            return sum(
                metaload_fn(frag.load_snapshot(now)) for frag in self.frags()
            )
        return metaload_fn(self.target.load_snapshot(now))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "subtree" if self.is_subtree else "dirfrag"
        return f"ExportUnit({kind} {self.path()!r})"


class ExportRecord:
    """Book-keeping for one in-flight export (its 2PC progress)."""

    __slots__ = ("unit", "target_rank", "phase", "process", "started_at")

    def __init__(self, unit: ExportUnit, target_rank: int,
                 started_at: float) -> None:
        self.unit = unit
        self.target_rank = target_rank
        self.started_at = started_at
        self.phase = "init"
        self.process: Optional[Process] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ExportRecord({self.unit.path()!r}->mds{self.target_rank} "
                f"phase={self.phase})")


@contextlib.contextmanager
def frozen_scope(unit: ExportUnit):
    """Freeze *unit* for the duration of the block -- every exit path
    (commit, rollback, uncaught error) unfreezes all of its frags."""
    unit.freeze()
    try:
        yield unit
    finally:
        unit.unfreeze()


class Migrator:
    """Executes exports from one MDS rank.

    Exports can be *aborted* mid-flight (a fault, or the importer dying):
    the process is interrupted and the abort is resolved by the commit
    point of the two-phase commit.  Before ``EImport`` is durable in the
    importer's journal the export rolls back -- every frag is unfrozen and
    authority stays with the exporter.  After it, the export rolls forward
    -- authority flips to the importer even though the finish event was
    never logged (exactly how CephFS resolves an interrupted export).
    """

    def __init__(self, mds: "MdsServer") -> None:
        self.mds = mds
        self.exports_started = 0
        self.exports_completed = 0
        self.exports_aborted = 0
        self.inodes_exported = 0
        self.active: list[ExportRecord] = []

    @property
    def in_flight(self) -> int:
        return len(self.active)

    def export(self, unit: ExportUnit, target_rank: int):
        """Kick off a two-phase-commit export; returns the process."""
        if target_rank == self.mds.rank:
            raise ValueError("cannot export to self")
        if target_rank < 0 or target_rank >= len(self.mds.peers):
            raise ValueError(f"no such MDS rank {target_rank}")
        if any(frag.frozen for frag in unit.frags()):
            raise RuntimeError(f"{unit!r} is already migrating")
        self.exports_started += 1
        record = ExportRecord(unit, target_rank, self.mds.engine.now)
        self.active.append(record)
        process = self.mds.engine.process(
            self._run(record),
            name=f"export:{unit.path()}->mds{target_rank}",
        )
        record.process = process
        # Retire via the process completion, not a generator ``finally``:
        # an export interrupted before its generator first runs would never
        # reach a ``finally`` and would leak the in-flight slot.
        process.completion.add_callback(lambda _c: self._retire(record))
        return process

    def _retire(self, record: ExportRecord) -> None:
        if record in self.active:
            self.active.remove(record)

    # -- aborts ---------------------------------------------------------
    def abort_all(self, reason: str = "exporter fault") -> list[ExportRecord]:
        """Abort every in-flight export (the exporter itself crashed)."""
        aborted = []
        for record in list(self.active):
            if record.process is not None and record.process.interrupt(
                    MigrationAborted(reason)):
                aborted.append(record)
        return aborted

    def abort_targeting(self, rank: int) -> list[ExportRecord]:
        """Abort in-flight exports whose importer is *rank* (it died)."""
        aborted = []
        for record in list(self.active):
            if record.target_rank != rank:
                continue
            if record.process is not None and record.process.interrupt(
                    MigrationAborted(f"importer mds{rank} died")):
                aborted.append(record)
        return aborted

    # -- the 2PC itself -------------------------------------------------
    def _run(self, record: ExportRecord):
        mds = self.mds
        engine = mds.engine
        config = mds.config
        unit = record.unit
        target_rank = record.target_rank
        importer = mds.peers[target_rank]
        inodes = unit.inode_count()

        # Phase 0: freeze. Requests hitting the unit now stall (they retry
        # until the freeze lifts).
        with frozen_scope(unit):
            try:
                # Session flushes: every session with caps under the unit,
                # at both exporter and importer, pays a flush (§4.1).
                record.phase = "sessions"
                flushed = mds.sessions.flush_under(unit.dir_path())
                flushed += importer.sessions.flush_under(unit.dir_path())
                mds.metrics.session_flushes += flushed
                stall = flushed * config.session_flush_time
                if stall > 0:
                    # The coherency work occupies both CPUs.
                    done_local = mds.station.submit(("sessions", unit), stall)
                    done_remote = importer.station.submit(
                        ("sessions", unit), stall)
                    yield done_local
                    yield done_remote

                # Phase 1: exporter logs the export intent durably.
                record.phase = "export-log"
                yield mds.journal.log_sync(
                    "EExport",
                    size=config.migration_inode_bytes * max(1, inodes),
                )
                # Importer journals the incoming metadata (the bulk
                # transfer).
                record.phase = "transfer"
                transfer = (config.migration_base_time
                            + config.migration_per_inode * inodes)
                yield engine.timeout(transfer)
                record.phase = "import-log"
                if not importer.alive:
                    # A down importer cannot journal EImport, so the
                    # commit point is never reached.  (The balancer may
                    # pick a rank that died inside the beacon grace.)
                    raise MigrationAborted(
                        f"importer mds{target_rank} is down")
                yield importer.journal.log_sync(
                    "EImport",
                    size=config.migration_inode_bytes * max(1, inodes),
                )

                # Commit point: the importer's journal now holds the
                # metadata.  An abort from here on rolls *forward*.
                record.phase = "committed"
                unit.set_auth(target_rank)
                yield mds.journal.log_sync("EExportFinish")
            except (MigrationAborted, CancelledError):
                if record.phase == "committed":
                    # EImport is durable: the importer owns the metadata
                    # whether or not the finish event ever hit the log.
                    unit.set_auth(target_rank)
                    record.phase = "rolled-forward"
                    self._commit(record, importer, inodes)
                else:
                    # Pre-commit: authority never moved; lifting the
                    # freeze (the frozen_scope) is the whole rollback.
                    record.phase = "rolled-back"
                    self.exports_aborted += 1
                    mds.metrics.migrations_aborted += 1
                return

        record.phase = "done"
        self._commit(record, importer, inodes)

    def _commit(self, record: ExportRecord, importer: "MdsServer",
                inodes: int) -> None:
        self.exports_completed += 1
        self.inodes_exported += inodes
        self.mds.metrics.migrations += 1
        self.mds.metrics.inodes_migrated += inodes
        importer.metrics.imports += 1

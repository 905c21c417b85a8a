"""Object storage daemons.

Each OSD owns one data disk (XFS in the paper's testbed) and an SSD journal
partition.  Writes hit the journal first (fast, sequential) and the data
disk asynchronously; reads hit the data disk.  Both devices are FIFO
stations so a busy OSD stretches metadata-journal latency, which is the
back-pressure path from RADOS into the MDS.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..sim.engine import Completion, SimEngine
from ..sim.rng import ServiceTime
from ..sim.stations import FifoStation


class Osd:
    """One OSD: SSD journal + data disk."""

    def __init__(self, engine: SimEngine, osd_id: int,
                 rng: np.random.Generator,
                 journal_service: ServiceTime,
                 disk_service: ServiceTime) -> None:
        self.engine = engine
        self.osd_id = osd_id
        self.journal_service = journal_service
        self.disk_service = disk_service
        self.journal = FifoStation(engine, f"osd{osd_id}.journal", rng)
        self.disk = FifoStation(engine, f"osd{osd_id}.disk", rng)
        #: Object size -> (journal, disk) service times scaled to it.
        self._scaled: dict[int, tuple[ServiceTime, ServiceTime]] = {}
        self.bytes_written = 0
        self.bytes_read = 0
        self.writes = 0
        self.reads = 0

    def write(self, obj: str, size: int) -> Completion:
        """Durable write: completes when the journal write lands; the data
        disk write proceeds asynchronously (Ceph acks from the journal)."""
        self.writes += 1
        self.bytes_written += size
        services = self._scaled.get(size) or self._scale(size)
        completion = self.journal.submit(("write", obj, size), services[0])
        # Async flush to the data disk; nobody waits on it, but it consumes
        # disk time and delays subsequent reads.
        self.disk.submit(("flush", obj, size), services[1],
                         want_completion=False)
        return completion

    def read(self, obj: str, size: int) -> Completion:
        self.reads += 1
        self.bytes_read += size
        services = self._scaled.get(size) or self._scale(size)
        return self.disk.submit(("read", obj, size), services[1])

    def _scale(self, size: int) -> tuple[ServiceTime, ServiceTime]:
        """Build (and keep) the service times for objects of *size*."""
        factor = _size_factor(size)
        services = (self.journal_service.scaled(factor),
                    self.disk_service.scaled(factor))
        self._scaled[size] = services
        return services

    def stats(self) -> dict[str, Any]:
        return {
            "osd": self.osd_id,
            "writes": self.writes,
            "reads": self.reads,
            "bytes_written": self.bytes_written,
            "bytes_read": self.bytes_read,
            "journal_queue": self.journal.queue_length,
            "disk_queue": self.disk.queue_length,
        }


def _size_factor(size: int) -> float:
    """Service time scales gently with object size (4 KiB baseline)."""
    return max(0.25, size / 4096.0) ** 0.5

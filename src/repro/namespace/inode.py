"""Inodes: the metadata objects the MDS cluster manages."""

from __future__ import annotations

import itertools
from dataclasses import field
from typing import Optional

from ..dataclass import dataclass

_INO_COUNTER = itertools.count(1)


def reset_ino_counter() -> None:
    """Reset the global inode-number allocator (test isolation)."""
    global _INO_COUNTER
    _INO_COUNTER = itertools.count(1)


@dataclass(slots=True)
class Inode:
    """One file or directory inode.

    Only the metadata fields the paper's workloads exercise are modelled:
    identity, type, ownership/permissions, size, times and link count.
    """

    name: str
    is_dir: bool
    ino: int = field(default_factory=lambda: next(_INO_COUNTER))
    mode: int = 0o644
    uid: int = 0
    gid: int = 0
    size: int = 0
    nlink: int = 1
    ctime: float = 0.0
    mtime: float = 0.0
    atime: float = 0.0
    parent: Optional["object"] = None  # Directory; avoids a circular import

    def touch(self, now: float, write: bool = False) -> None:
        """Update access/modification times."""
        self.atime = now
        if write:
            self.mtime = now

    def stat(self) -> dict[str, float | int | bool | str]:
        """A getattr-style snapshot."""
        return {
            "name": self.name,
            "ino": self.ino,
            "is_dir": self.is_dir,
            "mode": self.mode,
            "uid": self.uid,
            "gid": self.gid,
            "size": self.size,
            "nlink": self.nlink,
            "ctime": self.ctime,
            "mtime": self.mtime,
            "atime": self.atime,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "dir" if self.is_dir else "file"
        return f"Inode({self.name!r}, {kind}, ino={self.ino})"

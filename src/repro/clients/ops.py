"""Metadata operation types exchanged between clients and MDS ranks."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

from ..namespace.tree import dir_and_leaf


class OpKind(str, Enum):
    """The namespace operations the simulated clients issue."""

    CREATE = "create"
    MKDIR = "mkdir"
    STAT = "stat"
    LOOKUP = "lookup"
    OPEN = "open"
    READDIR = "readdir"
    UNLINK = "unlink"
    RENAME = "rename"

    @property
    def is_write(self) -> bool:
        return IS_WRITE[self]

    @property
    def counter_kind(self) -> str:
        """Which decayed counter this op bumps (paper Table 2 metrics)."""
        return COUNTER_KIND[self]


#: Precomputed per-kind lookups; hot paths index these directly instead of
#: going through the property descriptors.
IS_WRITE = {
    kind: kind in (OpKind.CREATE, OpKind.MKDIR, OpKind.UNLINK, OpKind.RENAME)
    for kind in OpKind
}
COUNTER_KIND = {
    kind: ("IWR" if IS_WRITE[kind]
           else "READDIR" if kind is OpKind.READDIR else "IRD")
    for kind in OpKind
}


def parse_op_path(kind: OpKind, path: str) -> tuple[str, Optional[str]]:
    """``(directory path, leaf)`` an op on *path* addresses.

    READDIR addresses the directory itself (``path.rstrip("/") or "/"``,
    no leaf); every other op addresses its containing directory and last
    component, and the root has no leaf.  ``Client._issue`` splits
    already-normal paths itself and calls this for every other spelling.
    """
    if kind is OpKind.READDIR:
        return path.rstrip("/") or "/", None
    return dir_and_leaf(path)


_REQ_IDS = itertools.count(1)


@dataclass(slots=True)
class MetaRequest:
    """One client metadata request as it travels through the cluster."""

    kind: OpKind
    path: str
    client_id: int
    req_id: int = field(default_factory=_REQ_IDS.__next__)
    #: Ranks that already handled (and forwarded) this request.
    hops: list[int] = field(default_factory=list)
    issued_at: float = 0.0
    #: Rename destination (None for every other op).
    dst: Optional[str] = None
    #: The path, parsed once by the client (see :func:`parse_op_path`):
    #: the directory the op addresses, the leaf name in it (None for
    #: READDIR and the root) and the leaf's ``name_hash`` (None until
    #: someone needed it).  ``dir_path`` None means unparsed; the MDS
    #: parses such a request on first routing.
    dir_path: Optional[str] = None
    leaf: Optional[str] = None
    leaf_hash: Optional[int] = None
    #: ``(parent directory, leaf name, dirfrag)`` the MDS resolved for
    #: this request (None: the path does not resolve), valid while the
    #: namespace tree epoch and the global authority epoch still equal
    #: the two recorded beside it.  See ``MdsServer._route``.
    route: Optional[tuple] = None
    tree_epoch: int = -1
    auth_epoch: int = -1

    @property
    def forwards(self) -> int:
        return max(0, len(self.hops) - 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MetaRequest({self.kind.value}, {self.path!r}, "
                f"client={self.client_id}, hops={self.hops})")


@dataclass(slots=True)
class MetaReply:
    """Reply delivered back to the client.

    Real CephFS replies carry the directory's fragtree and the MDS map so
    clients can route follow-up requests directly; ``dir_path``/``frag_map``
    model that (``frag_map`` is a tuple of ``(bits, value, rank)``).
    """

    req_id: int
    kind: OpKind
    path: str
    served_by: int
    forwards: int
    latency: float
    result: Optional[Any] = None
    error: Optional[str] = None
    #: Destination path echoed back for renames (trace replay needs it).
    dst: Optional[str] = None
    dir_path: Optional[str] = None
    frag_map: Optional[tuple[tuple[int, int, int], ...]] = None

    @property
    def ok(self) -> bool:
        return self.error is None

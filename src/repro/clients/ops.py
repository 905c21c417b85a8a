"""Metadata operation types exchanged between clients and MDS ranks."""

from __future__ import annotations

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


class MetaRequest:
    """One client metadata op, the only per-op object between a client
    and the MDS ranks: stations queue it, forwards carry it, and the reply
    goes to ``client.receive_reply``, which sets ``done``."""

    __slots__ = ("kind", "path", "client_id", "client", "issued_at", "dst",
                 "dir_path", "leaf", "leaf_hash", "hops", "done",
                 "route", "tree_epoch", "auth_epoch")

    def __init__(self, kind: OpKind, path: str, client_id: int,
                 client: Any = None, issued_at: float = 0.0,
                 dst: Optional[str] = None, dir_path: Optional[str] = None,
                 leaf: Optional[str] = None) -> None:
        self.kind = kind
        self.path = path
        self.client_id = client_id
        #: Receives the reply (a :class:`~repro.clients.client.Client`).
        self.client = client
        self.issued_at = issued_at
        #: Rename destination (None for every other op).
        self.dst = dst
        #: The path, parsed once by the client (see :func:`parse_op_path`):
        #: the directory the op addresses, the leaf name in it (None for
        #: READDIR and the root) and the leaf's ``name_hash`` (None until
        #: someone needed it).  ``dir_path`` None means unparsed; the MDS
        #: parses such a request on first routing.
        self.dir_path = dir_path
        self.leaf = leaf
        self.leaf_hash: Optional[int] = None
        #: Ranks that handled this request so far (forwards + 1).
        self.hops = 0
        #: True once the reply reached the client.
        self.done = False
        #: ``(parent directory, leaf name, dirfrag)`` the MDS resolved for
        #: this request (None: the path does not resolve), valid while the
        #: namespace tree epoch and the global authority epoch still equal
        #: the two recorded beside it.  See ``MdsServer._route``.
        self.route: Optional[tuple] = None
        self.tree_epoch = -1
        self.auth_epoch = -1

    @property
    def forwards(self) -> int:
        return self.hops - 1 if self.hops > 1 else 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MetaRequest({self.kind.value}, {self.path!r}, "
                f"client={self.client_id}, hops={self.hops})")

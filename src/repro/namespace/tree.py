"""The hierarchical namespace: a tree of directories and files.

The namespace is shared state kept "in the collective memory of the MDS
cluster" (paper §2).  The simulator keeps one authoritative tree; which MDS
is allowed to serve which part of it is expressed through subtree/dirfrag
authority, and the MDS layer charges forwarding costs when a request lands
on the wrong rank.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

from .counters import DEFAULT_HALF_LIFE, DecayClock
from .directory import DEFAULT_SPLIT_BITS, DEFAULT_SPLIT_SIZE, Directory
from .dirfrag import DirFrag, bump_auth_epoch
from .inode import Inode


def split_path(path: str) -> tuple[str, ...]:
    """Normalize ``/a//b/`` -> ``('a', 'b')``.

    Not memoized: a request's path is parsed once, by the client that
    issues it, and travels with the request (``MetaRequest.dir_path``,
    ``leaf``), so the per-op chain does not split it again.
    """
    return tuple(filter(None, path.split("/")))


def dir_and_leaf(path: str) -> tuple[str, Optional[str]]:
    """``(absolute path of the containing directory, leaf name)`` for
    *path* in any spelling (``a//b/`` -> ``("/a", "b")``); the root is
    ``("/", None)``."""
    parts = split_path(path)
    if not parts:
        return "/", None
    return "/" + "/".join(parts[:-1]), parts[-1]


class Namespace:
    """The full file-system tree plus authority bookkeeping."""

    def __init__(self, half_life: float = DEFAULT_HALF_LIFE,
                 split_size: int = DEFAULT_SPLIT_SIZE,
                 split_bits: int = DEFAULT_SPLIT_BITS,
                 root_auth: int = 0) -> None:
        #: One decay clock for every counter of this cluster: the dirfrags'
        #: and the MDS ranks' own loads.
        self.clock = DecayClock(half_life)
        self.split_size = split_size
        self.split_bits = split_bits
        # Per-namespace inode numbering keeps runs reproducible: object
        # names derived from inos (and hence CRUSH placement) must not
        # depend on what other namespaces existed in the process.
        import itertools
        self._ino_counter = itertools.count(2)
        root_inode = Inode(name="", is_dir=True, mode=0o755, ino=1)
        self.root = Directory(root_inode, parent=None, clock=self.clock,
                              split_size=split_size, split_bits=split_bits)
        self.root.set_auth(root_auth)
        self.inode_count = 1
        self.dir_count = 1
        # Path -> Directory memo, flushed whenever the directory tree's
        # shape changes (mkdir / dir unlink / rename).
        self._dir_cache: dict[str, Directory] = {}
        self._dir_cache_epoch = 0
        #: Bumped whenever the directory tree's shape changes; anything
        #: memoizing a path resolution keys it on this epoch.
        self.tree_epoch = 0

    def _bump_tree_epoch(self) -> None:
        self.tree_epoch += 1

    # -- resolution ------------------------------------------------------
    def resolve_dir(self, path: str) -> Directory:
        """Resolve *path* to a Directory; raises FileNotFoundError/NotADirectoryError."""
        cache = self._dir_cache
        if self._dir_cache_epoch != self.tree_epoch:
            cache.clear()
            self._dir_cache_epoch = self.tree_epoch
        node = cache.get(path)
        if node is not None:
            return node
        node = self.root
        for part in split_path(path):
            child = node.subdirs.get(part)
            if child is None:
                entry = node.lookup(part)
                if entry is None:
                    raise FileNotFoundError(f"{path!r} (missing {part!r})")
                raise NotADirectoryError(f"{path!r} ({part!r} is a file)")
            node = child
        cache[path] = node
        return node

    def resolve_entry(self, path: str) -> Inode:
        """Resolve *path* to any inode (file or directory)."""
        parts = split_path(path)
        if not parts:
            return self.root.inode
        parent = self.resolve_dir("/".join(parts[:-1]))
        entry = parent.lookup(parts[-1])
        if entry is None:
            raise FileNotFoundError(path)
        return entry

    def parent_of(self, path: str) -> tuple[Directory, str]:
        """The directory containing *path* and the leaf name."""
        parts = split_path(path)
        if not parts:
            raise ValueError("the root has no parent")
        return self.resolve_dir("/".join(parts[:-1])), parts[-1]

    def exists(self, path: str) -> bool:
        try:
            self.resolve_entry(path)
            return True
        except (FileNotFoundError, NotADirectoryError):
            return False

    # -- mutation ---------------------------------------------------------
    def mkdir(self, path: str, now: float = 0.0, mode: int = 0o755) -> Directory:
        parent, name = self.parent_of(path)
        inode = Inode(name=name, is_dir=True, mode=mode, ctime=now,
                      mtime=now, atime=now, ino=next(self._ino_counter))
        directory = Directory(inode, parent, clock=self.clock,
                              split_size=self.split_size,
                              split_bits=self.split_bits)
        parent.link(inode)
        parent.subdirs[name] = directory
        self.inode_count += 1
        self.dir_count += 1
        self._bump_tree_epoch()
        return directory

    def mkdirs(self, path: str, now: float = 0.0) -> Directory:
        """Create all missing components of *path* (like ``mkdir -p``)."""
        node = self.root
        accumulated: list[str] = []
        for part in split_path(path):
            accumulated.append(part)
            child = node.subdirs.get(part)
            if child is None:
                child = self.mkdir("/".join(accumulated), now=now)
            node = child
        return node

    def create(self, path: str, now: float = 0.0, mode: int = 0o644,
               size: int = 0) -> Inode:
        parent, name = self.parent_of(path)
        return self.create_in(parent.frag_for_name(name), name, now=now,
                              mode=mode, size=size)

    def create_in(self, frag: DirFrag, name: str, now: float = 0.0,
                  mode: int = 0o644, size: int = 0,
                  hashed: Optional[int] = None) -> Inode:
        """Create file *name* in *frag*, the dirfrag its name hashes to
        (the MDS request path already resolved it, and may carry the
        name's hash as *hashed*)."""
        inode = Inode(name=name, is_dir=False, mode=mode, size=size,
                      ctime=now, mtime=now, atime=now,
                      ino=next(self._ino_counter))
        frag.directory.link(inode, frag, hashed)
        self.inode_count += 1
        return inode

    def unlink(self, path: str, now: float = 0.0) -> Inode:
        parent, name = self.parent_of(path)
        inode = parent.unlink(name)
        self.inode_count -= 1
        if inode.is_dir:
            self.dir_count -= 1
            self._bump_tree_epoch()
        return inode

    def rename(self, src: str, dst: str, now: float = 0.0) -> Inode:
        """Move *src* to *dst* (both leaf paths); returns the moved inode."""
        src_parent, src_name = self.parent_of(src)
        dst_parent, dst_name = self.parent_of(dst)
        inode = src_parent.lookup(src_name)
        if inode is None:
            raise FileNotFoundError(src)
        if dst_parent.lookup(dst_name) is not None:
            raise FileExistsError(dst)
        if inode.is_dir:
            # Moving a directory under itself would corrupt the tree.
            moving = src_parent.subdirs[src_name]
            node: Directory | None = dst_parent
            while node is not None:
                if node is moving:
                    raise ValueError(f"cannot move {src!r} under itself")
                node = node.parent
        directory = src_parent.subdirs.get(src_name)
        src_parent.unlink(src_name)
        inode.name = dst_name
        inode.touch(now, write=True)
        dst_parent.link(inode)
        if directory is not None:
            directory.parent = dst_parent
            dst_parent.subdirs[dst_name] = directory
            directory.invalidate_path_cache()
            self._bump_tree_epoch()
            # Inherited authority follows the new parent chain.
            bump_auth_epoch()
        return inode

    # -- accounting ------------------------------------------------------
    def record_hit(self, directory: Directory, name: Optional[str],
                   kind: str, now: float, amount: float = 1.0) -> DirFrag:
        """Charge an op against the dirfrag of *name* in *directory*.

        Paper §2: counters "are stored in the directories and are updated by
        the MDS whenever a namespace operation hits that directory or any of
        its children."  Only the dirfrag is charged; a directory's load is
        summed from its subtree's dirfrags (:meth:`Directory.load_snapshot`).
        """
        frag = (directory.frag_for_name(name) if name is not None
                else next(iter(directory.frags.values())))
        self.record_frag_hit(frag, kind, now, amount)
        return frag

    @staticmethod
    def record_frag_hit(frag: DirFrag, kind: str, now: float,
                        amount: float = 1.0) -> None:
        """:meth:`record_hit` on an already resolved dirfrag."""
        # LoadCounters.hit inlined: one multiply-add per op.
        counters = frag.counters
        clock = counters.clock
        if now != clock.now:
            clock.advance(now)
        if counters.landmark != clock.landmark:
            counters.rebase()
        counters.sums[kind] += amount * clock.gain

    # -- authority queries ---------------------------------------------------
    def subtree_roots(self, mds: int | None = None) -> list[Directory]:
        """Directories that are explicit subtree boundaries
        (optionally only those owned by *mds*)."""
        return [
            directory for directory in self.root.walk()
            if directory.is_subtree_root()
            and (mds is None or directory.explicit_auth == mds)
        ]

    def frags_owned_by(self, mds: int) -> Iterator[DirFrag]:
        """All dirfrags whose resolved authority is *mds*."""
        for directory in self.root.walk():
            for frag in directory.frags.values():
                if frag.authority() == mds:
                    yield frag

    def authority_for_path(self, path: str) -> int:
        """The MDS serving the *containing dirfrag* of *path*."""
        parts = split_path(path)
        if not parts:
            return self.root.authority()
        parent = self.resolve_dir("/".join(parts[:-1]))
        return parent.frag_for_name(parts[-1]).authority()

    # -- load views ------------------------------------------------------
    def metadata_load(self, mds: int, metaload: Callable[[dict], float],
                      now: float) -> float:
        """Sum of ``metaload(frag counters)`` over frags owned by *mds*."""
        return sum(
            metaload(frag.load_snapshot(now))
            for frag in self.frags_owned_by(mds)
        )

    def heat_map(self, now: float,
                 metaload: Callable[[dict], float] | None = None,
                 max_depth: int | None = None) -> dict[str, float]:
        """Per-directory heat (Fig 1): decayed load of each directory's
        subtree, every subtree summed once."""
        if metaload is None:
            def metaload(snapshot: dict) -> float:
                return snapshot["IRD"] + snapshot["IWR"]
        loads: dict[int, dict[str, float]] = {}
        heat: dict[str, float] = {}
        for directory in self.root.walk():
            if max_depth is not None and directory.depth() > max_depth:
                continue
            heat[directory.path()] = metaload(
                directory.load_snapshot(now, loads))
        return heat

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Namespace({self.inode_count} inodes, "
                f"{self.dir_count} dirs)")

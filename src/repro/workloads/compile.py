"""The compile workload: building a Linux-like source tree.

Paper Fig 1 computes per-directory heat while compiling the Linux source;
Figs 9 and 10 run 1-5 clients compiling in separate directories.  The job
has three phases with very different metadata behaviour:

* **untar** -- sequential creates sweeping across all directories ("high,
  sequential metadata load across directories");
* **compile** -- stats/opens of headers and sources plus ``.o`` creates,
  with hotspots concentrated in ``arch``, ``kernel``, ``fs`` and ``mm``
  (Fig 1) and steady traffic in ``include``;
* **link** -- a flash crowd of readdirs sweeping the whole tree (Fig 10:
  "the clients shift to linking, which overloads 1 MDS with readdirs").

Paths come from per-client tables and one ``integers()`` call draws a
chunk of units' header picks, bit for bit as one scalar call per pick.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ..clients.ops import OpKind
from ..namespace.tree import Namespace
from .base import Workload, WorkloadOp

#: (top-level dir, #subdirs, files per subdir, compile heat weight).
#: Shapes mirror the Linux tree the paper compiles; Fig 1 names arch,
#: kernel, fs and mm as the compile-phase hotspots.
SOURCE_TREE: tuple[tuple[str, int, int, float], ...] = (
    ("arch", 12, 14, 5.0),
    ("kernel", 4, 20, 8.0),
    ("fs", 14, 12, 4.0),
    ("mm", 2, 18, 9.0),
    ("include", 16, 22, 3.0),
    ("drivers", 24, 16, 0.7),
    ("net", 12, 10, 0.6),
    ("lib", 3, 16, 1.0),
    ("sound", 8, 10, 0.3),
    ("tools", 6, 8, 0.2),
    ("scripts", 3, 8, 0.5),
    ("Documentation", 10, 12, 0.05),
)

#: Compile units per ``integers()`` call that draws their header picks.
UNIT_CHUNK = 256


class CompileWorkload(Workload):
    """Each client untars, compiles and links its own source tree."""

    def __init__(self, num_clients: int, scale: float = 1.0,
                 base: str = "/src", seed: int = 0,
                 compile_passes: float = 1.0,
                 link_passes: int = 4) -> None:
        if num_clients < 1:
            raise ValueError("need at least one client")
        if scale <= 0:
            raise ValueError("scale must be positive")
        if link_passes < 1:
            raise ValueError("link_passes must be >= 1")
        self.num_clients = num_clients
        self.scale = scale
        self.base = base.rstrip("/") or "/src"
        self.seed = seed
        self.compile_passes = compile_passes
        #: How many readdir sweeps the link phase makes (the linker walks
        #: object directories repeatedly); drives the Fig 10 flash crowd.
        self.link_passes = link_passes

    # -- tree shape ------------------------------------------------------
    def tree_dirs(self) -> list[tuple[str, int, float]]:
        """[(relative dir, files in it, heat weight)] after scaling."""
        out: list[tuple[str, int, float]] = []
        for top, subdirs, files, weight in SOURCE_TREE:
            n_sub = max(1, int(round(subdirs * min(1.0, self.scale * 2))))
            n_files = max(1, int(round(files * self.scale)))
            for sub in range(n_sub):
                out.append((f"{top}/d{sub:02d}", n_files, weight))
        return out

    def client_root(self, client_id: int) -> str:
        return f"{self.base}/client{client_id}"

    def prepare(self, namespace: Namespace) -> None:
        namespace.mkdirs(self.base)

    def total_ops(self) -> int:
        dirs = self.tree_dirs()
        total_files = sum(files for _d, files, _w in dirs)
        untar = 1 + len(dirs) + len({d.split("/")[0] for d, _f, _w in dirs}) \
            + total_files
        compile_units = int(total_files * self.compile_passes)
        compile_ops = compile_units * 4  # 2 header stats + 1 open + 1 create
        link = len(dirs) * self.link_passes + 1
        return (untar + compile_ops + link) * self.num_clients

    # -- op streams ------------------------------------------------------
    def client_ops(self, client_id: int) -> Iterator[WorkloadOp]:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed,
                                   spawn_key=(client_id,))
        )
        root = self.client_root(client_id)
        dirs = self.tree_dirs()

        # Phase 1: untar -- a depth-first sweep of mkdirs and creates.
        yield (OpKind.MKDIR, root)
        seen_tops: set[str] = set()
        source_files: list[tuple[str, float]] = []  # (path, weight)
        for rel, files, weight in dirs:
            top = rel.split("/")[0]
            if top not in seen_tops:
                seen_tops.add(top)
                yield (OpKind.MKDIR, f"{root}/{top}")
            yield (OpKind.MKDIR, f"{root}/{rel}")
            for index in range(files):
                path = f"{root}/{rel}/src{index:03d}.c"
                source_files.append((path, weight))
                yield (OpKind.CREATE, path)

        # Phase 2: compile -- weighted hot-spot traffic: two header stats
        # (hot include/ traffic), then open the source and create its .o.
        weights = np.asarray([w for _p, w in source_files], dtype=float)
        weights /= weights.sum()
        header_dirs = [rel for rel, _f, w in dirs if rel.startswith("include")]
        stat_paths = [[f"{root}/{hdir}/src{pick:03d}.c" for pick in range(4)]
                      for hdir in header_dirs]
        n_units = int(len(source_files) * self.compile_passes)
        order = rng.choice(len(source_files), size=n_units, p=weights)
        for start in range(0, n_units, UNIT_CHUNK):
            units = order[start:start + UNIT_CHUNK].tolist()
            bounds = np.tile([len(header_dirs), 4], 2 * len(units))
            picks = iter(rng.integers(0, bounds).tolist())
            for unit, dir1, file1, dir2, file2 in zip(units, picks, picks,
                                                       picks, picks):
                path = source_files[unit][0]
                yield (OpKind.STAT, stat_paths[dir1][file1])
                yield (OpKind.STAT, stat_paths[dir2][file2])
                yield (OpKind.OPEN, path)
                yield (OpKind.CREATE, path.replace(".c", f".o{unit % 7}"))

        # Phase 3: link -- the readdir flash crowd (the linker sweeps the
        # object directories repeatedly).
        for _sweep in range(self.link_passes):
            for rel, _files, _weight in dirs:
                yield (OpKind.READDIR, f"{root}/{rel}")
        yield (OpKind.CREATE, f"{root}/vmlinux")

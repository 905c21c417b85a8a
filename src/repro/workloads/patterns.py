"""Access-pattern helpers and trace replay.

``ZipfWorkload`` issues stats/opens over an existing file population with a
Zipf popularity skew -- the "skewed workload" shape §1 of the paper cites
as the reason metadata services fall over; its stream walks the drawn
arrays a chunk at a time and joins per-directory path prefixes with the
file number.  ``TraceWorkload`` replays an explicit per-client op list
(useful for regression tests and for feeding recorded traces through
different balancers).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..clients.ops import OpKind
from ..namespace.tree import Namespace
from .base import Workload, WorkloadOp

#: Ops per chunk of the drawn arrays that a zipf stream turns into lists.
OP_CHUNK = 1024


def zipf_weights(n: int, alpha: float = 1.1) -> np.ndarray:
    """Normalised Zipf weights for ranks 1..n."""
    if n < 1:
        raise ValueError("need at least one item")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** (-alpha)
    return weights / weights.sum()


class ZipfWorkload(Workload):
    """Read-mostly traffic over a pre-created population of files."""

    def __init__(self, num_clients: int, num_files: int, ops_per_client: int,
                 alpha: float = 1.1, write_fraction: float = 0.1,
                 num_dirs: int = 16, base: str = "/data",
                 seed: int = 0) -> None:
        if not 0 <= write_fraction <= 1:
            raise ValueError("write_fraction must be a probability")
        self.num_clients = num_clients
        self.num_files = num_files
        self.ops_per_client = ops_per_client
        self.alpha = alpha
        self.write_fraction = write_fraction
        self.num_dirs = max(1, num_dirs)
        self.base = base.rstrip("/") or "/data"
        self.seed = seed

    def _dir_prefixes(self, stem: str) -> list[str]:
        return [f"{self.base}/d{d:03d}/{stem}" for d in range(self.num_dirs)]

    def prepare(self, namespace: Namespace) -> None:
        namespace.mkdirs(self.base)
        for d in range(self.num_dirs):
            namespace.mkdirs(f"{self.base}/d{d:03d}")
        files, num_dirs = self._dir_prefixes("f"), self.num_dirs
        for index in range(self.num_files):
            namespace.create(files[index % num_dirs] + "%07d" % index)

    def client_ops(self, client_id: int) -> Iterator[WorkloadOp]:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed,
                                   spawn_key=(client_id,))
        )
        weights = zipf_weights(self.num_files, self.alpha)
        choices = rng.choice(self.num_files, size=self.ops_per_client,
                             p=weights)
        writes = rng.random(self.ops_per_client) < self.write_fraction
        files, num_dirs = self._dir_prefixes("f"), self.num_dirs
        creates = self._dir_prefixes(f"new{client_id}_")
        for start in range(0, self.ops_per_client, OP_CHUNK):
            chunk = zip(choices[start:start + OP_CHUNK].tolist(),
                        writes[start:start + OP_CHUNK].tolist())
            for op_index, (index, write) in enumerate(chunk, start):
                if write:
                    yield (OpKind.CREATE,
                           creates[index % num_dirs] + "%07d" % op_index)
                else:
                    yield (OpKind.STAT, files[index % num_dirs] + "%07d" % index)

    def total_ops(self) -> int:
        return self.ops_per_client * self.num_clients


class TraceWorkload(Workload):
    """Replay explicit per-client op lists."""

    def __init__(self, traces: dict[int, Sequence[WorkloadOp]]) -> None:
        if not traces:
            raise ValueError("empty trace set")
        expected = set(range(len(traces)))
        if set(traces) != expected:
            raise ValueError("trace client ids must be 0..n-1")
        self.traces = {cid: list(ops) for cid, ops in traces.items()}
        self.num_clients = len(traces)

    def prepare(self, namespace: Namespace) -> None:
        # Pre-create directories mentioned as parents so replay cannot
        # ENOENT -- except those the trace itself mkdirs (pre-creating
        # them would make the replayed mkdir fail with EEXIST).
        trace_mkdirs = {
            "/" + "/".join(part for part in op[1].split("/") if part)
            for ops in self.traces.values()
            for op in ops if op[0] is OpKind.MKDIR
        }
        for ops in self.traces.values():
            for op in ops:
                kind, path = op[0], op[1]
                if kind is OpKind.MKDIR or kind is OpKind.READDIR:
                    continue
                # Renames carry a destination whose parent must also exist.
                paths = [path] + ([op[2]] if len(op) > 2 else [])
                for target in paths:
                    parent = target.rsplit("/", 1)[0]
                    if not parent:
                        continue
                    node = ""
                    for part in (p for p in parent.split("/") if p):
                        node = f"{node}/{part}"
                        if (node not in trace_mkdirs
                                and not namespace.exists(node)):
                            namespace.mkdirs(node)

    def client_ops(self, client_id: int) -> Iterator[WorkloadOp]:
        return iter(self.traces[client_id])

    def total_ops(self) -> int:
        return sum(len(ops) for ops in self.traces.values())

"""Access-pattern helpers and trace replay.

``ZipfWorkload`` issues stats/opens over an existing file population with a
Zipf popularity skew -- the "skewed workload" shape §1 of the paper cites
as the reason metadata services fall over.  ``TraceWorkload`` replays an
explicit per-client op list (useful for regression tests and for feeding
recorded traces through different balancers).
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from ..clients.ops import OpKind
from ..namespace.tree import Namespace
from .base import Workload, WorkloadOp


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

    def _file_path(self, index: int) -> str:
        return (f"{self.base}/d{index % self.num_dirs:03d}/"
                f"f{index:07d}")

    def prepare(self, namespace: Namespace) -> None:
        namespace.mkdirs(self.base)
        for d in range(self.num_dirs):
            namespace.mkdirs(f"{self.base}/d{d:03d}")
        for index in range(self.num_files):
            namespace.create(self._file_path(index))

    def client_ops(self, client_id: int) -> Iterator[WorkloadOp]:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=self.seed,
                                   spawn_key=(client_id,))
        )
        weights = zipf_weights(self.num_files, self.alpha)
        choices = rng.choice(self.num_files, size=self.ops_per_client,
                             p=weights)
        writes = rng.random(self.ops_per_client) < self.write_fraction
        for op_index in range(self.ops_per_client):
            index = int(choices[op_index])
            if writes[op_index]:
                yield (OpKind.CREATE,
                       f"{self.base}/d{index % self.num_dirs:03d}/"
                       f"new{client_id}_{op_index:07d}")
            else:
                yield (OpKind.STAT, self._file_path(index))

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

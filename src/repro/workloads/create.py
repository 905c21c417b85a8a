"""File-create workloads.

The paper's primary stress test: "we use file-create workloads because they
stress the system, are the focus of other state-of-the-art metadata
systems, and they are a common HPC problem (checkpoint/restart)".

Two variants:

* separate directories -- each client creates N files in its own directory
  (Figs 4, 5: "creating 100,000 files in separate directories");
* shared directory -- every client creates into one directory, which
  fragments into dirfrags once it crosses the split threshold (Figs 7, 8:
  "4 clients each creating 100,000 files in the same directory").
"""

from __future__ import annotations

from typing import Iterator

from ..clients.ops import OpKind
from ..namespace.tree import Namespace
from .base import Workload, WorkloadOp


class CreateWorkload(Workload):
    """N file creates per client, in private or shared directories."""

    def __init__(self, num_clients: int, files_per_client: int,
                 shared_dir: bool = False, base: str = "/work",
                 stat_every: int = 0) -> None:
        if num_clients < 1:
            raise ValueError("need at least one client")
        if files_per_client < 1:
            raise ValueError("need at least one file per client")
        self.num_clients = num_clients
        self.files_per_client = files_per_client
        self.shared_dir = shared_dir
        self.base = base.rstrip("/") or "/work"
        #: Optionally stat every Nth created file (adds IRD load).
        self.stat_every = stat_every

    def prepare(self, namespace: Namespace) -> None:
        namespace.mkdirs(self.base)
        if self.shared_dir:
            namespace.mkdirs(self.target_dir(0))

    def target_dir(self, client_id: int) -> str:
        if self.shared_dir:
            return f"{self.base}/shared"
        return f"{self.base}/client{client_id}"

    def client_ops(self, client_id: int) -> Iterator[WorkloadOp]:
        directory = self.target_dir(client_id)
        if not self.shared_dir:
            yield (OpKind.MKDIR, directory)
        prefix, stat_every = f"{directory}/f{client_id}_", self.stat_every
        for index in range(self.files_per_client):
            path = prefix + "%07d" % index
            yield (OpKind.CREATE, path)
            if stat_every and (index + 1) % stat_every == 0:
                yield (OpKind.STAT, path)

    def total_ops(self) -> int:
        per_client = self.files_per_client
        if self.stat_every:
            per_client += self.files_per_client // self.stat_every
        if not self.shared_dir:
            per_client += 1
        return per_client * self.num_clients

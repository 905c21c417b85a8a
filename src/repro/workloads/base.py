"""Workload protocol: op streams per client plus namespace preparation."""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterator

from ..clients.ops import OpKind
from ..namespace.tree import Namespace

WorkloadOp = tuple[OpKind, str]


class Workload(ABC):
    """A workload produces one lazy op stream per client.

    ``prepare`` pre-populates the namespace with whatever must exist before
    the clients start (shared base directories, a source tree to compile) --
    the simulated equivalent of setup steps outside the measured window.
    """

    num_clients: int

    def prepare(self, namespace: Namespace) -> None:
        """Pre-create setup state directly in the namespace (unmeasured)."""

    @abstractmethod
    def client_ops(self, client_id: int) -> Iterator[WorkloadOp]:
        """The (lazy) op stream of *client_id*."""

    def op_streams(self) -> dict[int, Iterator[WorkloadOp]]:
        return {cid: self.client_ops(cid) for cid in range(self.num_clients)}

    def total_ops(self) -> int | None:
        """Total op count, when cheaply known (None otherwise)."""
        return None

"""Checkpoint/restart workload.

Paper §4 motivates create storms as "a common HPC problem
(checkpoint/restart)".  This workload models it directly: N ranks of a
parallel job periodically dump checkpoint files (a synchronized create
storm into one directory per round), then later read a checkpoint back
(stat+open storm).  The barrier between rounds means the slowest client
gates everyone -- exactly the pattern that punishes unbalanced metadata
service.

Since client processes in the simulator are independent, the barrier is
expressed in the op stream: each client's round r ops are identical in
count, so rounds stay roughly aligned; the report's per-client runtimes
expose straggling.
"""

from __future__ import annotations

from typing import Iterator

from ..clients.ops import OpKind
from ..namespace.tree import Namespace
from .base import Workload, WorkloadOp


class CheckpointWorkload(Workload):
    """N application ranks checkpointing every round.

    Per round: every client creates ``files_per_round`` checkpoint chunks
    into the round's shared directory, then stats its previous round's
    chunks (restart-readiness verification).
    """

    def __init__(self, num_clients: int, rounds: int = 4,
                 files_per_round: int = 1000,
                 base: str = "/ckpt", verify: bool = True) -> None:
        if num_clients < 1:
            raise ValueError("need at least one client")
        if rounds < 1:
            raise ValueError("need at least one round")
        if files_per_round < 1:
            raise ValueError("need at least one file per round")
        self.num_clients = num_clients
        self.rounds = rounds
        self.files_per_round = files_per_round
        self.base = base.rstrip("/") or "/ckpt"
        self.verify = verify

    def round_dir(self, round_index: int) -> str:
        return f"{self.base}/round{round_index:04d}"

    def prepare(self, namespace: Namespace) -> None:
        namespace.mkdirs(self.base)
        for round_index in range(self.rounds):
            namespace.mkdirs(self.round_dir(round_index))

    def chunk_path(self, round_index: int, client_id: int,
                   chunk: int) -> str:
        return (f"{self.round_dir(round_index)}/"
                f"ckpt.r{client_id:04d}.c{chunk:05d}")

    def client_ops(self, client_id: int) -> Iterator[WorkloadOp]:
        for round_index in range(self.rounds):
            for chunk in range(self.files_per_round):
                yield (OpKind.CREATE,
                       self.chunk_path(round_index, client_id, chunk))
            if self.verify and round_index > 0:
                # Restart-readiness: spot-check last round's chunks.
                step = max(1, self.files_per_round // 10)
                for chunk in range(0, self.files_per_round, step):
                    yield (OpKind.STAT,
                           self.chunk_path(round_index - 1, client_id,
                                           chunk))

    def total_ops(self) -> int:
        per_round_creates = self.files_per_round
        verifies = 0
        if self.verify:
            step = max(1, self.files_per_round // 10)
            per_verify = len(range(0, self.files_per_round, step))
            verifies = per_verify * (self.rounds - 1)
        return (per_round_creates * self.rounds + verifies) \
            * self.num_clients

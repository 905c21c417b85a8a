"""Simulated CephFS clients.

Clients are closed-loop with a small pipeline of outstanding requests
(Ceph clients issue asynchronous dirops).  A pipeline worker is a chain
of callbacks, not a coroutine: the reply to one op issues the next (after
the think time, if any).  Each client keeps its own
mapping of directories to MDS ranks, learned lazily from replies -- so
after a migration the first requests land on the wrong rank and get
forwarded, exactly the staleness the paper describes for client-side
subtree maps (§2, "the client builds up its own mapping of subtrees to MDS
nodes").
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

from ..metrics.collectors import ClusterMetrics
from ..namespace.dirfrag import name_hash
from ..namespace.tree import dirname_of, split_path
from ..sim.engine import SimEngine
from ..sim.network import Network
from .ops import MetaReply, MetaRequest, OpKind

if TYPE_CHECKING:  # pragma: no cover
    from ..mds.server import MdsServer

#: A workload hands each client an iterator of these.
WorkloadOp = tuple[OpKind, str]


class PendingOp:
    """One in-flight op of a closed-loop worker.

    The MDS holds it beside the request and replies through it: it has
    the ``done``/``succeed`` pair of :class:`~repro.sim.engine.Completion`
    the request path uses, and succeeding it hands the reply straight to
    the client.
    """

    __slots__ = ("client", "path", "issued_at", "done")

    def __init__(self, client: "Client", path: str,
                 issued_at: float) -> None:
        self.client = client
        self.path = path
        self.issued_at = issued_at
        self.done = False

    def succeed(self, reply: MetaReply) -> None:
        if self.done:
            raise RuntimeError("op already completed")
        self.done = True
        self.client._complete(self, reply)


class Client:
    """One client mount: an op stream, a subtree map, pipeline workers."""

    def __init__(self, engine: SimEngine, client_id: int,
                 network: Network, mdss: list["MdsServer"],
                 metrics: ClusterMetrics,
                 ops: Iterator[WorkloadOp],
                 pipeline: int = 2,
                 think_time: float = 0.0,
                 start_delay: float = 0.0,
                 cap_switch_time: float = 0.0) -> None:
        self.engine = engine
        self.client_id = client_id
        self.network = network
        self.mdss = mdss
        self.metrics = metrics
        self.ops = iter(ops)
        self.pipeline = max(1, pipeline)
        self.think_time = think_time
        self.start_delay = start_delay
        #: directory path -> believed MDS rank (subtree map).
        self.mds_map: dict[str, int] = {}
        self.cap_switch_time = cap_switch_time
        self._last_rank: int | None = None
        self.cap_switches = 0
        #: directory path -> fragtree, ((bits, value, rank), ...).  Real
        #: CephFS replies carry the fragtree so clients route directly to
        #: the rank holding the right dirfrag; this goes stale after a
        #: migration until the next reply refreshes it.
        self.frag_maps: dict[str, tuple[tuple[int, int, int], ...]] = {}
        self.ops_completed = 0
        self.errors = 0
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self._workers_left = 0
        self._exhausted = False
        self.done = engine.completion()

    # -- lifecycle -----------------------------------------------------
    def start(self) -> None:
        self.engine.schedule(self.start_delay, self._launch)

    def _launch(self) -> None:
        self.started_at = self.engine.now
        self._workers_left = self.pipeline
        for _worker in range(self.pipeline):
            self.engine.schedule(0.0, self._next_op)

    def _next_op(self) -> None:
        """Issue a worker's next op, or retire the worker when the op
        stream is exhausted."""
        op = next(self.ops, None)
        if op is None:
            self._workers_left -= 1
            if self._workers_left == 0:
                self._finish()
            return
        self._issue(op[0], op[1], op[2] if len(op) > 2 else None)

    def _complete(self, pending: PendingOp, reply: MetaReply) -> None:
        """The reply to *pending* arrived: account it, learn from it, and
        move its worker on to the next op."""
        self.metrics.latencies.record(self.client_id,
                                      self.engine.now - pending.issued_at)
        self.ops_completed += 1
        if reply.error is not None:
            self.errors += 1
        self._learn(pending.path, reply)
        if self.think_time > 0:
            self.engine.schedule(self.think_time, self._next_op)
        else:
            self._next_op()

    def _finish(self) -> None:
        self.finished_at = self.engine.now
        self.metrics.client_finish_times[self.client_id] = self.engine.now
        self.metrics.client_op_counts[self.client_id] = self.ops_completed
        if not self.done.done:
            self.done.succeed(self.client_id)

    # -- request issue ------------------------------------------------------
    def _issue(self, kind: OpKind, path: str,
               dst: str | None = None) -> PendingOp:
        """Send one request; the returned op receives the reply."""
        issued_at = self.engine.now
        req = MetaRequest(kind=kind, path=path, client_id=self.client_id,
                          issued_at=issued_at)
        if dst is not None:
            req.payload["dst"] = dst
        pending = PendingOp(self, path, issued_at)
        rank = self._guess(path, kind)
        # _cap_switch_delay's common case (feature off / same rank) inlined;
        # the method re-does the _last_rank swap, so undo it before calling.
        previous = self._last_rank
        self._last_rank = rank
        if (self.cap_switch_time <= 0 or previous is None
                or previous == rank):
            delay = 0.0
        else:
            self._last_rank = previous
            delay = self._cap_switch_delay(path, kind, rank)
        if delay > 0:
            self.engine.schedule(
                delay, self.network.deliver,
                self.mdss[rank].receive_request, req, pending,
            )
        else:
            self.network.deliver(self.mdss[rank].receive_request, req,
                                 pending)
        return pending

    def _cap_switch_delay(self, path: str, kind: OpKind, rank: int) -> float:
        """Cap revalidation when consecutive requests alternate ranks.

        Exclusive capabilities on *unshared* directories must be handed
        over when the client's traffic jumps to another rank; shared
        (dirfrag-spread) directories already run with degraded caps, so
        crossing costs nothing there.
        """
        previous, self._last_rank = self._last_rank, rank
        if (self.cap_switch_time <= 0 or previous is None
                or previous == rank):
            return 0.0
        frag_map = self.frag_maps.get(self._dir_of(path, kind))
        if frag_map and len({r for _b, _v, r in frag_map}) > 1:
            return 0.0  # shared directory: caps already degraded
        self.cap_switches += 1
        return self.cap_switch_time

    # -- the client-side subtree map ----------------------------------------
    def _dir_of(self, path: str, kind: OpKind) -> str:
        if kind is OpKind.READDIR:
            return path.rstrip("/") or "/"
        return dirname_of(path)

    def _guess(self, path: str, kind: OpKind) -> int:
        """Route via the cached fragtree if known, else the most specific
        subtree mapping along the path, else rank 0."""
        if kind is OpKind.READDIR:
            directory = path.rstrip("/") or "/"
        else:
            directory = dirname_of(path)
        if kind is not OpKind.READDIR:
            frag_map = self.frag_maps.get(directory)
            if frag_map:
                parts = split_path(path)
                leaf = parts[-1] if parts else ""
                hashed = name_hash(leaf)
                for bits, value, rank in frag_map:
                    if (hashed & ((1 << bits) - 1)) == value:
                        return rank
        parts = split_path(directory)
        for depth in range(len(parts), -1, -1):
            prefix = "/" + "/".join(parts[:depth]) if depth else "/"
            rank = self.mds_map.get(prefix)
            if rank is not None:
                return rank
        return 0

    def _learn(self, path: str, reply: MetaReply) -> None:
        if reply.kind is OpKind.READDIR:
            directory = path.rstrip("/") or "/"
        else:
            directory = dirname_of(path)
        self.mds_map[directory] = reply.served_by
        if reply.dir_path is not None and reply.frag_map is not None:
            self.frag_maps[reply.dir_path] = reply.frag_map


def build_clients(engine: SimEngine, network: Network,
                  mdss: list["MdsServer"], metrics: ClusterMetrics,
                  op_streams: dict[int, Iterator[WorkloadOp]],
                  pipeline: int = 2, think_time: float = 0.0,
                  stagger: float = 0.0,
                  cap_switch_time: float = 0.0) -> list[Client]:
    """Create one client per op stream, optionally staggering their starts."""
    clients = []
    for index, (client_id, ops) in enumerate(sorted(op_streams.items())):
        clients.append(
            Client(engine, client_id, network, mdss, metrics, ops,
                   pipeline=pipeline, think_time=think_time,
                   start_delay=stagger * index,
                   cap_switch_time=cap_switch_time)
        )
    return clients

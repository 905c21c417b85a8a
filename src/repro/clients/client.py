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

from ..metrics.collectors import ClusterMetrics, OpRecord
from ..namespace.directory import FragRoute
from ..namespace.dirfrag import name_hash
from ..namespace.tree import split_path
from ..sim.engine import SimEngine
from ..sim.network import Network
from .ops import MetaRequest, OpKind, parse_op_path

if TYPE_CHECKING:  # pragma: no cover
    from ..mds.server import MdsServer

#: A workload hands each client an iterator of these.
WorkloadOp = tuple[OpKind, str]


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
        #: directory path -> fragtree (a :class:`FragRoute`).  Real
        #: CephFS replies carry the fragtree so clients route directly to
        #: the rank holding the right dirfrag; this goes stale after a
        #: migration until the next reply refreshes it.
        self.frag_maps: dict[str, FragRoute] = {}
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
        self._issue(*op)

    def _finish(self) -> None:
        self.finished_at = self.engine.now
        self.metrics.client_finish_times[self.client_id] = self.engine.now
        self.metrics.client_op_counts[self.client_id] = self.ops_completed
        if not self.done.done:
            self.done.succeed(self.client_id)

    # -- request issue ------------------------------------------------------
    def _issue(self, kind: OpKind, path: str,
               dst: str | None = None) -> MetaRequest:
        """Send one request; :meth:`receive_reply` receives its reply.

        The path is parsed here, once per op, and travels with the
        request; the result always equals
        :func:`~repro.clients.ops.parse_op_path`'s.  The request goes to
        the rank the cached fragtree names for its leaf, else to the most
        specific subtree mapping (:meth:`_guess`).  The leaf is hashed
        only against a split fragtree, and the hash travels on the
        request for the MDS.
        """
        issued_at = self.engine.now
        if (kind is not OpKind.READDIR and path[:1] == "/"
                and path[-1:] != "/" and "//" not in path):
            # Already normal: the last "/" separates directory and leaf.
            dir_path, leaf = path.rsplit("/", 1)
            if not dir_path:
                dir_path = "/"
        else:
            dir_path, leaf = parse_op_path(kind, path)
        req = MetaRequest(kind, path, self.client_id, self, issued_at, dst,
                          dir_path, leaf)
        rank = None
        if kind is not OpKind.READDIR:
            route = self.frag_maps.get(dir_path)
            if route is not None:
                mask = route.mask
                if not mask:
                    rank = route.ranks[0]  # the unsplit frag holds every name
                else:
                    # The root has no leaf and hashes as "".
                    hashed = req.leaf_hash = name_hash(leaf or "")
                    ranks = route.ranks
                    if ranks is not None:
                        rank = ranks[hashed & mask]
                    else:  # mixed depths: scan
                        for bits, value, frag_rank in route.frags:
                            if (hashed & ((1 << bits) - 1)) == value:
                                rank = frag_rank
                                break
        if rank is None:
            rank = self._guess(req)
        # Staying on the same rank changes nothing and costs nothing.
        delay = (self._cap_switch_delay(req, rank)
                 if rank != self._last_rank else 0.0)
        if delay > 0:
            self.engine.schedule(delay, self.network.deliver,
                                 self.mdss[rank].receive_request, req)
        else:
            self.network.deliver(self.mdss[rank].receive_request, req)
        return req

    def receive_reply(self, req: MetaRequest, served_by: int,
                      error: str | None, result, dir_path: str | None,
                      frag_map: FragRoute | None) -> None:
        """The reply to *req* arrived: account it, append its op record if
        the run is recorded, learn the route (and the fragtree, on a
        success) from it, and move the worker on to its next op."""
        if req.done:
            raise RuntimeError("op already completed")
        req.done = True
        now = self.engine.now
        metrics = self.metrics
        metrics.latencies.record(self.client_id, now - req.issued_at)
        self.ops_completed += 1
        if error is not None:
            self.errors += 1
        if metrics.record_ops:
            metrics.record(now, "op", served_by, OpRecord(
                now, served_by, self.client_id, req.kind.value, req.path,
                req.dst, now - req.issued_at, req.forwards, result, error))
        self.mds_map[req.dir_path] = served_by
        if dir_path is not None and frag_map is not None:
            self.frag_maps[dir_path] = frag_map
        if self.think_time > 0:
            self.engine.schedule(self.think_time, self._next_op)
        else:
            self._next_op()

    def _cap_switch_delay(self, req: MetaRequest, rank: int) -> float:
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
        route = self.frag_maps.get(req.dir_path)
        if route is not None and route.shared:
            return 0.0  # shared directory: caps already degraded
        self.cap_switches += 1
        return self.cap_switch_time

    # -- the client-side subtree map ----------------------------------------
    def _guess(self, req: MetaRequest) -> int:
        """The most specific subtree mapping along the request's directory
        path, else rank 0: the route when no cached fragtree names one."""
        parts = split_path(req.dir_path)
        for depth in range(len(parts), -1, -1):
            prefix = "/" + "/".join(parts[:depth]) if depth else "/"
            rank = self.mds_map.get(prefix)
            if rank is not None:
                return rank
        return 0


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

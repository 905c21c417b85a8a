"""The metadata server (MDS) rank.

Implements the mechanism side of dynamic subtree partitioning (paper Fig 2):
request service with a FIFO CPU, path-traversal hits vs. forwards, inode
caching with RADOS fetches on miss, journalling, directory fragmentation,
client sessions, heartbeats, and the migration two-phase commit.  All
*policy* lives in the attached balancer (:mod:`repro.core`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..clients.ops import (COUNTER_KIND, IS_WRITE, MetaRequest, OpKind,
                           parse_op_path)
from ..config import ClusterConfig
from ..luapolicy.errors import LuaError
from ..metrics.collectors import ClusterMetrics, MdsMetrics
from ..namespace.counters import LoadCounters
from ..namespace.directory import Directory
from ..namespace.dirfrag import _AUTH_EPOCH, DirFrag, name_hash
from ..namespace.tree import Namespace
from ..rados.cluster import RadosCluster
from ..rados.journal import MdsJournal
from ..sim.engine import SimEngine
from ..sim.network import Network
from ..sim.rng import ServiceTime
from ..sim.stations import FifoStation
from .cache import InodeCache
from .heartbeat import HeartBeat, HeartbeatTable
from .migration import Migrator
from .sessions import SessionTable

if TYPE_CHECKING:  # pragma: no cover
    from ..core.balancer import MantleBalancer
    from ..faults.injector import FaultState

#: A frozen dirfrag makes requests retry after this long.
FREEZE_RETRY_DELAY = 0.002
#: Give up forwarding after this many hops (authority changed under us).
MAX_HOPS = 16


class MdsServer:
    """One MDS rank."""

    def __init__(self, engine: SimEngine, rank: int,
                 namespace: Namespace, network: Network,
                 rados: RadosCluster, config: ClusterConfig,
                 rng, metrics: ClusterMetrics) -> None:
        self.engine = engine
        self.rank = rank
        self.namespace = namespace
        self.network = network
        self.rados = rados
        self.config = config
        self.rng = rng
        self.cluster_metrics = metrics
        self.metrics: MdsMetrics = metrics.mds(rank)
        self.station = FifoStation(engine, f"mds{rank}", rng,
                                   executor=self._execute)
        self.journal = MdsJournal(engine, rados, rank,
                                  segment_bytes=config.journal_segment_bytes,
                                  entry_bytes=config.journal_entry_bytes)
        self.cache = InodeCache(config.cache_capacity)
        self.sessions = SessionTable(rank)
        self.migrator = Migrator(self)
        self.hb_table = HeartbeatTable()
        self.peers: list["MdsServer"] = []  # set by join()
        #: ``(rank, cache entries)`` of every other rank, for invalidation.
        self._peer_caches: list[tuple[int, dict]] = []
        self.balancer: Optional["MantleBalancer"] = None
        #: Policy-lifecycle hook (e.g. a CanaryController) driven from this
        #: rank's heartbeat ticks; may swap ``self.balancer``.
        self.lifecycle = None
        #: Decayed load this rank served as the authority ("auth") and
        #: touched at all, including forwards ("all") -- Table 2 metrics.
        #: They share the namespace's decay clock.
        self.auth_load = LoadCounters(namespace.clock)
        self.all_load = LoadCounters(namespace.clock)
        self._service = {
            kind: ServiceTime(config.service.mean_for(kind.value),
                              config.service.cv)
            for kind in OpKind
        }
        self._forward_service = ServiceTime(config.service.forward,
                                            config.service.cv)
        #: One handler per op family, dispatched on by ``_apply``.
        self._handlers = {
            OpKind.CREATE: self._create, OpKind.MKDIR: self._mkdir,
            OpKind.STAT: self._stat, OpKind.LOOKUP: self._stat,
            OpKind.OPEN: self._stat, OpKind.READDIR: self._readdir,
            OpKind.UNLINK: self._unlink, OpKind.RENAME: self._rename,
        }
        self._hb_epoch = 0
        self._stores_pending: dict[int, int] = {}
        # Fault state.
        #: False while this rank is down (crashed, not yet restarted).
        self.alive = True
        #: Service-time multiplier; >1.0 models a degraded ("limping") CPU.
        self.cpu_factor = 1.0
        #: Shared per-cluster fault state (set when faults are armed).
        self.fault_state: Optional["FaultState"] = None
        self.crashed_at: Optional[float] = None
        self.recovered_at: Optional[float] = None

    def join(self, peers: list["MdsServer"]) -> None:
        """Wire this rank to the cluster's ranks, once, at assembly (no
        rank or cache object is replaced after it)."""
        self.peers = peers
        self._peer_caches = [(peer.rank, peer.cache._entries)
                             for peer in peers if peer is not self]

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def receive_request(self, req: MetaRequest,
                        count_hop: bool = True) -> None:
        """Entry point for a request arriving over the network.

        Samples the CPU time the request takes here: a forward costs only
        the recognition slice; local service costs the op's time, inflated
        by the coherency surcharge when the target directory is spread
        over several ranks.
        """
        if not self.alive:
            # The client (or a forwarding peer) sent to a dead rank: bounce
            # and retry once authority has been re-resolved.
            self._retry_dead(req)
            return
        if count_hop:
            req.hops += 1
        self.metrics.reqs_in_window += 1
        if (req.tree_epoch == self.namespace.tree_epoch
                and req.auth_epoch == _AUTH_EPOCH[0]):
            route = req.route
        else:
            route = self._route(req)
        local = False
        if route is not None:
            parent, _leaf, frag = route
            auth = frag._auth  # DirFrag.authority inlined, as in _execute
            local = (auth if auth is not None
                     else parent.authority()) == self.rank
        if not local:
            service = self._forward_service.sample(self.rng)
        else:
            kind = req.kind
            service = self._service[kind].sample(self.rng)
            if kind is OpKind.READDIR:
                # Service scales gently with directory size.
                service *= 1.0 + min(8.0, parent.entry_count() / 20_000.0)
            if IS_WRITE[kind]:
                cached = parent._spread_cache
                spread = (cached[1] if cached is not None
                          and cached[0] == _AUTH_EPOCH[0]
                          else parent.effective_spread())
                if spread > 1.0:
                    service *= 1.0 + (self.config.sync_penalty
                                      * (spread - 1.0) ** 0.5)
        self.station.submit(req, service * self.cpu_factor,
                            want_completion=False)

    def _retry_dead(self, req: MetaRequest) -> None:
        """Park a request that hit a dead rank; redeliver after a delay.

        Redelivery re-resolves the request's own route, so once a standby
        has taken over the dirfrag the request addresses it lands there;
        while the rank stays dead the request keeps waiting (clients simply
        see high latency during the outage, as they would against real
        CephFS).
        """
        self.metrics.dead_letters += 1

        def redeliver() -> None:
            if req.done:
                return
            route = self._route(req)
            auth = route[2].authority() if route is not None else self.rank
            target = self.peers[auth] if self.peers else self
            if not target.alive:
                self.engine.schedule(self.config.dead_rank_retry_delay,
                                     redeliver)
                return
            # Bounces do not count as forward hops (MAX_HOPS is for
            # authority ping-pong, not for waiting out an outage).
            target.receive_request(req, count_hop=False)

        self.engine.schedule(self.config.dead_rank_retry_delay, redeliver)

    def _route(self, req: MetaRequest):
        """Resolve (parent directory, leaf name, dirfrag) for the request,
        or None, and memoize it on the request.

        The memo holds for as long as the namespace tree epoch and the
        global authority epoch (which also moves on every dirfrag split)
        both equal the two recorded beside it; callers check that first,
        so service sampling, the executor and forwards share one
        resolution.
        """
        tree_epoch = self.namespace.tree_epoch
        auth_epoch = _AUTH_EPOCH[0]
        dir_path = req.dir_path
        if dir_path is None:
            dir_path, req.leaf = parse_op_path(req.kind, req.path)
            req.dir_path = dir_path
        leaf = req.leaf
        try:
            parent = self.namespace.resolve_dir(dir_path)
        except (FileNotFoundError, NotADirectoryError):
            route = None
        else:
            frags = parent.frags
            if leaf is None:
                frag = next(iter(frags.values()))
            else:
                if req.leaf_hash is None and len(frags) > 1:
                    # Hash a split directory's leaf once per request.
                    req.leaf_hash = name_hash(leaf)
                frag = parent.frag_for_name(leaf, req.leaf_hash)
            route = (parent, leaf, frag)
        req.route = route
        req.tree_epoch = tree_epoch
        req.auth_epoch = auth_epoch
        return route

    def _execute(self, req) -> None:
        """Station completion: forward the request, or serve it here."""
        if req.__class__ is not MetaRequest:
            # Internal work (fragmentation, session flushes): the CPU time
            # was the point; there is nothing to apply.
            return
        if (req.tree_epoch == self.namespace.tree_epoch
                and req.auth_epoch == _AUTH_EPOCH[0]):
            route = req.route
        else:
            route = self._route(req)
        if route is None:
            self._reply(req, "ENOENT")
            return
        parent, leaf, frag = route
        if frag.frozen:
            # Unit mid-migration: stall and retry (requests queue behind the
            # two-phase commit, which is the freeze cost clients observe).
            self.engine.schedule(
                FREEZE_RETRY_DELAY, self.receive_request, req, False
            )
            return
        auth = frag._auth  # DirFrag.authority inlined
        if auth is None:
            auth = parent.authority()
        now = self.engine.now
        load = self.all_load  # LoadCounters.hit inlined
        clock = load.clock
        if now != clock.now:
            clock.advance(now)
        if load.landmark != clock.landmark:
            load.rebase()
        load.sums[COUNTER_KIND[req.kind]] += clock.gain
        rank = self.rank
        if auth != rank and req.hops < MAX_HOPS:
            self.metrics.forwards += 1
            self.network.deliver(self.peers[auth].receive_request, req)
            return
        self.metrics.traversal_hits += 1
        self.sessions.record_request(req.client_id, parent.path(), now)
        # One walk up the ancestors marks this rank active along the path
        # (active ranks take part in each ancestor's coherency and keep
        # their replicas fresh) and touches each inode in the cache
        # (InodeCache.touch inlined; the hit path only reorders the LRU).
        cache = self.cache
        entries = cache._entries
        parent.server_activity[rank] = now
        ino = parent.inode.ino
        if ino in entries:
            entries.move_to_end(ino)
            cache.hits += 1
            missed = False
        else:
            cache.misses += 1
            cache.insert(ino)
            missed = True
        remote_misses = 0
        node = parent.parent
        while node is not None:
            node.server_activity[rank] = now
            ino = node.inode.ino
            if ino in entries:
                entries.move_to_end(ino)
                cache.hits += 1
            else:
                cache.misses += 1
                cache.insert(ino)
                if node.authority() != rank:
                    remote_misses += 1
            node = node.parent
        if missed or remote_misses:
            self._fetch_or_traverse(req, parent, leaf, frag, missed,
                                    remote_misses, now)
            return
        self._apply(req, parent, leaf, frag)

    def _fetch_or_traverse(self, req: MetaRequest, parent: Directory,
                           leaf: Optional[str], frag: DirFrag,
                           needs_fetch: bool, remote_prefixes: int,
                           now: float) -> None:
        """Apply after the parent's RADOS fetch or the remote traversal of
        the ancestors that missed the cache."""
        if needs_fetch and parent.authority() != self.rank:
            # The directory inode's authority is elsewhere: refresh the
            # replica from the authoritative MDS, not from RADOS.
            remote_prefixes += 1
            needs_fetch = False
        delay = 0.0
        if remote_prefixes:
            # Stale/uncached ancestor inodes whose authority is elsewhere:
            # the serving MDS must traverse the prefix remotely (§2.1 --
            # "requests involving prefix path traversals").
            self.metrics.prefix_traversals += remote_prefixes
            delay += remote_prefixes * self.config.prefix_traversal_time
        if not needs_fetch and delay <= 0:
            self._apply(req, parent, leaf, frag)
            return

        def resume(_completion=None) -> None:
            # The rank may have crashed while the op waited: bounce it
            # like a request drained from the queue.
            if self.alive:
                self._apply(req, parent, leaf, frag)
            else:
                self._retry_dead(req)

        if needs_fetch:
            # Authoritative directory object not in memory: fetch it from
            # RADOS, then apply.
            self.metrics.fetches += 1
            self.namespace.record_frag_hit(frag, "FETCH", now)
            obj = f"dir.{parent.inode.ino}"
            self.rados.read(obj, self.config.dir_object_bytes) \
                .add_callback(resume)
        else:
            self.engine.schedule(delay, resume)

    def _apply(self, req: MetaRequest, parent: Directory,
               leaf: Optional[str], frag: DirFrag) -> None:
        """Apply the request through its op family's handler, account it
        and reply."""
        now = self.engine.now
        kind = req.kind
        if req.auth_epoch != _AUTH_EPOCH[0]:
            # A split or migration during the RADOS fetch or prefix
            # traversal may have retired the carried dirfrag.
            frag = (parent.frag_for_name(leaf, req.leaf_hash)
                    if leaf is not None
                    else next(iter(parent.frags.values())))
        try:
            result = self._handlers[kind](req, parent, leaf, frag, now)
        except FileExistsError:
            self._reply(req, "EEXIST")
            return
        except (FileNotFoundError, NotADirectoryError):
            self._reply(req, "ENOENT")
            return
        except ValueError:
            self._reply(req, "EINVAL")
            return
        counter_kind = COUNTER_KIND[kind]
        self.namespace.record_frag_hit(frag, counter_kind, now)
        # LoadCounters.hit inlined; the frag hit just advanced the clock.
        load = self.auth_load
        if load.landmark != load.clock.landmark:
            load.rebase()
        load.sums[counter_kind] += load.clock.gain
        self.metrics.ops_served += 1
        self.cluster_metrics.timeline.record(self.rank, now)
        # The guards run inline; a helper runs only when its test fires.
        # Every op kind checks the split: a pre-built directory can cross
        # the threshold on a read.
        if (len(parent.frags) == 1
                and len(frag.entries) >= parent.split_size):
            self._fragment(parent)
        if IS_WRITE[kind]:
            cached = parent._spread_cache
            spread = (cached[1] if cached is not None
                      and cached[0] == _AUTH_EPOCH[0]
                      else parent.effective_spread())
            if spread > 1.0 and self.rank != parent.authority():
                self._scatter_gather(parent, spread)
            if (len(self.peers) > 1
                    and self.rng.random() < self.config.parent_inval_prob):
                self._invalidate_replicas(parent)
        if not req.done:
            # The reply's values are the arguments of the client's one
            # reply call; a success carries the directory's fragtree
            # (this authority epoch's route record).
            self.network.deliver(req.client.receive_reply, req, self.rank,
                                 None, result, parent.path(),
                                 parent.frag_route())

    # -- op handlers: apply one op family, return the reply's result ------
    def _create(self, req: MetaRequest, parent: Directory,
                leaf: Optional[str], frag: DirFrag, now: float):
        if leaf is None:
            raise ValueError("cannot create the root")
        existing = frag.entries.get(leaf)
        if existing is not None and not existing.is_dir:
            # O_CREAT on an existing file: truncate/update in place
            # (compiles recreate .o files all the time).
            existing.touch(now, write=True)
            existing.size = 0
            self.cache.touch(existing.ino)
        else:
            inode = self.namespace.create_in(frag, leaf, now=now,
                                             hashed=req.leaf_hash)
            self.cache.insert(inode.ino)
        self.journal.log("create")
        # Every Nth write to a directory commits it back to RADOS.
        key = parent.inode.ino
        count = self._stores_pending.get(key, 0) + 1
        if count >= self.config.store_every:
            self._stores_pending[key] = 0
            self.metrics.stores += 1
            self.namespace.record_frag_hit(frag, "STORE", now)
            self.rados.write(f"dir.{key}", self.config.dir_object_bytes)
        else:
            self._stores_pending[key] = count
        return None

    def _stat(self, req: MetaRequest, parent: Directory,
              leaf: Optional[str], frag: DirFrag, now: float):
        """STAT, LOOKUP and OPEN."""
        inode = frag.entries.get(leaf) if leaf is not None else parent.inode
        if inode is None:
            raise FileNotFoundError(req.path)
        inode.touch(now)
        self.cache.touch(inode.ino)
        return inode.ino

    def _readdir(self, req: MetaRequest, parent: Directory,
                 leaf: Optional[str], frag: DirFrag, now: float):
        return len(parent.readdir())

    def _mkdir(self, req: MetaRequest, parent: Directory,
               leaf: Optional[str], frag: DirFrag, now: float):
        directory = self.namespace.mkdir(req.path, now=now)
        self.cache.insert(directory.inode.ino)
        self.journal.log("mkdir")
        return None

    def _unlink(self, req: MetaRequest, parent: Directory,
                leaf: Optional[str], frag: DirFrag, now: float):
        self.namespace.unlink(req.path, now=now)
        self.journal.log("unlink")
        return None

    def _rename(self, req: MetaRequest, parent: Directory,
                leaf: Optional[str], frag: DirFrag, now: float):
        dst = req.dst
        if not dst:
            raise ValueError("rename needs a destination")
        dst_auth = self.namespace.authority_for_path(dst)
        self.namespace.rename(req.path, dst, now=now)
        self.journal.log("rename")
        if dst_auth != self.rank:
            # Cross-MDS rename: §4.1 -- "client sessions ... are flushed
            # when slave MDS nodes rename or migrate directories".
            dst_dir = dst.rsplit("/", 1)[0] or "/"
            flushed = self.sessions.flush_under(parent.path())
            flushed += self.peers[dst_auth].sessions.flush_under(dst_dir)
            self.metrics.session_flushes += flushed
            stall = flushed * self.config.session_flush_time
            if stall > 0:
                self.station.submit(("rename-flush", req.path), stall,
                                    want_completion=False)
        return None

    # -- rare follow-ups of a served write --------------------------------
    def _fragment(self, directory: Directory) -> None:
        directory.fragment(now=self.engine.now)
        self.metrics.fragmentations += 1
        # Fragmentation is real work on this CPU.
        self.station.submit(("fragment", directory.path()), 0.001,
                            want_completion=False)

    def _scatter_gather(self, directory: Directory, spread: float) -> None:
        """A slave write on a directory spread over *spread* ranks
        occasionally triggers a full scatter-gather: updates on the
        directory halt while stats travel to the authoritative MDS and back
        (paper §4.1, footnote 3)."""
        probability = (self.config.scatter_gather_prob
                       * ((spread - 1.0) / 3.0) ** 2)
        if self.rng.random() >= probability:
            return
        self.metrics.scatter_gathers += 1
        participants = len({frag.authority()
                            for frag in directory.frags.values()})
        # Halts grow superlinearly with the ranks involved: every extra
        # participant adds round trips and widens the halted scope.
        halt = self.config.scatter_gather_time * participants ** 1.5
        frozen = [frag for frag in directory.frags.values() if not frag.frozen]
        for frag in frozen:
            frag.frozen = True

        def unfreeze() -> None:
            for frag in frozen:
                frag.frozen = False

        self.engine.schedule(halt, unfreeze)

    def _invalidate_replicas(self, parent: Directory) -> None:
        """A write dirtied the parent (and grandparent) fragstats; lazily
        propagated, this invalidates the inode replicas passive ranks hold,
        forcing them into remote prefix traversals."""
        now = self.engine.now
        window = self.config.coherency_window
        node: Optional[Directory] = parent
        for _level in range(self.config.parent_inval_levels):
            if node is None:
                break
            # Ranks recently active under this directory take part in its
            # coherency protocol and keep their replica fresh (they pay
            # through the scatter-gather path instead); only passive
            # cachers go stale.
            activity = node.server_activity
            ino = node.inode.ino
            for rank, entries in self._peer_caches:
                last = activity.get(rank)
                if last is not None and now - last < window:
                    continue
                # InodeCache.drop inlined: one per passive peer per level.
                entries.pop(ino, None)
            node = node.parent

    def _reply(self, req: MetaRequest, error: str) -> None:
        """Reply with *error* (the success path replies from ``_apply``)."""
        if not req.done:
            self.network.deliver(req.client.receive_reply, req, self.rank,
                                 error, None, None, None)

    # ------------------------------------------------------------------
    # Crash & recovery
    # ------------------------------------------------------------------
    @property
    def beacon_grace(self) -> float:
        """Effective heartbeat-eviction timeout: never evict faster than
        beats can arrive, whatever the config says."""
        return max(self.config.mds_beacon_grace,
                   1.5 * self.config.heartbeat_interval)

    def crash(self) -> None:
        """Fail this rank: lose volatile state, abandon all work in flight.

        In-flight exports abort (their 2PC resolution decides rollback vs
        roll-forward); peers abort exports targeting us; queued metadata
        requests bounce back for retry; the unflushed journal tail,
        sessions and cache are lost.
        """
        if not self.alive:
            return
        self.alive = False
        self.crashed_at = self.engine.now
        self.recovered_at = None
        self.metrics.crashes += 1
        self.migrator.abort_all("exporter crashed")
        for peer in self.peers:
            if peer.rank != self.rank:
                peer.migrator.abort_targeting(self.rank)
        for payload, completion in self.station.drain():
            if payload.__class__ is MetaRequest:
                self._retry_dead(payload)
            elif completion is not None and not completion.done:
                # Internal work (fragmentation, session flushes): anyone
                # still waiting on it was interrupted above; cancelling is
                # ignored by their stale wait tokens.
                completion.cancel()
        self.journal.drop_buffer()
        self.cache.clear()
        self.sessions.reset()
        self.hb_table = HeartbeatTable()

    def restart(self):
        """Bring the rank back: respawn, replay the journal, serve again.

        Returns the recovery :class:`~repro.sim.engine.Process`; its
        completion fires once the rank is serving.
        """
        if self.alive:
            raise RuntimeError(f"mds{self.rank} is not down")
        return self.engine.process(self._restart(),
                                   name=f"restart:mds{self.rank}")

    def _restart(self):
        yield self.config.restart_base_time
        # Journal replay: sequential scan of the trailing segments.
        yield from self.journal.replay_segments(
            self.config.replay_segment_window)
        self.alive = True
        self.recovered_at = self.engine.now
        self.metrics.restarts += 1
        self.cache.clear()

    # ------------------------------------------------------------------
    # Heartbeats & balancing
    # ------------------------------------------------------------------
    def start_heartbeats(self) -> None:
        """Begin the 10-second heartbeat/balance loop (paper Fig 2)."""
        offset = self.config.heartbeat_interval * (
            1.0 + 0.003 * self.rank  # slight desynchronisation across ranks
        )
        self.engine.every(self.config.heartbeat_interval,
                          self.heartbeat_tick, start_after=offset)

    def heartbeat_tick(self) -> None:
        if not self.alive:
            return  # dead ranks do not beat (their silence IS the signal)
        now = self.engine.now
        if self.lifecycle is not None:
            # Before the metric snapshot: a balancer swap this tick must
            # already shape this tick's metaload views.
            self.lifecycle.on_heartbeat(self, now)
        self.hb_table.evict_stale(now, self.beacon_grace)
        beat = self._snapshot_metrics()
        self.hb_table.store(beat, now)
        for peer in self.peers:
            if peer.rank == self.rank:
                continue
            # Pack time + network + unpack time: the staleness of §2.2.2.
            delay = 2 * self.config.heartbeat_pack_time
            if self.fault_state is not None:
                extra = self.fault_state.heartbeat_link(self.rank, peer.rank,
                                                        now)
                if extra is None:
                    continue  # link down: the beat is dropped
                delay += extra
            self.network.deliver_after(delay, peer.receive_heartbeat, beat)
        if self.balancer is not None:
            # Rebalance after this round's heartbeats have (probably)
            # arrived: send HB -> recv HB -> rebalance (paper Fig 2).
            self.engine.schedule(self.config.rebalance_delay,
                                 self._run_balancer)

    def _run_balancer(self) -> None:
        if self.balancer is not None and self.alive:
            self.balancer.tick(self)

    def receive_heartbeat(self, beat: HeartBeat) -> None:
        if not self.alive:
            return
        self.hb_table.store(beat, self.engine.now)

    def _snapshot_metrics(self) -> HeartBeat:
        now = self.engine.now
        self._hb_epoch += 1
        metaload_fn = (self.balancer.metaload_fn if self.balancer is not None
                       else _default_metaload)
        cpu = self.station.utilization_since_mark() * 100.0
        noise = self.config.cpu_measure_noise
        if noise > 0:
            # Instantaneous measurement noise (§2.2.2, point 1).
            cpu = max(0.0, cpu * (1.0 + self.rng.normal(0.0, noise)))
        auth_counters = self.auth_load.snapshot(now)
        all_counters = self.all_load.snapshot(now)
        try:
            auth_metaload = metaload_fn(auth_counters)
            all_metaload = metaload_fn(all_counters)
        except LuaError:
            # A broken policy metaload must not stop the beat: send the
            # Table 1 values; the balancer tick records the error.
            auth_metaload = _default_metaload(auth_counters)
            all_metaload = _default_metaload(all_counters)
        return HeartBeat(
            rank=self.rank,
            sent_at=now,
            auth_metaload=auth_metaload,
            all_metaload=all_metaload,
            cpu=min(100.0, cpu),
            mem=100.0 * self.cache.fill_fraction,
            queue_length=float(self.station.queue_length),
            request_rate=self.metrics.take_request_rate(
                self.config.heartbeat_interval
            ),
            epoch=self._hb_epoch,
        )


def _default_metaload(snapshot: dict) -> float:
    """Table 1 metaload: IRD + 2*IWR + READDIR + 2*FETCH + 4*STORE."""
    return (snapshot["IRD"] + 2.0 * snapshot["IWR"] + snapshot["READDIR"]
            + 2.0 * snapshot["FETCH"] + 4.0 * snapshot["STORE"])

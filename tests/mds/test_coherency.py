"""Coherency mechanisms: effective spread, scatter-gather halts, replica
invalidation / remote prefix traversals, client cap switching."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.clients.client import Client
from repro.clients.ops import OpKind
from repro.cluster import SimulatedCluster
from repro.namespace.directory import FragRoute
from tests.conftest import make_config, parsed_request, send_request


def build(num_mds=2, **overrides):
    cluster = SimulatedCluster(make_config(num_mds=num_mds, **overrides))
    cluster.namespace.mkdirs("/d")
    d = cluster.namespace.resolve_dir("/d")
    for i in range(32):
        cluster.namespace.create(f"/d/f{i}")
    d.fragment(extra_bits=2, now=0.0)
    return cluster, d


class TestEffectiveSpread:
    def test_single_owner_is_one(self):
        cluster, d = build()
        assert d.effective_spread() == 1.0

    def test_even_split_equals_rank_count(self):
        cluster, d = build(num_mds=4)
        for index, frag in enumerate(d.frags.values()):
            frag.set_auth(index % 4)
        assert d.effective_spread() == pytest.approx(4.0)

    def test_skewed_split_between(self):
        cluster, d = build(num_mds=4)
        frags = list(d.frags.values())
        # 2/1/1 of four frags over 3 ranks.
        frags[0].set_auth(0)
        frags[1].set_auth(0)
        frags[2].set_auth(1)
        frags[3].set_auth(2)
        spread = d.effective_spread()
        assert 1.0 < spread < 3.0
        assert spread == pytest.approx(1.0 / (0.5**2 + 0.25**2 + 0.25**2))

    def test_empty_directory(self):
        cluster = SimulatedCluster(make_config(num_mds=2))
        d = cluster.namespace.mkdirs("/empty")
        assert d.effective_spread() == 1.0


class TestScatterGather:
    def issue(self, cluster, kind, path, rank):
        return send_request(cluster, kind, path, rank)[0]

    def test_slave_writes_trigger_halts(self):
        cluster, d = build(num_mds=4,
                           scatter_gather_prob=1.0)  # force it
        for index, frag in enumerate(d.frags.values()):
            frag.set_auth(index % 4)
        # Writes served by a non-authority rank (dir inode auth is 0).
        for i in range(40, 60):
            rank = cluster.namespace.authority_for_path(f"/d/g{i}")
            self.issue(cluster, OpKind.CREATE, f"/d/g{i}", rank)
        sg = sum(m.scatter_gathers
                 for m in cluster.metrics.per_mds.values())
        assert sg > 0
        # Halts only ever come from slave ranks, never rank 0.
        assert cluster.metrics.mds(0).scatter_gathers == 0

    def test_no_halts_when_unspread(self):
        cluster, d = build(num_mds=2, scatter_gather_prob=1.0)
        for i in range(40, 60):
            self.issue(cluster, OpKind.CREATE, f"/d/g{i}", 0)
        assert all(m.scatter_gathers == 0
                   for m in cluster.metrics.per_mds.values())

    def test_halt_freezes_and_unfreezes(self):
        cluster, d = build(num_mds=2, scatter_gather_prob=1.0)
        frags = list(d.frags.values())
        frags[0].set_auth(1)
        name = next(f"x{i}" for i in range(100)
                    if frags[0].contains_name(f"x{i}"))
        self.issue(cluster, OpKind.CREATE, f"/d/{name}", 1)
        # A halt may be pending; after the engine drains, nothing frozen.
        cluster.engine.run()
        assert not any(frag.frozen for frag in d.frags.values())


class TestReplicaInvalidation:
    def test_active_ranks_keep_replicas(self):
        cluster, d = build(num_mds=2, parent_inval_prob=1.0)
        mds0, mds1 = cluster.mdss
        # Rank 1 recently served under /d.
        d.server_activity[1] = cluster.engine.now
        mds1.cache.insert(d.inode.ino)
        mds0._invalidate_replicas(d)
        assert d.inode.ino in mds1.cache

    def test_passive_ranks_lose_replicas(self):
        cluster, d = build(num_mds=2, parent_inval_prob=1.0)
        mds0, mds1 = cluster.mdss
        mds1.cache.insert(d.inode.ino)
        # No recent activity from rank 1 under /d.
        mds0._invalidate_replicas(d)
        assert d.inode.ino not in mds1.cache

    def test_invalidation_climbs_ancestors(self):
        cluster = SimulatedCluster(
            make_config(num_mds=2, parent_inval_prob=1.0))
        deep = cluster.namespace.mkdirs("/a/b/c")
        a = cluster.namespace.resolve_dir("/a")
        b = cluster.namespace.resolve_dir("/a/b")
        mds0, mds1 = cluster.mdss
        for node in (deep, b, a):
            mds1.cache.insert(node.inode.ino)
        mds0._invalidate_replicas(deep)
        # Two levels by default: c and b dropped, a kept.
        assert deep.inode.ino not in mds1.cache
        assert b.inode.ino not in mds1.cache
        assert a.inode.ino in mds1.cache

    def test_write_drops_passive_replicas(self):
        # The guard in the write path fires at probability 1.
        cluster, d = build(num_mds=2, parent_inval_prob=1.0)
        mds1 = cluster.mdss[1]
        mds1.cache.insert(d.inode.ino)
        reply = TestScatterGather().issue(cluster, OpKind.CREATE, "/d/g", 0)
        assert reply.ok
        assert d.inode.ino not in mds1.cache

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_drops_what_the_all_peer_loop_drops(self, data):
        """The prebuilt peer list pops exactly the entries the loop over
        every peer (skipping itself, reading a missing activity entry as
        -inf) pops, for random activity times and cache contents."""
        cluster = SimulatedCluster(
            make_config(num_mds=4, parent_inval_prob=1.0))
        deep = cluster.namespace.mkdirs("/a/b/c")
        nodes = [deep, deep.parent, deep.parent.parent]
        window = cluster.config.coherency_window
        now = cluster.engine.now = data.draw(st.floats(0.0, 10.0))
        times = st.none() | st.floats(now - 3 * window, now)
        for node in nodes:
            for rank in range(4):
                last = data.draw(times)
                if last is not None:
                    node.server_activity[rank] = last
        for mds in cluster.mdss:
            for node in nodes:
                if data.draw(st.booleans()):
                    mds.cache.insert(node.inode.ino)
        writer = cluster.mdss[data.draw(st.integers(0, 3))]
        expected = {mds.rank: set(mds.cache._entries)
                    for mds in cluster.mdss}
        for node in nodes[:cluster.config.parent_inval_levels]:
            for peer in writer.peers:
                if peer.rank == writer.rank:
                    continue
                if now - node.server_activity.get(
                        peer.rank, -float("inf")) < window:
                    continue
                expected[peer.rank].discard(node.inode.ino)
        writer._invalidate_replicas(deep)
        assert {mds.rank: set(mds.cache._entries)
                for mds in cluster.mdss} == expected

    def test_single_rank_cluster_no_op(self):
        cluster = SimulatedCluster(
            make_config(num_mds=1, parent_inval_prob=1.0))
        d = cluster.namespace.mkdirs("/d")
        reply = TestScatterGather().issue(cluster, OpKind.CREATE, "/d/g", 0)
        assert reply.ok
        assert d.inode.ino in cluster.mdss[0].cache


class TestClientCapSwitching:
    def make_client(self, cluster, switch_time=0.001):
        return Client(cluster.engine, 0, cluster.network, cluster.mdss,
                      cluster.metrics, iter([]),
                      cap_switch_time=switch_time)

    def test_first_request_free(self):
        cluster, _d = build(num_mds=2)
        client = self.make_client(cluster)
        assert client._cap_switch_delay(
            parsed_request(OpKind.STAT, "/d/f0"), 0) == 0.0

    def test_same_rank_free(self):
        cluster, _d = build(num_mds=2)
        client = self.make_client(cluster)
        client._cap_switch_delay(parsed_request(OpKind.STAT, "/d/f0"), 0)
        assert client._cap_switch_delay(
            parsed_request(OpKind.STAT, "/d/f1"), 0) == 0.0
        assert client.cap_switches == 0

    def test_rank_switch_on_unshared_dir_costs(self):
        cluster, _d = build(num_mds=2)
        client = self.make_client(cluster)
        client._cap_switch_delay(parsed_request(OpKind.STAT, "/d/f0"), 0)
        delay = client._cap_switch_delay(
            parsed_request(OpKind.STAT, "/d/f1"), 1)
        assert delay == 0.001
        assert client.cap_switches == 1

    def test_rank_switch_on_shared_dir_free(self):
        cluster, _d = build(num_mds=2)
        client = self.make_client(cluster)
        # Client knows /d is spread over two ranks.
        client.frag_maps["/d"] = FragRoute(((1, 0, 0), (1, 1, 1)))
        client._cap_switch_delay(parsed_request(OpKind.STAT, "/d/f0"), 0)
        assert client._cap_switch_delay(
            parsed_request(OpKind.STAT, "/d/f1"), 1) == 0.0
        assert client.cap_switches == 0

    def test_disabled_when_zero(self):
        cluster, _d = build(num_mds=2)
        client = self.make_client(cluster, switch_time=0.0)
        client._cap_switch_delay(parsed_request(OpKind.STAT, "/d/f0"), 0)
        assert client._cap_switch_delay(
            parsed_request(OpKind.STAT, "/d/f1"), 1) == 0.0


class TestPrefixTraversals:
    def test_remote_ancestor_miss_counts_and_delays(self):
        cluster = SimulatedCluster(make_config(num_mds=2))
        cluster.namespace.mkdirs("/remote/sub")
        cluster.pin("/remote/sub", 1)  # /remote stays with rank 0
        send_request(cluster, OpKind.CREATE, "/remote/sub/f", rank=1)
        # Rank 1 had to traverse /remote (auth rank 0) remotely.
        assert cluster.metrics.mds(1).prefix_traversals >= 1

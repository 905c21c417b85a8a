"""Finer MDS server behaviours: hop caps, STORE commits, readdir scaling,
noisy CPU snapshots, fully-owned subtree checks."""


import pytest

from repro.clients.ops import OpKind
from repro.cluster import SimulatedCluster
from repro.core.balancer import MantleBalancer
from repro.mds.server import MAX_HOPS
from tests.conftest import awaited_request, make_config
from tests.conftest import send_request as issue  # (reply, req)


class TestStoreCommits:
    def test_every_nth_create_stores_directory(self):
        cluster = SimulatedCluster(make_config(num_mds=1, store_every=10))
        cluster.namespace.mkdirs("/d")
        for i in range(25):
            issue(cluster, OpKind.CREATE, f"/d/f{i}")
        assert cluster.metrics.mds(0).stores == 2
        d = cluster.namespace.resolve_dir("/d")
        assert d.load_snapshot(cluster.engine.now)["STORE"] > 0

    def test_store_writes_to_rados(self):
        cluster = SimulatedCluster(make_config(num_mds=1, store_every=5))
        cluster.namespace.mkdirs("/d")
        before = cluster.rados.total_writes()
        for i in range(6):
            issue(cluster, OpKind.CREATE, f"/d/f{i}")
        cluster.engine.run()
        assert cluster.rados.total_writes() > before


class TestCarriedDirfrag:
    def test_split_during_fetch_lands_create_in_live_frag(self):
        """The request carries the dirfrag it resolved at service time; a
        split while the RADOS fetch is in flight retires that frag, so the
        create must look it up again rather than link into a dead frag."""
        cluster = SimulatedCluster(make_config(num_mds=1))
        cluster.namespace.mkdirs("/d")
        for i in range(20):
            cluster.namespace.create(f"/d/f{i}")
        d = cluster.namespace.resolve_dir("/d")
        mds = cluster.mdss[0]
        mds.cache.clear()  # the directory object must come from RADOS
        req, done = awaited_request(cluster, OpKind.CREATE, "/d/new")
        cluster.network.deliver(mds.receive_request, req)
        while mds.metrics.fetches == 0:
            assert cluster.engine.step()
        carried = req.route[2]
        d.fragment(extra_bits=2, now=cluster.engine.now)
        assert carried not in d.frags.values()
        reply = cluster.engine.run_until_complete(done)
        assert reply.ok
        live = d.frag_for_name("new")
        assert live.get("new") is not None
        assert cluster.namespace.resolve_entry("/d/new").parent is d
        assert live.load_snapshot(cluster.engine.now)["IWR"] > 0
        assert carried.get("new") is None


class TestHopCap:
    def test_forwarding_is_bounded(self):
        """Even with a pathological hop history, a request is eventually
        served rather than forwarded forever."""
        cluster = SimulatedCluster(make_config(num_mds=2))
        cluster.namespace.mkdirs("/d")
        cluster.pin("/d", 1)
        req, done = awaited_request(cluster, OpKind.CREATE, "/d/f")
        req.hops = MAX_HOPS  # simulate chasing
        cluster.network.deliver(cluster.mdss[0].receive_request, req)
        reply = cluster.engine.run_until_complete(done)
        assert reply.ok
        # Rank 0 counted its hop and served the request past the cap
        # instead of forwarding it to rank 1.
        assert req.hops == MAX_HOPS + 1
        assert reply.served_by == 0
        assert reply.forwards == MAX_HOPS
        assert cluster.metrics.mds(0).forwards == 0

    @pytest.mark.parametrize("hops, served_by",
                             [(MAX_HOPS - 2, 1), (MAX_HOPS - 1, 0)])
    def test_cap_counts_the_hop_taken_here(self, hops, served_by):
        """A rank forwards only while the request has taken fewer than
        MAX_HOPS hops, counting its own."""
        cluster = SimulatedCluster(make_config(num_mds=2))
        cluster.namespace.mkdirs("/d")
        cluster.pin("/d", 1)
        req, done = awaited_request(cluster, OpKind.CREATE, "/d/f")
        req.hops = hops
        cluster.network.deliver(cluster.mdss[0].receive_request, req)
        reply = cluster.engine.run_until_complete(done)
        assert reply.served_by == served_by
        assert cluster.metrics.mds(0).forwards == (served_by == 1)
        assert req.hops == MAX_HOPS


class TestReaddirScaling:
    def test_readdir_service_grows_with_directory_size(self):
        small = SimulatedCluster(make_config(num_mds=1, seed=5))
        small.namespace.mkdirs("/d")
        for i in range(10):
            small.namespace.create(f"/d/f{i}")
        reply_small, _ = issue(small, OpKind.READDIR, "/d")

        big = SimulatedCluster(make_config(num_mds=1, seed=5,
                                           dir_split_size=10**9))
        big.namespace.mkdirs("/d")
        for i in range(60_000):
            big.namespace.create(f"/d/f{i}")
        reply_big, _ = issue(big, OpKind.READDIR, "/d")
        assert reply_big.latency > reply_small.latency
        assert reply_big.result == 60_000


class TestHeartbeatSnapshot:
    def test_cpu_clamped_to_100(self):
        cluster = SimulatedCluster(
            make_config(num_mds=1, cpu_measure_noise=5.0))  # wild noise
        cluster.namespace.mkdirs("/d")
        for i in range(50):
            issue(cluster, OpKind.CREATE, f"/d/f{i}")
        for _ in range(20):
            beat = cluster.mdss[0]._snapshot_metrics()
            assert 0.0 <= beat.cpu <= 100.0

    def test_request_rate_window_resets(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        cluster.namespace.mkdirs("/d")
        for i in range(30):
            issue(cluster, OpKind.CREATE, f"/d/f{i}")
        first = cluster.mdss[0]._snapshot_metrics()
        assert first.request_rate > 0
        second = cluster.mdss[0]._snapshot_metrics()
        assert second.request_rate == 0.0

    def test_mem_reflects_cache_fill(self):
        cluster = SimulatedCluster(make_config(num_mds=1,
                                               cache_capacity=100))
        cluster.namespace.mkdirs("/d")
        for i in range(60):
            issue(cluster, OpKind.CREATE, f"/d/f{i}")
        beat = cluster.mdss[0]._snapshot_metrics()
        assert beat.mem > 30.0


class TestFullyOwned:
    def test_subtree_with_foreign_frag_not_owned(self):
        cluster = SimulatedCluster(make_config(num_mds=2))
        cluster.namespace.mkdirs("/d/sub")
        d = cluster.namespace.resolve_dir("/d")
        sub = cluster.namespace.resolve_dir("/d/sub")
        assert MantleBalancer._fully_owned(d, 0)
        next(iter(sub.frags.values())).set_auth(1)
        assert not MantleBalancer._fully_owned(d, 0)

    def test_subtree_with_foreign_child_not_owned(self):
        cluster = SimulatedCluster(make_config(num_mds=2))
        cluster.namespace.mkdirs("/d/sub")
        d = cluster.namespace.resolve_dir("/d")
        cluster.namespace.resolve_dir("/d/sub").set_auth(1)
        assert not MantleBalancer._fully_owned(d, 0)

    def test_wrong_rank_not_owned(self):
        cluster = SimulatedCluster(make_config(num_mds=2))
        d = cluster.namespace.mkdirs("/d")
        assert not MantleBalancer._fully_owned(d, 1)

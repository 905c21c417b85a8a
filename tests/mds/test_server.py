"""MDS server behaviour: serving, forwarding, caching, fragmentation.

Uses a small real cluster (no mocks) and drives individual requests
through it.
"""


from repro.clients.ops import OpKind
from repro.cluster import SimulatedCluster
from tests.conftest import make_config, send_request


def issue(cluster, kind, path, rank=0, client_id=0):
    """Send one request to a given rank and run until the reply."""
    return send_request(cluster, kind, path, rank, client_id)[0]


class TestServing:
    def test_create_and_stat(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        cluster.namespace.mkdirs("/d")
        reply = issue(cluster, OpKind.CREATE, "/d/f1")
        assert reply.ok
        assert cluster.namespace.exists("/d/f1")
        reply = issue(cluster, OpKind.STAT, "/d/f1")
        assert reply.ok
        assert reply.served_by == 0

    def test_mkdir(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        reply = issue(cluster, OpKind.MKDIR, "/newdir")
        assert reply.ok
        assert cluster.namespace.resolve_dir("/newdir")

    def test_readdir_returns_count(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        cluster.namespace.mkdirs("/d")
        for i in range(5):
            cluster.namespace.create(f"/d/f{i}")
        reply = issue(cluster, OpKind.READDIR, "/d")
        assert reply.result == 5

    def test_unlink(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        cluster.namespace.mkdirs("/d")
        cluster.namespace.create("/d/f")
        reply = issue(cluster, OpKind.UNLINK, "/d/f")
        assert reply.ok
        assert not cluster.namespace.exists("/d/f")

    def test_missing_file_enoent(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        reply = issue(cluster, OpKind.STAT, "/nope")
        assert not reply.ok
        assert reply.error == "ENOENT"

    def test_create_overwrites_existing_file(self):
        """O_CREAT semantics: recreating an existing file succeeds and
        truncates (compiles recreate .o files constantly)."""
        cluster = SimulatedCluster(make_config(num_mds=1))
        cluster.namespace.mkdirs("/d")
        issue(cluster, OpKind.CREATE, "/d/f")
        inode = cluster.namespace.resolve_entry("/d/f")
        inode.size = 999
        reply = issue(cluster, OpKind.CREATE, "/d/f")
        assert reply.ok
        assert inode.size == 0
        assert cluster.namespace.resolve_entry("/d/f") is inode

    def test_create_over_directory_eexist(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        cluster.namespace.mkdirs("/d/sub")
        reply = issue(cluster, OpKind.CREATE, "/d/sub")
        assert reply.error == "EEXIST"

    def test_reply_carries_frag_map(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        cluster.namespace.mkdirs("/d")
        reply = issue(cluster, OpKind.CREATE, "/d/f")
        assert reply.dir_path == "/d"
        assert reply.frag_map.frags == ((0, 0, 0),)

    def test_counters_bumped(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        cluster.namespace.mkdirs("/d")
        issue(cluster, OpKind.CREATE, "/d/f")
        d = cluster.namespace.resolve_dir("/d")
        assert d.load_snapshot(cluster.engine.now)["IWR"] > 0

    def test_ops_served_metric(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        cluster.namespace.mkdirs("/d")
        for i in range(3):
            issue(cluster, OpKind.CREATE, f"/d/f{i}")
        assert cluster.metrics.mds(0).ops_served == 3


class TestForwarding:
    def test_request_to_wrong_rank_is_forwarded(self):
        cluster = SimulatedCluster(make_config(num_mds=2))
        cluster.namespace.mkdirs("/d")
        cluster.pin("/d", 1)
        reply = issue(cluster, OpKind.CREATE, "/d/f", rank=0)
        assert reply.ok
        assert reply.served_by == 1
        assert reply.forwards == 1
        assert cluster.metrics.mds(0).forwards == 1
        assert cluster.metrics.mds(1).traversal_hits == 1

    def test_request_to_right_rank_is_a_hit(self):
        cluster = SimulatedCluster(make_config(num_mds=2))
        cluster.namespace.mkdirs("/d")
        cluster.pin("/d", 1)
        reply = issue(cluster, OpKind.CREATE, "/d/f", rank=1)
        assert reply.forwards == 0
        assert cluster.metrics.mds(1).traversal_hits == 1
        assert cluster.metrics.mds(0).forwards == 0


class TestFrozenFrags:
    def test_frozen_frag_stalls_until_unfrozen(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        cluster.namespace.mkdirs("/d")
        d = cluster.namespace.resolve_dir("/d")
        frag = next(iter(d.frags.values()))
        frag.frozen = True
        cluster.engine.schedule(0.05, setattr, frag, "frozen", False)
        reply = issue(cluster, OpKind.CREATE, "/d/f")
        assert reply.ok
        assert cluster.engine.now >= 0.05


class TestFragmentation:
    def test_directory_fragments_at_threshold(self):
        cluster = SimulatedCluster(make_config(num_mds=1, dir_split_size=64))
        cluster.namespace.mkdirs("/d")
        for i in range(70):
            issue(cluster, OpKind.CREATE, f"/d/f{i}")
        d = cluster.namespace.resolve_dir("/d")
        assert len(d.frags) == 8  # 2^3
        assert cluster.metrics.mds(0).fragmentations == 1


class TestCacheAndFetch:
    def test_cold_directory_fetches_from_rados(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        cluster.namespace.mkdirs("/d")
        issue(cluster, OpKind.CREATE, "/d/f1")
        fetches_first = cluster.metrics.mds(0).fetches
        issue(cluster, OpKind.CREATE, "/d/f2")
        assert fetches_first == 1
        # Second op: directory is cached, no new fetch.
        assert cluster.metrics.mds(0).fetches == 1


class TestHeartbeats:
    def test_heartbeats_reach_peers(self):
        cluster = SimulatedCluster(make_config(num_mds=3))
        for mds in cluster.mdss:
            mds.start_heartbeats()
        cluster.engine.run_until(5.0)  # interval is 2s in test config
        for mds in cluster.mdss:
            assert mds.hb_table.have_all(3)

    def test_heartbeat_metrics_reflect_load(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        cluster.namespace.mkdirs("/d")
        for i in range(20):
            issue(cluster, OpKind.CREATE, f"/d/f{i}")
        beat = cluster.mdss[0]._snapshot_metrics()
        assert beat.auth_metaload > 0
        assert beat.all_metaload > 0

    def test_remote_views_arrive_delayed(self):
        """Remote heartbeats pay pack + network + unpack time (§2.2.2);
        the local view is stored instantly."""
        cluster = SimulatedCluster(make_config(num_mds=2))
        for mds in cluster.mdss:
            mds.start_heartbeats()
        cluster.engine.run_until(5.0)
        mds0 = cluster.mdss[0]
        own_delay = (mds0.hb_table.received_at[0]
                     - mds0.hb_table.get(0).sent_at)
        remote_delay = (mds0.hb_table.received_at[1]
                        - mds0.hb_table.get(1).sent_at)
        assert own_delay == 0.0
        assert remote_delay >= 2 * cluster.config.heartbeat_pack_time

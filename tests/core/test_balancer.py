"""MantleBalancer: the tick pipeline on a real mini-cluster."""


from repro.cluster import SimulatedCluster
from repro.core.api import MantlePolicy
from repro.core.balancer import MantleBalancer
from tests.conftest import make_config


def heat_up(cluster, directory_path, hits=50, kind="IWR"):
    """Put decayed load on a directory and on rank 0's MDS counters."""
    d = cluster.namespace.resolve_dir(directory_path)
    now = cluster.engine.now
    for _ in range(hits):
        cluster.namespace.record_hit(d, None, kind, now)
        cluster.mdss[0].auth_load.hit(kind, now)
        cluster.mdss[0].all_load.hit(kind, now)


def exchange_heartbeats(cluster):
    for mds in cluster.mdss:
        beat = mds._snapshot_metrics()
        for peer in cluster.mdss:
            peer.hb_table.store(beat, cluster.engine.now)


def spill_policy(**overrides):
    fields = dict(
        name="test-spill",
        metaload="IWR",
        mdsload='MDSs[i]["all"]',
        when="go = MDSs[whoami]['load'] > 1 and MDSs[whoami+1] ~= nil "
             "and MDSs[whoami+1]['load'] < 1",
        where="targets[whoami+1] = MDSs[whoami]['load']/2",
        howmuch=("big_first",),
    )
    fields.update(overrides)
    return MantlePolicy(**fields)


class TestTickGuards:
    def test_single_rank_skips(self):
        cluster = SimulatedCluster(make_config(num_mds=1),
                                   policy=spill_policy())
        decision = cluster.balancer.tick(cluster.mdss[0])
        assert decision.skipped == "single MDS"

    def test_incomplete_heartbeats_skip(self):
        cluster = SimulatedCluster(make_config(num_mds=2),
                                   policy=spill_policy())
        decision = cluster.balancer.tick(cluster.mdss[0])
        assert decision.skipped == "heartbeats incomplete"

    def test_no_go_when_balanced(self):
        cluster = SimulatedCluster(make_config(num_mds=2),
                                   policy=spill_policy())
        exchange_heartbeats(cluster)
        decision = cluster.balancer.tick(cluster.mdss[0])
        assert not decision.went


class TestDecisionFlow:
    def make_hot_cluster(self, policy=None, files=30):
        cluster = SimulatedCluster(make_config(num_mds=2),
                                   policy=policy or spill_policy())
        cluster.namespace.mkdirs("/hot")
        for i in range(files):
            cluster.namespace.create(f"/hot/f{i}")
        heat_up(cluster, "/hot", hits=200)
        exchange_heartbeats(cluster)
        return cluster

    def test_overloaded_rank_exports(self):
        cluster = self.make_hot_cluster()
        decision = cluster.balancer.tick(cluster.mdss[0])
        assert decision.went
        assert decision.targets
        assert decision.exports
        path, load, target = decision.exports[0]
        assert target == 1
        assert load > 0

    def test_export_actually_migrates(self):
        cluster = self.make_hot_cluster()
        cluster.balancer.tick(cluster.mdss[0])
        cluster.engine.run()
        # The hot content (its dirfrag) now lives on rank 1.
        assert cluster.namespace.authority_for_path("/hot/f0") == 1
        assert cluster.metrics.mds(0).migrations == 1

    def test_no_double_export_while_in_flight(self):
        cluster = self.make_hot_cluster()
        cluster.balancer.tick(cluster.mdss[0])
        decision = cluster.balancer.tick(cluster.mdss[0])
        assert decision.skipped == "migration in flight"

    def test_idle_rank_does_not_export(self):
        cluster = self.make_hot_cluster()
        decision = cluster.balancer.tick(cluster.mdss[1])
        assert not decision.went

    def test_lua_runtime_error_aborts_cleanly(self):
        policy = spill_policy(when="go = MDSs[99]['load'] > 0")
        cluster = self.make_hot_cluster(policy=policy)
        decision = cluster.balancer.tick(cluster.mdss[0])
        assert decision.error is not None
        assert not decision.exports
        assert cluster.balancer.errors == 1

    def test_metaload_error_in_partition_walk_stops_exports(self):
        # The metaload raises only on units nobody wrote to.  Rank 0's own
        # counters are hot, so its beat and the bindings evaluate; rank 1's
        # beat falls back to the Table 1 values; the error surfaces when
        # the walk scores the cold directory.
        policy = spill_policy(metaload="IWR / (IWR > 0 and 1 or nil)")
        cluster = SimulatedCluster(make_config(num_mds=2), policy=policy)
        cluster.namespace.mkdirs("/hot")
        cluster.namespace.mkdirs("/cold")
        heat_up(cluster, "/hot", hits=200)
        exchange_heartbeats(cluster)
        assert cluster.mdss[0].hb_table.get(1).all_metaload == 0.0
        decision = cluster.balancer.tick(cluster.mdss[0])
        assert decision.went
        assert decision.error.startswith("metaload: ")
        assert not decision.exports
        assert cluster.balancer.errors == 1

    def test_need_min_scales_target(self):
        full = self.make_hot_cluster(policy=spill_policy())
        d_full = full.balancer.tick(full.mdss[0])
        scaled = self.make_hot_cluster(
            policy=spill_policy(need_min_factor=0.5))
        d_scaled = scaled.balancer.tick(scaled.mdss[0])
        shipped_full = sum(load for _p, load, _t in d_full.exports)
        shipped_scaled = sum(load for _p, load, _t in d_scaled.exports)
        assert shipped_scaled <= shipped_full


class TestNamespacePartitioning:
    def test_oversized_subtree_is_drilled_into(self):
        """A subtree too popular to move whole must be divided (§3.2)."""
        cluster = SimulatedCluster(make_config(num_mds=2),
                                   policy=spill_policy())
        cluster.namespace.mkdirs("/big/a")
        cluster.namespace.mkdirs("/big/b")
        now = cluster.engine.now
        for sub in ("a", "b"):
            d = cluster.namespace.resolve_dir(f"/big/{sub}")
            for _ in range(100):
                cluster.namespace.record_hit(d, None, "IWR", now)
        for _ in range(200):
            cluster.mdss[0].auth_load.hit("IWR", now)
            cluster.mdss[0].all_load.hit("IWR", now)
        exchange_heartbeats(cluster)
        decision = cluster.balancer.tick(cluster.mdss[0])
        assert decision.went
        paths = [path for path, _l, _t in decision.exports]
        # Target is half the load; /big holds all of it, so the balancer
        # must export /big/a or /big/b, not /big itself.
        assert "/big" not in paths
        assert any(path.startswith("/big/") for path in paths)

    def test_dirfrag_owner_without_subtree_can_export(self):
        """A rank owning only dirfrags must still find export candidates."""
        cluster = SimulatedCluster(make_config(num_mds=3),
                                   policy=spill_policy())
        cluster.namespace.mkdirs("/d")
        d = cluster.namespace.resolve_dir("/d")
        for i in range(32):
            cluster.namespace.create(f"/d/f{i}")
        d.fragment(extra_bits=2, now=cluster.engine.now)
        now = cluster.engine.now
        for frag in d.frags.values():
            frag.set_auth(1)
            cluster.namespace.record_frag_hit(frag, "IWR", now, 50.0)
        for _ in range(200):
            cluster.mdss[1].auth_load.hit("IWR", now)
            cluster.mdss[1].all_load.hit("IWR", now)
        exchange_heartbeats(cluster)
        decision = cluster.balancer.tick(cluster.mdss[1])
        assert decision.went
        assert decision.exports
        assert all(path.startswith("/d#") for path, _l, _t in
                   decision.exports)

    def test_frozen_units_not_reexported(self):
        cluster = SimulatedCluster(make_config(num_mds=2),
                                   policy=spill_policy())
        cluster.namespace.mkdirs("/hot")
        heat_up(cluster, "/hot", hits=200)
        d = cluster.namespace.resolve_dir("/hot")
        for frag in d.frags.values():
            frag.frozen = True
        exchange_heartbeats(cluster)
        decision = cluster.balancer.tick(cluster.mdss[0])
        assert not decision.exports


class TestDecisionLog:
    def test_decisions_accumulate(self):
        cluster = SimulatedCluster(make_config(num_mds=2),
                                   policy=spill_policy())
        exchange_heartbeats(cluster)
        cluster.balancer.tick(cluster.mdss[0])
        cluster.balancer.tick(cluster.mdss[1])
        decisions = cluster.metrics.decisions
        assert len(decisions) == 2
        assert decisions[-1].rank == 1
        assert sum(len(d.exports) for d in decisions) == 0

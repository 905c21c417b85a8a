"""Liveness: heartbeat eviction, dead-rank detection, balancer behavior."""

from repro.cluster import SimulatedCluster
from repro.core.policies import original_policy
from repro.mds.heartbeat import HeartBeat, HeartbeatTable
from tests.conftest import awaited_request, make_config


def beat(rank: int, sent_at: float) -> HeartBeat:
    return HeartBeat(rank=rank, sent_at=sent_at, auth_metaload=1.0,
                     all_metaload=1.0, cpu=10.0, mem=5.0, queue_length=0.0,
                     request_rate=100.0)


class TestHeartbeatTableLiveness:
    def test_evict_stale_moves_rank_to_down(self):
        table = HeartbeatTable()
        table.store(beat(0, 0.0), now=0.0)
        table.store(beat(1, 0.0), now=0.0)
        table.store(beat(1, 9.0), now=9.0)
        evicted = table.evict_stale(now=10.0, timeout=5.0)
        assert evicted == [0]
        assert table.is_down(0)
        assert table.get(0) is None
        assert table.get(1) is not None

    def test_alive_ranks_excludes_stale_and_down(self):
        table = HeartbeatTable()
        table.store(beat(0, 0.0), now=0.0)
        table.store(beat(1, 8.0), now=8.0)
        table.mark_down(2)
        assert table.alive_ranks(now=10.0, timeout=5.0) == [1]

    def test_fresh_beat_revives_down_rank(self):
        table = HeartbeatTable()
        table.mark_down(1)
        assert table.is_down(1)
        table.store(beat(1, 20.0), now=20.0)
        assert not table.is_down(1)
        assert table.alive_ranks(now=20.0, timeout=5.0) == [1]

    def test_mark_down_drops_existing_entry(self):
        table = HeartbeatTable()
        table.store(beat(1, 0.0), now=0.0)
        table.mark_down(1)
        assert table.get(1) is None
        assert table.alive_ranks(now=0.0, timeout=100.0) == []


class TestDeadRankDetection:
    def test_crashed_rank_evicted_after_grace(self):
        cluster = SimulatedCluster(make_config(num_mds=2,
                                               mds_beacon_grace=4.0),
                                   policy=original_policy())
        cluster.run_for(5.0)  # heartbeats flowing both ways
        assert 1 in cluster.mdss[0].hb_table.received
        cluster.mdss[1].crash()
        cluster.engine.run_until(cluster.engine.now + 10.0)
        table = cluster.mdss[0].hb_table
        assert 1 not in table.received
        assert table.is_down(1)

    def test_balancer_skips_with_no_live_peers(self):
        cluster = SimulatedCluster(make_config(num_mds=2,
                                               mds_beacon_grace=4.0),
                                   policy=original_policy())
        cluster.run_for(5.0)
        cluster.mdss[1].crash()
        cluster.engine.run_until(cluster.engine.now + 10.0)
        recent = [d for d in cluster.metrics.decisions
                  if d.rank == 0][-1]
        assert recent.skipped == "no live peers"

    def test_dead_rank_requests_complete_after_restart(self):
        from repro.clients.ops import OpKind

        cluster = SimulatedCluster(make_config(num_mds=2))
        cluster.namespace.mkdirs("/d")
        cluster.namespace.create("/d/f0")
        mds = cluster.mdss[0]
        mds.crash()
        req, done = awaited_request(cluster, OpKind.STAT, "/d/f0")
        mds.receive_request(req)
        cluster.engine.schedule(1.0, mds.restart)
        reply = cluster.engine.run_until_complete(done)
        assert reply.ok
        assert reply.served_by == 0
        assert mds.metrics.dead_letters >= 1
        assert mds.metrics.restarts == 1

    def test_dead_rank_readdir_redelivers_by_its_own_directory(self):
        # READDIR addresses the directory itself, not its parent's dirfrag:
        # while the directory's rank is down, the bounced request waits
        # instead of ping-ponging through the parent's (live) rank.
        from repro.clients.ops import OpKind

        cluster = SimulatedCluster(make_config(num_mds=2))
        cluster.namespace.mkdirs("/a/b")
        cluster.pin("/a/b", 1)
        cluster.mdss[1].crash()
        req, done = awaited_request(cluster, OpKind.READDIR, "/a/b")
        cluster.mdss[1].receive_request(req)
        cluster.engine.run_until(0.5)
        live = cluster.mdss[0]
        assert live.metrics.forwards == 0
        assert live.station.jobs_done == 0
        assert cluster.mdss[1].metrics.dead_letters == 1
        assert not done.done

    def test_op_fetching_when_its_rank_crashes_completes_elsewhere(self):
        # The create misses rank 0's cache and waits on the RADOS fetch of
        # /d; the rank dies meanwhile.  The op must bounce like a queued
        # request, not complete on the dead rank.
        from repro.clients.ops import OpKind

        cluster = SimulatedCluster(make_config(num_mds=2))
        cluster.namespace.mkdirs("/d")
        dead, live = cluster.mdss
        req, done = awaited_request(cluster, OpKind.CREATE, "/d/f")
        dead.receive_request(req)
        while dead.metrics.fetches == 0:
            assert cluster.engine.step()
        dead.crash()
        cluster.pin("/d", 1)
        reply = cluster.engine.run_until_complete(done)
        cluster.engine.run_until(cluster.engine.now + 1.0)
        assert reply.ok
        assert reply.served_by == 1
        assert dead.metrics.ops_served == 0
        assert live.metrics.ops_served == 1
        assert dead.metrics.dead_letters == 1
        assert cluster.namespace.resolve_dir("/d").entry_count() == 1

    def test_restart_replays_journal(self):
        cluster = SimulatedCluster(make_config(num_mds=2))
        mds = cluster.mdss[0]
        for _ in range(10):
            mds.journal.log("create")
        mds.journal.flush()
        cluster.engine.run_until(1.0)
        mds.crash()
        assert not mds.alive
        process = mds.restart()
        cluster.engine.run_until_complete(process.completion)
        assert mds.alive
        assert mds.journal.segments_replayed >= 1
        # Restart cannot be faster than the respawn floor.
        assert cluster.engine.now >= 1.0 + cluster.config.restart_base_time

    def test_crash_resets_sessions_and_journal_buffer(self):
        cluster = SimulatedCluster(make_config(num_mds=2))
        mds = cluster.mdss[0]
        mds.sessions.record_request(3, "/x", now=0.0)
        mds.journal.log("create")
        assert len(mds.sessions) == 1
        mds.crash()
        assert len(mds.sessions) == 0
        assert mds.journal.drop_buffer() == 0  # already dropped

"""Fault injection end to end: crashes, takeover, partitions, determinism.

These are the chaos tests promised by the fault subsystem's contract:
after any scheduled mayhem the cluster must satisfy the structural
invariants (nothing frozen, single authority everywhere, no stuck
exports), and the same (seed, schedule) pair must replay identically.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import SimulatedCluster, run_experiment
from repro.core.api import MantlePolicy
from repro.core.policies import greedy_spill_policy, original_policy
from repro.faults import (
    CrashMds,
    DegradeCpu,
    FaultSchedule,
    HeartbeatLoss,
    Partition,
    check_invariants,
)
from repro.workloads import CreateWorkload
from tests.conftest import make_config


def crash_schedule(**overrides):
    # Rank 0 is the initial authority for everything, so killing it
    # actually stalls the workload until the standby takes over.
    spec = dict(at=2.0, rank=0, takeover_by=1, takeover_after=1.0)
    spec.update(overrides)
    return FaultSchedule([CrashMds(**spec)])


def run_faulted(config, schedule, workload=None, policy=None):
    workload = workload or CreateWorkload(num_clients=2,
                                          files_per_client=4000)
    return run_experiment(config, workload, policy=policy,
                          fault_schedule=schedule)


class TestCrashAndTakeover:
    def test_crash_with_takeover_finishes_workload(self):
        config = make_config(num_mds=2, mds_beacon_grace=2.0)
        report = run_faulted(config, crash_schedule())
        assert report.total_ops == 2 * 4001
        kinds = [e.kind for e in report.fault_events]
        assert "crash" in kinds and "takeover" in kinds
        # After takeover every subtree is owned by the survivor.
        assert report.metrics.mds(0).crashes == 1

    def test_recovery_time_from_takeover(self):
        config = make_config(num_mds=2, mds_beacon_grace=2.0)
        report = run_faulted(config, crash_schedule())
        times = report.recovery_times()
        assert 0 in times
        assert times[0] > 0

    def test_throughput_dips_during_outage(self):
        config = make_config(num_mds=2, mds_beacon_grace=2.0)
        schedule = crash_schedule(at=1.0, takeover_after=2.0)
        report = run_faulted(
            config, schedule,
            workload=CreateWorkload(num_clients=2, files_per_client=30_000))
        before = report.throughput_between(0.0, 1.0)
        during = report.throughput_between(1.5, 2.5)
        assert during < before

    def test_crash_with_restart_recovers_same_rank(self):
        config = make_config(num_mds=2, mds_beacon_grace=2.0)
        schedule = FaultSchedule([CrashMds(at=1.0, rank=0,
                                           restart_after=3.0)])
        report = run_faulted(config, schedule)
        assert report.metrics.mds(0).restarts == 1
        assert report.recovery_times()[0] >= 3.0
        assert report.total_ops == 2 * 4001

    def test_invariants_hold_after_crash_under_balancer(self):
        config = make_config(num_mds=3, mds_beacon_grace=2.0)
        cluster = SimulatedCluster(
            config, policy=greedy_spill_policy(),
            fault_schedule=crash_schedule(rank=1, takeover_by=0))
        cluster.run_workload(
            CreateWorkload(num_clients=3, files_per_client=6000,
                           shared_dir=True))
        cluster.quiesce()
        assert check_invariants(cluster) == []

    def test_summary_line_mentions_faults(self):
        config = make_config(num_mds=2, mds_beacon_grace=2.0)
        report = run_faulted(config, crash_schedule())
        assert "faults=" in report.summary_line()


class TestHeartbeatFaults:
    def test_partition_causes_mutual_eviction_then_heal(self):
        config = make_config(num_mds=2, mds_beacon_grace=3.0)
        # First beats are exchanged at t=2.0; the partition starts after
        # that so each side has heard the other once, then goes deaf.
        schedule = FaultSchedule([
            Partition(at=3.0, duration=10.0, group_a=(0,), group_b=(1,))])
        cluster = SimulatedCluster(config, policy=original_policy(),
                                   fault_schedule=schedule)
        cluster.run_for(10.0)  # mid-partition, past the grace
        assert cluster.mdss[0].hb_table.is_down(1)
        assert cluster.mdss[1].hb_table.is_down(0)
        cluster.engine.run_until(cluster.engine.now + 10.0)  # healed
        assert not cluster.mdss[0].hb_table.is_down(1)
        assert not cluster.mdss[1].hb_table.is_down(0)
        kinds = [e.kind for e in cluster.metrics.fault_events]
        assert kinds.count("partition") == 1
        assert kinds.count("partition-heal") == 1

    def test_total_heartbeat_loss_trips_no_live_peers_skip(self):
        config = make_config(num_mds=2, mds_beacon_grace=3.0)
        schedule = FaultSchedule([
            HeartbeatLoss(at=3.0, duration=20.0)])
        cluster = SimulatedCluster(config, policy=original_policy(),
                                   fault_schedule=schedule)
        cluster.run_for(12.0)
        recent = [d for d in cluster.metrics.decisions if d.rank == 0][-1]
        assert recent.skipped == "no live peers"

    def test_lossy_link_with_delay_keeps_cluster_alive(self):
        config = make_config(num_mds=2, mds_beacon_grace=5.0)
        schedule = FaultSchedule([
            HeartbeatLoss(at=1.0, duration=8.0, drop_prob=0.5,
                          extra_delay=0.2)])
        cluster = SimulatedCluster(config, policy=original_policy(),
                                   fault_schedule=schedule)
        cluster.run_for(12.0)
        assert not cluster.mdss[0].hb_table.is_down(1)
        assert not cluster.mdss[1].hb_table.is_down(0)


class TestDegradedCpu:
    def test_degrade_slows_then_heals(self):
        config = make_config(num_mds=2)
        schedule = FaultSchedule([
            DegradeCpu(at=0.5, rank=0, factor=4.0, duration=2.0)])
        cluster = SimulatedCluster(config, fault_schedule=schedule)
        cluster.run_workload(CreateWorkload(num_clients=2,
                                            files_per_client=3000))
        assert cluster.mdss[0].cpu_factor == 1.0  # healed
        kinds = [e.kind for e in cluster.metrics.fault_events]
        assert "degrade-cpu" in kinds and "degrade-heal" in kinds

    def test_degraded_run_is_slower(self):
        config = make_config(num_mds=2)
        workload = CreateWorkload(num_clients=2, files_per_client=3000)
        clean = run_experiment(config, workload)
        schedule = FaultSchedule([DegradeCpu(at=0.0, rank=0, factor=5.0)])
        limping = run_faulted(config, schedule, workload=workload)
        assert limping.makespan > clean.makespan


class TestCircuitBreaker:
    def broken_policy(self):
        return MantlePolicy(name="broken",
                            when="go = MDSs[99]['load'] > 0")

    def test_fallback_after_consecutive_errors(self):
        config = make_config(num_mds=2, policy_error_threshold=3)
        cluster = SimulatedCluster(config, policy=self.broken_policy())
        cluster.run_workload(
            CreateWorkload(num_clients=2, files_per_client=8000,
                           shared_dir=True))
        assert cluster.balancer.tripped
        assert cluster.balancer.errors >= 3
        assert cluster.balancer.active_policy().name == "cephfs-original"
        # The fallback balancer keeps making (non-erroring) decisions.
        fallback = [d for d in cluster.metrics.decisions if d.fallback]
        assert fallback
        assert all(d.error is None for d in fallback)

    def test_report_flags_tripped_policy(self):
        config = make_config(num_mds=2, policy_error_threshold=2)
        report = run_experiment(
            config,
            CreateWorkload(num_clients=2, files_per_client=8000,
                           shared_dir=True),
            policy=self.broken_policy())
        assert report.policy_tripped
        assert "policy=fallback" in report.summary_line()

    def test_healthy_policy_never_trips(self):
        config = make_config(num_mds=2)
        cluster = SimulatedCluster(config, policy=greedy_spill_policy())
        cluster.run_workload(
            CreateWorkload(num_clients=2, files_per_client=6000,
                           shared_dir=True))
        assert not cluster.balancer.tripped
        assert cluster.balancer.consecutive_errors == 0


class TestDeterminism:
    SCHEDULE = [
        CrashMds(at=1.5, rank=1, takeover_by=0, takeover_after=1.0),
        HeartbeatLoss(at=0.5, duration=3.0, drop_prob=0.5),
    ]

    def run_once(self, seed):
        config = make_config(num_mds=2, seed=seed, mds_beacon_grace=2.0)
        return run_faulted(config, FaultSchedule(list(self.SCHEDULE)),
                           policy=greedy_spill_policy())

    def test_same_seed_same_schedule_identical_report(self):
        first, second = self.run_once(11), self.run_once(11)
        assert first.summary_line() == second.summary_line()
        assert first.fault_events == second.fault_events
        assert first.recovery_times() == second.recovery_times()

    def test_different_seed_differs(self):
        # Not strictly guaranteed, but with probabilistic drops two seeds
        # matching exactly would mean the faults RNG stream is ignored.
        first, second = self.run_once(11), self.run_once(12)
        assert first.summary_line() != second.summary_line()


class TestInvariantProperty:
    @settings(max_examples=5, deadline=None)
    @given(
        crash_at=st.floats(min_value=0.2, max_value=3.0),
        rank=st.integers(min_value=0, max_value=1),
        data=st.data(),
    )
    def test_invariants_after_random_crash(self, crash_at, rank, data):
        takeover = data.draw(st.sampled_from([None, 1 - rank]))
        spec = dict(at=crash_at, rank=rank)
        if takeover is not None:
            spec.update(takeover_by=takeover, takeover_after=0.5)
        else:
            spec.update(restart_after=1.0)
        config = make_config(num_mds=2, mds_beacon_grace=2.0)
        cluster = SimulatedCluster(
            config, policy=greedy_spill_policy(),
            fault_schedule=FaultSchedule([CrashMds(**spec)]))
        cluster.run_workload(
            CreateWorkload(num_clients=2, files_per_client=4000,
                           shared_dir=True))
        cluster.quiesce()
        assert check_invariants(cluster) == []

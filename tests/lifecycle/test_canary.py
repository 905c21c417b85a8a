"""CanaryController: staged rollout, promotion and automatic rollback.

Timing note: with the test heartbeat interval of 2.0s the canary rank
(rank 1) ticks at ~2.006, 4.006, 6.006, ...; ``at=3.0`` therefore starts
the canary at the 4.006s tick and ``window=3.5`` evaluates it at the
8.006s tick.  ``run_for`` keeps heartbeats flowing past the (short)
workload so the full state machine always runs.
"""

import pytest

from repro.cluster import SimulatedCluster
from repro.core.api import MantlePolicy
from repro.core.policies import greedy_spill_policy
from repro.workloads import CreateWorkload
from tests.conftest import make_config


def broken_policy():
    return MantlePolicy(name="broken", when="go = MDSs[99]['load'] > 0")


def bad_metaload_policy():
    return MantlePolicy(name="bad-metaload", metaload='"hot"',
                        when="go = false")


def idle_policy():
    return MantlePolicy(name="idle", when="go = false")


def run_canary(candidate, **health):
    config = make_config(num_mds=2, stability_guard=True)
    cluster = SimulatedCluster(config, policy=greedy_spill_policy())
    controller = cluster.arm_canary(candidate, at=3.0, window=3.5, **health)
    cluster.run_workload(
        CreateWorkload(num_clients=2, files_per_client=3000,
                       shared_dir=True))
    cluster.run_for(12.0)
    return cluster, controller


class TestRollback:
    def test_bad_candidate_rolls_back(self):
        cluster, controller = run_canary(broken_policy())
        assert controller.phase == "rolled-back"
        assert any("lua errors" in reason for reason in controller.violations)
        kinds = [e.kind for e in cluster.metrics.lifecycle_events]
        assert "canary-start" in kinds
        assert "canary-rollback" in kinds
        assert "canary-promote" not in kinds
        # The canary rank is back on the primary balancer; the rest of the
        # cluster never left it.
        assert all(mds.balancer is cluster.balancer for mds in cluster.mdss)
        # v1 inject, v2 candidate, v3 rollback re-commit of v1.
        log = cluster.policy_store.log()
        assert [v.name for v in log] == ["greedy-spill", "broken",
                                         "greedy-spill"]
        assert log[2].note.startswith("canary failed")
        assert log[2].source == log[0].source

    def test_candidate_with_broken_metaload_rolls_back(self):
        # The canary rank's beats fall back to the Table 1 metaload; its
        # ticks record the error, which the canary's health check sees.
        cluster, controller = run_canary(bad_metaload_policy())
        assert controller.phase == "rolled-back"
        assert any("lua errors" in reason for reason in controller.violations)
        errors = [d.error for d in cluster.metrics.decisions if d.error]
        assert errors
        assert all(error == "metaload: metaload formula produced 'hot', "
                   "expected a number" for error in errors)
        assert all(mds.balancer is cluster.balancer for mds in cluster.mdss)

    def test_summary_line_mentions_rollback(self):
        cluster, _controller = run_canary(broken_policy())
        assert "canary=rolled-back" in cluster._report().summary_line()


class TestPending:
    def test_summary_line_reports_a_canary_still_watching(self):
        # Started at the 4.006 s tick, due at 8.006 s: the run stops first.
        config = make_config(num_mds=2)
        cluster = SimulatedCluster(config, policy=greedy_spill_policy())
        controller = cluster.arm_canary(broken_policy(), at=3.0, window=3.5)
        cluster.run_for(6.0)
        assert controller.phase == "watching"
        line = cluster._report().summary_line()
        assert "canary=pending" in line
        assert "canary=rolled-back" not in line


class TestPromotion:
    def test_healthy_candidate_is_promoted_to_all_ranks(self):
        cluster, controller = run_canary(idle_policy())
        assert controller.phase == "promoted"
        assert controller.violations == []
        kinds = [e.kind for e in cluster.metrics.lifecycle_events]
        assert "canary-promote" in kinds
        assert "canary-rollback" not in kinds
        promote = next(e for e in cluster.metrics.lifecycle_events
                       if e.kind == "canary-promote")
        assert promote.rank == -1
        assert cluster.balancer is controller.balancer
        assert all(mds.balancer is controller.balancer
                   for mds in cluster.mdss)
        # Promotion is not a rollback: the store keeps the candidate head.
        log = cluster.policy_store.log()
        assert [v.name for v in log] == ["greedy-spill", "idle"]


class TestArming:
    def test_canary_requires_a_live_policy(self):
        cluster = SimulatedCluster(make_config(num_mds=2))
        with pytest.raises(RuntimeError):
            cluster.arm_canary(idle_policy())

    def test_default_rank_is_the_highest(self):
        cluster = SimulatedCluster(make_config(num_mds=2),
                                   policy=greedy_spill_policy())
        controller = cluster.arm_canary(idle_policy())
        assert controller.rank == 1

    def test_bad_rank_rejected(self):
        cluster = SimulatedCluster(make_config(num_mds=2),
                                   policy=greedy_spill_policy())
        with pytest.raises(ValueError):
            cluster.arm_canary(idle_policy(), rank=7)

    def test_shadow_requires_a_live_policy(self):
        cluster = SimulatedCluster(make_config(num_mds=2))
        with pytest.raises(RuntimeError):
            cluster.arm_shadow(idle_policy())

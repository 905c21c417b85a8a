"""Half-open circuit breaker: open -> probation -> closed | permanent.

Timing note: with the 2.0s test heartbeat interval the shared balancer
ticks on both ranks' heartbeats (~2.08/2.086, 4.08/4.086, ...), so a
threshold of 2 trips on the first heartbeat round and ``run_for`` windows
of a few seconds walk the whole state machine.
"""

from repro.cluster import SimulatedCluster
from repro.core.api import MantlePolicy
from repro.core.balancer import MantleBalancer
from repro.core.policies import greedy_spill_policy
from tests.conftest import make_config


def broken_policy():
    return MantlePolicy(name="broken", when="go = MDSs[99]['load'] > 0")


def build_cluster(probation_ticks=2, threshold=2):
    config = make_config(num_mds=2, policy_error_threshold=threshold,
                         policy_probation_ticks=probation_ticks)
    return SimulatedCluster(config, policy=broken_policy())


class TestHalfOpenBreaker:
    def test_persistent_failure_fails_probation_permanently(self):
        cluster = build_cluster()
        cluster.run_for(20.0)
        balancer = cluster.balancer
        assert balancer.breaker == "permanent"
        assert balancer.tripped
        assert balancer.active_policy().name == "cephfs-original"
        kinds = [e.kind for e in cluster.metrics.lifecycle_events
                 if e.kind.startswith("breaker-")]
        assert kinds == ["breaker-open", "breaker-probation",
                         "breaker-permanent"]
        # Exactly one probation re-try, flagged as such -- and it is not
        # a fallback tick (the injected policy was back in charge).
        probation = [d for d in cluster.metrics.decisions if d.probation]
        assert len(probation) == 1
        assert not probation[0].fallback
        assert probation[0].error is not None
        # After the permanent trip the fallback stays in charge for good.
        tail = cluster.metrics.decisions[-1]
        assert tail.fallback and not tail.probation and tail.error is None

    def test_transient_failure_closes_the_breaker(self):
        cluster = build_cluster()
        cluster.run_for(4.0)
        balancer = cluster.balancer
        assert balancer.breaker == "open"
        # The failure was transient: by the time probation re-tries the
        # injected policy, it works.  (Modelled by swapping in a healthy
        # policy object while the breaker is open.)
        healthy = greedy_spill_policy()
        healthy.compile_all()
        balancer.policy = healthy
        cluster.run_for(10.0)
        assert balancer.breaker == "closed"
        assert not balancer.tripped
        assert balancer.active_policy() is healthy
        kinds = [e.kind for e in cluster.metrics.lifecycle_events
                 if e.kind.startswith("breaker-")]
        assert kinds == ["breaker-open", "breaker-probation",
                         "breaker-close"]
        assert cluster.metrics.decisions[-1].error is None

    def test_zero_probation_ticks_keeps_the_seed_forever_trip(self):
        cluster = SimulatedCluster(
            make_config(num_mds=2, policy_error_threshold=2,
                        policy_probation_ticks=0),
            policy=broken_policy())
        cluster.run_for(20.0)
        assert cluster.balancer.breaker == "open"
        kinds = [e.kind for e in cluster.metrics.lifecycle_events]
        assert "breaker-probation" not in kinds
        assert "breaker-permanent" not in kinds

    def test_direct_construction_defaults_to_no_probation(self):
        records = []
        balancer = MantleBalancer(broken_policy(),
                                  events=lambda *r: records.append(r))
        assert balancer.probation_ticks == 0
        assert balancer.breaker == "closed"
        assert records == []

    def test_report_still_flags_tripped_policy(self):
        cluster = build_cluster()
        cluster.run_for(20.0)
        report = cluster._report()
        assert report.policy_tripped
        assert "policy=fallback" in report.summary_line()
        assert [e.kind for e in report.lifecycle_events
                if e.kind.startswith("breaker-")] == [
            "breaker-open", "breaker-probation", "breaker-permanent"]


class TestMathDomainErrorsReachTheBreaker:
    def test_nan_from_math_sqrt_is_a_policy_error_not_a_crash(self):
        # math.sqrt(-1) is nan in Lua; the policy's own check turns it into
        # a Lua error, which the breaker counts like any other.
        policy = MantlePolicy(
            name="sqrt-of-negative",
            when=("local load = math.sqrt(-1)\n"
                  "assert(load == load, 'load is nan')\n"
                  "go = false"))
        cluster = SimulatedCluster(
            make_config(num_mds=2, policy_error_threshold=2,
                        policy_probation_ticks=2), policy=policy)
        cluster.run_for(20.0)
        balancer = cluster.balancer
        assert balancer.breaker == "permanent"
        errors = [d.error for d in cluster.metrics.decisions if d.error]
        assert errors and all("load is nan" in error for error in errors)

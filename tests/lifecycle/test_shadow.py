"""ShadowEvaluator: divergence detection over fabricated tick inputs.

These tests drive ``observe`` directly with hand-built binding inputs (the
same tuples the live balancer stashes), so every divergence case is exact
and independent of workload dynamics.
"""

from repro.core.api import MantlePolicy
from repro.core.balancer import BalanceDecision
from repro.lifecycle import ShadowEvaluator, shadow_summary


def counters(**values):
    base = {"IRD": 0.0, "IWR": 0.0, "READDIR": 0.0, "FETCH": 0.0,
            "STORE": 0.0}
    base.update(values)
    return base


def metrics(loads):
    """Per-rank metric dicts; a load of None marks a dead rank."""
    out = []
    for load in loads:
        value = 0.0 if load is None else float(load)
        out.append({"auth": value, "all": value, "cpu": 10.0, "mem": 10.0,
                    "q": 0.0, "req": value,
                    "alive": 0.0 if load is None else 1.0, "load": value})
    return out


def live(now=1.0, rank=0, went=False, targets=None, skipped=None):
    return BalanceDecision(time=now, rank=rank, went=went,
                           targets=dict(targets or {}), skipped=skipped)


def inputs(loads):
    return (metrics(loads), counters(), counters())


def spill_policy(threshold=10.0):
    return MantlePolicy(
        name="shadow-spill",
        mdsload='MDSs[i]["all"]',
        when=f"go = MDSs[whoami]['load'] > {threshold}",
        where="targets[2] = MDSs[whoami]['load'] / 2",
    )


class TestDivergence:
    def test_shadow_would_migrate_when_live_did_not(self):
        shadow = ShadowEvaluator(spill_policy())
        tick = shadow.observe(1.0, 0, live(went=False), inputs([20.0, 0.0]))
        assert tick.shadow_went and not tick.live_went
        assert tick.shadow_targets == {1: 10.0}
        assert tick.target_deltas == {1: 10.0}
        assert tick.diverged
        assert shadow_summary("shadow-spill", [tick])["divergences"] == 1

    def test_agreement_is_not_a_divergence(self):
        shadow = ShadowEvaluator(MantlePolicy(name="idle", when="go = false"))
        tick = shadow.observe(1.0, 0, live(went=False), inputs([20.0, 0.0]))
        assert not tick.shadow_went and not tick.diverged
        assert shadow_summary("idle", [tick])["divergences"] == 0

    def test_target_deltas_against_live_targets(self):
        shadow = ShadowEvaluator(spill_policy())
        decision = live(went=True, targets={1: 16.0})
        tick = shadow.observe(1.0, 0, decision, inputs([20.0, 0.0]))
        # Both migrate, but the shadow would ship 10 where live shipped 16.
        assert tick.shadow_went and tick.live_went
        assert tick.target_deltas == {1: -6.0}
        assert tick.diverged

    def test_dead_rank_targets_are_filtered(self):
        shadow = ShadowEvaluator(spill_policy())
        tick = shadow.observe(1.0, 0, live(went=False), inputs([20.0, None]))
        # The only target is dead, so the shadow would not migrate either.
        assert not tick.shadow_went
        assert not tick.diverged


class TestErrorsAndSkips:
    def test_candidate_error_is_recorded_not_raised(self):
        shadow = ShadowEvaluator(
            MantlePolicy(name="broken", when="go = MDSs[99]['load'] > 0"))
        tick = shadow.observe(1.0, 0, live(went=True, targets={1: 4.0}),
                              inputs([20.0, 0.0]))
        assert tick.error
        assert tick.diverged  # live went, candidate could not even decide
        assert shadow_summary("broken", [tick])["errors"] == 1

    def test_skipped_live_tick_skips_the_shadow_too(self):
        shadow = ShadowEvaluator(spill_policy())
        tick = shadow.observe(1.0, 0, live(skipped="single MDS"), None)
        assert tick.skipped == "single MDS"
        assert not tick.diverged


class TestSummary:
    def test_summary_counts(self):
        shadow = ShadowEvaluator(spill_policy())
        ticks = [
            shadow.observe(1.0, 0, live(skipped="single MDS"), None),
            shadow.observe(2.0, 0, live(went=False), inputs([20.0, 0.0])),
            shadow.observe(3.0, 0, live(went=True, targets={1: 2.0}),
                           inputs([2.0, 0.0])),
        ]
        summary = shadow_summary(shadow.policy.name, ticks)
        assert summary == {
            "policy": "shadow-spill",
            "ticks": 3,
            "evaluated": 2,
            "would_migrate": 1,
            "live_migrated": 1,
            "divergences": 2,
            "errors": 0,
        }

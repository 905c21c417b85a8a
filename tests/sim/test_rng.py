"""RNG streams and service-time distributions."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.rng import RngStreams, ServiceTime


class TestRngStreams:
    def test_same_seed_same_stream(self):
        a = RngStreams(seed=1).stream("mds0").random(5)
        b = RngStreams(seed=1).stream("mds0").random(5)
        assert np.allclose(a, b)

    def test_different_names_independent(self):
        streams = RngStreams(seed=1)
        a = streams.stream("mds0").random(5)
        b = streams.stream("mds1").random(5)
        assert not np.allclose(a, b)

    def test_different_seeds_differ(self):
        a = RngStreams(seed=1).stream("x").random(5)
        b = RngStreams(seed=2).stream("x").random(5)
        assert not np.allclose(a, b)

    def test_stream_is_cached(self):
        streams = RngStreams(seed=3)
        assert streams.stream("a") is streams.stream("a")

    def test_adding_stream_does_not_perturb_existing(self):
        """The property that justifies per-component substreams."""
        one = RngStreams(seed=9)
        first_draw = one.stream("client0").random(3)

        two = RngStreams(seed=9)
        two.stream("newcomer").random(100)  # interleaved usage
        second_draw = two.stream("client0").random(3)
        assert np.allclose(first_draw, second_draw)


class TestServiceTime:
    def test_mean_is_respected(self):
        rng = np.random.default_rng(0)
        dist = ServiceTime(0.001, cv=0.3)
        samples = [dist.sample(rng) for _ in range(20_000)]
        assert np.mean(samples) == pytest.approx(0.001, rel=0.02)

    def test_cv_is_respected(self):
        rng = np.random.default_rng(0)
        dist = ServiceTime(1.0, cv=0.5)
        samples = np.array([dist.sample(rng) for _ in range(20_000)])
        assert samples.std() / samples.mean() == pytest.approx(0.5, rel=0.05)

    def test_zero_cv_is_deterministic(self):
        rng = np.random.default_rng(0)
        dist = ServiceTime(0.002, cv=0.0)
        assert dist.sample(rng) == 0.002
        assert dist.sample(rng) == 0.002

    def test_samples_always_positive(self):
        rng = np.random.default_rng(1)
        dist = ServiceTime(0.0001, cv=1.0)
        assert all(dist.sample(rng) > 0 for _ in range(1000))

    def test_scaled(self):
        dist = ServiceTime(0.002, cv=0.4)
        scaled = dist.scaled(2.0)
        assert scaled.mean == pytest.approx(0.004)
        assert scaled.cv == 0.4

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ServiceTime(0.0)
        with pytest.raises(ValueError):
            ServiceTime(1.0, cv=-0.1)

    @settings(max_examples=25, deadline=None)
    @given(mean=st.floats(min_value=1e-6, max_value=10.0),
           cv=st.floats(min_value=0.0, max_value=2.0))
    def test_sample_positive_property(self, mean, cv):
        rng = np.random.default_rng(7)
        dist = ServiceTime(mean, cv=cv)
        for _ in range(20):
            assert dist.sample(rng) > 0

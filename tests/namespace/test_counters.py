"""Decay counters: exponential decay math and the five-op load counters."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.namespace.counters import (
    OP_KINDS,
    DecayCounter,
    LoadCounters,
)


class TestDecayCounter:
    def test_hit_accumulates(self):
        counter = DecayCounter(half_life=5.0)
        counter.hit(0.0)
        counter.hit(0.0)
        assert counter.get(0.0) == pytest.approx(2.0)

    def test_half_life_halves(self):
        counter = DecayCounter(half_life=5.0)
        counter.hit(0.0, 8.0)
        assert counter.get(5.0) == pytest.approx(4.0)
        assert counter.get(10.0) == pytest.approx(2.0)

    def test_decay_is_continuous(self):
        counter = DecayCounter(half_life=1.0)
        counter.hit(0.0, 1.0)
        assert counter.get(0.5) == pytest.approx(math.pow(0.5, 0.5))

    def test_reads_do_not_lose_mass(self):
        a = DecayCounter(half_life=5.0)
        b = DecayCounter(half_life=5.0)
        a.hit(0.0, 10.0)
        b.hit(0.0, 10.0)
        for t in (1.0, 2.0, 3.0):  # frequent reads on a only
            a.get(t)
        assert a.get(4.0) == pytest.approx(b.get(4.0))

    def test_hits_at_different_times_compose(self):
        counter = DecayCounter(half_life=5.0)
        counter.hit(0.0, 4.0)
        counter.hit(5.0, 4.0)  # old mass has halved to 2 by now
        assert counter.get(5.0) == pytest.approx(6.0)

    def test_tiny_values_snap_to_zero(self):
        counter = DecayCounter(half_life=1.0)
        counter.hit(0.0, 1.0)
        assert counter.get(1000.0) == 0.0

    def test_reset(self):
        counter = DecayCounter(half_life=1.0)
        counter.hit(0.0, 5.0)
        counter.reset(1.0, 9.0)
        assert counter.get(1.0) == 9.0

    def test_invalid_half_life(self):
        with pytest.raises(ValueError):
            DecayCounter(half_life=0.0)

    @given(amount=st.floats(min_value=0.001, max_value=1e6),
           dt=st.floats(min_value=0.0, max_value=100.0))
    def test_decay_never_increases(self, amount, dt):
        counter = DecayCounter(half_life=5.0)
        counter.hit(0.0, amount)
        assert counter.get(dt) <= amount * (1 + 1e-9)

    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=100.0)), max_size=20))
    def test_value_always_nonnegative(self, hits):
        counter = DecayCounter(half_life=2.0)
        for time, amount in sorted(hits):
            counter.hit(time, amount)
        assert counter.get(60.0) >= 0.0


class TestLoadCounters:
    def test_all_kinds_present(self):
        counters = LoadCounters()
        snapshot = counters.snapshot(0.0)
        assert set(snapshot) == set(OP_KINDS)
        assert all(value == 0.0 for value in snapshot.values())

    def test_hit_and_snapshot(self):
        counters = LoadCounters(half_life=5.0)
        counters.hit("IWR", 0.0)
        counters.hit("IWR", 0.0)
        counters.hit("IRD", 0.0)
        snapshot = counters.snapshot(0.0)
        assert snapshot["IWR"] == pytest.approx(2.0)
        assert snapshot["IRD"] == pytest.approx(1.0)
        assert snapshot["READDIR"] == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            LoadCounters().hit("BOGUS", 0.0)

    def test_absorb_fraction(self):
        source = LoadCounters(half_life=5.0)
        source.hit("IWR", 0.0, 10.0)
        sink = LoadCounters(half_life=5.0)
        sink.absorb(source, now=0.0, fraction=0.25)
        assert sink.get("IWR", 0.0) == pytest.approx(2.5)
        # Source unchanged by absorb.
        assert source.get("IWR", 0.0) == pytest.approx(10.0)

    def test_scale(self):
        counters = LoadCounters(half_life=5.0)
        counters.hit("IRD", 0.0, 8.0)
        counters.scale(0.5, now=0.0)
        assert counters.get("IRD", 0.0) == pytest.approx(4.0)

    def test_snapshot_matches_per_counter_decay(self):
        """snapshot()'s grouped decay equals DecayCounter.get per kind."""

        def build():
            counters = LoadCounters(half_life=5.0)
            t = 0.0
            for i in range(200):
                t += 0.37
                counters.hit("IRD" if i % 3 else "IWR", t,
                             amount=1.0 + i % 5)
                if i % 7 == 0:
                    counters.hit("READDIR", t)
            return counters, t

        grouped, t = build()
        reference, _ = build()
        for now in (t, t + 2.5, t + 2.5, t + 40.0):
            assert grouped.snapshot(now) == {
                kind: counter.get(now)
                for kind, counter in reference.counters.items()}

    def test_reset_zeroes_all(self):
        counters = LoadCounters()
        for kind in OP_KINDS:
            counters.hit(kind, 0.0, 3.0)
        counters.reset(1.0)
        assert all(v == 0.0 for v in counters.snapshot(1.0).values())

    @given(fraction=st.floats(min_value=0.0, max_value=1.0))
    def test_absorb_conserves_mass(self, fraction):
        """absorb(f) + absorb(1-f) == absorb(1.0)."""
        source = LoadCounters(half_life=5.0)
        source.hit("STORE", 0.0, 42.0)
        a = LoadCounters(half_life=5.0)
        a.absorb(source, 0.0, fraction)
        a.absorb(source, 0.0, 1.0 - fraction)
        assert a.get("STORE", 0.0) == pytest.approx(42.0)


def test_decay_counter_inline_arithmetic_matches_reference():
    """The decay arithmetic copied into the hit() fast paths stays exact."""
    counter = DecayCounter(half_life=4.0)
    mirror = 0.0
    now = 0.0
    for i in range(50):
        gap = 0.2 + (i % 9) * 0.31
        now += gap
        counter.hit(now, amount=2.0)
        mirror *= math.pow(0.5, gap / 4.0)
        if mirror < 1e-12:
            mirror = 0.0
        mirror += 2.0
        assert counter.get(now) == pytest.approx(mirror, rel=1e-12)

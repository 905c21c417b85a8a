"""Decay counters: forward-decay sums against a shared landmark clock."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import SimulatedCluster
from repro.namespace.counters import (
    OP_KINDS,
    REANCHOR_HALF_LIVES,
    DecayClock,
    LoadCounters,
)
from repro.namespace.directory import Directory
from repro.namespace.inode import Inode
from repro.namespace.tree import Namespace
from tests.conftest import make_config


def counter(half_life: float) -> LoadCounters:
    return LoadCounters(DecayClock(half_life))


def backward(hits, half_life: float, now: float) -> dict[str, float]:
    """The textbook recurrence ``v = v * 0.5**(dt/hl) + a`` per kind,
    decayed to *now*: the values forward decay must reproduce."""
    values = dict.fromkeys(OP_KINDS, 0.0)
    last = dict.fromkeys(OP_KINDS, 0.0)
    for time, kind, amount in hits:
        values[kind] = (values[kind] * 0.5 ** ((time - last[kind]) / half_life)
                        + amount)
        last[kind] = time
    return {kind: values[kind] * 0.5 ** ((now - last[kind]) / half_life)
            for kind in OP_KINDS}


def assert_matches(snapshot, expected) -> None:
    for kind in OP_KINDS:
        assert snapshot[kind] == pytest.approx(expected[kind], rel=1e-12)


class TestDecayCounter:
    """The decay of one op kind of :class:`LoadCounters`."""

    def test_hit_accumulates(self):
        counters = counter(5.0)
        counters.hit("IWR", 0.0)
        counters.hit("IWR", 0.0)
        assert counters.snapshot(0.0)["IWR"] == pytest.approx(2.0)

    def test_half_life_halves(self):
        counters = counter(5.0)
        counters.hit("IWR", 0.0, 8.0)
        assert counters.snapshot(5.0)["IWR"] == pytest.approx(4.0)
        assert counters.snapshot(10.0)["IWR"] == pytest.approx(2.0)

    def test_decay_is_continuous(self):
        counters = counter(1.0)
        counters.hit("IRD", 0.0, 1.0)
        assert counters.snapshot(0.5)["IRD"] == pytest.approx(math.sqrt(0.5))

    def test_reads_do_not_lose_mass(self):
        a = counter(5.0)
        b = counter(5.0)
        a.hit("IRD", 0.0, 10.0)
        b.hit("IRD", 0.0, 10.0)
        for t in (1.0, 2.0, 3.0):  # frequent reads on a only
            a.snapshot(t)
        assert a.snapshot(4.0)["IRD"] == b.snapshot(4.0)["IRD"]

    def test_hits_at_different_times_compose(self):
        counters = counter(5.0)
        counters.hit("IWR", 0.0, 4.0)
        counters.hit("IWR", 5.0, 4.0)  # old mass has halved to 2 by now
        assert counters.snapshot(5.0)["IWR"] == pytest.approx(6.0)

    def test_tiny_values_snap_to_zero(self):
        counters = counter(1.0)
        counters.hit("IWR", 0.0, 1.0)
        assert counters.snapshot(39.0)["IWR"] > 0.0
        assert counters.snapshot(40.0)["IWR"] == 0.0  # 2**-40 < 1e-12
        assert counters.snapshot(1e6)["IWR"] == 0.0  # the factor underflows

    def test_reset(self):
        counters = counter(1.0)
        counters.hit("IWR", 0.0, 5.0)
        counters.reset()
        counters.hit("IWR", 1.0, 9.0)
        assert counters.snapshot(1.0)["IWR"] == 9.0

    def test_invalid_half_life(self):
        with pytest.raises(ValueError):
            DecayClock(half_life=0.0)

    @given(amount=st.floats(min_value=0.001, max_value=1e6),
           dt=st.floats(min_value=0.0, max_value=100.0))
    def test_decay_never_increases(self, amount, dt):
        counters = counter(5.0)
        counters.hit("IRD", 0.0, amount)
        assert counters.snapshot(dt)["IRD"] <= amount * (1 + 1e-9)

    @given(st.lists(st.tuples(
        st.floats(min_value=0.0, max_value=50.0),
        st.floats(min_value=0.0, max_value=100.0)), max_size=20))
    def test_value_always_nonnegative(self, hits):
        counters = counter(2.0)
        for time, amount in sorted(hits):
            counters.hit("IWR", time, amount)
        assert counters.snapshot(60.0)["IWR"] >= 0.0


class TestLoadCounters:
    def test_all_kinds_present(self):
        counters = counter(5.0)
        snapshot = counters.snapshot(0.0)
        assert set(snapshot) == set(OP_KINDS)
        assert all(value == 0.0 for value in snapshot.values())

    def test_hit_and_snapshot(self):
        counters = counter(5.0)
        counters.hit("IWR", 0.0)
        counters.hit("IWR", 0.0)
        counters.hit("IRD", 0.0)
        snapshot = counters.snapshot(0.0)
        assert snapshot["IWR"] == pytest.approx(2.0)
        assert snapshot["IRD"] == pytest.approx(1.0)
        assert snapshot["READDIR"] == 0.0

    def test_unknown_kind_rejected(self):
        with pytest.raises(KeyError):
            counter(5.0).hit("BOGUS", 0.0)

    def test_absorb_fraction(self):
        source = counter(5.0)
        source.hit("IWR", 0.0, 10.0)
        sink = counter(5.0)
        sink.absorb(source, now=0.0, fraction=0.25)
        assert sink.snapshot(0.0)["IWR"] == pytest.approx(2.5)
        # Source unchanged by absorb.
        assert source.snapshot(0.0)["IWR"] == pytest.approx(10.0)

    def test_snapshot_matches_per_counter_decay(self):
        """snapshot() equals the per-kind backward recurrence, also after
        the landmark has moved several times."""
        counters = counter(0.5)
        hits = []
        t = 0.0
        for i in range(400):
            t += 0.37
            kind = "IRD" if i % 3 else "IWR"
            counters.hit(kind, t, amount=1.0 + i % 5)
            hits.append((t, kind, 1.0 + i % 5))
        assert counters.clock.landmark > REANCHOR_HALF_LIVES * 0.5
        for now in (t, t + 2.5, t + 2.5, t + 40.0):
            snapshot = counters.snapshot(now)
            assert_matches(snapshot, backward(hits, 0.5, now))

    def test_reset_zeroes_all(self):
        counters = counter(5.0)
        for kind in OP_KINDS:
            counters.hit(kind, 0.0, 3.0)
        counters.reset()
        assert all(v == 0.0 for v in counters.snapshot(1.0).values())

    @given(fraction=st.floats(min_value=0.0, max_value=1.0))
    def test_absorb_conserves_mass(self, fraction):
        """absorb(f) + absorb(1-f) == absorb(1.0)."""
        source = counter(5.0)
        source.hit("STORE", 0.0, 42.0)
        a = counter(5.0)
        a.absorb(source, 0.0, fraction)
        a.absorb(source, 0.0, 1.0 - fraction)
        assert a.snapshot(0.0)["STORE"] == pytest.approx(42.0)


hit_sequences = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=40.0),  # gap, half-lives
              st.integers(0, 1),  # which of two counters on one clock
              st.sampled_from(OP_KINDS),
              st.floats(min_value=0.0, max_value=1e3)),
    min_size=1, max_size=60)


@settings(max_examples=200, deadline=None)
@given(hits=hit_sequences,
       half_life=st.sampled_from([0.5, 1.0, 5.0, 7.3]),
       tail=st.floats(min_value=0.0, max_value=80.0))
def test_forward_decay_matches_backward_recurrence(hits, half_life, tail):
    """Two counters sharing one clock, hit at random times that cross
    re-anchors (gaps up to 40 half-lives, landmark every 64), read like
    the textbook recurrence."""
    clock = DecayClock(half_life)
    pair = (LoadCounters(clock), LoadCounters(clock))
    history = ([], [])
    t = 0.0
    for gap, which, kind, amount in hits:
        t += gap * half_life
        pair[which].hit(kind, t, amount)
        history[which].append((t, kind, amount))
        assert_matches(pair[which].snapshot(t),
                       backward(history[which], half_life, t))
    now = t + tail * half_life
    for counters, seen in zip(pair, history):
        assert_matches(counters.snapshot(now), backward(seen, half_life, now))


def test_long_run_at_short_half_life_neither_overflows_nor_drifts():
    """0.5 s half-life, hits spread over the 36 000 s deadline: ~1100
    re-anchors, a counter idle for hours, reads far past the last hit."""
    clock = DecayClock(0.5)
    busy, idle = LoadCounters(clock), LoadCounters(clock)
    hits = []
    t = 0.0
    idle.hit("IWR", 0.0, 7.0)
    while t < 36_000.0:
        t += 0.25 if int(t) % 200 < 100 else 17.0
        busy.hit("IRD", t, 2.0)
        hits.append((t, "IRD", 2.0))
    assert clock.landmark > 35_000.0
    assert_matches(busy.snapshot(t), backward(hits, 0.5, t))
    assert busy.snapshot(t + 3.0)["IRD"] > 0.0
    assert busy.snapshot(t + 10_000.0)["IRD"] == 0.0
    idle.hit("IWR", t, 1.0)  # rebases across the whole run
    assert idle.snapshot(t) == pytest.approx(
        {**dict.fromkeys(OP_KINDS, 0.0), "IWR": 1.0}, rel=1e-12)
    assert all(value >= 0.0 for value in busy.sums.values())


def test_reads_are_pure():
    """Two reads at one instant are bitwise equal, and reading (even far
    ahead of the hits) changes nothing that is read later."""

    def run(read: bool) -> list[dict[str, float]]:
        counters = counter(0.5)
        later = []
        for i in range(300):
            t = i * 0.3
            counters.hit("IWR" if i % 2 else "READDIR", t, 1.0 + i % 3)
            if read and i % 7 == 0:
                first = counters.snapshot(t + 0.1)
                assert counters.snapshot(t + 0.1) == first
                counters.snapshot(t + 500.0)
            if i % 11 == 0:
                later.append(counters.snapshot(t))
        return later

    assert run(read=True) == run(read=False)


def test_decay_counter_inline_arithmetic_matches_reference():
    """The hit arithmetic copied into ``record_frag_hit`` is bitwise the
    same as :meth:`LoadCounters.hit`, across re-anchors."""
    namespace = Namespace(half_life=0.5)
    frag = next(iter(namespace.mkdirs("/d").frags.values()))
    reference = counter(0.5)
    now = 0.0
    for i in range(200):
        now += 0.2 + (i % 9) * 0.31
        kind = OP_KINDS[i % len(OP_KINDS)]
        namespace.record_frag_hit(frag, kind, now, amount=2.0)
        reference.hit(kind, now, amount=2.0)
        assert frag.counters.landmark == reference.landmark
        assert frag.counters.sums == reference.sums
    assert reference.landmark > 0.0


def test_standalone_directories_share_one_clock():
    root = Directory(Inode(name="", is_dir=True), parent=None)
    child = Directory(Inode(name="c", is_dir=True), root)
    assert child.clock is root.clock
    assert next(iter(child.frags.values())).counters.clock is root.clock


def test_each_cluster_has_its_own_clock():
    """The ranks' loads share their namespace's clock, and a second
    cluster in the same process keeps its own landmark."""
    first = SimulatedCluster(make_config())
    second = SimulatedCluster(make_config())
    clock = first.namespace.clock
    assert clock is not second.namespace.clock
    for mds in first.mdss:
        assert mds.auth_load.clock is clock and mds.all_load.clock is clock
    first.mdss[0].all_load.hit("IRD", 10_000.0)
    assert clock.landmark == 10_000.0
    assert second.namespace.clock.landmark == 0.0

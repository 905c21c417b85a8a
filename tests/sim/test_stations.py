"""FIFO service stations: ordering, utilisation, a reference queue."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import SimEngine
from repro.sim.rng import ServiceTime
from repro.sim.stations import FifoStation


def make_station(engine, executor=None):
    rng = np.random.default_rng(0)
    return FifoStation(engine, "s", rng, executor=executor)


class TestFifoOrder:
    def test_jobs_complete_in_submission_order(self):
        engine = SimEngine()
        done = []
        station = make_station(engine, executor=done.append)
        for tag in "abc":
            station.submit(tag, 1.0)
        engine.run()
        assert done == ["a", "b", "c"]

    def test_completion_fires_with_executor_result(self):
        engine = SimEngine()
        station = make_station(engine, executor=lambda p: p * 2)
        completion = station.submit(21, 0.5)
        assert engine.run_until_complete(completion) == 42

    def test_single_server_serialises(self):
        engine = SimEngine()
        finish_times = []
        station = make_station(engine,
                               executor=lambda p: finish_times.append(engine.now))
        station.submit("a", 2.0)
        station.submit("b", 2.0)
        engine.run()
        assert finish_times == [2.0, 4.0]

    def test_queue_length(self):
        engine = SimEngine()
        station = make_station(engine)
        for _ in range(4):
            station.submit("x", 1.0)
        assert station.in_service == 1
        assert station.queue_length == 3
        engine.run()
        assert station.queue_length == 0


class TestAccounting:
    def test_busy_time_accumulates(self):
        engine = SimEngine()
        station = make_station(engine)
        station.submit("a", 1.5)
        station.submit("b", 0.5)
        engine.run()
        assert station.busy_time == pytest.approx(2.0)
        assert station.jobs_done == 2

    def test_wait_time_tracked(self):
        engine = SimEngine()
        station = make_station(engine)
        station.submit("a", 2.0)
        station.submit("b", 2.0)  # waits 2s
        engine.run()
        assert station.mean_wait() == pytest.approx(1.0)

    def test_utilization_window_full_busy(self):
        engine = SimEngine()
        station = make_station(engine)
        station.submit("a", 5.0)
        engine.run_until(5.0)
        assert station.utilization_since_mark() == pytest.approx(1.0)

    def test_utilization_window_half_busy(self):
        engine = SimEngine()
        station = make_station(engine)
        station.submit("a", 5.0)
        engine.run_until(10.0)
        assert station.utilization_since_mark() == pytest.approx(0.5)

    def test_utilization_resets_after_mark(self):
        engine = SimEngine()
        station = make_station(engine)
        station.submit("a", 5.0)
        engine.run_until(5.0)
        station.utilization_since_mark()
        engine.run_until(10.0)
        assert station.utilization_since_mark() == pytest.approx(0.0)

    def test_utilization_counts_inflight_partial(self):
        engine = SimEngine()
        station = make_station(engine)
        station.submit("a", 10.0)
        engine.run_until(4.0)
        assert station.utilization_since_mark() == pytest.approx(1.0)


class TestServiceTimes:
    def test_service_time_distribution_accepted(self):
        engine = SimEngine()
        station = make_station(engine)
        completion = station.submit("a", ServiceTime(0.01, cv=0.0))
        engine.run_until_complete(completion)
        assert engine.now == pytest.approx(0.01)

    def test_missing_service_rejected(self):
        engine = SimEngine()
        station = make_station(engine)
        with pytest.raises(ValueError):
            station.submit("a", None)


class ReferenceFifo:
    """A single-server FIFO queue stepped action by action, written
    without the station's finish-time precomputation: a job starts when
    its predecessor finishes and finishes one service time later.

    At equal times the actions (scheduled before the run) come before job
    finishes, as the engine orders them by scheduling sequence.
    """

    def __init__(self):
        self.queue = []          # [(payload, arrival, service)]
        self.current = None      # (payload, start, finish)
        self.finished = []       # [(payload, finish time)]
        self.busy_time = 0.0
        self.total_wait = 0.0
        self.jobs_done = 0
        self.mark = 0.0
        self.window_busy = 0.0

    def _start(self, now, payload, arrival, service):
        self.total_wait += now - arrival
        self.current = (payload, now, now + service)

    def advance(self, until, inclusive=False):
        """Finish every job due before *until* (or at it, if inclusive)."""
        while self.current is not None and (
                self.current[2] < until
                or (inclusive and self.current[2] <= until)):
            payload, start, finish = self.current
            self.busy_time += finish - start
            self.window_busy += finish - max(start, self.mark)
            self.jobs_done += 1
            self.finished.append((payload, finish))
            self.current = None
            if self.queue:
                self._start(finish, *self.queue.pop(0))

    def submit(self, now, payload, service):
        if self.current is None:
            self._start(now, payload, now, service)
        else:
            self.queue.append((payload, now, service))

    def drain(self, now):
        if self.current is None:
            return []
        payload, start, _finish = self.current
        self.busy_time += now - start
        self.window_busy += now - max(start, self.mark)
        abandoned = [payload] + [job[0] for job in self.queue]
        self.current = None
        self.queue = []
        return abandoned

    def sample(self, now):
        busy = self.window_busy
        if self.current is not None:
            busy += now - max(self.current[1], self.mark)
        window = now - self.mark
        self.mark = now
        self.window_busy = 0.0
        if window <= 0:
            utilization = 1.0 if self.current is not None else 0.0
        else:
            utilization = min(1.0, busy / window)
        return (len(self.queue), int(self.current is not None), utilization)


#: Service times: exact quarters (so finishes tie with actions) or any float.
SERVICE = st.one_of(st.integers(0, 12).map(lambda k: k / 4),
                    st.floats(0.0, 3.0, allow_nan=False))
ACTION = st.one_of(
    st.tuples(st.just("submit"), SERVICE),
    st.tuples(st.just("sample"), st.none()),
    st.tuples(st.just("drain"), st.none()),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40).map(lambda k: k / 2), ACTION),
                max_size=40))
def test_station_matches_reference_queue(script):
    script = sorted(script, key=lambda item: item[0])  # stable for ties
    engine = SimEngine()
    finished = []
    station = make_station(
        engine, executor=lambda payload: finished.append((payload,
                                                          engine.now)))
    observed, completions = [], {}

    def act(index, kind, service):
        if kind == "submit":
            completions[index] = station.submit(index, service)
        elif kind == "drain":
            observed.append(("drain", [payload for payload, _completion
                                       in station.drain()]))
        else:
            observed.append(("sample", station.queue_length,
                             station.in_service,
                             station.utilization_since_mark()))

    for index, (time, (kind, service)) in enumerate(script):
        engine.schedule_at(time, act, index, kind, service)
    engine.run()

    reference, expected = ReferenceFifo(), []
    for index, (time, (kind, service)) in enumerate(script):
        reference.advance(time)
        if kind == "submit":
            reference.submit(time, index, service)
        elif kind == "drain":
            expected.append(("drain", reference.drain(time)))
        else:
            expected.append(("sample", *reference.sample(time)))
    reference.advance(float("inf"), inclusive=True)

    assert finished == reference.finished
    assert observed == expected
    assert station.busy_time == reference.busy_time
    assert station.total_wait == reference.total_wait
    assert station.jobs_done == reference.jobs_done
    assert (station.queue_length, station.in_service) == (0, 0)
    done = {payload for payload, _time in finished}
    assert all(completion.done == (index in done)
               for index, completion in completions.items())

"""Process interruption: the cancellation path faults are built on."""

import numpy as np
import pytest

from repro.sim.engine import CancelledError, SimEngine
from repro.sim.stations import FifoStation


class TestProcessInterrupt:
    def test_interrupt_throws_into_generator_at_wait_point(self):
        engine = SimEngine()
        caught = []

        def proc():
            try:
                yield 10.0
            except RuntimeError as exc:
                caught.append(str(exc))
            return "cleaned up"

        process = engine.process(proc())
        engine.run_until(0.0)  # generator starts, now waiting on the delay
        assert process.interrupt(RuntimeError("abort"))
        engine.run_until(1.0)
        assert caught == ["abort"]
        assert process.completion.value == "cleaned up"

    def test_default_interrupt_cancels(self):
        engine = SimEngine()

        def proc():
            yield 10.0

        process = engine.process(proc())
        engine.run_until(0.0)
        process.interrupt()
        engine.run_until(1.0)
        assert process.completion.done
        with pytest.raises(CancelledError):
            process.completion.value

    def test_interrupt_leaves_awaited_completion_untouched(self):
        engine = SimEngine()
        shared = engine.completion()

        def proc():
            try:
                yield shared
            except CancelledError:
                pass
            return "done"

        process = engine.process(proc())
        engine.run_until(0.0)
        process.interrupt()
        engine.run_until(1.0)
        assert process.completion.value == "done"
        # The completion the process was waiting on is still pristine --
        # another owner (e.g. a RADOS write) can fire it without error.
        shared.succeed(42)
        assert shared.value == 42

    def test_stale_resume_after_interrupt_is_ignored(self):
        engine = SimEngine()
        resumed = []

        def proc():
            try:
                yield engine.timeout(5.0)
                resumed.append("timeout fired into process")
            except CancelledError:
                pass
            yield 20.0  # keep the process alive past t=5
            return "ok"

        process = engine.process(proc())
        engine.run_until(0.0)
        process.interrupt()
        engine.run_until(10.0)  # the original timeout fires at t=5
        assert resumed == []
        engine.run_until(30.0)
        assert process.completion.value == "ok"

    def test_interrupt_before_generator_starts(self):
        engine = SimEngine()
        log = []

        def proc():
            log.append("ran")
            yield 1.0

        process = engine.process(proc())
        process.interrupt(RuntimeError("too late"))
        engine.run_until(2.0)
        assert log == []
        assert process.completion.done
        with pytest.raises(RuntimeError):
            process.completion.value

    def test_interrupt_after_finish_returns_false(self):
        engine = SimEngine()

        def proc():
            yield 0.1
            return 1

        process = engine.process(proc())
        engine.run_until(1.0)
        assert process.completion.value == 1
        assert not process.interrupt()

    def test_uncaught_injected_error_fails_process_not_loop(self):
        engine = SimEngine()

        def proc():
            yield 10.0

        process = engine.process(proc())
        engine.run_until(0.0)
        process.interrupt(RuntimeError("boom"))
        engine.run_until(1.0)  # must not raise out of the event loop
        with pytest.raises(RuntimeError):
            process.completion.value


class TestStationDrain:
    def make_station(self):
        engine = SimEngine()
        rng = np.random.default_rng(0)
        return engine, FifoStation(engine, "s", rng)

    def test_drain_returns_in_service_then_queued(self):
        engine, station = self.make_station()
        first = station.submit("a", 1.0)
        second = station.submit("b", 1.0)
        engine.run_until(0.5)
        jobs = station.drain()
        assert jobs == [("a", first), ("b", second)]
        assert station.in_service == 0
        assert station.queue_length == 0
        # Abandoned completions never fire on their own.
        engine.run_until(10.0)
        assert not first.done and not second.done

    def test_drain_accounts_partial_busy_time(self):
        engine, station = self.make_station()
        station.submit("a", 1.0)
        engine.run_until(0.25)
        station.drain()
        assert station.busy_time == pytest.approx(0.25)

    def test_drain_empty_station_is_noop(self):
        engine, station = self.make_station()
        assert station.drain() == []

    def test_station_usable_after_drain(self):
        engine, station = self.make_station()
        station.submit("a", 1.0)
        engine.run_until(0.1)
        station.drain()
        done = station.submit("b", 0.5)
        engine.run_until(5.0)
        assert done.done

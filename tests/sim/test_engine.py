"""Event engine: ordering, cancellation, completions, processes, barriers."""

import pytest

from repro.sim.engine import CancelledError, Completion, SimEngine


class TestScheduling:
    def test_events_fire_in_time_order(self):
        engine = SimEngine()
        fired = []
        engine.schedule(2.0, fired.append, "b")
        engine.schedule(1.0, fired.append, "a")
        engine.schedule(3.0, fired.append, "c")
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        engine = SimEngine()
        fired = []
        for tag in "abc":
            engine.schedule(1.0, fired.append, tag)
        engine.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances_to_event_time(self):
        engine = SimEngine()
        times = []
        engine.schedule(5.0, lambda: times.append(engine.now))
        engine.run()
        assert times == [5.0]
        assert engine.now == 5.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            SimEngine().schedule(-1.0, lambda: None)

    def test_cancel_prevents_execution(self):
        engine = SimEngine()
        fired = []
        handle = engine.schedule(1.0, fired.append, "x")
        handle.cancel()
        engine.run()
        assert fired == []

    def test_schedule_at_absolute(self):
        engine = SimEngine()
        engine.schedule(1.0, lambda: None)
        engine.run()
        fired = []
        engine.schedule_at(4.0, lambda: fired.append(engine.now))
        engine.run()
        assert fired == [4.0]

    def test_schedule_at_past_rejected(self):
        engine = SimEngine()
        engine.schedule(2.0, lambda: None)
        engine.run()
        with pytest.raises(ValueError):
            engine.schedule_at(1.0, lambda: None)

    def test_run_until_stops_at_time(self):
        engine = SimEngine()
        fired = []
        engine.schedule(1.0, fired.append, 1)
        engine.schedule(10.0, fired.append, 10)
        engine.run_until(5.0)
        assert fired == [1]
        assert engine.now == 5.0
        assert engine.pending == 1

    def test_events_executed_counter(self):
        engine = SimEngine()
        for _ in range(5):
            engine.schedule(1.0, lambda: None)
        engine.run()
        assert engine.events_executed == 5


class TestPeriodic:
    def test_every_repeats_until_stopped(self):
        engine = SimEngine()
        ticks = []

        def tick():
            ticks.append(engine.now)
            if len(ticks) == 3:
                stop()

        stop = engine.every(10.0, tick)
        engine.run()
        assert ticks == [10.0, 20.0, 30.0]

    def test_every_start_after(self):
        engine = SimEngine()
        ticks = []
        stop = engine.every(10.0, lambda: ticks.append(engine.now),
                            start_after=1.0)
        engine.run_until(22.0)
        stop()
        assert ticks == [1.0, 11.0, 21.0]

    def test_zero_interval_rejected(self):
        with pytest.raises(ValueError):
            SimEngine().every(0, lambda: None)


class TestCompletions:
    def test_succeed_delivers_value(self):
        engine = SimEngine()
        completion = engine.completion()
        seen = []
        completion.add_callback(lambda c: seen.append(c.value))
        completion.succeed(42)
        assert seen == [42]

    def test_callback_after_done_fires_immediately(self):
        engine = SimEngine()
        completion = engine.completion()
        completion.succeed("v")
        seen = []
        completion.add_callback(lambda c: seen.append(c.value))
        assert seen == ["v"]

    def test_double_succeed_raises(self):
        completion = SimEngine().completion()
        completion.succeed(1)
        with pytest.raises(RuntimeError):
            completion.succeed(2)

    def test_value_before_done_raises(self):
        with pytest.raises(RuntimeError):
            _ = SimEngine().completion().value

    def test_fail_propagates(self):
        completion = SimEngine().completion()
        completion.fail(ValueError("boom"))
        with pytest.raises(ValueError):
            _ = completion.value

    def test_timeout_completion(self):
        engine = SimEngine()
        completion = engine.timeout(3.0, "done")
        assert engine.run_until_complete(completion) == "done"
        assert engine.now == 3.0


class TestProcesses:
    def test_process_yields_delays(self):
        engine = SimEngine()
        trace = []

        def proc():
            trace.append(engine.now)
            yield 1.5
            trace.append(engine.now)
            yield 2.5
            trace.append(engine.now)

        engine.process(proc())
        engine.run()
        assert trace == [0.0, 1.5, 4.0]

    def test_process_yields_completions(self):
        engine = SimEngine()
        results = []

        def proc():
            value = yield engine.timeout(2.0, "hello")
            results.append(value)

        engine.process(proc())
        engine.run()
        assert results == ["hello"]

    def test_process_return_value(self):
        engine = SimEngine()

        def proc():
            yield 1.0
            return 99

        process = engine.process(proc())
        assert engine.run_until_complete(process.completion) == 99

    def test_exception_thrown_into_process(self):
        engine = SimEngine()
        caught = []

        def proc():
            completion = engine.completion()
            engine.schedule(1.0, completion.fail, RuntimeError("nope"))
            try:
                yield completion
            except RuntimeError as exc:
                caught.append(str(exc))

        engine.process(proc())
        engine.run()
        assert caught == ["nope"]

    def test_cancelled_completion_cancels_process(self):
        engine = SimEngine()

        def proc():
            completion = engine.completion()
            engine.schedule(1.0, completion.cancel)
            yield completion

        process = engine.process(proc())
        engine.run()
        with pytest.raises(CancelledError):
            _ = process.completion.value

    def test_bad_yield_type_raises(self):
        engine = SimEngine()

        def proc():
            yield "not a delay"

        engine.process(proc())
        with pytest.raises(TypeError):
            engine.run()

    def test_run_until_complete_detects_starvation(self):
        engine = SimEngine()
        never = engine.completion()
        with pytest.raises(RuntimeError, match="drained"):
            engine.run_until_complete(never)

    def test_max_events_guard(self):
        engine = SimEngine()

        def forever():
            while True:
                yield 1.0

        engine.process(forever())
        with pytest.raises(RuntimeError, match="exceeded"):
            engine.run(max_events=100)


class TestRunBefore:
    """``run_before(t)`` runs exactly the events a full run runs before
    *t* and leaves the heap intact, so a split run finishes the identical
    sequence (the forked grid runner's shared prefix)."""

    def test_splits_exactly_at_the_barrier(self):
        engine = SimEngine()
        fired = []
        for when in (1.0, 2.0, 5.0, 9.999, 10.0, 10.5):
            engine.schedule(when, fired.append, when)
        engine.run_before(10.0)
        assert fired == [1.0, 2.0, 5.0, 9.999]
        assert engine.now == 9.999
        engine.run()
        assert fired == [1.0, 2.0, 5.0, 9.999, 10.0, 10.5]

    def test_split_run_matches_unsplit_run(self):
        def build():
            engine = SimEngine()
            fired = []

            def chain(n):
                fired.append((engine.now, n))
                if n:
                    engine.schedule(1.5, chain, n - 1)

            engine.schedule(0.5, chain, 12)
            return engine, fired

        whole_engine, whole = build()
        whole_engine.run()
        split_engine, split = build()
        split_engine.run_before(10.0)
        split_engine.run()
        assert split == whole

    def test_ties_at_barrier_stay_after_it(self):
        engine = SimEngine()
        fired = []
        engine.schedule(10.0, fired.append, "a")
        engine.schedule(10.0, fired.append, "b")
        engine.run_before(10.0)
        assert fired == []
        engine.run()
        assert fired == ["a", "b"]

    def test_stops_when_completion_fires_early(self):
        # run_until_complete stops mid-heap the instant the workload
        # completion fires; run_before must do the same or a split run
        # would execute leftover events an unsplit run never ran.
        engine = SimEngine()
        done = Completion(engine)
        fired = []
        engine.schedule(1.0, fired.append, 1.0)
        engine.schedule(2.0, done.succeed)
        engine.schedule(3.0, fired.append, 3.0)
        engine.run_before(10.0, completion=done)
        assert fired == [1.0]

    def test_cancelled_events_are_skipped(self):
        engine = SimEngine()
        fired = []
        handle = engine.schedule(1.0, fired.append, "cancelled")
        engine.schedule(2.0, fired.append, "kept")
        handle.cancel()
        engine.run_before(5.0)
        assert fired == ["kept"]

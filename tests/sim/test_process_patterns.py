"""Higher-level process patterns on the engine: fan-out/fan-in, chained
request/response, periodic jitter, cancellation mid-chain."""

import numpy as np
import pytest

from repro.sim.engine import SimEngine
from repro.sim.network import Network
from repro.sim.rng import RngStreams
from repro.sim.stations import FifoStation


class TestFanOutFanIn:
    def test_scatter_gather_pattern(self):
        """The migration code's pattern: fan out work, await all."""
        engine = SimEngine()
        results = []

        def worker(delay, tag):
            yield delay
            return tag

        def coordinator():
            processes = [
                engine.process(worker(d, t))
                for d, t in ((3.0, "a"), (1.0, "b"), (2.0, "c"))
            ]
            for process in processes:
                results.append((yield process.completion))

        engine.process(coordinator())
        engine.run()
        # Awaited in spawn order; total time = the slowest leg.
        assert results == ["a", "b", "c"]
        assert engine.now == pytest.approx(3.0)

    def test_pipeline_through_two_stations(self):
        engine = SimEngine()
        rng = np.random.default_rng(0)
        first = FifoStation(engine, "first", rng)
        second = FifoStation(engine, "second", rng)
        done = []

        def job(tag):
            yield first.submit(tag, 1.0)
            yield second.submit(tag, 2.0)
            done.append((tag, engine.now))

        engine.process(job("x"))
        engine.process(job("y"))
        engine.run()
        # Classic pipeline: second station is the bottleneck.
        assert done[0] == ("x", pytest.approx(3.0))
        assert done[1] == ("y", pytest.approx(5.0))


class TestTimeBehaviour:
    def test_periodic_with_jitter_stays_positive(self):
        engine = SimEngine()
        rng = np.random.default_rng(1)
        ticks = []
        stop = engine.every(1.0, lambda: ticks.append(engine.now),
                            jitter=lambda: float(rng.normal(0, 0.1)))
        engine.run_until(10.0)
        stop()
        assert len(ticks) >= 8
        assert all(b > a for a, b in zip(ticks, ticks[1:]))

    def test_network_request_latency_accumulates(self):
        engine = SimEngine()
        network = Network(engine, np.random.default_rng(0),
                          base_latency=0.01, jitter_cv=0.0)
        hops = []

        def server(completion):
            completion.succeed(engine.now)

        def chain():
            for _ in range(3):
                reply = engine.completion()
                network.deliver(server, reply)
                hops.append((yield reply))

        engine.process(chain())
        engine.run()
        assert hops == pytest.approx([0.01, 0.02, 0.03])


class TestRobustness:
    def test_callback_exception_propagates(self):
        """A crash in a completion callback surfaces, not silently lost."""
        engine = SimEngine()
        completion = engine.completion()

        def bad_callback(_c):
            raise RuntimeError("handler bug")

        completion.add_callback(bad_callback)
        engine.schedule(1.0, completion.succeed, None)
        with pytest.raises(RuntimeError, match="handler bug"):
            engine.run()

    def test_many_concurrent_processes(self):
        engine = SimEngine()
        counter = [0]

        def proc():
            yield 1.0
            counter[0] += 1

        for _ in range(500):
            engine.process(proc())
        engine.run()
        assert counter[0] == 500
        assert engine.now == pytest.approx(1.0)

    def test_rng_stream_isolation_under_station_load(self):
        """Two stations with their own streams don't perturb each other."""
        def run(extra_draws):
            engine = SimEngine()
            rngs = RngStreams(seed=4)
            a = FifoStation(engine, "a", rngs.stream("a"))
            b = FifoStation(engine, "b", rngs.stream("b"))
            if extra_draws:
                b.rng.random(100)  # unrelated consumption on b's stream
            finish = []
            from repro.sim.rng import ServiceTime
            dist = ServiceTime(0.01, cv=0.5)
            for _ in range(20):
                a.submit("x", dist)
            engine.run()
            return a.busy_time

        assert run(False) == pytest.approx(run(True))

"""Network latency model."""

import numpy as np
import pytest

from repro.sim.engine import SimEngine
from repro.sim.network import _JITTER_BATCH, Network


def make_network(engine, base=0.001, jitter=0.0):
    return Network(engine, np.random.default_rng(0),
                   base_latency=base, jitter_cv=jitter)


class TestDelivery:
    def test_deliver_after_one_hop(self):
        engine = SimEngine()
        network = make_network(engine)
        times = []
        network.deliver(lambda: times.append(engine.now))
        engine.run()
        assert times == [pytest.approx(0.001)]

    def test_deliver_after_extra_delay(self):
        engine = SimEngine()
        network = make_network(engine)
        times = []
        network.deliver_after(0.5, lambda: times.append(engine.now))
        engine.run()
        assert times == [pytest.approx(0.501)]

    def test_messages_counted(self):
        engine = SimEngine()
        network = make_network(engine)
        for _ in range(3):
            network.deliver(lambda: None)
        assert network.messages_sent == 3

    def test_jitter_produces_spread(self):
        engine = SimEngine()
        network = make_network(engine, jitter=0.5)
        samples = [network.one_way() for _ in range(2000)]
        assert np.std(samples) > 0
        assert np.mean(samples) == pytest.approx(0.001, rel=0.05)

    def test_batched_jitter_replays_scalar_draws(self):
        """one_way, deliver and deliver_after share one batched lognormal
        stream that replays scalar draws from the same seed exactly, across
        batch boundaries (draws 1024 and 2048 fall on deliver and
        deliver_after)."""
        assert 2 * _JITTER_BATCH < 3000
        engine = SimEngine()
        network = Network(engine, np.random.Generator(np.random.PCG64(123)))
        sigma2 = np.log(1.0 + 0.2 ** 2)
        mu, sigma = np.log(0.0002) - sigma2 / 2.0, np.sqrt(sigma2)
        reference = np.random.Generator(np.random.PCG64(123))
        expected = [float(reference.lognormal(mu, sigma))
                    for _ in range(3000)]
        delays: dict[int, float] = {}
        for i in range(3000):
            if i % 3 == 0:
                delays[i] = network.one_way()
            elif i % 3 == 1:
                network.deliver(lambda i=i: delays.__setitem__(i, engine.now))
            else:
                network.deliver_after(
                    0.0, lambda i=i: delays.__setitem__(i, engine.now))
        engine.run()
        assert [delays[i] for i in range(3000)] == expected

    def test_zero_jitter_deterministic(self):
        engine = SimEngine()
        network = make_network(engine, jitter=0.0)
        assert network.one_way() == network.one_way() == 0.001

    def test_zero_jitter_draws_nothing(self):
        engine = SimEngine()
        network = make_network(engine, jitter=0.0)
        state = network.rng.bit_generator.state
        times = []
        network.deliver(lambda: times.append(engine.now))
        network.deliver_after(0.5, lambda: times.append(engine.now))
        engine.run()
        assert times == [0.001, 0.501]
        assert network.rng.bit_generator.state == state

    def test_request_response_roundtrip(self):
        engine = SimEngine()
        network = make_network(engine)

        def server(completion):
            completion.succeed("pong")

        def client():
            completion = engine.completion()
            network.deliver(server, completion)
            reply = yield completion
            return reply

        process = engine.process(client())
        assert engine.run_until_complete(process.completion) == "pong"

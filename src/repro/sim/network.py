"""Network latency model.

Messages between clients, MDS ranks and OSDs take a base one-way latency
plus lognormal jitter.  Heartbeats additionally pay a pack/unpack delay,
which is what makes remote load views *stale* (paper §2.2.2, "Decentralized
MDS state").
"""

from __future__ import annotations

import itertools
from heapq import heappush
from typing import Any, Callable

import numpy as np

from .engine import SimEngine

#: Jitter samples drawn per vectorized RNG call.
_JITTER_BATCH = 1024


class Network:
    """Star network: every pair of nodes has the same latency distribution."""

    def __init__(self, engine: SimEngine, rng: np.random.Generator,
                 base_latency: float = 0.0002,
                 jitter_cv: float = 0.2) -> None:
        self.engine = engine
        self.rng = rng
        self.base_latency = float(base_latency)
        self.jitter_cv = float(jitter_cv)
        self.messages_sent = 0
        # Every one-way delay comes from this one iterator.  The "network"
        # RNG stream is consumed only here, and numpy's Generator yields the
        # same draws for one size=N call as for N scalar calls -- so
        # drawing lazily, a batch at a time, keeps the exact delay sequence.
        # The lognormal parameters only depend on the configuration.
        if self.jitter_cv > 0:
            sigma2 = np.log(1.0 + self.jitter_cv ** 2)
            mu = np.log(self.base_latency) - sigma2 / 2.0
            sigma = np.sqrt(sigma2)
            self._delays = itertools.chain.from_iterable(
                rng.lognormal(mu, sigma, size=_JITTER_BATCH).tolist()
                for _batch in itertools.repeat(None))
        else:
            self._delays = itertools.repeat(self.base_latency)

    def one_way(self) -> float:
        """Sample one one-way latency."""
        self.messages_sent += 1
        return next(self._delays)

    def deliver(self, handler: Callable[..., None], *args: Any) -> None:
        """Invoke *handler(args)* after one network hop."""
        # one_way() and engine.schedule() inlined: deliver runs two to four
        # times per metadata op, and a delay from here is never negative.
        self.messages_sent += 1
        engine = self.engine
        heappush(engine._heap, (engine.now + next(self._delays),
                                next(engine._seq), handler, args))

    def deliver_after(self, extra_delay: float,
                      handler: Callable[..., None], *args: Any) -> None:
        """Invoke *handler(args)* after one hop plus *extra_delay*."""
        self.engine.schedule(self.one_way() + extra_delay, handler, *args)

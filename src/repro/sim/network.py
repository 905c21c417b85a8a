"""Network latency model.

Messages between clients, MDS ranks and OSDs take a base one-way latency
plus lognormal jitter.  Heartbeats additionally pay a pack/unpack delay,
which is what makes remote load views *stale* (paper §2.2.2, "Decentralized
MDS state").
"""

from __future__ import annotations

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
        # Vectorized jitter: the "network" RNG stream is consumed only by
        # this class and only with these (mu, sigma), and numpy's Generator
        # yields the same draw sequence for one size=N call as for N scalar
        # calls -- so refilling a batch preserves the exact delay sequence.
        # The buffer always holds _JITTER_BATCH draws; it starts used up.
        self._jitter_buf: list[float] = []
        self._jitter_idx = _JITTER_BATCH
        # The lognormal parameters only depend on the configuration; one
        # log/sqrt at construction instead of two logs + a sqrt per message.
        if self.jitter_cv > 0:
            sigma2 = np.log(1.0 + self.jitter_cv ** 2)
            self._mu = np.log(self.base_latency) - sigma2 / 2.0
            self._sigma = np.sqrt(sigma2)
        else:
            self._mu = self._sigma = 0.0

    def _refill_jitter(self) -> float:
        buf = self.rng.lognormal(self._mu, self._sigma,
                                 size=_JITTER_BATCH).tolist()
        self._jitter_buf = buf
        self._jitter_idx = 1
        return buf[0]

    def one_way(self) -> float:
        """Sample one one-way latency."""
        self.messages_sent += 1
        if self.jitter_cv <= 0:
            return self.base_latency
        idx = self._jitter_idx
        if idx < _JITTER_BATCH:
            self._jitter_idx = idx + 1
            return self._jitter_buf[idx]
        return self._refill_jitter()

    def deliver(self, handler: Callable[..., None], *args: Any) -> None:
        """Invoke *handler(args)* after one network hop."""
        # one_way() and engine.schedule() inlined: deliver runs two to four
        # times per metadata op, and a delay from here is never negative.
        self.messages_sent += 1
        if self.jitter_cv <= 0:
            delay = self.base_latency
        else:
            idx = self._jitter_idx
            if idx < _JITTER_BATCH:
                self._jitter_idx = idx + 1
                delay = self._jitter_buf[idx]
            else:
                delay = self._refill_jitter()
        engine = self.engine
        heappush(engine._heap,
                 (engine.now + delay, next(engine._seq), handler, args))

    def deliver_after(self, extra_delay: float,
                      handler: Callable[..., None], *args: Any) -> None:
        """Invoke *handler(args)* after one hop plus *extra_delay*."""
        self.engine.schedule(self.one_way() + extra_delay, handler, *args)

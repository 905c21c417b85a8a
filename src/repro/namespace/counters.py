"""Popularity counters with exponential decay.

CephFS tempers per-directory metadata counters with an exponential decay so
that old hits fade (paper Fig 1: "smoothed with an exponential decay").
A :class:`DecayCounter` stores its value at the time of the last update and
decays lazily on read.
"""

from __future__ import annotations

import math
from dataclasses import field

from ..dataclass import dataclass

#: Op kinds tracked per dirfrag/directory -- exactly the metrics the Mantle
#: environment exposes to load formulas (paper Table 2).
OP_KINDS = ("IRD", "IWR", "READDIR", "FETCH", "STORE")

DEFAULT_HALF_LIFE = 5.0  # seconds; mirrors CephFS's mds_decay_halflife

#: Decay exponents (elapsed measured in half-lives) below this leave the
#: value unchanged to within ~7e-10 relative; skip the pow entirely.
_MIN_DECAY_RATIO = 1e-9


class DecayCounter:
    """A scalar that decays exponentially with the given half-life."""

    __slots__ = ("half_life", "_value", "_last")

    def __init__(self, half_life: float = DEFAULT_HALF_LIFE,
                 value: float = 0.0, now: float = 0.0) -> None:
        if half_life <= 0:
            raise ValueError("half-life must be positive")
        self.half_life = half_life
        self._value = value
        self._last = now

    def _decay_to(self, now: float) -> None:
        if now > self._last:
            if self._value != 0.0:
                elapsed = now - self._last
                ratio = elapsed / self.half_life
                if ratio >= _MIN_DECAY_RATIO:
                    self._value *= math.pow(0.5, ratio)
                    if self._value < 1e-12:
                        self._value = 0.0
            self._last = now

    def hit(self, now: float, amount: float = 1.0) -> None:
        """Record *amount* of activity at time *now*."""
        self._decay_to(now)
        self._value += amount

    def get(self, now: float) -> float:
        """Current decayed value."""
        self._decay_to(now)
        return self._value

    def reset(self, now: float, value: float = 0.0) -> None:
        self._value = value
        self._last = now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DecayCounter({self._value:.3f}@{self._last:.3f})"


@dataclass
class LoadCounters:
    """The five decayed op counters of one dirfrag or directory."""

    half_life: float = DEFAULT_HALF_LIFE
    counters: dict[str, DecayCounter] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for kind in OP_KINDS:
            self.counters.setdefault(kind, DecayCounter(self.half_life))

    def hit(self, kind: str, now: float, amount: float = 1.0) -> None:
        counter = self.counters.get(kind)
        if counter is None:
            raise KeyError(f"unknown op kind {kind!r}")
        # DecayCounter.hit inlined: this runs ~6 times per simulated op
        # (frag + directory + ancestors + per-rank loads), so dropping two
        # call frames per hit is measurable.  Identical arithmetic.
        last = counter._last
        if now > last:
            value = counter._value
            if value != 0.0:
                ratio = (now - last) / counter.half_life
                if ratio >= _MIN_DECAY_RATIO:
                    value *= math.pow(0.5, ratio)
                    if value < 1e-12:
                        value = 0.0
                    counter._value = value
            counter._last = now
        counter._value += amount

    def get(self, kind: str, now: float) -> float:
        return self.counters[kind].get(now)

    def snapshot(self, now: float) -> dict[str, float]:
        """All five decayed values at *now* (the balancer's view).

        Counters that were last touched at the same instant share the same
        decay factor, so the common steady state (all five decayed together
        by a previous snapshot) costs one ``pow`` per read instead of five.
        The pow arguments are exactly those the per-counter path would use,
        so the values are bit-identical.
        """
        out: dict[str, float] = {}
        factors: dict[float, float] = {}
        for kind, counter in self.counters.items():
            value = counter._value
            last = counter._last
            if now > last:
                if value != 0.0:
                    factor = factors.get(last)
                    if factor is None:
                        ratio = (now - last) / counter.half_life
                        factor = (math.pow(0.5, ratio)
                                  if ratio >= _MIN_DECAY_RATIO else 1.0)
                        factors[last] = factor
                    if factor != 1.0:
                        value *= factor
                        if value < 1e-12:
                            value = 0.0
                        counter._value = value
                counter._last = now
            out[kind] = value
        return out

    def reset(self, now: float) -> None:
        for counter in self.counters.values():
            counter.reset(now)

    def absorb(self, other: "LoadCounters", now: float,
               fraction: float = 1.0) -> None:
        """Add *fraction* of *other*'s current values (used on migration:
        the importer inherits the popularity of what it imported)."""
        for kind in OP_KINDS:
            amount = other.get(kind, now) * fraction
            if amount > 0:
                self.counters[kind].hit(now, amount)

    def scale(self, factor: float, now: float) -> None:
        """Multiply all counters by *factor* (exporter sheds popularity)."""
        for counter in self.counters.values():
            counter.reset(now, counter.get(now) * factor)

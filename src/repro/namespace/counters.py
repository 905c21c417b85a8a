"""Popularity counters with exponential decay, kept in forward-decay form.

CephFS tempers per-directory metadata counters with an exponential decay so
that old hits fade (paper Fig 1: "smoothed with an exponential decay").
Decay is linear, so a counter stores its hits weighted *forward* against a
landmark time L (Cormode et al., "Forward Decay", ICDE 2009): a hit of
*amount* at t adds ``amount * 2**((t - L) / half_life)`` -- one multiply-add
-- and a read at *now* scales by ``0.5**((now - L) / half_life)``, touching
nothing.  One :class:`DecayClock` per cluster computes that weight once per
distinct hit time and moves L forward once a hit lands
:data:`REANCHOR_HALF_LIVES` half-lives after it; a counter re-expresses its
sums against the new landmark the next time it is hit.
"""

from __future__ import annotations

import math

#: Op kinds tracked per dirfrag/directory -- exactly the metrics the Mantle
#: environment exposes to load formulas (paper Table 2).
OP_KINDS = ("IRD", "IWR", "READDIR", "FETCH", "STORE")

DEFAULT_HALF_LIFE = 5.0  # seconds; mirrors CephFS's mds_decay_halflife

#: The landmark moves once a hit lands this many half-lives after it.
REANCHOR_HALF_LIVES = 64.0

#: Decayed values below this read as zero.
_ZERO = 1e-12


class DecayClock:
    """The landmark and hit weight shared by one cluster's counters."""

    __slots__ = ("half_life", "landmark", "now", "gain", "_read")

    def __init__(self, half_life: float = DEFAULT_HALF_LIFE) -> None:
        if half_life <= 0:
            raise ValueError("half-life must be positive")
        self.half_life = half_life
        self.landmark = 0.0
        #: The last hit time and its weight ``2**((now - landmark) / hl)``.
        self.now = 0.0
        self.gain = 1.0
        #: ``(landmark, now, factor)`` of the last read; reads do not touch
        #: the hit weight, so reading never moves the landmark.
        self._read = (0.0, 0.0, 1.0)

    def advance(self, now: float) -> None:
        """Make :attr:`gain` the weight of a hit at *now*, first moving the
        landmark to *now* if it lies too many half-lives behind."""
        if now - self.landmark > REANCHOR_HALF_LIVES * self.half_life:
            self.landmark = now
        self.now = now
        self.gain = math.pow(2.0, (now - self.landmark) / self.half_life)

    def decay(self, landmark: float, now: float) -> float:
        """``0.5**((now - landmark) / half_life)``: a sum kept against
        *landmark*, scaled by this, is its value at *now*."""
        read = self._read
        if read[1] != now or read[0] != landmark:
            read = self._read = (landmark, now, math.pow(
                0.5, (now - landmark) / self.half_life))
        return read[2]


class LoadCounters:
    """The five decayed op counters of one dirfrag or MDS rank.

    ``sums[kind]`` is the forward-decayed sum against :attr:`landmark`.
    The request path updates it inline; :meth:`hit` is the same arithmetic.
    """

    __slots__ = ("clock", "landmark", "sums")

    def __init__(self, clock: DecayClock) -> None:
        self.clock = clock
        self.reset()

    def rebase(self) -> None:
        """Re-express the sums against the clock's current landmark."""
        clock = self.clock
        factor = math.pow(2.0, (self.landmark - clock.landmark)
                          / clock.half_life)
        sums = self.sums
        # A sum below _ZERO against the newest landmark reads as zero at
        # every later instant; dropping it keeps denormals out.
        for kind, value in sums.items():
            value *= factor
            sums[kind] = value if value >= _ZERO else 0.0
        self.landmark = clock.landmark

    def hit(self, kind: str, now: float, amount: float = 1.0) -> None:
        """Record *amount* of *kind* activity at time *now*."""
        clock = self.clock
        if now != clock.now:
            clock.advance(now)
        if self.landmark != clock.landmark:
            self.rebase()
        self.sums[kind] += amount * clock.gain

    def snapshot(self, now: float) -> dict[str, float]:
        """All five decayed values at *now* (the balancer's view)."""
        factor = self.clock.decay(self.landmark, now)
        out: dict[str, float] = {}
        for kind, value in self.sums.items():
            value *= factor
            out[kind] = value if value >= _ZERO else 0.0
        return out

    def reset(self) -> None:
        self.landmark = self.clock.landmark
        self.sums = dict.fromkeys(OP_KINDS, 0.0)

    def absorb(self, other: "LoadCounters", now: float,
               fraction: float = 1.0) -> None:
        """Add *fraction* of *other*'s values at *now* (a split hands each
        child dirfrag its share of the parent frag's popularity)."""
        for kind, value in other.snapshot(now).items():
            if value > 0:
                self.hit(kind, now, value * fraction)

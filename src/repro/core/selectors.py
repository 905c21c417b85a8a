"""Dirfrag selectors (paper §3.2, "How Much").

When Mantle walks the namespace deciding which dirfrags/subtrees to ship
toward a target load, it runs every strategy in the policy's
``mds_bal_howmuch`` list and keeps the one whose shipped load lands closest
to the target.  The paper's §2.2.3 example (dirfrag loads 12.7, 13.3, 13.3,
14.6, 15.7, 13.5, 13.7, 14.6 against target 55.6) is reproduced in the
tests: ``big_small`` wins.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from ..dataclass import dataclass

Unit = TypeVar("Unit")
#: A selector takes [(unit, load)] and a target load, returns chosen units.
SelectorFn = Callable[[Sequence[tuple[Unit, float]], float],
                      list[tuple[Unit, float]]]

EPSILON = 1e-9


def _take_until(ordered: list[tuple[Unit, float]],
                target: float) -> list[tuple[Unit, float]]:
    """Take units in order until the cumulative load reaches the target."""
    chosen: list[tuple[Unit, float]] = []
    shipped = 0.0
    for unit, load in ordered:
        if load <= EPSILON:
            continue
        if shipped >= target - EPSILON:
            break
        chosen.append((unit, load))
        shipped += load
    return chosen


def big_first(units: Sequence[tuple[Unit, float]],
              target: float) -> list[tuple[Unit, float]]:
    """Biggest dirfrags until reaching the target (the CephFS default)."""
    ordered = sorted(units, key=lambda pair: pair[1], reverse=True)
    return _take_until(ordered, target)


def small_first(units: Sequence[tuple[Unit, float]],
                target: float) -> list[tuple[Unit, float]]:
    """Smallest dirfrags until reaching the target."""
    ordered = sorted(units, key=lambda pair: pair[1])
    return _take_until(ordered, target)


def big_small(units: Sequence[tuple[Unit, float]],
              target: float) -> list[tuple[Unit, float]]:
    """Alternate sending big and small dirfrags."""
    by_size = sorted(units, key=lambda pair: pair[1], reverse=True)
    interleaved: list[tuple[Unit, float]] = []
    low, high = 0, len(by_size) - 1
    take_big = True
    while low <= high:
        if take_big:
            interleaved.append(by_size[low])
            low += 1
        else:
            interleaved.append(by_size[high])
            high -= 1
        take_big = not take_big
    return _take_until(interleaved, target)


def half(units: Sequence[tuple[Unit, float]],
         target: float) -> list[tuple[Unit, float]]:
    """Send the first half of the dirfrags (ignores the target)."""
    usable = [pair for pair in units if pair[1] > EPSILON]
    return usable[: (len(usable) + 1) // 2]


REGISTRY: dict[str, SelectorFn] = {
    "big_first": big_first,
    "small_first": small_first,
    "big_small": big_small,
    "half": half,
    # Paper Listing 4 uses the short names.
    "big": big_first,
    "small": small_first,
}


def get_selector(name: str) -> SelectorFn:
    try:
        return REGISTRY[name]
    except KeyError as exc:
        raise KeyError(
            f"unknown dirfrag selector {name!r}; "
            f"known: {sorted(REGISTRY)}"
        ) from exc


def register_selector(name: str, fn: SelectorFn) -> None:
    """Add a custom dirfrag selector (usable from any policy by name)."""
    if name in REGISTRY:
        raise ValueError(f"selector {name!r} already registered")
    REGISTRY[name] = fn


@dataclass(frozen=True)
class SelectorOutcome:
    """Result of running one selector against a unit list."""

    name: str
    chosen: tuple
    shipped: float
    distance: float


def choose_best(names: Sequence[str],
                units: Sequence[tuple[Unit, float]],
                target: float) -> SelectorOutcome:
    """Run every named selector; keep the one closest to the target.

    Mirrors the paper: "the balancer runs all the strategies, selecting the
    dirfrag selector that gets closest to the target load".  Empty
    selections lose to any non-empty one when the target is positive.
    """
    if not names:
        raise ValueError("howmuch policy lists no selectors")
    best: SelectorOutcome | None = None
    for name in names:
        selector = get_selector(name)
        chosen = selector(units, target)
        shipped = sum(load for _unit, load in chosen)
        outcome = SelectorOutcome(
            name=name,
            chosen=tuple(chosen),
            shipped=shipped,
            distance=abs(target - shipped),
        )
        if best is None:
            best = outcome
            continue
        # Prefer smaller distance; prefer shipping something over nothing.
        if (outcome.chosen and not best.chosen) or (
            bool(outcome.chosen) == bool(best.chosen)
            and outcome.distance < best.distance - EPSILON
        ):
            best = outcome
    assert best is not None
    return best

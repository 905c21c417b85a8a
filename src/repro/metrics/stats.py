"""Small statistics helpers used by reports and benchmarks."""

from __future__ import annotations

import numpy as np

from ..dataclass import dataclass


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    p50: float
    p95: float
    p99: float
    maximum: float

    def __str__(self) -> str:
        return (f"n={self.count} mean={self.mean:.4g} std={self.std:.4g} "
                f"p50={self.p50:.4g} p95={self.p95:.4g} p99={self.p99:.4g}")


def summarize(samples) -> Summary:
    data = np.asarray(list(samples), dtype=float)
    if data.size == 0:
        return Summary(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return Summary(
        count=int(data.size),
        mean=float(data.mean()),
        std=float(data.std(ddof=1)) if data.size > 1 else 0.0,
        minimum=float(data.min()),
        p50=float(np.percentile(data, 50)),
        p95=float(np.percentile(data, 95)),
        p99=float(np.percentile(data, 99)),
        maximum=float(data.max()),
    )


def speedup(baseline: float, measured: float) -> float:
    """Relative speedup of *measured* over *baseline* runtimes.

    Positive = faster than baseline (e.g. ``0.10`` = 10 % speedup), matching
    how the paper's Fig 8 reports per-client speedup/slowdown.
    """
    if measured <= 0:
        raise ValueError("measured runtime must be positive")
    return baseline / measured - 1.0


def coefficient_of_variation(samples) -> float:
    data = np.asarray(list(samples), dtype=float)
    if data.size < 2 or data.mean() == 0:
        return 0.0
    return float(data.std(ddof=1) / data.mean())

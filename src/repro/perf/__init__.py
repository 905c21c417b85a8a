"""Performance harness: parallel sweeps, result cache, profiling.

The sweep runner fans (seed x policy) experiments over forked children
(:mod:`repro.perf.grid`): cells that differ only in policy share one
simulation up to the first heartbeat, and at most ``jobs`` simulations
run at once, with per-run output byte-identical to a serial cold run.
Simulator throughput is measured end to end by the scenario benchmark
in ``perfbench/``.
"""

from .profiling import profiled
from .sweep import RunSpec, build_specs, format_report, run_sweep

__all__ = [
    "RunSpec",
    "build_specs",
    "format_report",
    "profiled",
    "run_sweep",
]

"""Performance harness: parallel sweeps, warm starts, result cache, profiling.

The sweep runner fans (seed x policy) experiments over worker processes
while keeping per-run output byte-identical to a serial run.  Simulator
throughput is measured end to end by the scenario benchmark in
``perfbench/``.
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

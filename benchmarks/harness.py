"""Shared benchmark harness.

Every benchmark regenerates one table or figure from the paper's evaluation
section: it runs the relevant simulated experiment(s), prints the same
rows/series the paper reports, asserts the *shape* claims (who wins, by
roughly what factor, where crossovers fall), and writes a text report under
``benchmarks/results/``.

Scale: ``REPRO_BENCH_SCALE`` (default 1.0) scales the workload sizes.  The
default reproduces the paper's 100 k-files-per-client runs; smaller values
run faster but let balancing events dominate a larger fraction of the run,
so shape assertions may loosen below ~0.5.
"""

from __future__ import annotations

import os
from pathlib import Path

try:
    import numpy as np
except ImportError:  # pragma: no cover - numpy ships with the simulator
    np = None

from repro.config import ClusterConfig

#: Workload scale factor (1.0 = the paper's sizes).
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

#: Paper: 100,000 creates per client (Figs 4, 7, 8).
FILES_PER_CLIENT = max(2000, int(100_000 * SCALE))
#: Paper: directories fragment at 50,000 entries (§4.1).
DIR_SPLIT_SIZE = max(1000, int(50_000 * SCALE))
#: Compile workload scale (10 -> ~84k metadata ops per client, a job a few
#: minutes long at the calibrated service times, like the paper's).
COMPILE_SCALE = max(1.0, 10 * SCALE)
#: Compile clients do real computation between metadata ops.
COMPILE_THINK = 0.0002

RESULTS_DIR = Path(__file__).parent / "results"


def base_config(**overrides) -> ClusterConfig:
    defaults = dict(dir_split_size=DIR_SPLIT_SIZE, seed=7)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def compile_config(**overrides) -> ClusterConfig:
    defaults = dict(seed=3, client_think_time=COMPILE_THINK)
    defaults.update(overrides)
    return ClusterConfig(**defaults)


def write_report(name: str, lines: list[str]) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    text = "\n".join(lines) + "\n"
    path.write_text(text)
    print()
    print(text)
    return path


def run_cells(cells, max_time: float = 36_000.0):
    """Run a named grid of benchmark cells: ``{name: SimReport}``.

    *cells* is a list of ``(name, config, workload_factory,
    policy_factory-or-None)``.  Cells run through the forked grid runner
    (:mod:`repro.perf.grid`), where cells that differ only in policy
    share the simulation up to the first heartbeat, or through plain
    ``run_experiment`` for a lone cell or where ``os.fork`` is
    unavailable.  Reports are byte-identical to cold runs either way.
    """
    from repro.cluster import SimulatedCluster, run_experiment
    from repro.perf.grid import fork_supported, run_forked

    def cold(cell):
        _name, config, workload_factory, policy_factory = cell
        return run_experiment(config, workload_factory(),
                              policy=(policy_factory()
                                      if policy_factory else None),
                              max_time=max_time)

    def prefix_key(cell):
        _name, config, workload_factory, _policy_factory = cell
        workload = workload_factory()
        workload_id = tuple(sorted((key, repr(value)) for key, value
                                   in vars(workload).items()))
        return (repr(config), type(workload).__name__, workload_id,
                max_time)

    def begin(cell):
        _name, config, workload_factory, _policy_factory = cell
        cluster = SimulatedCluster(config)
        cluster.begin_workload(workload_factory(), max_time=max_time)
        return cluster

    def finish(cluster, cell):
        policy_factory = cell[3]
        if policy_factory is not None:
            cluster.set_policy(policy_factory())
        return cluster.finish_workload()

    names = [cell[0] for cell in cells]
    if len(set(names)) != len(names):
        raise ValueError("cell names must be unique")
    if len(cells) > 1 and fork_supported():
        reports = run_forked(cells, key=prefix_key, begin=begin,
                             finish=finish, cold=cold)
    else:
        reports = [cold(cell) for cell in cells]
    return dict(zip(names, reports))


def speedup_pct(baseline: float, measured: float) -> float:
    """Percent speedup of *measured* over *baseline* (positive = faster)."""
    return (baseline / measured - 1.0) * 100.0


def sparkline(series, width: int = 60) -> str:
    """Compress a series into a textual sparkline for timeline figures."""
    if np is None:  # pragma: no cover - numpy ships with the simulator
        raise RuntimeError("sparkline requires numpy")
    data = np.asarray(series, dtype=float)
    if data.size == 0:
        return ""
    if data.size > width:
        bins = np.array_split(data, width)
        data = np.array([chunk.mean() for chunk in bins])
    peak = data.max() or 1.0
    glyphs = " .:-=+*#%@"
    return "".join(
        glyphs[min(len(glyphs) - 1, int(value / peak * (len(glyphs) - 1)))]
        for value in data
    )

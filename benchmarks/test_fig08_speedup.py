"""Figure 8: per-client speedup/slowdown of spilling vs 1 MDS.

Paper numbers for 4 clients creating into one shared directory:
spilling to 2 MDS ~ +10%; unevenly to 3 ~ -5%; unevenly to 4 ~ -20%;
evenly to 4 ~ up to -40% (but most stable); Fill & Spill +6..9%, with
spilling 25% of the load beating 10% (§4.2).
"""

from functools import partial

from repro.core.policies import (
    fill_spill_policy,
    greedy_spill_even_policy,
    greedy_spill_policy,
)
from repro.workloads import CreateWorkload

from harness import (
    FILES_PER_CLIENT,
    base_config,
    run_cells,
    speedup_pct,
    write_report,
)

CLIENTS = 4
FILL_CPU_THRESHOLD = 80.0


def run_grid():
    def workload():
        return CreateWorkload(num_clients=CLIENTS,
                              files_per_client=FILES_PER_CLIENT,
                              shared_dir=True)

    # The four 4-MDS cells share their pre-heartbeat simulation prefix.
    return run_cells([
        ("1 MDS (baseline)",
         base_config(num_mds=1, num_clients=CLIENTS), workload, None),
        ("greedy spill -> 2 MDS",
         base_config(num_mds=2, num_clients=CLIENTS), workload,
         greedy_spill_policy),
        ("greedy spill -> 3 MDS (uneven)",
         base_config(num_mds=3, num_clients=CLIENTS), workload,
         greedy_spill_policy),
        ("greedy spill -> 4 MDS (uneven)",
         base_config(num_mds=4, num_clients=CLIENTS), workload,
         greedy_spill_policy),
        ("greedy spill -> 4 MDS (even)",
         base_config(num_mds=4, num_clients=CLIENTS), workload,
         greedy_spill_even_policy),
        ("fill & spill 25%",
         base_config(num_mds=4, num_clients=CLIENTS), workload,
         partial(fill_spill_policy, spill_fraction=0.25,
                 cpu_threshold=FILL_CPU_THRESHOLD)),
        ("fill & spill 10%",
         base_config(num_mds=4, num_clients=CLIENTS), workload,
         partial(fill_spill_policy, spill_fraction=0.10,
                 cpu_threshold=FILL_CPU_THRESHOLD)),
    ])


def test_fig08_speedup(benchmark):
    grid = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    base = grid["1 MDS (baseline)"].makespan
    paper = {
        "greedy spill -> 2 MDS": "+10%",
        "greedy spill -> 3 MDS (uneven)": "-5%",
        "greedy spill -> 4 MDS (uneven)": "-20%",
        "greedy spill -> 4 MDS (even)": "-40%",
        "fill & spill 25%": "+6..9%",
        "fill & spill 10%": "< fill&spill 25%",
    }
    lines = ["Figure 8: speedup over 1 MDS (4 clients, shared directory)",
             f"{'configuration':<34} {'makespan':>9} {'speedup':>9} "
             f"{'paper':>16}"]
    speedups = {}
    for name, report in grid.items():
        pct = speedup_pct(base, report.makespan)
        speedups[name] = pct
        lines.append(f"{name:<34} {report.makespan:>8.1f}s {pct:>+8.1f}% "
                     f"{paper.get(name, ''):>16}")

    # Shape assertions (signs, ordering, crossover), per the paper.
    assert speedups["greedy spill -> 2 MDS"] > 5.0
    assert speedups["greedy spill -> 4 MDS (uneven)"] < -3.0
    assert speedups["greedy spill -> 4 MDS (even)"] < -25.0
    # Even 4-way spill is the worst config.
    assert speedups["greedy spill -> 4 MDS (even)"] == min(speedups.values())
    # 3-way sits between 2-way (good) and 4-way (bad).
    assert (speedups["greedy spill -> 2 MDS"]
            > speedups["greedy spill -> 3 MDS (uneven)"]
            > speedups["greedy spill -> 4 MDS (uneven)"])
    # Fill & Spill beats the baseline; 25% spill beats 10% (§4.2).
    assert speedups["fill & spill 25%"] > 3.0
    assert speedups["fill & spill 25%"] > speedups["fill & spill 10%"]
    # Even spill is the most balanced (lowest per-rank load spread) even
    # though it is slowest -- the paper's stability observation.
    import numpy as np

    def spread_cv(report):
        served = [m.ops_served for m in report.metrics.per_mds.values()]
        return float(np.std(served) / np.mean(served))

    assert (spread_cv(grid["greedy spill -> 4 MDS (even)"])
            < spread_cv(grid["greedy spill -> 4 MDS (uneven)"]))

    lines.append("shape: +2MDS, -3/4 uneven, worst 4-even, fill&spill wins,"
                 " 25% > 10% OK")
    write_report("fig08_speedup", lines)

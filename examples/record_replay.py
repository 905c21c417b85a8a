#!/usr/bin/env python
"""Record a workload once, replay it against different balancers.

The paper's methodology is to compare *strategies* on the same system and
the same traffic.  This example records every metadata op of a mixed
workload (a checkpoint/restart job), saves the trace, then replays the
identical op stream under three different balancers and compares.

Run:  python examples/record_replay.py
"""

import tempfile
from pathlib import Path

from repro import ClusterConfig, SimulatedCluster, run_experiment
from repro.core.policies import adaptable_policy, greedy_spill_policy
from repro.metrics import load_ops, record_run, replay_workload, save_ops
from repro.workloads import CheckpointWorkload


def main() -> None:
    config = ClusterConfig(num_mds=1, num_clients=4,
                           dir_split_size=20_000, seed=7)
    workload = CheckpointWorkload(num_clients=4, rounds=4,
                                  files_per_round=10_000)

    print("== recording the baseline run (1 MDS) ==")
    baseline = record_run(SimulatedCluster(config), workload)
    print(baseline.summary_line())
    ops = baseline.ops
    mean_ms = 1e3 * sum(op.latency for op in ops) / len(ops)
    print(f"captured {len(ops)} ops from "
          f"{len({op.client_id for op in ops})} clients: "
          f"{sum(1 for op in ops if op.forwards)} forwarded, "
          f"{sum(1 for op in ops if op.error)} errors, "
          f"mean latency {mean_ms:.3f} ms")

    with tempfile.TemporaryDirectory() as tmp:
        trace_path = save_ops(ops, Path(tmp) / "checkpoint.jsonl")
        print(f"trace saved ({trace_path.stat().st_size // 1024} KiB)")
        reloaded = load_ops(trace_path)

    print()
    print("== replaying the identical ops under different balancers ==")
    for num_mds, policy, label in (
        (2, greedy_spill_policy(), "greedy spill, 2 MDS"),
        (3, adaptable_policy(), "adaptable, 3 MDS"),
    ):
        report = run_experiment(
            ClusterConfig(num_mds=num_mds, num_clients=4,
                          dir_split_size=20_000, seed=7),
            replay_workload(reloaded),
            policy=policy,
        )
        speedup = baseline.makespan / report.makespan - 1
        print(f"{label:<22} makespan={report.makespan:6.2f}s "
              f"({speedup:+.1%} vs baseline) "
              f"migrations={report.total_migrations} "
              f"per_mds={report.per_mds_ops()}")


if __name__ == "__main__":
    main()

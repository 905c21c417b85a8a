"""Golden report digests: small runs of the four benchmark scenario shapes.

Each case is a scaled-down copy of one benchmark workload (shared-dir
creates, Zipf reads, compile, 20-rank scale-out) with 0.5 s heartbeats,
so every run fragments, migrates, forwards and fetches within about two
simulated seconds.  The digest hashes the summary line, every latency at
full precision (``float.hex``), the per-rank op counts and the balancer
decision list.  Any change to simulated results -- event order, float
arithmetic, RNG draws -- changes it.

A deliberate re-baseline prints the current digests with::

    PYTHONPATH=src python tests/integration/test_golden_digests.py
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cluster import SimulatedCluster
from repro.config import ClusterConfig
from repro.core.policies import STOCK_POLICIES
from repro.workloads import CompileWorkload, CreateWorkload, ZipfWorkload

HEARTBEAT = 0.5

GOLDEN = {
    "create_shared":
        "998a5ad8f8a2952dc1d530fc38d32b265790bcc8d23986ae1e99df396b4382a5",
    "zipf_read":
        "e57f4f6d21ac5133a3559ce957cc7e7e43e90e2f3997bd8556192af7117fc6b8",
    "compile":
        "02b039997a8615b4189a2e157d49daf54122cdf0f2859f8aef2fb234ff940862",
    "scale20":
        "f3a5c57b6b5a99faf5973508d4f9754e18b3312111f75ccc186cd858c352356c",
}


def scenario(name: str, seed: int = 1):
    """``(config, workload, policy name)`` of one scenario shape."""
    if name == "create_shared":
        config = ClusterConfig(num_mds=2, num_clients=4, seed=seed,
                               dir_split_size=1000,
                               heartbeat_interval=HEARTBEAT)
        workload = CreateWorkload(num_clients=4, files_per_client=2000,
                                  shared_dir=True)
        return config, workload, "greedy-spill"
    if name == "zipf_read":
        config = ClusterConfig(num_mds=4, num_clients=4, seed=seed,
                               heartbeat_interval=HEARTBEAT)
        workload = ZipfWorkload(num_clients=4, num_files=4000,
                                ops_per_client=2000, alpha=1.1,
                                write_fraction=0.1, num_dirs=16, seed=seed)
        return config, workload, "greedy-spill"
    if name == "compile":
        config = ClusterConfig(num_mds=3, num_clients=5, seed=seed,
                               client_think_time=0.0002,
                               heartbeat_interval=HEARTBEAT)
        workload = CompileWorkload(num_clients=5, scale=0.25, seed=seed)
        return config, workload, "adaptable"
    if name == "scale20":
        config = ClusterConfig(num_mds=20, num_clients=20, seed=seed,
                               dir_split_size=10**9, client_think_time=0.02,
                               heartbeat_interval=HEARTBEAT)
        workload = CreateWorkload(num_clients=20, files_per_client=100)
        return config, workload, "adaptable"
    raise ValueError(f"unknown scenario {name!r}")


def report_digest(report) -> str:
    digest = hashlib.sha256()
    digest.update(report.summary_line().encode())
    for latency in report.metrics.latencies.all_latencies().tolist():
        digest.update(float.hex(latency).encode())
    digest.update(repr(report.per_mds_ops()).encode())
    for d in report.decisions:
        digest.update(repr((d.time, d.rank, d.went, sorted(d.targets.items()),
                            d.exports, d.error, d.skipped, d.fallback,
                            d.probation, d.vetoes)).encode())
    return digest.hexdigest()


def run_digest(name: str) -> str:
    config, workload, policy = scenario(name)
    cluster = SimulatedCluster(config)
    cluster.set_policy(STOCK_POLICIES[policy]())
    return report_digest(cluster.run_workload(workload))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest_matches_golden(name):
    assert run_digest(name) == GOLDEN[name]


if __name__ == "__main__":
    for scenario_name in sorted(GOLDEN):
        print(f"    {scenario_name!r}: {run_digest(scenario_name)!r},")

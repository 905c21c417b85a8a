"""Deterministic work counters on the per-op request path.

Each metadata op resolves its parent directory and dirfrag once and
carries them down the MDS path, and closed-loop clients are reply
callbacks rather than coroutines.  Call counts under ``cProfile`` do not
depend on the host, so these guards fail as soon as a change adds a hop
back: a second path resolution, a per-op frag lookup, or a client
coroutine resume.
"""

from __future__ import annotations

import cProfile
import os
import pstats

import pytest

from repro.cluster import SimulatedCluster
from repro.config import ClusterConfig
from repro.core.policies import STOCK_POLICIES
from repro.workloads import CreateWorkload


def profiled_run(policy: str | None):
    """A small shared-directory create run (4 clients, 2 ranks, one split)
    under cProfile: ``(calls by (file, function), cluster, ops)``."""
    config = ClusterConfig(num_mds=2, num_clients=4, seed=3,
                           dir_split_size=1000, heartbeat_interval=0.5)
    workload = CreateWorkload(num_clients=4, files_per_client=1000,
                              shared_dir=True)
    cluster = SimulatedCluster(config)
    if policy is not None:
        cluster.set_policy(STOCK_POLICIES[policy]())
    profile = cProfile.Profile()
    profile.enable()
    cluster.run_workload(workload)
    profile.disable()
    calls: dict[tuple[str, str], int] = {}
    for (filename, _line, func), stats in pstats.Stats(profile).stats.items():
        parts = filename.replace(os.sep, "/").rsplit("/", 2)
        key = ("/".join(parts[-2:]), func)
        calls[key] = calls.get(key, 0) + stats[1]
    return calls, cluster, workload.total_ops()


@pytest.fixture(scope="module")
def balanced_run():
    return profiled_run("greedy-spill")


def test_each_op_resolves_its_path_and_dirfrag_once(balanced_run):
    calls, cluster, ops = balanced_run
    # The run splits the directory and spreads dirfrags over both ranks,
    # so forwards and re-resolutions after authority changes are in it.
    assert sum(mds.metrics.fragmentations for mds in cluster.mdss) == 1
    assert sum(mds.migrator.exports_completed for mds in cluster.mdss) > 0
    assert calls[("namespace/directory.py", "frag_for_name")] / ops <= 1.1
    assert calls[("namespace/tree.py", "resolve_dir")] / ops <= 1.1


def test_only_migrations_run_as_processes(balanced_run):
    calls, cluster, _ops = balanced_run
    exports = sum(mds.migrator.exports_started for mds in cluster.mdss)
    assert exports > 0
    assert calls.get(("sim/engine.py", "process"), 0) == exports


def test_client_ops_resume_no_coroutines():
    calls, cluster, ops = profiled_run(None)
    assert sum(client.ops_completed for client in cluster.clients) == ops
    assert calls.get(("sim/engine.py", "_resume"), 0) == 0

"""Memory retained per created file.

A create run never repeats a path, so anything memoized per path grows
with the file count.  The namespace itself (inode, dirfrag entry) and the
per-op latency record are what a created file should cost; path caches
on top of that roughly tripled it.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.cluster import SimulatedCluster
from repro.config import ClusterConfig
from repro.workloads import CreateWorkload

#: Retained bytes per created file: ~400 measured (CPython 3.11, 64-bit)
#: when the bound was set, +50%.
MAX_RETAINED_BYTES_PER_FILE = 600


def test_shared_create_retains_little_per_file():
    config = ClusterConfig(num_mds=2, num_clients=4, seed=3,
                           dir_split_size=1000, heartbeat_interval=0.5)
    workload = CreateWorkload(num_clients=4, files_per_client=1000,
                              shared_dir=True)
    cluster = SimulatedCluster(config)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cluster.run_workload(workload)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    files = workload.total_ops()
    assert cluster.namespace.inode_count >= files
    assert retained / files <= MAX_RETAINED_BYTES_PER_FILE

"""One iteration of a benchmark workload, in a fresh interpreter.

``run.py`` starts this script once per iteration, so every iteration pays
the same cold costs a user's run pays (module-level memo caches, lazy
policy parse and lint) and reports its own peak RSS.  The iteration drives
the simulator from outside through its public staged API:

    SimulatedCluster.build_namespace + workload.prepare   (prepare_s)
    SimulatedCluster(config, namespace=...)               (build_s)
    set_policy(...)  -- lint + compile                    (policy_s)
    begin_workload(skip_prepare=True)                     (build_s)
    finish_workload()                                     (finish_s)

and prints one JSON object: host timings, the simulated end-to-end
figures, work counters read from public attributes, a sha256 digest of the
report, and -- with ``--trace 1`` -- a cProfile of setup plus
``finish_workload`` grouped by ``repro.<package>``.

An untraced iteration also records how fast the host ran it.  Every 5 ms
of ``finish_workload`` a timer signal records the host clock and the
simulated clock (``engine.now``), and every 10 ms it also times one of two
fixed reference loops (``ReferenceLoops``), in turn; the loops' own time
is taken out of the recorded host clock.  The loops are also timed before
and after setup.  The handler only reads simulator state, so the run is
unchanged.

    python3 perfbench/worker.py --workload create_shared --seed 1 --trace 0
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import json
import os
import pstats
import random
import resource
import signal
import sys
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REPRO_PREFIX = str(SRC / "repro") + os.sep

#: repro package (or top-level module) -> reported layer.  ``luapolicy``
#: and ``core`` form the policy layer; every other repro module is
#: ``rest``; code outside repro (stdlib, numpy, builtins) is ``other``.
LAYER_OF = {
    "sim": "sim", "namespace": "namespace", "mds": "mds",
    "clients": "clients", "rados": "rados", "luapolicy": "policy",
    "core": "policy", "metrics": "metrics", "workloads": "workloads",
}
LAYERS = ("sim", "namespace", "mds", "clients", "rados", "policy",
          "metrics", "workloads", "rest", "other")

#: (file under src/repro, function) -> name of its per-op call count.
TRACKED_CALLS = {
    ("namespace/tree.py", "record_hit"): "record_hit",
    ("namespace/directory.py", "frag_for_name"): "frag_for_name",
    ("namespace/tree.py", "resolve_dir"): "resolve_dir",
}
BALANCER_TICK = ("core/balancer.py", "tick")

#: Host seconds between progress samples of an untraced iteration; every
#: ``LOOP_EVERY``-th sample also times a reference loop, the two loops
#: taking turns.
SAMPLE_INTERVAL_S = 0.005
LOOP_EVERY = 2
#: Reference-loop timings taken before and after setup, of each loop.
SETUP_LOOPS = 8

#: Workload sizes.  ``full`` is what the benchmark measures.  ``tiny`` runs
#: the same code paths in well under a second, for the self-tests; it ends
#: before heartbeats can rebalance anything.
SIZES = {
    "full": {"create_files": 16_000, "zipf_files": 40_000,
             "zipf_ops": 20_000, "compile_scale": 2.0, "scale20_files": 3_000},
    "tiny": {"create_files": 1_500, "zipf_files": 2_000,
             "zipf_ops": 1_000, "compile_scale": 0.25, "scale20_files": 60},
}
WORKLOADS = ("create_shared", "zipf_read", "compile", "scale20")


def scenario(name: str, seed: int, size: str):
    """``(config, workload, policy name)`` of one benchmark workload.

    All workloads are closed loop with one outstanding request per client
    (``client_pipeline=1``, the config default).
    """
    from repro.config import ClusterConfig
    from repro.workloads import CompileWorkload, CreateWorkload, ZipfWorkload

    sizes = SIZES[size]
    if name == "create_shared":
        # Fig 8's 2-rank greedy-spill cell.  The directory fragments at half
        # a client's files; 2 s heartbeats let greedy-spill export dirfrags
        # early enough that most of the run is spread over both ranks.
        files = sizes["create_files"]
        config = ClusterConfig(num_mds=2, num_clients=4, seed=seed,
                               dir_split_size=files // 2,
                               heartbeat_interval=2.0)
        workload = CreateWorkload(num_clients=4, files_per_client=files,
                                  shared_dir=True)
        return config, workload, "greedy-spill"
    if name == "zipf_read":
        # 90% stat / 10% create, Zipf(1.1) over 16 pre-populated dirs.
        config = ClusterConfig(num_mds=4, num_clients=4, seed=seed)
        workload = ZipfWorkload(num_clients=4, num_files=sizes["zipf_files"],
                                ops_per_client=sizes["zipf_ops"],
                                alpha=1.1, write_fraction=0.1, num_dirs=16,
                                seed=seed)
        return config, workload, "greedy-spill"
    if name == "compile":
        # Figs 9/10: 5 clients on 3 ranks, 0.2 ms think time.
        config = ClusterConfig(num_mds=3, num_clients=5, seed=seed,
                               client_think_time=0.0002)
        workload = CompileWorkload(num_clients=5,
                                   scale=sizes["compile_scale"], seed=seed)
        return config, workload, "adaptable"
    if name == "scale20":
        # §4.4: 20 ranks, 20 clients in separate directories; 20 ms think
        # time stretches the run over several heartbeat rounds.
        config = ClusterConfig(num_mds=20, num_clients=20, seed=seed,
                               dir_split_size=10**9, client_think_time=0.02)
        workload = CreateWorkload(num_clients=20,
                                  files_per_client=sizes["scale20_files"])
        return config, workload, "adaptable"
    raise ValueError(f"unknown workload {name!r}")


def report_digest(report) -> str:
    """sha256 over the summary line, full-precision latencies, per-rank
    ops and the balancer decision list."""
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


def counters(cluster, report, ops: int) -> dict:
    """Per-layer work counters from the cluster's public attributes."""
    import numpy as np

    per_mds = report.metrics.per_mds.values()
    stations = [mds.station for mds in cluster.mdss]
    jobs = sum(station.jobs_done for station in stations)
    hits = sum(mds.cache.hits for mds in cluster.mdss)
    lookups = hits + sum(mds.cache.misses for mds in cluster.mdss)
    makespan = report.makespan
    latencies = report.metrics.latencies.all_latencies()
    return {
        "sim.events": cluster.engine.events_executed,
        "sim.messages": cluster.network.messages_sent,
        "mds.forwards_per_op": report.total_forwards / ops,
        "mds.prefix_traversals_per_op":
            report.metrics.total_prefix_traversals / ops,
        "mds.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "mds.queue_wait_ms": (1e3 * sum(s.total_wait for s in stations)
                              / jobs if jobs else 0.0),
        "mds.cpu_util": (sum(s.busy_time for s in stations)
                         / (len(stations) * makespan) if makespan else 0.0),
        "mds.migrations": report.total_migrations,
        "mds.inodes_migrated": sum(m.inodes_migrated for m in per_mds),
        "mds.fragmentations": sum(m.fragmentations for m in per_mds),
        "mds.scatter_gathers": sum(m.scatter_gathers for m in per_mds),
        "clients.cap_switches": sum(c.cap_switches for c in cluster.clients),
        "rados.reads_per_op": cluster.rados.total_reads() / ops,
        "rados.writes_per_op": cluster.rados.total_writes() / ops,
        "policy.ticks": len(report.decisions),
        "sim_makespan_s": makespan,
        "sim_latency_p50_ms": 1e3 * float(np.percentile(latencies, 50)),
        "sim_latency_p999_ms": 1e3 * float(np.percentile(latencies, 99.9)),
    }


def profile_layers(profile: cProfile.Profile) -> dict:
    """Calls and self seconds per layer, plus the tracked functions."""
    layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    functions = {name: 0 for name in TRACKED_CALLS.values()}
    tick_cum_s = 0.0
    for (filename, _line, func), (_cc, calls, self_s, cum_s, _callers) \
            in pstats.Stats(profile).stats.items():
        if filename.startswith(REPRO_PREFIX):
            relative = filename[len(REPRO_PREFIX):].replace(os.sep, "/")
            head = relative.split("/", 1)[0].removesuffix(".py")
            layer = LAYER_OF.get(head, "rest")
            tracked = TRACKED_CALLS.get((relative, func))
            if tracked is not None:
                functions[tracked] += calls
            if (relative, func) == BALANCER_TICK:
                tick_cum_s += cum_s
        else:
            layer = "other"
        layers[layer]["calls"] += calls
        layers[layer]["self_s"] += self_s
    return {"layers": layers, "functions": functions,
            "tick_cum_s": tick_cum_s}


class _Cell:
    __slots__ = ("step", "counts")

    def __init__(self, step: int):
        self.step = step
        self.counts = {0: 0}

    def bump(self, key: int) -> None:
        counts = self.counts
        counts[key] = counts.get(key, 0) + self.step


class ReferenceLoops:
    """Two fixed pure-Python loops that gauge how fast the host runs now.

    ``core_s`` works on a few hot objects, so it is bound by the core;
    ``memory_s`` visits dicts scattered over a heap of 200k, so it waits
    on memory.  Other tenants of a shared host slow the core loop more
    than the simulator and the memory loop less; the geometric mean of
    the two follows the simulator's slow-downs.  The heap's dicts hold
    only ints, so the garbage collector does not track them and the heap
    adds no work to the simulator's collections.
    """

    HEAP_CELLS = 200_000
    WALK = 50_000

    def __init__(self):
        self.hot = [_Cell(i) for i in range(64)]
        self.heap = [{0: i} for i in range(self.HEAP_CELLS)]
        self.walk = random.Random(1).sample(range(self.HEAP_CELLS),
                                            self.WALK)
        self.cursor = 0

    def core_s(self) -> float:
        hot = self.hot
        start = time.perf_counter()
        for i in range(400):
            hot[i & 63].bump(i & 15)
        return time.perf_counter() - start

    def memory_s(self) -> float:
        heap, walk, cursor = self.heap, self.walk, self.cursor
        start = time.perf_counter()
        for i in range(cursor, cursor + 300):
            cell = heap[walk[i % self.WALK]]
            cell[0] = cell[0] + 1
        elapsed = time.perf_counter() - start
        self.cursor = (cursor + 300) % self.WALK
        return elapsed

    def timings(self, count: int) -> list:
        """*count* ``[core s, memory s]`` pairs."""
        return [[self.core_s(), self.memory_s()] for _ in range(count)]


@contextmanager
def progress_samples(engine, loops: ReferenceLoops, samples: list):
    """Append ``[host clock, engine.now, core s, memory s]`` to *samples*
    every ``SAMPLE_INTERVAL_S`` host seconds, and once on entry and on
    exit.  A loop timing is ``None`` where that loop did not run; the
    recorded host clock leaves out the time spent in this handler."""
    clock = time.perf_counter
    stolen = 0.0
    ticks = 0

    def sample(_signum, _frame):
        nonlocal stolen, ticks
        now = clock()
        core = memory = None
        ticks += 1
        if ticks % LOOP_EVERY == 0:
            if ticks % (2 * LOOP_EVERY):
                memory = loops.memory_s()
            else:
                core = loops.core_s()
        samples.append([now - stolen, engine.now, core, memory])
        stolen += clock() - now

    previous = signal.signal(signal.SIGALRM, sample)
    sample(None, None)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                     SAMPLE_INTERVAL_S)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
        sample(None, None)


def run_iteration(name: str, seed: int, size: str, trace: bool) -> dict:
    from repro.cluster import SimulatedCluster
    from repro.core.policies import STOCK_POLICIES

    def peak_rss_mb() -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # The profiler would count the loops and the sampling handler, so
    # traced iterations run without them.
    loops = None
    loops_mb = 0.0
    if not trace:
        before = peak_rss_mb()
        loops = ReferenceLoops()
        loops_mb = peak_rss_mb() - before
        setup_loops = loops.timings(SETUP_LOOPS)
    profile = cProfile.Profile() if trace else None
    if profile is not None:
        profile.enable()
    start = time.perf_counter()
    config, workload, policy_name = scenario(name, seed, size)
    namespace = SimulatedCluster.build_namespace(config)
    workload.prepare(namespace)
    prepared = time.perf_counter()
    cluster = SimulatedCluster(config, namespace=namespace)
    built = time.perf_counter()
    cluster.set_policy(STOCK_POLICIES[policy_name]())
    injected = time.perf_counter()
    cluster.begin_workload(workload, skip_prepare=True)
    began = time.perf_counter()
    samples = []
    if loops is not None:
        setup_loops += loops.timings(SETUP_LOOPS)
    finish_start = time.perf_counter()
    with (nullcontext() if loops is None
          else progress_samples(cluster.engine, loops, samples)):
        report = cluster.finish_workload()
    finished = time.perf_counter()
    if profile is not None:
        profile.disable()

    total_ops = workload.total_ops()
    done = sum(client.ops_completed for client in cluster.clients)
    errors = sum(client.errors for client in cluster.clients)
    result = {
        "workload": name, "seed": seed, "size": size, "trace": trace,
        "setup_s": began - start,
        "prepare_s": prepared - start,
        "build_s": (built - prepared) + (began - injected),
        "policy_s": injected - built,
        "finish_s": finished - finish_start,
        "wall_s": (began - start) + (finished - finish_start),
        "peak_rss_mb": peak_rss_mb() - loops_mb,
        "total_ops": total_ops,
        "ops_done": done,
        "ops_failed": total_ops - done + errors,
        "digest": report_digest(report),
        "counters": counters(cluster, report, max(1, total_ops)),
    }
    if loops is not None:
        # [core s, memory s] around setup; [host seconds since the first
        # event, simulated seconds, core s, memory s] through the run.
        result["setup_loops"] = setup_loops
        result["progress"] = [[host - finish_start, *rest]
                              for host, *rest in samples]
    if profile is not None:
        result["profile"] = profile_layers(profile)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full", choices=sorted(SIZES))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    result = run_iteration(args.workload, args.seed, args.size,
                           bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

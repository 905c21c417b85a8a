"""Deterministic work counters on the per-op request path.

Each metadata op resolves its parent directory and dirfrag once and
carries them down the MDS path, and closed-loop clients are reply
callbacks rather than coroutines.  Call counts under ``cProfile`` do not
depend on the host, so these guards fail as soon as a change adds a hop
back: a second path resolution, a per-op frag lookup, or a client
coroutine resume.  A ceiling on all calls per op into ``repro`` covers
the four golden scenario shapes, so a change that adds work anywhere on
the op path (an unconditional observer call, say) fails here; a second
ceiling on calls into ``mds/server.py`` keeps the MDS request path
straight-line (one handler per op, guards inline), a third on
``math.pow`` keeps popularity counting at one decay weight per timestamp,
and a fourth on calls into ``sim/`` keeps the event core at one heap
tuple per event and one event per station job.  The number of events
each shape executes is pinned exactly: the event core's cost per event
may fall, but an event more or less changes what is simulated.  The
request is the only object an op builds on the client/MDS path: no reply
object unless a trace records the run.

The methods ``repro.dataclass`` generates are labelled
``<dataclass repro.pkg.mod.Cls>``; they count as calls into
``repro/pkg/mod.py``.
"""

from __future__ import annotations

import cProfile
import functools
import os
import pstats

import pytest

import repro
from repro.cluster import SimulatedCluster
from repro.config import ClusterConfig
from repro.core.policies import STOCK_POLICIES
from repro.workloads import CreateWorkload
from tests.integration.test_golden_digests import scenario

REPRO_DIR = os.path.dirname(repro.__file__) + os.sep
SERVER_FILE = os.path.join(REPRO_DIR, "mds", "server.py")
CLIENT_FILE = os.path.join(REPRO_DIR, "clients", "client.py")
OPS_FILE = os.path.join(REPRO_DIR, "clients", "ops.py")
COLLECTORS_FILE = os.path.join(REPRO_DIR, "metrics", "collectors.py")
SIM_DIR = os.path.join(REPRO_DIR, "sim") + os.sep
#: Python 3.12 inlines these (PEP 709), so they are frames only before it.
INLINED_FRAMES = {"<listcomp>", "<dictcomp>", "<setcomp>"}
#: Calls per op into ``repro`` for each golden scenario shape: the count
#: recorded when the ceiling was set, plus 2%.
CALLS_PER_OP_CEILING = {
    "create_shared": 38.64 * 1.02,
    "zipf_read": 36.33 * 1.02,
    "compile": 49.57 * 1.02,
    "scale20": 169.68 * 1.02,
}
#: Calls per op into ``repro/sim/``, the same way.
SIM_CALLS_PER_OP_CEILING = {
    "create_shared": 5.94 * 1.02,
    "zipf_read": 5.70 * 1.02,
    "compile": 7.11 * 1.02,
    "scale20": 11.81 * 1.02,
}
#: ``engine.events_executed`` per op, exactly.
EVENTS_PER_OP = {
    "create_shared": 25_879 / 8_000,
    "zipf_read": 26_712 / 8_000,
    "compile": 29_131 / 6_720,
    "scale20": 11_591 / 2_020,
}
#: Calls per op into ``mds/server.py`` for the create shape, the same way.
SERVER_CALLS_PER_OP_CEILING = 5.49 * 1.02
#: ``math.pow`` calls per op, the same way.  A counter hit pays one per
#: distinct timestamp, and every op runs at its own time; a read pays one
#: per new instant, which on scale20's 20 heartbeating ranks and ~2000 ops
#: adds about 0.1 per op.
POW_CALLS_PER_OP_CEILING = {
    "create_shared": 1.003 * 1.02,
    "zipf_read": 1.011 * 1.02,
    "compile": 1.090 * 1.02,
    "scale20": 1.119 * 1.02,
}


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


def test_create_parses_each_path_once(balanced_run):
    calls, cluster, ops = balanced_run
    # The client splits an op's path once (inline for normal paths) and
    # carries it; split_path runs only for the namespace's own walks.
    parses = sum(calls.get(("namespace/tree.py", func), 0)
                 for func in ("split_path", "dir_and_leaf"))
    parses += calls.get(("clients/ops.py", "parse_op_path"), 0)
    assert parses <= ops
    # The client hashes a leaf against a split fragtree, or the MDS hashes
    # it against a split directory -- once, carried from then on; the one
    # split rehashes the directory's entries on top.
    rehashed = cluster.config.dir_split_size
    assert calls[("namespace/dirfrag.py", "name_hash")] <= ops + rehashed


def test_only_migrations_run_as_processes(balanced_run):
    calls, cluster, _ops = balanced_run
    exports = sum(mds.migrator.exports_started for mds in cluster.mdss)
    assert exports > 0
    assert calls.get(("sim/engine.py", "process"), 0) == exports


def test_client_ops_resume_no_coroutines():
    calls, cluster, ops = profiled_run(None)
    assert sum(client.ops_completed for client in cluster.clients) == ops
    assert calls.get(("sim/engine.py", "_resume"), 0) == 0


def source_file(filename: str) -> str:
    """The file a profiler label's code comes from: a generated dataclass
    method's label names its class's module."""
    if filename.startswith("<dataclass repro."):
        module = filename[len("<dataclass repro."):-1].rsplit(".", 1)[0]
        return os.path.join(REPRO_DIR, *module.split(".")) + ".py"
    return filename


@functools.lru_cache(maxsize=None)
def scenario_calls(name: str) -> tuple[dict[tuple[str, str], int], int, int,
                                       int]:
    """``(calls by (file, function), ops, events executed, client errors)``
    of one scenario run, keyed by :func:`source_file`.

    The shape runs once unprofiled first: one-time work in the process
    (stdlib and policy compilation, say) lands in the first run, and the
    counts must not depend on which test ran first."""
    config, workload, policy = scenario(name)
    SimulatedCluster(config, policy=STOCK_POLICIES[policy]()).run_workload(
        workload)
    config, workload, policy = scenario(name)
    cluster = SimulatedCluster(config, policy=STOCK_POLICIES[policy]())
    profile = cProfile.Profile()
    profile.enable()
    cluster.run_workload(workload)
    profile.disable()
    calls: dict[tuple[str, str], int] = {}
    for (filename, _line, func), stats in pstats.Stats(profile).stats.items():
        key = (source_file(filename), func)
        calls[key] = calls.get(key, 0) + stats[1]
    errors = sum(client.errors for client in cluster.clients)
    return calls, workload.total_ops(), cluster.engine.events_executed, errors


def calls_per_op(name: str, prefix: str = REPRO_DIR) -> float:
    """Calls per op into functions in files starting with *prefix* (all
    of ``repro`` by default) for one scenario run."""
    calls, ops, _events, _errors = scenario_calls(name)
    return sum(count for (filename, func), count in calls.items()
               if filename.startswith(prefix)
               and func not in INLINED_FRAMES) / ops


def pow_calls_per_op(name: str) -> float:
    """``math.pow`` calls per op for one scenario run."""
    calls, ops, _events, _errors = scenario_calls(name)
    return calls.get(("~", "<built-in method math.pow>"), 0) / ops


def events_per_op(name: str) -> float:
    """Events executed per op for one scenario run."""
    _calls, ops, events, _errors = scenario_calls(name)
    return events / ops


@pytest.mark.parametrize("name", sorted(CALLS_PER_OP_CEILING))
def test_calls_per_op_stay_under_ceiling(name):
    assert calls_per_op(name) <= CALLS_PER_OP_CEILING[name]


@pytest.mark.parametrize("name", sorted(CALLS_PER_OP_CEILING))
def test_each_op_builds_only_its_request(name):
    """One MetaRequest per op is the whole client/MDS op path: the reply's
    values travel as call arguments, so an error-free run builds no reply
    object and no pending-op object (``Client.__init__`` is the only
    constructor that runs in ``client.py``), and an unrecorded one builds
    no ``OpRecord``: no constructor runs in ``collectors.py``, whose
    dataclass ``__init__``s count as its own."""
    calls, ops, _events, errors = scenario_calls(name)
    assert errors == 0
    assert calls[(OPS_FILE, "__init__")] == ops
    assert (COLLECTORS_FILE, "__init__") not in calls
    assert calls[(CLIENT_FILE, "__init__")] == scenario(name)[0].num_clients


@pytest.mark.parametrize("name", sorted(SIM_CALLS_PER_OP_CEILING))
def test_sim_calls_per_op_stay_under_ceiling(name):
    assert calls_per_op(name, SIM_DIR) <= SIM_CALLS_PER_OP_CEILING[name]


@pytest.mark.parametrize("name", sorted(EVENTS_PER_OP))
def test_events_per_op_are_pinned(name):
    assert events_per_op(name) == EVENTS_PER_OP[name]


def test_server_calls_per_op_stay_under_ceiling():
    assert (calls_per_op("create_shared", SERVER_FILE)
            <= SERVER_CALLS_PER_OP_CEILING)


@pytest.mark.parametrize("name", sorted(CALLS_PER_OP_CEILING))
def test_pow_calls_per_op_stay_under_ceiling(name):
    assert pow_calls_per_op(name) <= POW_CALLS_PER_OP_CEILING[name]


if __name__ == "__main__":
    for shape in sorted(CALLS_PER_OP_CEILING):
        print(f"{shape}: {calls_per_op(shape):.2f} calls/op "
              f"(ceiling {CALLS_PER_OP_CEILING[shape]:.2f}), "
              f"{calls_per_op(shape, SIM_DIR):.2f} into sim/ "
              f"(ceiling {SIM_CALLS_PER_OP_CEILING[shape]:.2f}), "
              f"{pow_calls_per_op(shape):.3f} math.pow/op "
              f"(ceiling {POW_CALLS_PER_OP_CEILING[shape]:.3f}), "
              f"{events_per_op(shape):.4f} events/op "
              f"(pinned {EVENTS_PER_OP[shape]:.4f})")
    print(f"create_shared mds/server.py: "
          f"{calls_per_op('create_shared', SERVER_FILE):.2f} calls/op "
          f"(ceiling {SERVER_CALLS_PER_OP_CEILING:.2f})")

"""Golden report digests: the oracle for the bit-identical contract.

The first four cases are scaled-down copies of the benchmark workloads
(shared-dir creates, Zipf reads, compile, 20-rank scale-out) with 0.5 s
heartbeats, so every run fragments, migrates, forwards and fetches within
about two simulated seconds.  The ``policy/...`` cases run shared-dir
creates on three ranks under every stock policy (and no policy), and Zipf
reads under greedy-spill, at the default heartbeat.  The
``lifecycle/faults`` case runs shared-dir creates under greedy-spill with a
limping CPU, a crash and takeover, the stability guard, a fill-and-spill
shadow and an adaptable canary that starts and rolls back inside the run.
The ``ops/every-kind`` case replays per-client op lists that issue all
eight op kinds on three ranks: renames between directories on different
ranks, unlinks, readdirs, creates over existing files, and requests that
fail with ENOENT, EEXIST and EINVAL, into a pre-split directory spread
over two ranks.

The digest hashes the summary line, every latency at full precision
(``float.hex``), the per-rank op counts and the balancer decision list;
the ``lifecycle/faults`` digest also hashes the fault and lifecycle events,
the shadow log and the shadow summary; the ``ops/every-kind`` digest also
hashes each op record's kind, serving rank, forwards, result and error.
Any change to simulated results -- event order, float arithmetic, RNG
draws -- changes it.

A deliberate re-baseline prints the current digests with::

    PYTHONPATH=src python tests/integration/test_golden_digests.py
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cluster import SimulatedCluster
from repro.clients.ops import OpKind
from repro.config import ClusterConfig
from repro.core.policies import STOCK_POLICIES
from repro.faults import FaultSchedule
from repro.metrics.tracing import load_ops, record_run, save_ops
from repro.workloads import CompileWorkload, CreateWorkload, ZipfWorkload
from repro.workloads.patterns import TraceWorkload

HEARTBEAT = 0.5
LIFECYCLE = "lifecycle/faults"
EVERY_KIND = "ops/every-kind"

GOLDEN = {
    "create_shared":
        "954a1468e9991d1f8efb3b68d6982a28f83941ed26e70a8ff4a360ddbffdbb86",
    "zipf_read":
        "917b7b6e17b6c271bc385b8ff9c4a11199cb0487ad5d00e6c0a64f3f57e6be82",
    "compile":
        "8ffb5c0c6c7d95d5aae8d08b4cf7f67793b62b6d588a60da708d1162a764b357",
    "scale20":
        "178391ac3d03adfb0945794996cb804a4b3486f3c1a52c4602822441a2496dc6",
    "policy/create/none":
        "12caa39344ac00dba3ede740296230536105e244dbc99de6c02b46060470f73b",
    "policy/create/cephfs-original":
        "10f1ae8236344beb6deb68d9bb115956e96e71d07d039e448259c9c15ed57805",
    "policy/create/greedy-spill":
        "c9ae26bb2e60f9f2ab5c8cf1454f4dc7200a937e8923543a44fc1a38590e19db",
    "policy/create/fill-and-spill":
        "d09bfa1ffebd1b67d06190fca8f2e71c10fd36f53bafeabfc9e9a89de8b99b3f",
    "policy/create/adaptable":
        "6839ecb4b23fe25829fb07b797a6a5d9b2adfe13192aa3df0fac159e7d6be878",
    "policy/zipf/greedy-spill":
        "5d0f0eccecef8c16bbf5e72b7b0b3cd6c5c704aba74f71be9146b481895af053",
    LIFECYCLE:
        "23123a0be9ae6d7f3531e27299930e38b5d549b20403cf920076340f18bcf2c7",
    EVERY_KIND:
        "20ce58d48625a1445267d68dd11687e85f144137748bff526a5db18a8b59c7fd",
}


def scenario(name: str, seed: int = 1):
    """``(config, workload, policy name)`` of one scenario shape.

    The ``policy/...`` shapes keep the fixed seeds they were recorded with.
    """
    if name.startswith("policy/create/"):
        config = ClusterConfig(num_mds=3, num_clients=4, seed=11,
                               dir_split_size=600)
        workload = CreateWorkload(num_clients=4, files_per_client=4000,
                                  shared_dir=True)
        return config, workload, name.rpartition("/")[2]
    if name == "policy/zipf/greedy-spill":
        config = ClusterConfig(num_mds=2, num_clients=3, seed=5,
                               dir_split_size=800)
        workload = ZipfWorkload(num_clients=3, num_files=2000,
                                ops_per_client=4000, seed=5)
        return config, workload, "greedy-spill"
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


def lifecycle_report(record_ops: bool = False):
    """The ``lifecycle/faults`` run: every run-record producer fires (op
    records too, with *record_ops*)."""
    config = ClusterConfig(num_mds=3, num_clients=4, seed=11,
                           dir_split_size=600, heartbeat_interval=HEARTBEAT,
                           stability_guard=True)
    schedule = FaultSchedule.from_dicts([
        {"kind": "degrade_cpu", "at": 0.5, "rank": 0, "factor": 2.0,
         "duration": 1.0},
        {"kind": "crash", "at": 1.6, "rank": 1, "takeover_by": 0,
         "takeover_after": 0.5},
    ])
    cluster = SimulatedCluster(config,
                               policy=STOCK_POLICIES["greedy-spill"](),
                               fault_schedule=schedule)
    cluster.arm_shadow(STOCK_POLICIES["fill-and-spill"]())
    cluster.arm_canary(STOCK_POLICIES["adaptable"](), at=0.5, window=1.0)
    cluster.metrics.record_ops = record_ops
    cluster.run_workload(CreateWorkload(num_clients=4, files_per_client=3000,
                                        shared_dir=True))
    cluster.quiesce()
    return cluster._report()


def lifecycle_digest(report) -> str:
    digest = hashlib.sha256(report_digest(report).encode())
    for event in report.fault_events + report.lifecycle_events:
        digest.update(repr((event.time, event.kind, event.rank,
                            event.detail)).encode())
    for t in report.shadow_log:
        digest.update(repr((t.time, t.rank, t.live_went, t.shadow_went,
                            sorted(t.live_targets.items()),
                            sorted(t.shadow_targets.items()),
                            sorted(t.target_deltas.items()), t.diverged,
                            t.error, t.skipped)).encode())
    digest.update(repr(sorted(report.shadow_summary.items())).encode())
    return digest.hexdigest()


def every_kind_traces(rounds: int = 300) -> dict[int, list[tuple]]:
    """Four clients' op lists: every op kind, success and error alike.

    Client *c* works in ``/d{c % 3}`` and renames into the next one;
    ``/d1`` is pinned to rank 2, so most renames cross ranks.  A RENAME
    without a destination is EINVAL; a repeated MKDIR is EEXIST; a STAT
    of a missing name and an OPEN of an unlinked file are ENOENT.
    """
    K = OpKind
    traces = {}
    for c in range(4):
        home, away = f"/d{c % 3}", f"/d{(c + 1) % 3}"
        ops = [(K.MKDIR, f"/m{c}"), (K.STAT, "/"), (K.READDIR, "/")]
        for i in range(rounds):
            ops += [(K.CREATE, f"/shared/c{c}_{i}"),
                    (K.CREATE, f"{home}/f{c}_{i}"),
                    (K.STAT, f"/shared/c{c}_{i}"),
                    (K.LOOKUP, f"{home}/f{c}_{i}") if i % 2 else
                    (K.OPEN, f"/shared/c{c}_{i // 2}")]
            if i % 10 == 0:
                ops.append((K.READDIR, home))
            if i % 50 == 0:
                ops.append((K.READDIR, "/shared/"))
            if i % 5 == 1:
                ops.append((K.RENAME, f"{home}/f{c}_{i}", f"{away}/r{c}_{i}"))
            if i % 7 == 2:
                ops.append((K.UNLINK, f"/shared/c{c}_{i}"))
            if i % 25 == 3:
                ops.append((K.STAT, f"{home}/missing{i}"))
            if i % 40 == 4:
                ops.append((K.MKDIR, f"/m{c}"))
            if i % 9 == 5:
                ops.append((K.CREATE, f"/shared/c{c}_{i - 1}"))
            if i % 30 == 6:
                ops.append((K.RENAME, f"{home}/f{c}_{i}"))
            if i % 20 == 7:
                ops.append((K.MKDIR, f"/m{c}/s{i}"))
        traces[c] = ops
    return traces


def every_kind_run():
    """The ``ops/every-kind`` run, recorded: ``(cluster, report)``.

    ``/shared`` starts split in four and spread over ranks 0 and 2, so
    its writes pay the coherency surcharge and scatter-gather; greedy-spill
    sheds rank 0's load to the idle rank 1.
    """
    config = ClusterConfig(num_mds=3, num_clients=4, seed=13,
                           dir_split_size=200, heartbeat_interval=HEARTBEAT,
                           cap_switch_time=0.0005, scatter_gather_prob=0.3)
    workload = TraceWorkload(every_kind_traces())
    cluster = SimulatedCluster(config,
                               policy=STOCK_POLICIES["greedy-spill"]())
    workload.prepare(cluster.namespace)
    cluster.pin("/d1", 2)
    cluster.namespace.resolve_dir("/shared").fragment(extra_bits=2)
    cluster.spread_dirfrags("/shared", [0, 2])
    cluster.metrics.record_ops = True
    cluster.begin_workload(workload, skip_prepare=True)
    return cluster, cluster.finish_workload()


def every_kind_digest(report) -> str:
    digest = hashlib.sha256(report_digest(report).encode())
    for op in report.ops:
        digest.update(repr((op.op, op.rank, op.forwards, op.result,
                            op.error)).encode())
    return digest.hexdigest()


def run_digest(name: str) -> str:
    if name == LIFECYCLE:
        return lifecycle_digest(lifecycle_report())
    if name == EVERY_KIND:
        _cluster, report = every_kind_run()
        return every_kind_digest(report)
    config, workload, policy = scenario(name)
    cluster = SimulatedCluster(config)
    if policy != "none":
        cluster.set_policy(STOCK_POLICIES[policy]())
    return report_digest(cluster.run_workload(workload))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest_matches_golden(name):
    assert run_digest(name) == GOLDEN[name]


def test_lifecycle_run_fills_every_view_from_one_stream():
    report = lifecycle_report()
    fault_kinds = {event.kind for event in report.fault_events}
    assert {"degrade-cpu", "crash", "takeover"} <= fault_kinds
    lifecycle_kinds = [event.kind for event in report.lifecycle_events]
    assert "canary-start" in lifecycle_kinds
    assert "canary-rollback" in lifecycle_kinds
    assert report.shadow_summary["divergences"] > 0
    assert report.shadow_summary["ticks"] == len(report.shadow_log)
    assert any(d.exports for d in report.decisions)
    assert len({d.rank for d in report.decisions}) == 3
    # Each record lands in exactly one view.
    views = (report.decisions, report.shadow_log, report.fault_events,
             report.lifecycle_events)
    assert sum(len(view) for view in views) == len(report.records)
    assert {id(r) for view in views for r in view} == {
        id(r) for r in report.records}
    # Stream order is tick order, across the primary's and the canary's
    # balancers alike.
    ticks = [(d.time, d.rank) for d in report.decisions]
    assert ticks == sorted(ticks)


def test_recording_the_lifecycle_run_only_adds_op_records(tmp_path):
    plain, recorded = lifecycle_report(), lifecycle_report(record_ops=True)
    assert plain.ops == []
    for view in ("decisions", "fault_events", "lifecycle_events",
                 "shadow_log"):
        assert getattr(recorded, view) == getattr(plain, view), view
    assert len(recorded.records) == len(plain.records) + len(recorded.ops)
    # One record per completed op: each client's latencies, in order.
    latencies = recorded.metrics.latencies
    clients = sorted(recorded.metrics.client_op_counts)
    assert sorted({op.client_id for op in recorded.ops}) == clients
    for client_id in clients:
        assert [op.latency for op in recorded.ops
                if op.client_id == client_id] \
            == latencies.client_latencies(client_id).tolist()
    assert len(recorded.ops) == sum(
        recorded.metrics.client_op_counts.values())
    path = save_ops(recorded.ops, tmp_path / "lifecycle.jsonl")
    assert load_ops(path) == recorded.ops


def test_every_kind_run_covers_each_op_and_error():
    cluster, report = every_kind_run()
    outcomes = {(op.op, op.error) for op in report.ops}
    assert {(kind.value, None) for kind in OpKind} <= outcomes
    assert {("stat", "ENOENT"), ("mkdir", "EEXIST"),
            ("rename", "EINVAL")} <= outcomes
    assert len(report.ops) == sum(
        len(ops) for ops in every_kind_traces().values())
    # Cross-rank renames flush sessions; the spread directory
    # scatter-gathers; rank 0 spills to rank 1 and forwards follow.
    assert report.total_session_flushes > 0
    assert report.total_migrations > 0
    assert report.total_forwards > 0
    assert sum(mds.metrics.scatter_gathers for mds in cluster.mdss) > 0
    assert sum(mds.metrics.fragmentations for mds in cluster.mdss) > 0


def test_recording_a_run_changes_nothing():
    config, workload, policy = scenario("create_shared")
    cluster = SimulatedCluster(config, policy=STOCK_POLICIES[policy]())
    report = record_run(cluster, workload)
    assert len(report.ops) == report.total_ops
    assert report_digest(report) == GOLDEN["create_shared"]


if __name__ == "__main__":
    for scenario_name in sorted(GOLDEN):
        print(f"    {scenario_name!r}: {run_digest(scenario_name)!r},")

"""Parallel (seed x policy) sweep runner.

Every sweep cell is one fully independent run -- its own cluster, its own
RNG streams seeded from the cell's seed -- so running cells in separate
processes, or forking cells that differ only in policy off a shared
pre-balancer prefix (:mod:`repro.perf.grid`), cannot change any cell's
result.  The merged report is ordered by the spec list, never by
completion time, which makes ``--jobs N`` output byte-identical to
``--jobs 1``.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import replace
from typing import Any

from ..dataclass import dataclass
from ..cluster import SimulatedCluster
from ..config import ClusterConfig
from ..core.policies import STOCK_POLICIES
from ..workloads import CreateWorkload, ZipfWorkload
from .grid import fork_supported, run_forked

#: Friendly aliases: shell-safe underscore forms of the stock names.
_POLICY_ALIASES = {
    "greedy_spill": "greedy-spill",
    "greedy_spill_even": "greedy-spill-even",
    "fill_spill": "fill-and-spill",
    "fill_and_spill": "fill-and-spill",
    "cephfs_original": "cephfs-original",
    "cephfs_original_capped": "cephfs-original-capped",
    "adaptable_conservative": "adaptable-conservative",
    "adaptable_too_aggressive": "adaptable-too-aggressive",
    "giga_autonomous": "giga-autonomous",
    "capacity_model": "capacity-model",
    "feedback_controller": "feedback-controller",
}


def normalize_policy(name: str) -> str:
    """Resolve a policy spelling to a stock name (or ``none``)."""
    name = name.strip()
    if name in ("", "none"):
        return "none"
    resolved = _POLICY_ALIASES.get(name, name)
    if resolved not in STOCK_POLICIES:
        known = ", ".join(sorted(STOCK_POLICIES))
        raise ValueError(f"unknown policy {name!r} (stock: {known})")
    return resolved


@dataclass(frozen=True)
class RunSpec:
    """One sweep cell.  Plain data: it crosses process boundaries."""

    seed: int
    policy: str  # normalized stock name or "none"
    workload: str = "create"
    num_mds: int = 2
    num_clients: int = 4
    files_per_client: int = 2000
    ops_per_client: int = 2000
    shared_dir: bool = True
    dir_split_size: int = 1000
    max_time: float = 36_000.0
    heartbeat_interval: float = 10.0
    # Policy lifecycle (see repro.lifecycle).
    guard: bool = False
    shadow_policy: str = "none"
    canary_policy: str = "none"
    canary_at: float = 30.0
    canary_window: float = 20.0
    #: Gate injected policies behind the static analyzer
    #: (repro.analysis).  Lint is pure bookkeeping -- results are
    #: byte-identical either way -- but the flag is part of the spec
    #: because a lint-failing policy errors with lint=True and runs with
    #: lint=False.
    lint: bool = True


def build_specs(seeds: list[int], policies: list[str],
                **common: Any) -> list[RunSpec]:
    """The sweep grid, ordered policies-major then seeds."""
    if not seeds or not policies:
        raise ValueError("a sweep needs at least one seed and one policy")
    return [RunSpec(seed=seed, policy=normalize_policy(policy), **common)
            for policy in policies for seed in seeds]


def _build_workload(spec: RunSpec):
    if spec.workload == "create":
        return CreateWorkload(num_clients=spec.num_clients,
                              files_per_client=spec.files_per_client,
                              shared_dir=spec.shared_dir)
    if spec.workload == "zipf":
        return ZipfWorkload(num_clients=spec.num_clients,
                            num_files=spec.files_per_client,
                            ops_per_client=spec.ops_per_client,
                            seed=spec.seed)
    raise ValueError(f"unknown workload {spec.workload!r}")


def spec_record(spec: RunSpec, report) -> dict[str, Any]:
    """The plain-data record of one cell (picklable, JSON-able)."""
    latency = report.latency_summary()
    canary_outcome = next(
        (event.kind.split("-", 1)[1]
         for event in reversed(report.lifecycle_events)
         if event.kind in ("canary-promote", "canary-rollback")),
        None,
    )
    return {
        "seed": spec.seed,
        "policy": spec.policy,
        "summary": report.summary_line(),
        "makespan": report.makespan,
        "total_ops": report.total_ops,
        "throughput": report.throughput,
        "forwards": report.total_forwards,
        "migrations": report.total_migrations,
        "latency_mean": latency.mean,
        "latency_p95": latency.p95,
        "latency_p99": latency.p99,
        "per_mds_ops": report.per_mds_ops(),
        "lifecycle": [
            [event.time, event.kind, event.rank, event.detail]
            for event in report.lifecycle_events
        ],
        "guard_vetoes": sum(
            1 for event in report.lifecycle_events
            if event.kind == "guard-veto"
        ),
        "policy_versions": len(report.policy_log),
        "canary": canary_outcome,
        "shadow": report.shadow_summary,
    }


def _policy(spec: RunSpec):
    return (STOCK_POLICIES[spec.policy]()
            if spec.policy != "none" else None)


def _cluster(spec: RunSpec, policy=None) -> SimulatedCluster:
    config = ClusterConfig(num_mds=spec.num_mds,
                           num_clients=spec.num_clients,
                           seed=spec.seed,
                           dir_split_size=spec.dir_split_size,
                           heartbeat_interval=spec.heartbeat_interval,
                           stability_guard=spec.guard)
    return SimulatedCluster(config, policy=policy,
                            lint_policies=spec.lint)


def _arm_lifecycle(cluster: SimulatedCluster, spec: RunSpec) -> None:
    if spec.shadow_policy != "none":
        cluster.arm_shadow(STOCK_POLICIES[spec.shadow_policy]())
    if spec.canary_policy != "none":
        cluster.arm_canary(STOCK_POLICIES[spec.canary_policy](),
                           at=spec.canary_at, window=spec.canary_window)


def execute_spec(spec: RunSpec) -> dict[str, Any]:
    """Run one cell cold, unsplit; return its record."""
    cluster = _cluster(spec, _policy(spec))
    _arm_lifecycle(cluster, spec)
    report = cluster.run_workload(_build_workload(spec),
                                  max_time=spec.max_time)
    return spec_record(spec, report)


def _prefix_key(spec: RunSpec) -> RunSpec:
    # Policy, shadow and canary are all applied after the shared
    # prefix, so cells differing only in those share it.  ``guard``
    # stays in the key: it changes cluster construction itself.
    return replace(spec, policy="none", shadow_policy="none",
                   canary_policy="none", canary_at=30.0, canary_window=20.0)


def _begin(spec: RunSpec) -> SimulatedCluster:
    cluster = _cluster(spec)
    cluster.begin_workload(_build_workload(spec), max_time=spec.max_time)
    return cluster


def _finish(cluster: SimulatedCluster, spec: RunSpec) -> dict[str, Any]:
    policy = _policy(spec)
    if policy is not None:
        cluster.set_policy(policy)
    _arm_lifecycle(cluster, spec)
    return spec_record(spec, cluster.finish_workload())


def run_sweep(specs: list[RunSpec], jobs: int = 1) -> list[dict[str, Any]]:
    """Run all cells; results come back in spec order regardless of *jobs*.

    Where ``os.fork`` exists a multi-cell grid goes through the forked
    grid runner (:mod:`repro.perf.grid`): cells that differ only in
    policy share the simulation up to the first heartbeat, and at most
    *jobs* simulations run at once.  Elsewhere cells run cold over a
    ``multiprocessing`` pool, whose ``map`` keeps input order.  Records
    are byte-identical either way.
    """
    if len(specs) > 1 and fork_supported():
        return run_forked(specs, key=_prefix_key, begin=_begin,
                          finish=_finish, cold=execute_spec, jobs=jobs)
    if jobs <= 1 or len(specs) <= 1:
        return [execute_spec(spec) for spec in specs]
    with multiprocessing.Pool(processes=min(jobs, len(specs))) as pool:
        return pool.map(execute_spec, specs)


def format_report(records: list[dict[str, Any]]) -> str:
    """Deterministic text report, one block per cell in sweep order."""
    lines: list[str] = []
    for record in records:
        lines.append(f"seed={record['seed']} policy={record['policy']}")
        lines.append(f"  {record['summary']}")
        lines.append(
            "  latency: "
            f"mean={record['latency_mean'] * 1e3:.3f}ms "
            f"p95={record['latency_p95'] * 1e3:.3f}ms "
            f"p99={record['latency_p99'] * 1e3:.3f}ms"
        )
    by_policy: dict[str, list[dict[str, Any]]] = {}
    for record in records:
        by_policy.setdefault(record["policy"], []).append(record)
    lines.append("")
    for policy in sorted(by_policy):
        cells = by_policy[policy]
        mean_makespan = sum(c["makespan"] for c in cells) / len(cells)
        mean_tput = sum(c["throughput"] for c in cells) / len(cells)
        lines.append(
            f"[{policy}] seeds={len(cells)} "
            f"mean_makespan={mean_makespan:.2f}s "
            f"mean_tput={mean_tput:.0f}/s"
        )
    return "\n".join(lines) + "\n"

"""Cluster assembly: build and run a simulated CephFS metadata cluster.

``SimulatedCluster`` wires together the substrates (engine, network, RADOS,
namespace, MDS ranks, clients), installs a Mantle policy, runs a workload
to completion and returns a :class:`SimReport` -- the unit every example
and benchmark in this repository is built from.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import field
from typing import Optional

from .dataclass import dataclass
from .analysis import DEFAULT_LINT_RANKS, LintReport, PolicyLintError, \
    lint_policy
from .clients.client import Client, build_clients
from .config import ClusterConfig
from .core.api import MantlePolicy
from .core.balancer import MantleBalancer
from .faults.injector import FaultInjector
from .faults.schedule import FaultSchedule
from .lifecycle import (CanaryController, PolicyStore, PolicyVersion,
                        ShadowEvaluator, StabilityGuard, shadow_summary)
from .mds.server import MdsServer
from .metrics.collectors import ClusterMetrics, RunRecordViews
from .metrics.heatmap import HeatSampler
from .metrics.stats import Summary, summarize
from .namespace.tree import Namespace
from .rados.cluster import RadosCluster
from .sim.engine import SimEngine
from .sim.network import Network
from .sim.rng import RngStreams
from .workloads.base import Workload


@dataclass
class SimReport(RunRecordViews):
    """Everything a benchmark needs from one run.

    ``decisions``, ``fault_events``, ``lifecycle_events``,
    ``shadow_log`` and ``shadow_summary`` are read-only views over
    ``records``, the run-record stream as it stood when the report was
    taken.
    """

    config: ClusterConfig
    policy_name: str
    makespan: float
    total_ops: int
    client_runtimes: dict[int, float]
    metrics: ClusterMetrics
    records: list = field(default_factory=list)
    heat: Optional[HeatSampler] = None
    #: True when the balancer's circuit breaker tripped during the run.
    policy_tripped: bool = False
    #: Version log of the RADOS-backed policy store.
    policy_log: list[PolicyVersion] = field(default_factory=list)
    #: Name of the armed shadow policy (None when no shadow was armed).
    shadow_policy: Optional[str] = None
    #: Static-analysis reports for every policy injected through
    #: ``set_policy`` during this run, keyed by policy name (empty when
    #: lint was disabled).
    lint_reports: dict[str, LintReport] = field(default_factory=dict)
    #: Client sessions opened, summed over all ranks.
    sessions_opened: int = 0

    @property
    def throughput(self) -> float:
        """Overall requests/second across the whole run."""
        return self.total_ops / self.makespan if self.makespan > 0 else 0.0

    @property
    def total_forwards(self) -> int:
        return self.metrics.total_forwards

    @property
    def total_migrations(self) -> int:
        return self.metrics.total_migrations

    @property
    def total_session_flushes(self) -> int:
        return self.metrics.total_session_flushes

    @property
    def shadow_summary(self) -> Optional[dict]:
        """Aggregate shadow stats (None when no shadow was armed)."""
        if self.shadow_policy is None:
            return None
        return shadow_summary(self.shadow_policy, self.shadow_log)

    @property
    def total_migrations_aborted(self) -> int:
        return sum(m.migrations_aborted
                   for m in self.metrics.per_mds.values())

    # -- fault/recovery views -------------------------------------------
    def recovery_times(self) -> dict[int, float]:
        """Seconds from each rank's crash to its recovery.

        Recovery is either the rank's own restart completing or a standby
        finishing a takeover of its subtrees, whichever the trace shows
        first.  Unrecovered crashes are omitted.
        """
        out: dict[int, float] = {}
        crashed_at: dict[int, float] = {}
        for event in self.fault_events:
            if event.kind == "crash":
                crashed_at.setdefault(event.rank, event.time)
            elif event.kind == "restart":
                start = crashed_at.pop(event.rank, None)
                if start is not None and event.rank not in out:
                    out[event.rank] = event.time - start
            elif event.kind == "takeover":
                # detail: "mds<dead>->mds<standby>, ..."
                dead = _takeover_source(event.detail)
                if dead is None:
                    continue
                start = crashed_at.pop(dead, None)
                if start is not None and dead not in out:
                    out[dead] = event.time - start
        return out

    def throughput_between(self, t0: float, t1: float) -> float:
        """Mean requests/second over the window [t0, t1)."""
        if t1 <= t0:
            return 0.0
        timeline = self.metrics.timeline
        series = timeline.total_series()
        bucket = timeline.bucket
        first = max(0, int(t0 / bucket))
        last = min(len(series), int(t1 / bucket))
        ops = sum(series[i] * bucket for i in range(first, last))
        return ops / (t1 - t0)

    def latency_summary(self) -> Summary:
        return summarize(self.metrics.latencies.all_latencies())

    def runtime_summary(self) -> Summary:
        return summarize(self.client_runtimes.values())

    def per_mds_ops(self) -> dict[int, int]:
        return {rank: m.ops_served for rank, m in
                sorted(self.metrics.per_mds.items())}

    def summary_line(self) -> str:
        per_mds = " ".join(
            f"mds{rank}:{ops}" for rank, ops in self.per_mds_ops().items()
        )
        faults = ""
        if self.fault_events:
            faults = (f" faults={len(self.fault_events)}"
                      f" mig_aborted={self.total_migrations_aborted}")
        if self.policy_tripped:
            faults += " policy=fallback"
        if self.lifecycle_events:
            kinds = [event.kind for event in self.lifecycle_events]
            if "canary-promote" in kinds:
                faults += " canary=promoted"
            elif "canary-rollback" in kinds:
                faults += " canary=rolled-back"
            vetoes = kinds.count("guard-veto")
            if vetoes:
                faults += f" vetoes={vetoes}"
        return (
            f"[{self.policy_name}] makespan={self.makespan:.1f}s "
            f"ops={self.total_ops} tput={self.throughput:.0f}/s "
            f"fwd={self.total_forwards} mig={self.total_migrations} "
            f"flush={self.total_session_flushes}{faults} | {per_mds}"
        )


@contextmanager
def _gc_paused():
    """Disable the cyclic GC for the duration of a simulation run.

    The event loop allocates and frees millions of small objects whose
    lifetimes the reference counter already handles; periodic cycle
    collection just adds pauses.  Collect once on exit to reclaim any
    true cycles (completion callback chains).
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
            gc.collect()


def _takeover_source(detail: str) -> Optional[int]:
    """Rank a takeover record recovered, parsed from its detail string."""
    if not detail.startswith("mds"):
        return None
    head = detail[3:].split("->", 1)[0]
    return int(head) if head.isdigit() else None


class SimulatedCluster:
    """A CephFS-like metadata cluster with Mantle hooks."""

    def __init__(self, config: ClusterConfig,
                 policy: Optional[MantlePolicy] = None,
                 heat_sampling: float | None = None,
                 heat_depth: int = 4,
                 fault_schedule: Optional[FaultSchedule] = None,
                 namespace: Optional[Namespace] = None,
                 lint_policies: bool = True) -> None:
        config.validate()
        self.config = config
        #: Gate every ``set_policy`` behind the static analyzer (the
        #: per-call ``lint=`` argument overrides this default).
        self.lint_policies = lint_policies
        self._lint_reports: dict[str, LintReport] = {}
        self.engine = SimEngine()
        self.rngs = RngStreams(seed=config.seed)
        self.network = Network(
            self.engine, self.rngs.stream("network"),
            base_latency=config.net_latency,
            jitter_cv=config.net_jitter_cv,
        )
        self.rados = RadosCluster(
            self.engine, self.network, self.rngs,
            num_osds=config.num_osds,
        )
        # A pre-built (possibly pre-populated) namespace may be supplied so
        # setup can be timed apart from construction (perfbench does); it
        # must have been built by build_namespace(config) with the same
        # namespace-relevant config fields.
        self.namespace = (namespace if namespace is not None
                          else self.build_namespace(config))
        self.metrics = ClusterMetrics()
        self.mdss = [
            MdsServer(self.engine, rank, self.namespace, self.network,
                      self.rados, config, self.rngs.stream(f"mds{rank}"),
                      self.metrics)
            for rank in range(config.num_mds)
        ]
        for mds in self.mdss:
            mds.peers = self.mdss
        # Policy lifecycle: versioned store (RADOS-mirrored), optional
        # online stability guard, shadow/canary slots.
        self.policy_store = PolicyStore(self.rados)
        self.guard: Optional[StabilityGuard] = None
        if config.stability_guard:
            self.guard = StabilityGuard(
                window=config.guard_window,
                max_bounces=config.guard_max_bounces,
                events=self.metrics.record,
            )
        self.shadow: Optional[ShadowEvaluator] = None
        self.canary: Optional[CanaryController] = None
        self.balancer: Optional[MantleBalancer] = None
        if policy is not None:
            self.set_policy(policy)
        self.clients: list[Client] = []
        self.heat: Optional[HeatSampler] = None
        if heat_sampling:
            self.heat = HeatSampler(self.engine, self.namespace,
                                    interval=heat_sampling,
                                    max_depth=heat_depth)
        # Staged-run state (begin_workload / finish_workload).
        self._all_done = None
        self._max_time = 36_000.0
        self._deadline = None
        self.injector: Optional[FaultInjector] = None
        if fault_schedule is not None and len(fault_schedule) > 0:
            # The dedicated stream keeps no-fault runs byte-identical:
            # without faults nothing ever draws from it.
            self.injector = FaultInjector(self, fault_schedule,
                                          self.rngs.stream("faults"))

    @staticmethod
    def build_namespace(config: ClusterConfig) -> Namespace:
        """The namespace exactly as ``__init__`` would build it."""
        return Namespace(
            half_life=config.decay_half_life,
            split_size=config.dir_split_size,
            split_bits=config.dir_split_bits,
            root_auth=0,
        )

    # -- policy injection ---------------------------------------------------
    def set_policy(self, policy: MantlePolicy, note: str = "inject",
                   lint: Optional[bool] = None) -> None:
        """Inject a Mantle policy into every rank (``ceph tell mds.*``).

        The policy first passes through the static analyzer
        (:func:`repro.analysis.lint_policy`); an error-severity finding
        raises :class:`PolicyLintError` before anything is installed.
        Pass ``lint=False`` (or construct the cluster with
        ``lint_policies=False``) to bypass the gate -- the §4.4 dry-run
        validator and the runtime circuit breaker still apply.

        Every injection is a recorded version transition in the policy
        store, with the previous version retained for rollback.  The commit
        is stamped at t=0.0 regardless of the engine clock: injection is
        pre-run bookkeeping.  The forked grid runner (:mod:`repro.perf.grid`)
        injects policies after the shared prefix, and perfbench injects
        after building the cluster; both must record what a policy passed
        at construction records (see :mod:`repro.lifecycle.store`).
        """
        if lint is None:
            lint = self.lint_policies
        lint_summary = ""
        if lint:
            # Lint at the larger of the real cluster size and the dry-run
            # default: range proofs stay valid, never spuriously tighter.
            lint_report = lint_policy(
                policy,
                num_ranks=max(len(self.mdss), DEFAULT_LINT_RANKS),
            )
            self._lint_reports[policy.name] = lint_report
            lint_summary = lint_report.summary()
            if not lint_report.ok:
                raise PolicyLintError(lint_report)
        self.balancer = MantleBalancer(
            policy,
            error_threshold=self.config.policy_error_threshold,
            probation_ticks=self.config.policy_probation_ticks,
            guard=self.guard,
            events=self.metrics.record,
        )
        for mds in self.mdss:
            mds.balancer = self.balancer
        version = self.policy_store.commit(policy, 0.0, note=note,
                                           lint=lint_summary)
        self.metrics.record(
            0.0, "policy-commit", -1,
            f"v{version.version}: '{policy.name}' ({note})",
        )

    def clear_policy(self) -> None:
        self.balancer = None
        for mds in self.mdss:
            mds.balancer = None

    # -- lifecycle: shadow & canary -----------------------------------------
    def arm_shadow(self, policy: MantlePolicy) -> ShadowEvaluator:
        """Dry-run *policy* beside the live balancer on every tick.

        The shadow sees the exact bindings the live policy decided on but
        never applies its decisions; its per-tick divergence records land
        in the run-record stream (the report's ``shadow_log``).
        """
        if self.balancer is None:
            raise RuntimeError("inject a live policy before arming a shadow")
        self.shadow = ShadowEvaluator(policy)
        self.balancer.shadow = self.shadow
        return self.shadow

    def arm_canary(self, candidate: MantlePolicy,
                   rank: Optional[int] = None,
                   at: float = 30.0, window: float = 20.0,
                   **health) -> CanaryController:
        """Stage *candidate* on one rank at time *at*; after *window*
        seconds of health it is promoted to all ranks, otherwise the canary
        rank rolls back to the live policy (and the store to its prior
        version).  *health* forwards to :class:`CanaryController` (e.g.
        ``max_errors``, ``max_migrations``, ``latency_factor``)."""
        controller = CanaryController(self, candidate, rank=rank,
                                      at=at, window=window, **health)
        self.canary = controller
        self.mdss[controller.rank].lifecycle = controller
        return controller

    # -- manual partitioning (for the Fig 3 forced-spread setups) ------------
    def pin(self, path: str, rank: int) -> None:
        """Pin the subtree at *path* to *rank* (like ``setfattr ceph.dir.pin``)."""
        if not 0 <= rank < len(self.mdss):
            raise ValueError(f"no such rank {rank}")
        directory = self.namespace.resolve_dir(path)
        directory.set_auth(rank)
        directory.clear_descendant_auth()

    def spread_dirfrags(self, path: str, ranks: list[int]) -> None:
        """Assign the dirfrags of *path* round-robin over *ranks*."""
        directory = self.namespace.resolve_dir(path)
        frags = list(directory.frags.values())
        for index, frag in enumerate(frags):
            frag.set_auth(ranks[index % len(ranks)])

    def hash_partition(self, depth: int = 1) -> int:
        """Statically hash-partition the namespace over all ranks.

        The related-work baseline (paper §5, "Compute it - Hashing", e.g.
        PVFSv2/SkyFS): every directory at *depth* is pinned to
        ``hash(path) % num_mds``, destroying locality by construction but
        giving perfect static balance.  Returns the number of pins made.
        Call after the relevant directories exist (e.g. from
        ``workload.prepare`` or mid-run).
        """
        from .rados.crush import _hash64

        pinned = 0
        for directory in list(self.namespace.root.walk()):
            if directory.depth() == depth:
                rank = _hash64(directory.path()) % len(self.mdss)
                directory.set_auth(rank)
                directory.clear_descendant_auth()
                pinned += 1
        return pinned

    # -- running -------------------------------------------------------
    def run_workload(self, workload: Workload,
                     max_time: float = 36_000.0) -> SimReport:
        """Prepare, start clients and heartbeats, run to completion."""
        self.begin_workload(workload, max_time=max_time)
        return self.finish_workload()

    def begin_workload(self, workload: Workload,
                       max_time: float = 36_000.0,
                       skip_prepare: bool = False) -> None:
        """Stage 1 of a run: prepare, start clients/heartbeats, arm the
        completion and deadline -- everything up to executing events.

        ``skip_prepare`` is for callers that already ran
        ``workload.prepare`` into the namespace they passed to the
        constructor (perfbench, which times the two apart).
        Everything here (including the deadline event) is scheduled in the
        same order as an unsplit run, so event sequence numbers -- and
        therefore tie-breaking, and therefore results -- are identical.
        """
        if not skip_prepare:
            workload.prepare(self.namespace)
        if self.injector is not None:
            self.injector.arm()
        self.clients = build_clients(
            self.engine, self.network, self.mdss, self.metrics,
            workload.op_streams(),
            pipeline=self.config.client_pipeline,
            think_time=self.config.client_think_time,
            cap_switch_time=self.config.cap_switch_time,
        )
        for mds in self.mdss:
            mds.start_heartbeats()
        for client in self.clients:
            client.start()

        all_done = self.engine.completion()
        remaining = len(self.clients)

        def one_done(_completion) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining == 0:
                all_done.succeed(None)

        for client in self.clients:
            client.done.add_callback(one_done)
        self._all_done = all_done
        self._max_time = max_time
        self._deadline = None
        if self.clients:
            self._deadline = self.engine.schedule(
                max_time, all_done.fail,
                RuntimeError(f"workload exceeded {max_time} simulated "
                             "seconds"),
            )

    def run_shared_prefix(self, until: float) -> None:
        """Stage 2 (optional): run the policy-independent prefix.

        Executes events strictly before *until* (or until the workload
        completes, whichever is first).  Must only be called with *until*
        at or before the first policy-divergent event: the first heartbeat
        metaload snapshot at ``config.heartbeat_interval`` (see
        :mod:`repro.perf.grid`).
        """
        if until <= 0:
            return
        with _gc_paused():
            self.engine.run_before(until, completion=self._all_done)

    def finish_workload(self) -> SimReport:
        """Final stage: run the (remaining) workload, return the report."""
        all_done = self._all_done
        with _gc_paused():
            if not self.clients:
                self.engine.run_until(self._max_time)
            else:
                self.engine.run_until_complete(
                    all_done, max_events=self.config.max_events
                )
                self._deadline.cancel()
        return self._report()

    def run_for(self, duration: float) -> SimReport:
        """Run without a workload for *duration* simulated seconds."""
        if self.injector is not None:
            self.injector.arm()
        for mds in self.mdss:
            mds.start_heartbeats()
        with _gc_paused():
            self.engine.run_until(self.engine.now + duration)
        return self._report()

    def quiesce(self, max_time: float = 120.0) -> None:
        """Step the engine until no export is in flight (bounded).

        Clients can finish while a migration 2PC is still mid-commit; the
        invariant checks (and byte-identical reports) want those commits
        resolved.  Heartbeat loops never drain the heap, so this steps
        events rather than running to empty.
        """
        deadline = self.engine.now + max_time
        while any(mds.migrator.in_flight for mds in self.mdss):
            if self.engine.now >= deadline or not self.engine.step():
                break

    def _report(self) -> SimReport:
        if self.heat is not None:
            self.heat.stop()
        return SimReport(
            config=self.config,
            policy_name=(self.balancer.policy.name
                         if self.balancer else "none"),
            makespan=self.metrics.makespan(),
            total_ops=self.metrics.total_ops,
            client_runtimes=self.metrics.client_runtimes(),
            metrics=self.metrics,
            records=list(self.metrics.records),
            heat=self.heat,
            policy_tripped=(self.balancer.tripped
                            if self.balancer else False),
            policy_log=list(self.policy_store.log()),
            shadow_policy=(self.shadow.policy.name if self.shadow else None),
            lint_reports=dict(self._lint_reports),
            sessions_opened=sum(mds.sessions.sessions_opened
                                for mds in self.mdss),
        )


def run_experiment(config: ClusterConfig, workload: Workload,
                   policy: Optional[MantlePolicy] = None,
                   heat_sampling: float | None = None,
                   max_time: float = 36_000.0,
                   fault_schedule: Optional[FaultSchedule] = None
                   ) -> SimReport:
    """One-shot convenience: build a cluster, run a workload, report."""
    cluster = SimulatedCluster(config, policy=policy,
                               heat_sampling=heat_sampling,
                               fault_schedule=fault_schedule)
    report = cluster.run_workload(workload, max_time=max_time)
    if fault_schedule is not None:
        # Resolve any 2PC still mid-commit, then re-snapshot the report so
        # its fault trace includes everything up to the quiesced state.
        cluster.quiesce()
        report = cluster._report()
    return report


def run_seeds(config: ClusterConfig, workload_factory, seeds,
              policy_factory=None, max_time: float = 36_000.0
              ) -> list[SimReport]:
    """Run the same experiment across seeds (Fig 4's reproducibility view)."""
    reports = []
    for seed in seeds:
        cfg = config.with_overrides(seed=int(seed))
        policy = policy_factory() if policy_factory else None
        reports.append(
            run_experiment(cfg, workload_factory(), policy=policy,
                           max_time=max_time)
        )
    return reports

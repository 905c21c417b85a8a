"""Cluster configuration and calibrated constants.

The calibration targets come straight from the paper's measurements of its
10-node testbed:

* a single MDS saturates at about 4 create-storm clients (§2.2.3, Fig 5);
* per-MDS create throughput tops out at a few thousand requests/second
  (Figs 4, 5, 7);
* distributing a hot directory over several ranks costs coherency work
  (scatter-gather on shared directory state) and extra client sessions, so
  spilling a 4-client create storm to >2 ranks *hurts* (Fig 8);
* migrations are two-phase commits that journal through RADOS and flush
  client sessions, so each migration has a visible cost (§4.1).
"""

from __future__ import annotations

from dataclasses import field, replace
from typing import Any

from .dataclass import dataclass


@dataclass
class ServiceTimes:
    """Mean CPU service time per op kind at an MDS, in seconds."""

    create: float = 0.00020
    mkdir: float = 0.00030
    stat: float = 0.00012
    lookup: float = 0.00012
    open: float = 0.00015
    readdir: float = 0.00080
    unlink: float = 0.00022
    rename: float = 0.00035
    #: Work to recognise + forward a request that is not ours (§2.1).
    forward: float = 0.00006
    #: Coefficient of variation of all service times.
    cv: float = 0.30

    def mean_for(self, op: str) -> float:
        try:
            return getattr(self, op)
        except AttributeError as exc:
            raise KeyError(f"unknown op kind {op!r}") from exc


@dataclass
class ClusterConfig:
    """Everything needed to assemble a simulated CephFS metadata cluster."""

    num_mds: int = 1
    num_clients: int = 1
    num_osds: int = 18
    seed: int = 0

    # Network: one-way latency between any two nodes (paper testbed is one
    # GbE switch away; sub-millisecond RTT).
    net_latency: float = 0.00020
    net_jitter_cv: float = 0.20

    service: ServiceTimes = field(default_factory=ServiceTimes)

    # Namespace / dirfrags.
    decay_half_life: float = 5.0
    #: Paper §4.1 fragments a shared directory at 50 k entries into 2^3
    #: dirfrags.  Benchmarks scale `dir_split_size` together with the number
    #: of files created so fragmentation still triggers.
    dir_split_size: int = 50_000
    dir_split_bits: int = 3

    # MDS cache: number of inodes each rank can cache.
    cache_capacity: int = 400_000
    #: RADOS fetch size for a directory object (affects FETCH latency).
    dir_object_bytes: int = 16_384

    # Heartbeats (paper §2: every 10 seconds).
    heartbeat_interval: float = 10.0
    #: Time to pack/unpack a heartbeat; adds to staleness (§2.2.2).
    heartbeat_pack_time: float = 0.050
    #: Multiplicative noise applied to instantaneous CPU measurements --
    #: the paper blames noisy instantaneous metrics for erratic decisions.
    cpu_measure_noise: float = 0.08
    #: Delay between sending heartbeats and running the balancer, so the
    #: rebalance uses the current round's (still slightly stale) views --
    #: the "send HB -> recv HB -> rebalance" flow of paper Fig 2.
    rebalance_delay: float = 0.25

    # Coherency.  "Spread" below is the *effective* number of ranks sharing
    # a directory's dirfrags: the inverse participation ratio of the
    # per-rank frag shares (4/2/1/1 over 4 ranks is an effective spread of
    # ~2.9; a perfectly even 2/2/2/2 is 4.0).  Writes to a spread directory
    # pay a service surcharge (service *= 1 + sync_penalty*sqrt(spread-1)):
    # shared-stat updates, cap exchanges (§4.1).
    sync_penalty: float = 0.08
    #: Probability that a *slave* write (a write served by a rank other
    #: than the directory inode's authority) triggers a full scatter-gather:
    #: updates on the directory halt while stats go to the authoritative
    #: MDS and back (paper §4.1 footnote 3).  The probability scales
    #: quadratically with effective spread, normalised at 4 ranks:
    #: p = prob * ((spread-1)/3)**2, and each halt lasts
    #: scatter_gather_time * participants**1.5 -- coherency rounds involve
    #: every replica, so halt frequency and scope grow superlinearly.
    #: Calibrated against Fig 8 (+10 % at 2 ranks, -20 % uneven / -40 %
    #: even at 4).
    scatter_gather_prob: float = 0.008
    #: Base scatter-gather halt duration (scaled by participants**1.5).
    scatter_gather_time: float = 0.0055
    #: Probability that a write invalidates the parent/grandparent inode
    #: replicas cached at other ranks (CephFS propagates dirty fragstats
    #: lazily/batched, so replicas are not invalidated on every write).
    #: Stale replicas force remote prefix-path traversals on the next op at
    #: that rank -- the cross-rank traversal cost of §2.1 / Fig 3b.
    parent_inval_prob: float = 0.15
    #: How many ancestor levels a write dirties (parent, grandparent, ...).
    parent_inval_levels: int = 2
    #: Latency of one remote prefix traversal (one MDS-to-MDS round trip).
    prefix_traversal_time: float = 0.0020
    #: A rank that served anything under a directory within this window is
    #: an active coherency participant there and is never invalidated.
    coherency_window: float = 2.0
    #: Client-side cap revalidation: when a client's consecutive requests
    #: alternate between ranks for *unshared* directories, its exclusive
    #: capabilities must be revalidated (shared directories already run
    #: with degraded caps, so crossing is free there).
    cap_switch_time: float = 0.00025

    # Migration (two-phase commit, §2 "Migrate").
    #: Fixed cost of freezing + journalling EExport/EImport.
    migration_base_time: float = 0.120
    #: Per-inode transfer cost while the subtree is frozen.
    migration_per_inode: float = 0.0000035
    #: Stall per client session flushed at export time (§4.1).
    session_flush_time: float = 0.0150
    #: Journal bytes per migrated inode.
    migration_inode_bytes: int = 220

    # Journalling of regular updates.
    journal_entry_bytes: int = 512
    journal_segment_bytes: int = 65_536

    # Client behaviour.
    client_think_time: float = 0.0
    #: Outstanding requests per client.  1 (synchronous dirops) reproduces
    #: the paper's Fig 5 knee: a single MDS handles ~4 create clients.
    client_pipeline: int = 1
    #: Every Nth create also updates the file (size/mtime), costing a STORE.
    store_every: int = 64

    # Fault tolerance / recovery.
    #: A rank whose heartbeat has not arrived for this long is declared
    #: dead (evicted from heartbeat tables; balancers stop targeting it).
    mds_beacon_grace: float = 15.0
    #: How long a bounced request waits before re-resolving authority and
    #: retrying after it hit a dead rank.
    dead_rank_retry_delay: float = 0.050
    #: Fixed restart cost (process respawn + cache warmup floor) before
    #: journal replay begins.
    restart_base_time: float = 0.5
    #: How many trailing journal segments a restarting rank replays.
    replay_segment_window: int = 64
    #: Consecutive Lua errors before the balancer trips its circuit
    #: breaker and falls back to the built-in original balancer.
    policy_error_threshold: int = 3
    #: Half-open recovery: after this many consecutive clean fallback
    #: ticks, a tripped balancer re-tries the injected policy once on
    #: probation.  A clean probation tick closes the breaker; a failing
    #: one trips it permanently.  0 disables recovery (trip forever).
    policy_probation_ticks: int = 6

    # Policy lifecycle (shadow / canary / stability guard).
    #: Run the online StabilityGuard: re-exports of a subtree that bounced
    #: between ranks too often inside the guard window are vetoed before
    #: they reach the migrator (live ping-pong damping).
    stability_guard: bool = False
    #: Sliding window (seconds) over which the guard remembers moves.
    guard_window: float = 60.0
    #: Veto a re-export once the unit's reversal count inside the window
    #: (including the proposed move) reaches this many bounces.
    guard_max_bounces: int = 2

    # Safety valve for run loops.
    max_events: int = 200_000_000

    def with_overrides(self, **kwargs: Any) -> "ClusterConfig":
        """A copy with the given fields replaced."""
        return replace(self, **kwargs)

    def validate(self) -> None:
        if self.num_mds < 1:
            raise ValueError("need at least one MDS")
        if self.num_clients < 0:
            raise ValueError("client count cannot be negative")
        if self.heartbeat_interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        if not 0 <= self.scatter_gather_prob <= 1:
            raise ValueError("scatter_gather_prob must be a probability")
        if self.dir_split_bits < 1:
            raise ValueError("dir_split_bits must be >= 1")
        if self.mds_beacon_grace <= 0:
            raise ValueError("mds_beacon_grace must be positive")
        if self.dead_rank_retry_delay <= 0:
            raise ValueError("dead_rank_retry_delay must be positive")
        if self.replay_segment_window < 0:
            raise ValueError("replay_segment_window cannot be negative")
        if self.policy_error_threshold < 1:
            raise ValueError("policy_error_threshold must be >= 1")
        if self.policy_probation_ticks < 0:
            raise ValueError("policy_probation_ticks cannot be negative")
        if self.guard_window <= 0:
            raise ValueError("guard_window must be positive")
        if self.guard_max_bounces < 1:
            raise ValueError("guard_max_bounces must be >= 1")

"""Safe policy lifecycle: versioned store, shadow, canary, stability guard.

The paper injects balancers into a *running* cluster and stores versions
in RADOS (§4.4); this package manages what happens after injection:

* :class:`PolicyStore` -- append-only, RADOS-mirrored version log; every
  injection is a recorded transition and rollback re-commits a prior
  version;
* :class:`ShadowEvaluator` -- dry-runs a candidate policy against the live
  balancer's exact tick bindings, recording divergence without ever
  touching the cluster;
* :class:`CanaryController` -- stages a candidate on one rank, watches a
  health window, then promotes it everywhere or rolls back automatically;
* :class:`StabilityGuard` -- vetoes live re-exports of subtrees that keep
  bouncing between ranks (online ping-pong damping).

Everything here derives from simulator state only, keeping runs
bit-identical across serial, ``--jobs N`` and warm-start execution.
"""

from .canary import CanaryController
from .guard import StabilityGuard
from .shadow import ShadowEvaluator, ShadowTick, shadow_summary
from .store import PolicyStore, PolicyVersion

__all__ = [
    "CanaryController",
    "PolicyStore",
    "PolicyVersion",
    "ShadowEvaluator",
    "ShadowTick",
    "StabilityGuard",
    "shadow_summary",
]

"""Content fingerprints for the result cache.

A cached result is only reusable while *everything that could change the
simulation's output* is unchanged.  That closure is:

* the simulator source itself -- every ``.py`` module under ``repro``
  (a one-line change to the engine invalidates the whole cache, which is
  exactly right for a bit-identical simulator);
* the interpreter and numpy versions (RNG bit streams are version
  contracts, not guarantees across majors);
* the resolved experiment: config fields, workload shape, seed, and the
  **policy text** (via :func:`repro.core.policyfile.dump_policy`), so
  editing a balancer policy -- even its Lua body -- is a cache miss.

Fingerprints are hex sha256 digests; they never hash live objects, only
their canonical serialised forms, so cold and forked paths agree.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any

from ..core.policies import STOCK_POLICIES
from ..core.policyfile import dump_policy

#: The package whose sources define the simulation's behaviour.
_PACKAGE_ROOT = Path(__file__).resolve().parents[1]

_sources_digest_cache: str | None = None


def sources_digest() -> str:
    """sha256 over every ``.py`` file under the ``repro`` package.

    Includes python and numpy versions: identical sources on a different
    RNG implementation are not the same simulator.  Computed once per
    process (the sources cannot change under a running interpreter in any
    way the interpreter would notice).
    """
    global _sources_digest_cache
    if _sources_digest_cache is not None:
        return _sources_digest_cache
    hasher = hashlib.sha256()
    hasher.update(f"python={sys.version_info[:3]}".encode())
    try:
        import numpy
        hasher.update(f"numpy={numpy.__version__}".encode())
    except ImportError:  # pragma: no cover - numpy is a hard dep today
        hasher.update(b"numpy=absent")
    for path in sorted(_PACKAGE_ROOT.rglob("*.py")):
        rel = path.relative_to(_PACKAGE_ROOT).as_posix()
        hasher.update(rel.encode())
        hasher.update(b"\0")
        hasher.update(path.read_bytes())
        hasher.update(b"\0")
    _sources_digest_cache = hasher.hexdigest()
    return _sources_digest_cache


def _canonical(payload: Any) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      default=repr).encode()


def policy_text(policy_name: str) -> str:
    """The serialised policy file text for a stock policy name.

    This is the *content* of the policy, not its name: renaming a policy
    without changing its Lua is a cache miss only through the name field,
    but editing the Lua behind an unchanged name is a miss through here.
    """
    if policy_name == "none":
        return ""
    return dump_policy(STOCK_POLICIES[policy_name]())


def experiment_fingerprint(kind: str, payload: dict[str, Any]) -> str:
    """Fingerprint an arbitrary experiment description.

    *kind* namespaces the cache (``"sweep"``, ``"harness"``, ...) so two
    front-ends with coincidentally equal payloads cannot collide.
    """
    hasher = hashlib.sha256()
    hasher.update(sources_digest().encode())
    hasher.update(kind.encode())
    hasher.update(b"\0")
    hasher.update(_canonical(payload))
    return hasher.hexdigest()


def spec_fingerprint(spec) -> str:
    """Fingerprint one sweep cell (a ``RunSpec``).

    ``asdict`` already folds in every RunSpec field -- including the
    lifecycle configuration (``guard``, ``shadow_policy``,
    ``canary_policy``, ``canary_at``, ``canary_window``) -- so a guarded
    run and an unguarded run can never alias.  The shadow/canary policy
    *texts* are added on top for the same reason the live policy's is:
    editing a policy's Lua behind an unchanged name must be a miss.
    """
    from dataclasses import asdict
    payload = asdict(spec)
    payload["policy_text"] = policy_text(spec.policy)
    payload["shadow_policy_text"] = policy_text(
        getattr(spec, "shadow_policy", "none"))
    payload["canary_policy_text"] = policy_text(
        getattr(spec, "canary_policy", "none"))
    return experiment_fingerprint("sweep", payload)

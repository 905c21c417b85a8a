"""Versioned policy store backed by simulated RADOS objects.

The paper (§4.4) keeps balancer versions in RADOS so that operators can
inject a new policy and fall back to a known-good one.  This store records
every ``SimulatedCluster.set_policy`` as an append-only version log:

* ``mantle.balancer.v<N>`` -- the serialised policy source (the sectioned
  ``-- @name/...`` format from :mod:`repro.core.policyfile`);
* ``mantle.balancer.index`` -- head pointer plus the version log metadata.

A *rollback* never rewrites history: it commits the old version's source
again as a new head, exactly like re-injecting the old balancer.

Determinism note: commits write the RADOS payload dict directly and never
schedule simulated I/O.  The forked grid runner injects policies after
the shared prefix rather than at t=0, so a timed write here would shift the
event sequence and break bit-identity; callers therefore also pass an
explicit *now* (0.0 for pre-run injection) instead of reading the engine
clock.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Optional

from ..dataclass import dataclass
from ..core.api import MantlePolicy
from ..core.policyfile import dump_policy, parse_policy_source

#: RADOS object names (mirroring the paper's "store in RADOS" design).
VERSION_OBJ = "mantle.balancer.v{version}"
INDEX_OBJ = "mantle.balancer.index"


@dataclass(frozen=True)
class PolicyVersion:
    """One entry of the append-only version log."""

    version: int
    name: str
    source: str
    time: float
    note: str = ""
    #: Static-analysis summary at commit time ("lint:clean", "lint:2E,1W",
    #: or "" for commits that bypassed/preceded the linter).
    lint: str = ""


class PolicyStore:
    """Append-only, RADOS-mirrored log of injected balancer versions."""

    def __init__(self, rados=None) -> None:
        self.rados = rados
        self._versions: list[PolicyVersion] = []

    # -- log access -----------------------------------------------------
    def __len__(self) -> int:
        return len(self._versions)

    @property
    def head(self) -> Optional[PolicyVersion]:
        return self._versions[-1] if self._versions else None

    def get(self, version: int) -> PolicyVersion:
        for record in self._versions:
            if record.version == version:
                return record
        raise KeyError(f"no policy version {version}")

    def log(self) -> tuple[PolicyVersion, ...]:
        return tuple(self._versions)

    def policy_at(self, version: int) -> MantlePolicy:
        """Re-materialise the policy stored as *version*."""
        record = self.get(version)
        return parse_policy_source(record.source, name=record.name)

    # -- mutation -------------------------------------------------------
    def commit(self, policy: MantlePolicy, now: float,
               note: str = "", lint: str = "") -> PolicyVersion:
        """Record *policy* as the new head version."""
        record = PolicyVersion(
            version=len(self._versions) + 1,
            name=policy.name,
            source=dump_policy(policy),
            time=now,
            note=note,
            lint=lint,
        )
        self._versions.append(record)
        self._mirror(record)
        return record

    def rollback(self, to_version: int, now: float,
                 note: str = "") -> PolicyVersion:
        """Commit *to_version*'s source again as the new head."""
        old = self.get(to_version)
        policy = parse_policy_source(old.source, name=old.name)
        return self.commit(
            policy, now, note=note or f"rollback to v{to_version}"
        )

    def _mirror(self, record: PolicyVersion) -> None:
        # Direct payload writes: versioning is bookkeeping, not simulated
        # I/O (see module docstring).
        if self.rados is None:
            return
        self.rados.payloads[
            VERSION_OBJ.format(version=record.version)
        ] = record.source
        self.rados.payloads[INDEX_OBJ] = {
            "head": record.version,
            "log": [
                {"version": r.version, "name": r.name,
                 "time": r.time, "note": r.note, "lint": r.lint}
                for r in self._versions
            ],
        }

    # -- (de)serialisation for the CLI `store` subcommand ---------------
    def to_json(self) -> str:
        return json.dumps(
            {"versions": [asdict(r) for r in self._versions]},
            indent=2, sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "PolicyStore":
        data = json.loads(text)
        store = cls()
        for raw in data.get("versions", []):
            store._versions.append(PolicyVersion(**raw))
        return store

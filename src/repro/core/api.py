"""The Mantle policy API.

A :class:`MantlePolicy` is the unit of injection: four hooks (paper §3.2)
expressed as Mantle-Lua source plus a list of dirfrag-selector names.

* ``metaload`` -- formula scoring one dirfrag/subtree from its counters;
* ``mdsload`` -- formula scoring MDS *i* from ``MDSs[i][...]`` metrics;
* ``when`` -- chunk that must set ``go = <boolean>`` (migrate or not);
* ``where`` -- chunk that populates ``targets[i] = <load to send>``;
* ``howmuch`` -- names of dirfrag selectors to race against each other.

``when`` and ``where`` execute in the same environment in sequence (the
paper concatenates them into one injected block), so locals discovered by
``when`` -- e.g. the target rank search in Listing 2 -- are visible to
``where``.
"""

from __future__ import annotations

from dataclasses import field
from typing import Sequence

from ..dataclass import dataclass
from ..luapolicy import DEFAULT_BUDGET
from ..luapolicy.sandbox import CompiledPolicy, compile_policy
from .environment import compile_mdsload, compile_metaload
from .selectors import get_selector

#: Table 1 scalarizations (the original CephFS balancer formulas).
CEPHFS_METALOAD = "IRD + 2*IWR + READDIR + 2*FETCH + 4*STORE"
CEPHFS_MDSLOAD = ('0.8*MDSs[i]["auth"] + 0.2*MDSs[i]["all"]'
                  ' + MDSs[i]["req"] + 10*MDSs[i]["q"]')


@dataclass
class MantlePolicy:
    """An injectable balancer: the four hooks plus selector names."""

    name: str
    metaload: str = CEPHFS_METALOAD
    mdsload: str = CEPHFS_MDSLOAD
    when: str = "go = false"
    where: str = ""
    howmuch: Sequence[str] = field(default_factory=lambda: ("big_first",))
    #: Scale factor applied to each target load before shipping; the
    #: original balancer multiplies by mds_bal_need_min = 0.8 to tolerate
    #: measurement noise (§2.2.3).
    need_min_factor: float = 1.0
    #: Ignore export units whose load falls below this floor.
    min_unit_load: float = 1e-6
    #: A *subtree* whose load exceeds remaining_target * max_overshoot is
    #: too popular to move whole; the balancer drills into it instead
    #: (paper §3.2: "subtrees are divided and migrated only if their
    #: ancestors are too popular to migrate").  Dirfrags are never divided.
    max_overshoot: float = 1.25
    #: Instruction budget per hook execution.
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        self._metaload_fn = None
        self._mdsload_fn = None
        self._decision_chunk: CompiledPolicy | None = None

    # -- compiled forms (lazy, cached) ------------------------------------
    def metaload_fn(self):
        if self._metaload_fn is None:
            self._metaload_fn = compile_metaload(self.metaload)
        return self._metaload_fn

    def mdsload_fn(self):
        if self._mdsload_fn is None:
            self._mdsload_fn = compile_mdsload(self.mdsload)
        return self._mdsload_fn

    def decision_source(self) -> str:
        """The combined when+where chunk actually executed each tick."""
        return (
            f"{self.when}\n"
            "if go then\n"
            f"{self.where}\n"
            "end\n"
        )

    def decision_chunk(self) -> CompiledPolicy:
        if self._decision_chunk is None:
            self._decision_chunk = compile_policy(
                self.decision_source(), budget=self.budget
            )
        return self._decision_chunk

    def compile_all(self) -> None:
        """Force-compile every hook (raises LuaSyntaxError on bad source)."""
        self.metaload_fn()
        self.mdsload_fn()
        self.decision_chunk()
        for selector_name in self.howmuch:
            get_selector(selector_name)

    def describe(self) -> str:
        return (
            f"MantlePolicy {self.name!r}\n"
            f"  mds_bal_metaload: {self.metaload}\n"
            f"  mds_bal_mdsload:  {self.mdsload}\n"
            f"  mds_bal_when:     {self.when.strip().splitlines()[0]}...\n"
            f"  mds_bal_howmuch:  {list(self.howmuch)}\n"
            f"  need_min_factor:  {self.need_min_factor}"
        )

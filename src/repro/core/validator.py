"""Pre-injection policy validation.

Paper §4.4: "We wrote a simulator that checks the logic before injecting
policies in the running cluster."  This module is that simulator: it
compiles every hook, then dry-runs the policy against a synthetic cluster
snapshot under a small instruction budget.  A policy that fails here would
have aborted balancing ticks (or worse, under the original hard-coded
design, taken the MDS down).
"""

from __future__ import annotations

from dataclasses import field

from ..dataclass import dataclass
from ..luapolicy.errors import LuaBudgetExceeded, LuaError, LuaSyntaxError
from ..luapolicy.parser import parse_chunk
from .api import MantlePolicy
from .environment import HookError, run_hooks
from .selectors import get_selector
from .state import BalancerState

#: Budget for validation dry-runs -- deliberately small so an expensive
#: policy is flagged before it slows real balancing ticks.
VALIDATION_BUDGET = 200_000


@dataclass
class ValidationReport:
    """Outcome of validating one policy."""

    policy_name: str
    problems: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    #: Structured static-analysis findings (see :mod:`repro.analysis`).
    diagnostics: tuple = ()
    #: Dry-run outputs, useful for eyeballing a new policy.
    sample_metaload: float | None = None
    sample_loads: list[float] = field(default_factory=list)
    sample_go: object = None
    sample_targets: dict[int, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems

    def add_problem(self, text: str) -> None:
        if text not in self.problems:
            self.problems.append(text)

    def add_warning(self, text: str) -> None:
        if text not in self.warnings:
            self.warnings.append(text)


def _attribute_decision_syntax(policy: MantlePolicy,
                               exc: LuaSyntaxError) -> str:
    """Name the hook (when vs where) a combined-chunk syntax error is in."""
    try:
        parse_chunk(policy.when)
    except LuaSyntaxError as when_exc:
        return f"when syntax: {when_exc}"
    try:
        parse_chunk(policy.where)
    except LuaSyntaxError as where_exc:
        return f"where syntax: {where_exc}"
    return f"when/where syntax: {exc}"


def _attribute_decision_runtime(policy: MantlePolicy,
                                exc: LuaError) -> str:
    """Map a combined-chunk runtime error line back to its hook.

    ``decision_source`` lays the chunk out as the ``when`` lines, one
    ``if go then`` guard line, then the ``where`` lines.
    """
    line = getattr(exc, "line", None)
    if line is None:
        return f"when/where runtime: {exc}"
    when_lines = len(policy.when.split("\n"))
    if line <= when_lines:
        return f"when runtime (when:{line}): {exc}"
    if line == when_lines + 1:  # the synthetic ``if go then`` guard
        return f"when runtime (evaluating go): {exc}"
    return f"where runtime (where:{line - when_lines - 1}): {exc}"


def _attribute_hook_error(policy: MantlePolicy, exc: HookError,
                          num_ranks: int) -> str:
    """The problem line for a hook that failed the dry-run tick."""
    if exc.hook != "decision":
        return str(exc)
    if isinstance(exc.error, LuaBudgetExceeded):
        return (f"when/where: decision chunk exceeded {VALIDATION_BUDGET} "
                f"instructions on a {num_ranks}-rank dry run (unbounded "
                "loop?)")
    return _attribute_decision_runtime(policy, exc.error)


def _sample_counters() -> dict[str, float]:
    return {"IRD": 120.0, "IWR": 260.0, "READDIR": 8.0,
            "FETCH": 4.0, "STORE": 6.0}


def _sample_cluster(num_ranks: int) -> list[dict]:
    """A believably imbalanced cluster: rank 0 hot, the rest cool."""
    metrics = []
    for rank in range(num_ranks):
        hot = rank == 0
        metrics.append({
            "auth": 540.0 if hot else 0.0,
            "all": 600.0 if hot else 0.0,
            "cpu": 92.0 if hot else 2.0,
            "mem": 35.0 if hot else 10.0,
            "q": 22.0 if hot else 0.0,
            "req": 3400.0 if hot else 0.0,
            "alive": 1.0,
        })
    return metrics


def validate_policy(policy: MantlePolicy, num_ranks: int = 4,
                    lint: bool = True) -> ValidationReport:
    """Compile and dry-run *policy*; never raises on policy errors.

    With *lint* (the default) the static analyzer runs first and its
    findings land both as structured :attr:`ValidationReport.diagnostics`
    and as hook-attributed problem/warning strings.
    """
    report = ValidationReport(policy_name=policy.name)

    # 0. Static analysis (repro.analysis), ahead of any execution.
    if lint:
        from ..analysis import lint_policy
        lint_report = lint_policy(policy, num_ranks=num_ranks,
                                  budget=VALIDATION_BUDGET)
        report.diagnostics = lint_report.diagnostics
        for diag in lint_report.errors:
            report.add_problem(f"lint: {diag.format()}")
        for diag in lint_report.warnings:
            report.add_warning(f"lint: {diag.format()}")

    # 1. Selectors must exist.
    if not policy.howmuch:
        report.add_problem("howmuch lists no dirfrag selectors")
    for name in policy.howmuch:
        try:
            get_selector(name)
        except KeyError as exc:
            report.add_problem(f"howmuch: {exc}")

    # 2. The metaload formula compiles and produces a number.
    try:
        report.sample_metaload = policy.metaload_fn()(_sample_counters())
        if report.sample_metaload < 0:
            report.add_warning(
                "metaload is negative on the sample snapshot"
            )
    except (LuaError, Exception) as exc:  # noqa: BLE001 - report everything
        report.add_problem(f"metaload: {exc}")

    # 3. One balancing tick dry-runs within budget: the live code path.
    try:
        chunk = policy.decision_chunk()
    except LuaSyntaxError as exc:
        report.add_problem(_attribute_decision_syntax(policy, exc))
        return report

    # A believable snapshot pair: everything this rank serves (all) is a
    # little more than what it has authority over (auth).
    counters = _sample_counters()
    all_counters = {kind: value * 1.1 for kind, value in counters.items()}
    cluster = _sample_cluster(num_ranks)
    saved_budget = chunk.budget
    try:
        chunk.budget = VALIDATION_BUDGET
        report.sample_go, report.sample_targets = run_hooks(
            policy, 0, cluster, counters, all_counters, BalancerState())
    except HookError as exc:
        report.add_problem(_attribute_hook_error(policy, exc, num_ranks))
        return report
    finally:
        chunk.budget = saved_budget
        report.sample_loads = [m["load"] for m in cluster if "load" in m]

    if report.sample_go is None:
        report.add_warning(
            "when: the when chunk never set 'go'; the policy will never "
            "migrate"
        )
    if report.sample_go and not report.sample_targets:
        report.add_warning(
            "where: when fired on the sample cluster but where produced "
            "no targets"
        )
    total = sum(report.sample_targets.values())
    my_load = cluster[0]["load"]
    if my_load and total > my_load * 1.5:
        report.add_warning(
            f"where: targets ship {total:.1f} load but this rank only has "
            f"{my_load:.1f} (overshooting)"
        )
    return report

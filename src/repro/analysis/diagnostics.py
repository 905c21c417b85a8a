"""Structured lint findings for Mantle policies.

A :class:`Diagnostic` is one finding of the static analyzer: a rule id, a
severity, the hook it was found in, a source position (line/column are
1-based and relative to that hook's source text) and a fix hint.  The rule
catalogue below is the single source of truth for ids and severities; the
full prose catalogue with examples lives in ``docs/ANALYSIS.md``.
"""

from __future__ import annotations

from dataclasses import field
from typing import Optional

from ..dataclass import dataclass

#: rule id -> (slug, severity).  Severities: ``error`` blocks injection
#: (unless explicitly bypassed), ``warning`` is advisory.
RULES: dict[str, tuple[str, str]] = {
    # syntax / structure
    "M001": ("syntax-error", "error"),
    # CFG / def-use (repro.analysis.defuse)
    "M101": ("undefined-global", "error"),
    "M102": ("misspelled-binding", "error"),
    "M103": ("use-before-def", "warning"),
    "M104": ("dead-write", "warning"),
    "M105": ("binding-overwrite", "warning"),
    "M106": ("shadowed-builtin-call", "error"),
    "M107": ("unknown-metric-key", "error"),
    # hook contracts (repro.analysis.absint)
    "M201": ("hook-return-type", "error"),
    "M202": ("go-not-boolean", "warning"),
    "M203": ("go-never-set", "warning"),
    "M204": ("targets-index-range", "error"),
    "M205": ("load-conservation", "warning"),
    # loop bounds / cost (repro.analysis.loops)
    "M301": ("infinite-loop", "error"),
    "M302": ("loop-bound-unprovable", "warning"),
    "M303": ("loop-budget", "warning"),
    # determinism / purity (repro.analysis.purity)
    "M401": ("forbidden-call", "error"),
    "M402": ("impure-load-hook", "error"),
}

_SEVERITY_ORDER = {"error": 0, "warning": 1, "info": 2}
_HOOK_ORDER = {"policy": 0, "metaload": 1, "mdsload": 2, "when": 3,
               "where": 4, "howmuch": 5}


def rule_severity(rule: str) -> str:
    return RULES[rule][1]


def rule_slug(rule: str) -> str:
    return RULES[rule][0]


@dataclass(frozen=True)
class Diagnostic:
    """One static-analysis finding.

    ``line``/``column`` are 1-based positions *within the hook's source
    text* (the way policy files and ``MantlePolicy`` fields carry hooks),
    or None when the finding has no single position.
    """

    rule: str
    hook: str
    message: str
    line: Optional[int] = None
    column: Optional[int] = None
    hint: str = ""
    severity: str = field(default="")

    def __post_init__(self) -> None:
        if not self.severity:
            object.__setattr__(self, "severity", rule_severity(self.rule))

    @property
    def slug(self) -> str:
        return rule_slug(self.rule)

    def location(self) -> str:
        if self.line is None:
            return self.hook
        if not self.column:
            return f"{self.hook}:{self.line}"
        return f"{self.hook}:{self.line}:{self.column}"

    def format(self) -> str:
        text = f"{self.severity}[{self.rule}] {self.location()}: {self.message}"
        if self.hint:
            text += f" (hint: {self.hint})"
        return text

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "slug": self.slug,
            "severity": self.severity,
            "hook": self.hook,
            "message": self.message,
            "line": self.line,
            "column": self.column,
            "hint": self.hint,
        }

    def sort_key(self) -> tuple:
        return (
            _HOOK_ORDER.get(self.hook, 99),
            self.line if self.line is not None else 0,
            self.column if self.column is not None else 0,
            self.rule,
        )


@dataclass(frozen=True)
class LintReport:
    """All findings for one policy, ordered by hook then position."""

    policy_name: str
    diagnostics: tuple[Diagnostic, ...] = ()

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "error")

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity == "warning")

    @property
    def ok(self) -> bool:
        """True when nothing error-severity fired (warnings are advisory)."""
        return not self.errors

    def summary(self) -> str:
        """Short one-line summary, e.g. for ``store log``."""
        errors, warnings = len(self.errors), len(self.warnings)
        if not errors and not warnings:
            return "lint:clean"
        parts = []
        if errors:
            parts.append(f"{errors}E")
        if warnings:
            parts.append(f"{warnings}W")
        return "lint:" + ",".join(parts)

    def render(self) -> str:
        """Multi-line human-readable report."""
        if not self.diagnostics:
            return f"{self.policy_name}: clean"
        lines = [d.format() for d in self.diagnostics]
        errors, warnings = len(self.errors), len(self.warnings)
        lines.append(f"{self.policy_name}: {errors} error(s), "
                     f"{warnings} warning(s)")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "policy": self.policy_name,
            "ok": self.ok,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


class PolicyLintError(ValueError):
    """Raised by the injection path when a policy fails an error-severity
    lint rule and lint was not explicitly bypassed."""

    def __init__(self, report: LintReport) -> None:
        first = report.errors[0].format() if report.errors else ""
        super().__init__(
            f"policy {report.policy_name!r} failed lint with "
            f"{len(report.errors)} error(s); first: {first} "
            "(pass lint=False / --no-lint to inject anyway)"
        )
        self.report = report


def finalize(policy_name: str,
             diagnostics: list[Diagnostic]) -> LintReport:
    """De-duplicate, apply suppressions, sort, and build the report.

    Suppressions: an M401/M402/M107 finding at a position also flagged as
    an undefined/misspelled name (M101/M102) keeps only the more specific
    rule.
    """
    specific = {(d.hook, d.line, d.column)
                for d in diagnostics if d.rule in ("M401", "M402", "M107")}
    kept: list[Diagnostic] = []
    seen: set[tuple] = set()
    for diag in diagnostics:
        if diag.rule in ("M101", "M102") and \
                (diag.hook, diag.line, diag.column) in specific:
            continue
        key = (diag.rule, diag.hook, diag.line, diag.column, diag.message)
        if key in seen:
            continue
        seen.add(key)
        kept.append(diag)
    kept.sort(key=lambda d: (_SEVERITY_ORDER.get(d.severity, 9),) +
              d.sort_key())
    return LintReport(policy_name, tuple(kept))

"""Determinism and purity rules.

The sandbox rejects non-whitelisted stdlib names at run time; the fast
path memoizes ``metaload`` results per counter snapshot, which is only
sound when the hook is a pure function of its counters.  Two rules keep
the static view in lock-step with both:

* M401 forbidden-call -- calling anything outside the sandbox whitelist
  (``os.time``, ``math.random``, ``print``...).  The whitelist here is
  *derived from the live sandbox* (:data:`SANDBOX_GLOBALS` /
  :data:`SANDBOX_TABLE_MEMBERS` are built from ``_stdlib_vars()``), so
  the static rule cannot drift from the runtime behaviour.
* M402 impure-load-hook -- ``metaload``/``mdsload`` touching the
  persistent ``WRstate``/``RDstate`` store.  Load hooks are memoized per
  tick by the balancer and replayed by the validator; both assume purity.
"""

from __future__ import annotations

from ..core.environment import DECISION_FUNCTIONS
from ..luapolicy import lua_ast as ast
from ..luapolicy.stdlib import (
    FORBIDDEN_STDLIB_GLOBALS,
    SANDBOX_GLOBALS,
    SANDBOX_TABLE_MEMBERS,
)
from .diagnostics import Diagnostic

#: Hooks whose results are memoized / replayed and must stay pure.
LOAD_HOOKS = frozenset({"metaload", "mdsload"})


def _chunk_defined_names(block: ast.Block, out: set[str]) -> None:
    for stmt in block.statements:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    out.add(target.name)
        elif isinstance(stmt, ast.LocalAssign):
            out.update(stmt.names)
        elif isinstance(stmt, ast.FunctionDecl):
            out.add(stmt.name)
            _chunk_defined_names(stmt.func.body, out)
        elif isinstance(stmt, ast.If):
            for _cond, body in stmt.branches:
                _chunk_defined_names(body, out)
            _chunk_defined_names(stmt.orelse, out)
        elif isinstance(stmt, (ast.While, ast.Repeat)):
            _chunk_defined_names(stmt.body, out)
        elif isinstance(stmt, ast.NumericFor):
            out.add(stmt.var)
            _chunk_defined_names(stmt.body, out)
        elif isinstance(stmt, ast.GenericFor):
            out.update(stmt.names)
            _chunk_defined_names(stmt.body, out)
        elif isinstance(stmt, ast.Do):
            _chunk_defined_names(stmt.body, out)


class _PurityWalker:
    """Visits every call (and state read) in a chunk, including inside
    function-expression bodies that the CFG pass deliberately skips."""

    def __init__(self, hook: str, env_names: frozenset[str],
                 defined: set[str],
                 diagnostics: list[Diagnostic]) -> None:
        self.hook = hook
        self.env_names = env_names
        self.defined = defined
        self.diagnostics = diagnostics

    # -- statements -----------------------------------------------------
    def block(self, block: ast.Block) -> None:
        for stmt in block.statements:
            self.statement(stmt)

    def statement(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Assign):
            for target in stmt.targets:
                if isinstance(target, ast.Index):
                    self.expr(target.obj)
                    self.expr(target.key)
            for value in stmt.values:
                self.expr(value)
        elif isinstance(stmt, ast.LocalAssign):
            for value in stmt.values:
                self.expr(value)
        elif isinstance(stmt, ast.CallStmt):
            self.expr(stmt.call)
        elif isinstance(stmt, ast.Return):
            for value in stmt.values:
                self.expr(value)
        elif isinstance(stmt, ast.If):
            for condition, body in stmt.branches:
                self.expr(condition)
                self.block(body)
            self.block(stmt.orelse)
        elif isinstance(stmt, (ast.While, ast.Repeat)):
            self.expr(stmt.condition)
            self.block(stmt.body)
        elif isinstance(stmt, ast.NumericFor):
            self.expr(stmt.start)
            self.expr(stmt.stop)
            if stmt.step is not None:
                self.expr(stmt.step)
            self.block(stmt.body)
        elif isinstance(stmt, ast.GenericFor):
            self.expr(stmt.iterable)
            self.block(stmt.body)
        elif isinstance(stmt, ast.FunctionDecl):
            self.block(stmt.func.body)
        elif isinstance(stmt, ast.Do):
            self.block(stmt.body)

    # -- expressions ----------------------------------------------------
    def expr(self, expr: ast.Expr) -> None:
        if isinstance(expr, ast.Call):
            self._check_call(expr)
            if not isinstance(expr.func, (ast.Name, ast.Index)):
                self.expr(expr.func)
            for arg in expr.args:
                self.expr(arg)
        elif isinstance(expr, ast.Name):
            self._check_state_read(expr)
        elif isinstance(expr, ast.Index):
            self.expr(expr.obj)
            self.expr(expr.key)
        elif isinstance(expr, ast.UnaryOp):
            self.expr(expr.operand)
        elif isinstance(expr, ast.BinaryOp):
            self.expr(expr.left)
            self.expr(expr.right)
        elif isinstance(expr, ast.TableConstructor):
            for tfield in expr.fields:
                if tfield.key is not None:
                    self.expr(tfield.key)
                self.expr(tfield.value)
        elif isinstance(expr, ast.FunctionExpr):
            self.block(expr.body)

    def _check_state_read(self, name: ast.Name) -> None:
        if self.hook in LOAD_HOOKS and name.name in DECISION_FUNCTIONS:
            self.diagnostics.append(Diagnostic(
                "M402", self.hook,
                f"{name.name!r} touches the persistent policy state -- "
                f"{self.hook} must be a pure function of its counters "
                "(its results are memoized)",
                name.line, name.column,
                hint="move stateful logic into the when/where hooks"))

    def _check_call(self, call: ast.Call) -> None:
        func = call.func
        if isinstance(func, ast.Name):
            name = func.name
            if name in self.defined:
                return
            if name in DECISION_FUNCTIONS:
                if self.hook in LOAD_HOOKS:
                    self._check_state_read(func)
                return
            if name in self.env_names or name in SANDBOX_GLOBALS:
                return
            if name in FORBIDDEN_STDLIB_GLOBALS:
                self.diagnostics.append(Diagnostic(
                    "M401", self.hook,
                    f"call to {name!r}, which the sandbox removes -- "
                    "policies must be deterministic and side-effect "
                    "free", func.line, func.column,
                    hint="only the whitelisted stdlib subset "
                         "(max, min, math.floor, ...) is available"))
            else:
                self.diagnostics.append(Diagnostic(
                    "M401", self.hook,
                    f"call to unknown function {name!r} (not a sandbox "
                    "builtin and never defined in this chunk)",
                    func.line, func.column))
            return
        if isinstance(func, ast.Index) and \
                isinstance(func.obj, ast.Name) and \
                isinstance(func.key, ast.StringLiteral):
            root, member = func.obj.name, func.key.value
            if root in self.defined or root in self.env_names:
                return
            members = SANDBOX_TABLE_MEMBERS.get(root)
            if members is not None:
                if member not in members:
                    self.diagnostics.append(Diagnostic(
                        "M401", self.hook,
                        f"call to '{root}.{member}', which is not in the "
                        "sandbox whitelist",
                        func.key.line, func.key.column,
                        hint="available: " + ", ".join(
                            f"{root}.{m}" for m in sorted(members))))
                return
            if root in FORBIDDEN_STDLIB_GLOBALS:
                self.diagnostics.append(Diagnostic(
                    "M401", self.hook,
                    f"call to '{root}.{member}' -- the {root!r} library "
                    "is removed by the sandbox (non-deterministic or "
                    "side-effecting)", func.obj.line, func.obj.column,
                    hint="policies cannot touch the OS, files, or "
                         "wall-clock time"))
            return
        self.expr(func)


def check_purity(block: ast.Block, hook: str,
                 env_names: frozenset[str],
                 diagnostics: list[Diagnostic]) -> None:
    """Run M401/M402 over one hook chunk."""
    defined: set[str] = set()
    _chunk_defined_names(block, defined)
    _PurityWalker(hook, env_names, defined, diagnostics).block(block)

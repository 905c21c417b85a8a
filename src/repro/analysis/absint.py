"""Abstract interpretation of policy hooks over types + intervals.

The analyzer executes a hook chunk structurally with abstract values: a
set of possible Lua types, a numeric interval, and -- when the value is an
exact linear combination of the Mantle load symbols (``myload`` for
``MDSs[whoami]["load"]``, ``total``, ``allmetaload``, ``authmetaload``) --
its linear form.  Loops are iterated twice and widened, so the pass always
terminates.

This is what proves the hook contracts:

* M201 hook-return-type -- ``metaload``/``mdsload`` must produce a number;
* M202 go-not-boolean   -- ``when`` should leave ``go`` boolean-ish
  (``go = 1`` is flagged: the driver treats any non-nil as "migrate");
* M203 go-never-set     -- ``when`` never assigns ``go`` at all;
* M204 targets-index-range -- a ``targets[i]`` write provably outside
  ``1..#MDSs`` (checked at the dry-run cluster size, like the validator);
* M205 load-conservation -- the provable sum of ``targets`` writes
  exceeds ``MDSs[whoami]["load"]``, the classic ping-pong source;
* M107 unknown-metric-key -- ``MDSs[i]["lod"]`` against
  ``MDS_METRIC_KEYS``.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import field
from typing import Optional

from ..dataclass import dataclass
from ..core.environment import MDS_METRIC_KEYS
from ..luapolicy import lua_ast as ast
from ..namespace.counters import OP_KINDS
from .diagnostics import Diagnostic

INF = math.inf
ALL_TYPES = frozenset(
    {"nil", "boolean", "number", "string", "table", "function"})
_NUMBER = frozenset({"number"})
_EPSILON = 1e-9


@dataclass(frozen=True)
class AValue:
    """One abstract value: possible types, numeric range, linear form."""

    types: frozenset[str]
    lo: float = -INF
    hi: float = INF
    #: Exact linear form ``sum(coeff * symbol) + terms[""]`` over the load
    #: symbols, or None when the value is not provably linear.
    terms: Optional[tuple[tuple[str, float], ...]] = None

    def terms_dict(self) -> Optional[dict[str, float]]:
        return dict(self.terms) if self.terms is not None else None


TOP = AValue(ALL_TYPES)
A_NIL = AValue(frozenset({"nil"}))
A_BOOL = AValue(frozenset({"boolean"}))
A_STRING = AValue(frozenset({"string"}))
A_TABLE = AValue(frozenset({"table"}))
A_FUNCTION = AValue(frozenset({"function"}))


def a_number(lo: float = -INF, hi: float = INF,
             terms: Optional[dict[str, float]] = None) -> AValue:
    packed = tuple(sorted(terms.items())) if terms is not None else None
    return AValue(_NUMBER, lo, hi, packed)


def a_const(value: float) -> AValue:
    return a_number(value, value, {"": value})


def a_symbol(name: str, lo: float = 0.0, hi: float = INF) -> AValue:
    return a_number(lo, hi, {name: 1.0})


def join(a: AValue, b: AValue) -> AValue:
    return AValue(a.types | b.types, min(a.lo, b.lo), max(a.hi, b.hi),
                  a.terms if a.terms == b.terms else None)


def widen(value: AValue) -> AValue:
    return AValue(value.types, -INF, INF, None)


def _mul_bound(a: float, b: float) -> float:
    if (a == 0 and math.isinf(b)) or (b == 0 and math.isinf(a)):
        return 0.0
    return a * b


def _arith(op: str, a: AValue, b: AValue) -> AValue:
    """Interval arithmetic; exact linear forms where they survive."""
    terms: Optional[dict[str, float]] = None
    ta, tb = a.terms_dict(), b.terms_dict()
    if op == "+":
        lo, hi = a.lo + b.lo, a.hi + b.hi
        if ta is not None and tb is not None:
            terms = dict(ta)
            for key, coeff in tb.items():
                terms[key] = terms.get(key, 0.0) + coeff
    elif op == "-":
        lo, hi = a.lo - b.hi, a.hi - b.lo
        if ta is not None and tb is not None:
            terms = dict(ta)
            for key, coeff in tb.items():
                terms[key] = terms.get(key, 0.0) - coeff
    elif op == "*":
        candidates = [_mul_bound(x, y)
                      for x in (a.lo, a.hi) for y in (b.lo, b.hi)]
        lo, hi = min(candidates), max(candidates)
        const_a = ta.get("", None) if ta is not None and len(ta) == 1 \
            else None
        const_b = tb.get("", None) if tb is not None and len(tb) == 1 \
            else None
        if const_b is not None and ta is not None:
            terms = {key: coeff * const_b for key, coeff in ta.items()}
        elif const_a is not None and tb is not None:
            terms = {key: coeff * const_a for key, coeff in tb.items()}
    elif op == "/":
        if b.lo > 0 or b.hi < 0:
            candidates = [x / y for x in (a.lo, a.hi)
                          for y in (b.lo, b.hi) if y != 0]
            lo, hi = min(candidates), max(candidates)
        else:
            lo, hi = -INF, INF  # the divisor range includes zero
        const_b = tb.get("", None) if tb is not None and len(tb) == 1 \
            else None
        if const_b not in (None, 0.0) and ta is not None:
            terms = {key: coeff / const_b for key, coeff in ta.items()}
    elif op == "%":
        if b.hi < INF and b.lo > -INF:
            bound = max(abs(b.lo), abs(b.hi))
            lo, hi = -bound, bound
        else:
            lo, hi = -INF, INF
    else:  # '^'
        lo, hi = -INF, INF
    if math.isnan(lo) or math.isnan(hi):
        lo, hi = -INF, INF
    if terms is not None:
        # an exact form pins the interval exactly only when constant
        if len(terms) == 1 and "" in terms:
            lo = hi = terms[""]
    return a_number(lo, hi, terms)


@dataclass
class TargetWrite:
    key: AValue
    value: AValue
    line: int
    column: int
    in_loop: bool
    hook: str


@dataclass
class AbstractState:
    env: dict[str, AValue] = field(default_factory=dict)

    def copy(self) -> "AbstractState":
        return AbstractState(dict(self.env))


def _join_states(states: list[AbstractState]) -> AbstractState:
    merged: dict[str, AValue] = {}
    names = set()
    for state in states:
        names.update(state.env)
    for name in names:
        values = []
        for state in states:
            value = state.env.get(name)
            # absent in one branch: the global is (still) nil there
            values.append(value if value is not None else A_NIL)
        result = values[0]
        for value in values[1:]:
            result = join(result, value)
        merged[name] = result
    return AbstractState(merged)


class AbstractInterp:
    """Structural abstract executor for one hook (or hook pair)."""

    def __init__(self, num_ranks: int,
                 diagnostics: list[Diagnostic]) -> None:
        self.num_ranks = num_ranks
        self.diagnostics = diagnostics
        self.state = AbstractState()
        self.target_writes: list[TargetWrite] = []
        self.returns: list[tuple[AValue, int, int]] = []
        self.last_def_pos: dict[str, tuple[int, int]] = {}
        self._loop_depth = 0
        self._hook = "policy"

    # -- hook environments ---------------------------------------------
    def seed_decision_env(self) -> None:
        n = float(self.num_ranks)
        env = self.state.env
        env["whoami"] = a_number(1.0, n, {"whoami": 1.0})
        env["MDSs"] = A_TABLE
        env["total"] = a_symbol("total")
        env["authmetaload"] = a_symbol("authmetaload")
        env["allmetaload"] = a_symbol("allmetaload")
        env["targets"] = A_TABLE
        env["WRstate"] = A_FUNCTION
        env["RDstate"] = A_FUNCTION
        for kind in OP_KINDS:
            env[kind] = a_number(0.0, INF)

    def seed_metaload_env(self) -> None:
        for kind in OP_KINDS:
            self.state.env[kind] = a_number(0.0, INF)

    def seed_mdsload_env(self) -> None:
        self.state.env["MDSs"] = A_TABLE
        self.state.env["i"] = a_number(1.0, float(self.num_ranks))

    # -- execution ------------------------------------------------------
    def run_block(self, block: ast.Block, hook: str) -> None:
        self._hook = hook
        self._exec_block(block, self.state)

    def _exec_block(self, block: ast.Block, state: AbstractState) -> None:
        for stmt in block.statements:
            self._exec(stmt, state)

    def _exec(self, stmt: ast.Stmt, state: AbstractState) -> None:
        if isinstance(stmt, ast.Assign):
            values = [self._eval(v, state) for v in stmt.values]
            while len(values) < len(stmt.targets):
                values.append(A_NIL)
            for target, value in zip(stmt.targets, values):
                self._assign(target, value, state)
        elif isinstance(stmt, ast.LocalAssign):
            values = [self._eval(v, state) for v in stmt.values]
            while len(values) < len(stmt.names):
                values.append(A_NIL)
            for name, value in zip(stmt.names, values):
                state.env[name] = value
                self.last_def_pos[name] = (stmt.line, stmt.column)
        elif isinstance(stmt, ast.CallStmt):
            self._eval(stmt.call, state)
        elif isinstance(stmt, ast.Return):
            value = (self._eval(stmt.values[0], state)
                     if stmt.values else A_NIL)
            self.returns.append((value, stmt.line, stmt.column))
        elif isinstance(stmt, ast.If):
            branches: list[AbstractState] = []
            for condition, body in stmt.branches:
                self._eval(condition, state)
                branch = state.copy()
                self._exec_block(body, branch)
                branches.append(branch)
            orelse = state.copy()
            self._exec_block(stmt.orelse, orelse)
            branches.append(orelse)
            state.env = _join_states(branches).env
        elif isinstance(stmt, ast.While):
            self._eval(stmt.condition, state)
            self._loop_body(stmt.body, state)
        elif isinstance(stmt, ast.Repeat):
            self._loop_body(stmt.body, state, always_runs=True)
            self._eval(stmt.condition, state)
        elif isinstance(stmt, ast.NumericFor):
            start = self._eval(stmt.start, state)
            stop = self._eval(stmt.stop, state)
            if stmt.step is not None:
                self._eval(stmt.step, state)
            lo = start.lo if start.lo > -INF else -INF
            hi = stop.hi if stop.hi < INF else INF
            var = a_number(min(lo, hi), max(lo, hi))
            self._loop_body(stmt.body, state,
                            bind={stmt.var: var})
        elif isinstance(stmt, ast.GenericFor):
            self._eval(stmt.iterable, state)
            self._loop_body(stmt.body, state,
                            bind={name: TOP for name in stmt.names})
        elif isinstance(stmt, ast.FunctionDecl):
            state.env[stmt.name] = A_FUNCTION
            self.last_def_pos[stmt.name] = (stmt.line, stmt.column)
        elif isinstance(stmt, ast.Do):
            self._exec_block(stmt.body, state)
        # Break: no state effect beyond what joining already models

    def _loop_body(self, body: ast.Block, state: AbstractState,
                   bind: Optional[dict[str, AValue]] = None,
                   always_runs: bool = False) -> None:
        pre = state.copy()
        self._loop_depth += 1
        try:
            iterated = state.copy()
            for _ in range(2):
                if bind:
                    iterated.env.update(bind)
                self._exec_block(body, iterated)
        finally:
            self._loop_depth -= 1
        merged = (_join_states([pre, iterated]) if not always_runs
                  else iterated)
        # widen every name the loop changed: its fixpoint is unknown
        for name, value in merged.env.items():
            if pre.env.get(name) != value:
                merged.env[name] = widen(value)
        if bind:
            for name in bind:
                merged.env[name] = widen(merged.env[name])
        state.env = merged.env

    def _assign(self, target: ast.Expr, value: AValue,
                state: AbstractState) -> None:
        if isinstance(target, ast.Name):
            state.env[target.name] = value
            self.last_def_pos[target.name] = (target.line, target.column)
            return
        if isinstance(target, ast.Index):
            key = self._eval(target.key, state)
            self._eval(target.obj, state)
            if isinstance(target.obj, ast.Name) and \
                    target.obj.name == "targets":
                self.target_writes.append(TargetWrite(
                    key, value, target.line, target.column,
                    self._loop_depth > 0, self._hook))

    # -- expressions ----------------------------------------------------
    def _eval(self, expr: ast.Expr, state: AbstractState) -> AValue:
        if isinstance(expr, ast.NilLiteral):
            return A_NIL
        if isinstance(expr, ast.BoolLiteral):
            return A_BOOL
        if isinstance(expr, ast.NumberLiteral):
            return a_const(expr.value)
        if isinstance(expr, ast.StringLiteral):
            return A_STRING
        if isinstance(expr, ast.Name):
            return state.env.get(expr.name, A_NIL)
        if isinstance(expr, ast.Index):
            return self._eval_index(expr, state)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, state)
        if isinstance(expr, ast.UnaryOp):
            return self._eval_unary(expr, state)
        if isinstance(expr, ast.BinaryOp):
            return self._eval_binary(expr, state)
        if isinstance(expr, ast.TableConstructor):
            for tfield in expr.fields:
                if tfield.key is not None:
                    self._eval(tfield.key, state)
                self._eval(tfield.value, state)
            return A_TABLE
        if isinstance(expr, ast.FunctionExpr):
            return A_FUNCTION
        return TOP

    def _eval_index(self, expr: ast.Index, state: AbstractState) -> AValue:
        self._eval(expr.key, state)
        # MDSs[k]["metric"] -- check the metric key and recover the exact
        # linear form for MDSs[whoami]["load"].
        if isinstance(expr.obj, ast.Index) and \
                isinstance(expr.obj.obj, ast.Name) and \
                expr.obj.obj.name == "MDSs" and \
                isinstance(expr.key, ast.StringLiteral):
            metric = expr.key.value
            if metric not in MDS_METRIC_KEYS:
                close = difflib.get_close_matches(
                    metric, MDS_METRIC_KEYS, n=1, cutoff=0.6)
                hint = (f"did you mean {close[0]!r}?" if close else
                        "known keys: " + ", ".join(MDS_METRIC_KEYS))
                self.diagnostics.append(Diagnostic(
                    "M107", self._hook,
                    f"unknown MDS metric key {metric!r}",
                    expr.key.line, expr.key.column, hint=hint))
                return TOP
            inner_key = self._eval(expr.obj.key, state)
            if metric == "load" and \
                    inner_key.terms == (("whoami", 1.0),):
                return a_symbol("myload", lo=-INF)
            if metric == "alive":
                return a_number(0.0, 1.0)
            return a_number(-INF, INF)
        self._eval(expr.obj, state)
        return TOP

    def _eval_call(self, expr: ast.Call, state: AbstractState) -> AValue:
        args = [self._eval(arg, state) for arg in expr.args]
        func = expr.func
        if isinstance(func, ast.Name):
            name = func.name
            if name in ("max", "min") and args:
                agg = max if name == "max" else min
                return a_number(agg(a.lo for a in args),
                                agg(a.hi for a in args))
            if name == "tonumber":
                return AValue(frozenset({"number", "nil"}))
            if name == "tostring":
                return A_STRING
            if name == "type":
                return A_STRING
            if name == "WRstate":
                return A_NIL
            if name == "RDstate":
                return TOP
            if name == "assert" and args:
                return args[0]
            return TOP
        if isinstance(func, ast.Index) and \
                isinstance(func.obj, ast.Name) and \
                isinstance(func.key, ast.StringLiteral):
            root, member = func.obj.name, func.key.value
            if root == "math":
                if member in ("floor", "ceil"):
                    if args:
                        lo = math.floor(args[0].lo) \
                            if args[0].lo > -INF else -INF
                        hi = math.ceil(args[0].hi) \
                            if args[0].hi < INF else INF
                        return a_number(lo, hi)
                    return a_number()
                if member in ("max", "min") and args:
                    agg = max if member == "max" else min
                    return a_number(agg(a.lo for a in args),
                                    agg(a.hi for a in args))
                if member == "abs":
                    return a_number(0.0, INF)
                return a_number()
            if root == "string":
                if member in ("len", "byte"):
                    return AValue(frozenset({"number", "nil"}), 0.0, INF)
                if member == "find":
                    return AValue(frozenset({"number", "nil"}))
                return A_STRING
            if root == "table":
                if member == "concat":
                    return A_STRING
                if member == "remove":
                    return TOP
                return A_NIL
        self._eval(func, state)
        return TOP

    def _eval_unary(self, expr: ast.UnaryOp,
                    state: AbstractState) -> AValue:
        operand = self._eval(expr.operand, state)
        if expr.op == "-":
            terms = operand.terms_dict()
            if terms is not None:
                terms = {key: -coeff for key, coeff in terms.items()}
            return a_number(-operand.hi, -operand.lo, terms)
        if expr.op == "not":
            return A_BOOL
        # '#': exact cluster size for #MDSs, else a non-negative count
        if isinstance(expr.operand, ast.Name) and \
                expr.operand.name == "MDSs":
            return a_const(float(self.num_ranks))
        return a_number(0.0, INF)

    def _eval_binary(self, expr: ast.BinaryOp,
                     state: AbstractState) -> AValue:
        op = expr.op
        left = self._eval(expr.left, state)
        right = self._eval(expr.right, state)
        if op in ("==", "~=", "<", "<=", ">", ">="):
            return A_BOOL
        if op == "..":
            return A_STRING
        if op == "and":
            # value is right, or left when left is falsy (nil/false)
            types = right.types | (left.types & frozenset(
                {"nil", "boolean"}))
            return AValue(types, min(left.lo, right.lo),
                          max(left.hi, right.hi), right.terms)
        if op == "or":
            types = (left.types - frozenset({"nil"})) | right.types
            return AValue(types, min(left.lo, right.lo),
                          max(left.hi, right.hi), None)
        return _arith(op, left, right)

    # -- contract checks ------------------------------------------------
    def check_load_result(self, hook: str, output_global: str) -> None:
        """M201: the hook must produce a number."""
        if self.returns:
            result, line, column = self.returns[0]
            for value, _l, _c in self.returns[1:]:
                result = join(result, value)
        else:
            result = self.state.env.get(output_global, A_NIL)
            line, column = self.last_def_pos.get(output_global, (None, None))
        if "number" not in result.types:
            produced = "/".join(sorted(result.types))
            if result.types == frozenset({"nil"}) and not self.returns \
                    and output_global not in self.state.env:
                message = (f"hook never returns a value and never assigns "
                           f"the {output_global!r} global; the driver "
                           "will reject it at run time")
            else:
                message = (f"hook must produce a number, but it "
                           f"produces {produced}")
            self.diagnostics.append(Diagnostic(
                "M201", hook, message, line, column,
                hint="end the formula with a numeric expression "
                     f"or assign {output_global} = <number>"))

    def check_go(self) -> None:
        """M202/M203 on the when hook's exit state."""
        go = self.state.env.get("go")
        if go is None:
            self.diagnostics.append(Diagnostic(
                "M203", "when",
                "'go' is never assigned; the policy can never migrate",
                None, None,
                hint="assign go = <boolean> in the when hook"))
            return
        if not (go.types & frozenset({"boolean", "nil"})):
            line, column = self.last_def_pos.get("go", (None, None))
            produced = "/".join(sorted(go.types))
            self.diagnostics.append(Diagnostic(
                "M202", "when",
                f"'go' is always a {produced}, never a boolean -- the "
                "driver treats any non-nil value (even 0) as \"migrate\"",
                line, column,
                hint="convert with go = (go == 1) or a comparison"))

    def check_targets(self) -> None:
        """M204/M205 over the collected targets writes."""
        n = float(self.num_ranks)
        provable_sum: Optional[dict[str, float]] = {}
        first_write: Optional[TargetWrite] = None
        for write in self.target_writes:
            key = write.key
            if "number" not in key.types and key.types != ALL_TYPES:
                self.diagnostics.append(Diagnostic(
                    "M204", write.hook,
                    "targets index is never a number (the driver drops "
                    "non-numeric keys)", write.line, write.column))
            elif key.hi < 1.0 or key.lo > n:
                bound = ("< 1" if key.hi < 1.0 else f"> #MDSs ({n:g})")
                self.diagnostics.append(Diagnostic(
                    "M204", write.hook,
                    f"targets index is provably {bound} -- the write "
                    "can never select a rank "
                    f"(index range [{key.lo:g}, {key.hi:g}])",
                    write.line, write.column,
                    hint="rank indices are 1..#MDSs"))
            elif key.lo == key.hi and key.lo != int(key.lo):
                self.diagnostics.append(Diagnostic(
                    "M204", write.hook,
                    f"targets index is the non-integer constant "
                    f"{key.lo:g} (the driver drops it)",
                    write.line, write.column))
            # conservation: only provable outside loops with exact forms
            if provable_sum is None:
                continue
            terms = write.value.terms_dict()
            if write.in_loop or terms is None:
                provable_sum = None
                continue
            for key_name, coeff in terms.items():
                provable_sum[key_name] = \
                    provable_sum.get(key_name, 0.0) + coeff
        if provable_sum and first_write is None and self.target_writes:
            first_write = self.target_writes[0]
        if provable_sum and first_write is not None:
            myload = provable_sum.get("myload", 0.0)
            others = {key: coeff for key, coeff in provable_sum.items()
                      if key not in ("myload",) and coeff}
            # other symbols (total, allmetaload...) are non-negative, so a
            # non-positive coefficient can only lower the sum
            others_bounded = all(coeff <= 0 for key, coeff in others.items()
                                 if key != "")
            const = others.pop("", 0.0) if "" in others else 0.0
            if myload > 1.0 + _EPSILON and others_bounded and const >= 0:
                self.diagnostics.append(Diagnostic(
                    "M205", first_write.hook,
                    f"the provable sum of targets is {myload:g}x "
                    "MDSs[whoami][\"load\"]"
                    + (f" + {const:g}" if const else "")
                    + " -- the policy exports more load than this rank "
                    "has (ping-pong risk)",
                    first_write.line, first_write.column,
                    hint="scale the targets so they sum to at most "
                         "this rank's load"))

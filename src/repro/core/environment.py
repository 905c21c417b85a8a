"""The Mantle environment (paper Table 2).

Builds the global variables and functions injected policies see:

* current-MDS metrics: ``whoami``, ``authmetaload``, ``allmetaload``,
  ``IRD``/``IWR``/``READDIR``/``FETCH``/``STORE``;
* per-MDS metrics: ``MDSs[i]["auth"|"all"|"cpu"|"mem"|"q"|"req"|"load"]``
  and ``total``;
* functions: ``WRstate(s)``, ``RDstate()``, ``max``, ``min``.

Also compiles load formulas (``mds_bal_metaload``/``mds_bal_mdsload``) into
fast Python callables: simple arithmetic formulas are transpiled to native
closures (they run once per dirfrag per tick, which adds up), with the full
interpreter as the fallback for anything fancier.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Mapping

from ..luapolicy import lua_ast as ast
from ..luapolicy.errors import LuaRuntimeError, LuaSyntaxError
from ..luapolicy.parser import parse_expression
from ..luapolicy.sandbox import compile_load_expression
from ..namespace.counters import OP_KINDS

#: Keys every per-MDS metrics table carries (Table 2, plus the ``alive``
#: liveness flag: 1.0 for live ranks, 0.0 for ranks declared dead).
MDS_METRIC_KEYS = ("auth", "all", "cpu", "mem", "q", "req", "load", "alive")

#: Canonical binding sets per hook -- the global names each hook's chunk can
#: rely on, exactly as the builders below install them.  The static analyzer
#: (repro.analysis) checks policy reads against these, so a misspelling like
#: ``allmetalod`` is caught before injection instead of evaluating to nil.
METALOAD_BINDINGS: frozenset[str] = frozenset(OP_KINDS)
MDSLOAD_BINDINGS: frozenset[str] = frozenset({"MDSs", "i"})
DECISION_BINDINGS: frozenset[str] = frozenset({
    "whoami", "MDSs", "total", "authmetaload", "allmetaload", "targets",
    "WRstate", "RDstate", *OP_KINDS,
})
#: The decision bindings that are callables (persistent-state accessors).
DECISION_FUNCTIONS: frozenset[str] = frozenset({"WRstate", "RDstate"})


class _Unsupported(Exception):
    pass


class _FastPathMiss(Exception):
    """A transpiled mdsload hit a case whose semantics (nil propagation)
    only the interpreter models; the caller re-runs interpreted."""


#: Sentinel: "this subtree is not a compile-time constant".
_NOT_CONST = object()

_ARITH_OPS = ("+", "-", "*", "/", "%", "^")


def _fold_const(node: ast.Expr):
    """Value of a constant subtree, or ``_NOT_CONST``.

    Uses the same float operations the runtime closures would, so folding
    never changes a result bit.  Constant division by zero is deliberately
    *not* folded: its behaviour (raise vs IEEE inf) belongs to the caller's
    runtime semantics.
    """
    if isinstance(node, ast.NumberLiteral):
        return node.value
    if isinstance(node, ast.UnaryOp) and node.op == "-":
        value = _fold_const(node.operand)
        return _NOT_CONST if value is _NOT_CONST else -value
    if isinstance(node, ast.BinaryOp) and node.op in _ARITH_OPS:
        a = _fold_const(node.left)
        if a is _NOT_CONST:
            return _NOT_CONST
        b = _fold_const(node.right)
        if b is _NOT_CONST:
            return _NOT_CONST
        op = node.op
        if op == "+":
            return a + b
        if op == "-":
            return a - b
        if op == "*":
            return a * b
        if op == "/":
            return _NOT_CONST if b == 0 else a / b
        if op == "%":
            return math.nan if b == 0 else a - math.floor(a / b) * b
        return float(a) ** float(b)
    return _NOT_CONST


def _transpile(node: ast.Expr) -> Callable[[Mapping[str, float]], float]:
    """Compile a pure-arithmetic expression over named scalars to a closure."""
    folded = _fold_const(node)
    if folded is not _NOT_CONST:
        return lambda env, _value=folded: _value
    if isinstance(node, ast.Name):
        name = node.name
        def lookup(env: Mapping[str, float], _name=name) -> float:
            try:
                return float(env[_name])
            except KeyError as exc:
                raise LuaRuntimeError(
                    f"unknown metric {_name!r} in load formula"
                ) from exc
        return lookup
    if isinstance(node, ast.UnaryOp) and node.op == "-":
        inner = _transpile(node.operand)
        return lambda env: -inner(env)
    if isinstance(node, ast.BinaryOp) and node.op in _ARITH_OPS:
        left = _transpile(node.left)
        right = _transpile(node.right)
        op = node.op
        if op == "+":
            return lambda env: left(env) + right(env)
        if op == "-":
            return lambda env: left(env) - right(env)
        if op == "*":
            return lambda env: left(env) * right(env)
        if op == "%":
            def modulo(env: Mapping[str, float]) -> float:
                b = right(env)
                if b == 0:
                    return math.nan  # Lua modulo semantics
                a = left(env)
                return a - math.floor(a / b) * b
            return modulo
        if op == "^":
            return lambda env: float(left(env)) ** float(right(env))
        def divide(env: Mapping[str, float]) -> float:
            denominator = right(env)
            if denominator == 0:
                raise LuaRuntimeError("division by zero in load formula")
            return left(env) / denominator
        return divide
    raise _Unsupported(type(node).__name__)


def compile_metaload(source: str) -> Callable[[Mapping[str, float]], float]:
    """Compile a metaload formula into ``fn(counter_snapshot) -> float``.

    The snapshot maps the five op-kind counters (and nothing else) to their
    decayed values, exactly what :meth:`LoadCounters.snapshot` returns.
    """
    text = source.strip()
    try:
        expr = parse_expression(text)
        fast = _transpile(expr)
    except (_Unsupported, LuaSyntaxError):
        fast = None
    if fast is not None:
        return fast
    compiled = compile_load_expression(text)

    def slow(snapshot: Mapping[str, float]) -> float:
        bindings = {kind: float(snapshot.get(kind, 0.0)) for kind in OP_KINDS}
        result = compiled.run(bindings)
        if result.returned:
            value = result.returned[0]
        else:
            value = result.global_value("metaload")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise LuaRuntimeError(
                f"metaload formula produced {value!r}, expected a number"
            )
        return float(value)

    return slow


def _transpile_mds(node: ast.Expr) -> Callable[[list[dict], int], float]:
    """Compile an ``MDSs[i]["key"]`` arithmetic formula to a closure.

    The closure reads the live metric dicts -- the same values the
    interpreter path would copy into Lua tables at call time -- and applies
    the *interpreter's* arithmetic semantics (IEEE division, Lua modulo),
    so results are bit-identical.  Anything touching nil (missing keys,
    out-of-range ranks) raises :class:`_FastPathMiss` and the caller
    re-runs the interpreter for its exact error behaviour.
    """
    folded = _fold_const(node)
    if folded is not _NOT_CONST:
        return lambda mdss, i0, _value=folded: _value
    if isinstance(node, ast.Name):
        if node.name == "i":
            return lambda mdss, i0: float(i0 + 1)
        raise _Unsupported(node.name)
    if isinstance(node, ast.UnaryOp) and node.op == "-":
        inner = _transpile_mds(node.operand)
        return lambda mdss, i0: -inner(mdss, i0)
    if isinstance(node, ast.Index):
        key = node.key
        obj = node.obj
        if (isinstance(key, ast.StringLiteral) and isinstance(obj, ast.Index)
                and isinstance(obj.obj, ast.Name) and obj.obj.name == "MDSs"):
            index_fn = _transpile_mds(obj.key)
            key_name = key.value

            def fetch(mdss: list[dict], i0: int) -> float:
                index = index_fn(mdss, i0)
                rank = int(index)
                if rank != index or not 1 <= rank <= len(mdss):
                    raise _FastPathMiss()
                try:
                    return float(mdss[rank - 1][key_name])
                except KeyError:
                    raise _FastPathMiss() from None

            return fetch
        raise _Unsupported("Index")
    if isinstance(node, ast.BinaryOp) and node.op in _ARITH_OPS:
        left = _transpile_mds(node.left)
        right = _transpile_mds(node.right)
        op = node.op
        if op == "+":
            return lambda mdss, i0: left(mdss, i0) + right(mdss, i0)
        if op == "-":
            return lambda mdss, i0: left(mdss, i0) - right(mdss, i0)
        if op == "*":
            return lambda mdss, i0: left(mdss, i0) * right(mdss, i0)
        if op == "/":
            def divide(mdss: list[dict], i0: int) -> float:
                a = left(mdss, i0)
                b = right(mdss, i0)
                if b == 0:
                    # Interpreter semantics: IEEE doubles, never raise.
                    return math.nan if a == 0 else math.copysign(math.inf, a)
                return a / b
            return divide
        if op == "%":
            def modulo(mdss: list[dict], i0: int) -> float:
                a = left(mdss, i0)
                b = right(mdss, i0)
                if b == 0:
                    return math.nan
                return a - math.floor(a / b) * b
            return modulo
        return lambda mdss, i0: float(left(mdss, i0)) ** float(right(mdss, i0))
    raise _Unsupported(type(node).__name__)


def compile_mdsload(source: str) -> Callable[[list[dict], int], float]:
    """Compile an MDS-load formula into ``fn(mds_metrics, i) -> float``.

    *mds_metrics* is the list of per-rank metric dicts (0-based);
    *i* is the 0-based rank being scored.  Inside the formula, ``MDSs`` and
    ``i`` are 1-based as in Lua.
    """
    text = source.strip()
    fast = None
    try:
        fast = _transpile_mds(parse_expression(text))
    except (_Unsupported, LuaSyntaxError):
        fast = None
    compiled = compile_load_expression(text)

    def score(mds_metrics: list[dict], i: int) -> float:
        if fast is not None:
            try:
                return fast(mds_metrics, i)
            except _FastPathMiss:
                pass  # nil semantics: let the interpreter produce them
        mdss = [dict(metrics) for metrics in mds_metrics]
        result = compiled.run({"MDSs": mdss, "i": i + 1})
        if result.returned:
            value = result.returned[0]
        else:
            value = result.global_value("mdsload")
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise LuaRuntimeError(
                f"mdsload formula produced {value!r}, expected a number"
            )
        return float(value)

    return score


def build_decision_bindings(
    whoami: int,
    mds_metrics: list[dict],
    local_counters: Mapping[str, float],
    auth_metaload: float,
    all_metaload: float,
    wrstate: Callable[..., Any],
    rdstate: Callable[[], Any],
) -> dict[str, Any]:
    """Globals for the when/where decision chunk (paper Table 2).

    *whoami* and the metrics list are 0-based on the Python side; the
    bindings are 1-based Lua style.
    """
    total = sum(float(metrics.get("load", 0.0)) for metrics in mds_metrics)
    bindings: dict[str, Any] = {
        "whoami": whoami + 1,
        "MDSs": [dict(metrics) for metrics in mds_metrics],
        "total": total,
        "authmetaload": float(auth_metaload),
        "allmetaload": float(all_metaload),
        "targets": {},
        "WRstate": wrstate,
        "RDstate": rdstate,
    }
    for kind in OP_KINDS:
        bindings[kind] = float(local_counters.get(kind, 0.0))
    return bindings


def extract_targets(raw: Any, num_ranks: int) -> dict[int, float]:
    """Convert the policy's 1-based ``targets`` table to {0-based: load}.

    Non-numeric, non-positive and out-of-range entries are dropped -- a bad
    policy must not crash the balancer (§4.4 safety).
    """
    if raw is None:
        return {}
    if isinstance(raw, list):
        raw = {i + 1: value for i, value in enumerate(raw)}
    if not isinstance(raw, dict):
        return {}
    targets: dict[int, float] = {}
    for key, value in raw.items():
        if isinstance(key, bool) or not isinstance(key, (int, float)):
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            continue
        rank = int(key) - 1
        if key != int(key) or rank < 0 or rank >= num_ranks:
            continue
        if value <= 0:
            continue
        targets[rank] = float(value)
    return targets

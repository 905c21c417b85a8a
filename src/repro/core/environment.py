"""The Mantle environment (paper Table 2).

Builds the global variables and functions injected policies see:

* current-MDS metrics: ``whoami``, ``authmetaload``, ``allmetaload``,
  ``IRD``/``IWR``/``READDIR``/``FETCH``/``STORE``;
* per-MDS metrics: ``MDSs[i]["auth"|"all"|"cpu"|"mem"|"q"|"req"|"load"]``
  and ``total``;
* functions: ``WRstate(s)``, ``RDstate()``, ``max``, ``min``.

Also compiles load formulas (``mds_bal_metaload``/``mds_bal_mdsload``) into
Python closures -- they run once per dirfrag per tick, which adds up -- with
the interpreter as the fallback for anything outside the arithmetic subset,
and runs one tick of a policy's hooks (:func:`run_hooks`) for the balancer,
the shadow evaluator and the validator alike.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..luapolicy import lua_ast as ast
from ..luapolicy.errors import LuaError, LuaRuntimeError
from ..luapolicy.interpreter import ARITH_OPS, arith
from ..luapolicy.sandbox import compile_load_expression
from ..luapolicy.values import LuaValue
from ..namespace.counters import OP_KINDS

if TYPE_CHECKING:  # pragma: no cover
    from .api import MantlePolicy
    from .state import BalancerState

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


class _Interpret(Exception):
    """The formula needs the interpreter: at compile time, a shape outside
    the compiled subset; at run time, a read of nil."""


def _compile(node: ast.Expr, names: frozenset[str]):
    """Compile an arithmetic-subset expression over the hook's *names*.

    The subset is number literals, the metaload counter names, ``i``,
    ``MDSs[e]["key"]``, unary minus and ``+ - * / % ^``.  Returns a float
    for a constant subtree (folded with the interpreter's own
    :func:`arith`) or a closure ``f(scope, i0=0)``: *scope* is the counter
    snapshot (metaload) or the per-rank metric dicts (mdsload), *i0* the
    0-based rank being scored.  Raises :class:`_Interpret` for anything
    else.
    """
    if isinstance(node, ast.NumberLiteral):
        return node.value
    if isinstance(node, ast.Name) and node.name in names:
        name = node.name
        if name == "i":
            return lambda scope, i0=0: i0 + 1.0
        if name in OP_KINDS:
            return lambda scope, i0=0: float(scope[name])
    if isinstance(node, ast.UnaryOp) and node.op == "-":
        inner = _compile(node.operand, names)
        if isinstance(inner, float):
            return -inner
        return lambda scope, i0=0: -inner(scope, i0)
    if (isinstance(node, ast.Index) and isinstance(node.key, ast.StringLiteral)
            and isinstance(node.obj, ast.Index)
            and isinstance(node.obj.obj, ast.Name)
            and node.obj.obj.name == "MDSs" and "MDSs" in names):
        return _compile_mds_read(node.obj.key, node.key.value, names)
    if isinstance(node, ast.BinaryOp) and node.op in ARITH_OPS:
        left = _compile(node.left, names)
        right = _compile(node.right, names)
        op = node.op
        if isinstance(left, float) and isinstance(right, float):
            return arith(op, left, right)
        left, right = _closure(left), _closure(right)
        if op == "+":
            return lambda scope, i0=0: left(scope, i0) + right(scope, i0)
        if op == "-":
            return lambda scope, i0=0: left(scope, i0) - right(scope, i0)
        if op == "*":
            return lambda scope, i0=0: left(scope, i0) * right(scope, i0)
        return lambda scope, i0=0: arith(op, left(scope, i0),
                                         right(scope, i0))
    raise _Interpret(type(node).__name__)


def _closure(compiled):
    if isinstance(compiled, float):
        return lambda scope, i0=0: compiled
    return compiled


def _compile_mds_read(index_node: ast.Expr, key: str, names: frozenset[str]):
    """``MDSs[index]["key"]``: an out-of-range or fractional rank, or a
    missing key, is a nil read and raises :class:`_Interpret`."""
    if isinstance(index_node, ast.Name) and index_node.name == "i":
        def read_own(scope: list[dict], i0: int = 0) -> float:
            try:
                return float(scope[i0][key])
            except KeyError:
                raise _Interpret(key) from None
        return read_own
    index = _closure(_compile(index_node, names))

    def read(scope: list[dict], i0: int = 0) -> float:
        rank = index(scope, i0)
        if not 1 <= rank <= len(scope) or rank != int(rank):
            raise _Interpret(rank)
        try:
            return float(scope[int(rank) - 1][key])
        except KeyError:
            raise _Interpret(key) from None
    return read


def _compile_formula(source: str, hook: str, names: frozenset[str]):
    """``fn(scope, i0=0) -> float`` for one load formula.

    The formula is parsed once; a bare expression (or a chunk that is one
    ``return`` of one expression) in the subset runs as closures, anything
    else through the interpreter, which also answers every nil read.  A
    counter snapshot always holds the five op kinds, so a compiled metaload
    reads no nil and runs unwrapped.
    """
    chunk = compile_load_expression(source)

    def interpret(scope, i0: int = 0) -> float:
        if hook == "metaload":
            bindings = {kind: scope[kind] for kind in OP_KINDS}
        else:
            bindings = {"MDSs": [dict(metrics) for metrics in scope],
                        "i": i0 + 1}
        result = chunk.run(bindings)
        value = (result.returned[0] if result.returned
                 else result.global_value(hook))
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise LuaRuntimeError(
                f"{hook} formula produced {value!r}, expected a number"
            )
        return float(value)

    statements = chunk.chunk.statements
    try:
        if not (len(statements) == 1
                and isinstance(statements[0], ast.Return)
                and len(statements[0].values) == 1):
            raise _Interpret("chunk")
        fast = _closure(_compile(statements[0].values[0], names))
    except _Interpret:
        return interpret
    if hook == "metaload":
        return fast

    def run(scope, i0: int = 0) -> float:
        try:
            return fast(scope, i0)
        except _Interpret:
            return interpret(scope, i0)
    return run


def compile_metaload(source: str) -> Callable[[Mapping[str, float]], float]:
    """Compile a metaload formula into ``fn(counter_snapshot) -> float``.

    The snapshot maps the five op-kind counters to their decayed values,
    exactly what :meth:`LoadCounters.snapshot` returns.
    """
    return _compile_formula(source, "metaload", METALOAD_BINDINGS)


def compile_mdsload(source: str) -> Callable[[list[dict], int], float]:
    """Compile an MDS-load formula into ``fn(mds_metrics, i) -> float``.

    *mds_metrics* is the list of per-rank metric dicts (0-based);
    *i* is the 0-based rank being scored.  Inside the formula, ``MDSs`` and
    ``i`` are 1-based as in Lua.
    """
    return _compile_formula(source, "mdsload", MDSLOAD_BINDINGS)


class HookError(Exception):
    """A policy hook raised during :func:`run_hooks`.

    ``str()`` is ``"<hook>: <error>"`` with *hook* ``mdsload``,
    ``metaload`` or ``decision``; :attr:`error` is the Lua error itself.
    """

    def __init__(self, hook: str, error: LuaError) -> None:
        super().__init__(f"{hook}: {error}")
        self.hook = hook
        self.error = error


def run_hooks(policy: "MantlePolicy", whoami: int, mds_metrics: list[dict],
              auth_counters: Mapping[str, float],
              all_counters: Mapping[str, float],
              state: "BalancerState") -> tuple[LuaValue, dict[int, float]]:
    """Run one tick of *policy*'s hooks (paper Fig 2's "migrate?" box).

    Scores the alive ranks with ``mdsload`` in rank order, writing each
    ``load`` into *mds_metrics* as it goes (dead ranks get 0); binds the
    Table-2 environment, whose local counters and ``allmetaload`` both come
    from the one *all_counters* snapshot and whose ``WRstate``/``RDstate``
    use *whoami*'s slot of *state*; runs when/where.  Returns ``go`` and
    the 0-based targets, without *whoami* and without dead ranks.  Raises
    :class:`HookError` naming the hook that failed.
    """
    wrstate, rdstate = state.bound_functions(whoami)
    hook = "mdsload"
    try:
        mdsload = policy.mdsload_fn()
        for rank, metrics in enumerate(mds_metrics):
            metrics["load"] = (mdsload(mds_metrics, rank)
                               if metrics["alive"] else 0.0)
        hook = "metaload"
        metaload = policy.metaload_fn()
        bindings = build_decision_bindings(
            whoami=whoami,
            mds_metrics=mds_metrics,
            local_counters=all_counters,
            auth_metaload=metaload(auth_counters),
            all_metaload=metaload(all_counters),
            wrstate=wrstate,
            rdstate=rdstate,
        )
        hook = "decision"
        result = policy.decision_chunk().run(bindings)
    except LuaError as exc:
        raise HookError(hook, exc) from exc
    go = result.global_value("go")
    if go is None or go is False:
        return go, {}
    targets = extract_targets(result.python_value("targets"),
                              len(mds_metrics))
    return go, {rank: load for rank, load in targets.items()
                if rank != whoami and mds_metrics[rank]["alive"]}


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

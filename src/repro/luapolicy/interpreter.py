"""Tree-walking interpreter for the Mantle-Lua policy language.

The interpreter executes a parsed chunk against an :class:`Environment`.
Every evaluated node is charged against an instruction budget so injected
policies cannot wedge the MDS (``while 1 do end`` raises
:class:`~repro.luapolicy.errors.LuaBudgetExceeded` instead of hanging the
balancing tick).
"""

from __future__ import annotations

import math
from typing import Optional

from . import lua_ast as ast
from .errors import LuaBudgetExceeded, LuaRuntimeError
from .values import (
    LuaFunction,
    LuaTable,
    LuaValue,
    MultiValue,
    is_truthy,
    lua_repr,
    type_name,
)

DEFAULT_BUDGET = 1_000_000


class Environment:
    """A lexical scope chain of name -> value bindings.

    Global assignments (plain ``x = 1`` with no enclosing local) land in the
    root environment, as in Lua.
    """

    __slots__ = ("vars", "parent")

    def __init__(self, parent: "Environment | None" = None,
                 vars: dict[str, LuaValue] | None = None) -> None:
        self.vars: dict[str, LuaValue] = vars or {}
        self.parent = parent

    def lookup(self, name: str) -> LuaValue:
        env: Environment | None = self
        while env is not None:
            if name in env.vars:
                return env.vars[name]
            env = env.parent
        return None  # unknown globals are nil, as in Lua

    def assign(self, name: str, value: LuaValue) -> None:
        """Assign to the nearest scope holding *name*, else the root (global)."""
        env: Environment | None = self
        while env is not None:
            if name in env.vars:
                env.vars[name] = value
                return
            if env.parent is None:
                env.vars[name] = value
                return
            env = env.parent

    def declare(self, name: str, value: LuaValue) -> None:
        """``local name = value`` in this scope."""
        self.vars[name] = value

    def root(self) -> "Environment":
        env = self
        while env.parent is not None:
            env = env.parent
        return env


class _BreakSignal(Exception):
    pass


class _ReturnSignal(Exception):
    def __init__(self, values: tuple[LuaValue, ...]) -> None:
        self.values = values


class Interpreter:
    """Executes Mantle-Lua ASTs with an instruction budget."""

    def __init__(self, budget: int = DEFAULT_BUDGET) -> None:
        self.budget = budget
        self._remaining = budget
        self._call_depth = 0
        self._max_call_depth = 120

    # -- public API -----------------------------------------------------
    def run(self, chunk: ast.Block, env: Environment) -> Optional[tuple]:
        """Execute a chunk; returns the chunk's ``return`` values or None."""
        self._remaining = self.budget
        try:
            self._exec_block(chunk, env)
        except _ReturnSignal as signal:
            return signal.values
        except _BreakSignal:
            raise LuaRuntimeError("break outside of a loop")
        return None

    def evaluate(self, expr: ast.Expr, env: Environment) -> LuaValue:
        """Evaluate a single expression (does not reset the budget chain)."""
        self._remaining = self.budget
        return self._eval(expr, env)

    @property
    def instructions_used(self) -> int:
        return self.budget - self._remaining

    # -- bookkeeping -----------------------------------------------------
    def _charge(self) -> None:
        self._remaining -= 1
        if self._remaining < 0:
            raise LuaBudgetExceeded(self.budget)

    # -- statements --------------------------------------------------------
    def _exec_block(self, block: ast.Block, env: Environment) -> None:
        for stmt in block.statements:
            self._exec(stmt, env)

    def _exec(self, stmt: ast.Stmt, env: Environment) -> None:
        self._charge()
        method = _EXEC_DISPATCH.get(stmt.__class__)
        if method is None:  # pragma: no cover - parser only emits known nodes
            raise LuaRuntimeError(f"unsupported statement {type(stmt).__name__}")
        method(self, stmt, env)

    def _exec_Assign(self, stmt: ast.Assign, env: Environment) -> None:
        values = self._eval_list(stmt.values, env, len(stmt.targets))
        for target, value in zip(stmt.targets, values):
            if isinstance(target, ast.Name):
                env.assign(target.name, value)
            elif isinstance(target, ast.Index):
                obj = self._eval(target.obj, env)
                if not isinstance(obj, LuaTable):
                    raise LuaRuntimeError(
                        f"attempt to index a {type_name(obj)} value",
                        target.line, target.column,
                    )
                obj.set(self._eval(target.key, env), value)
            else:  # pragma: no cover - parser rejects other targets
                raise LuaRuntimeError("invalid assignment target",
                                      stmt.line, stmt.column)

    def _exec_LocalAssign(self, stmt: ast.LocalAssign, env: Environment) -> None:
        values = self._eval_list(stmt.values, env, len(stmt.names))
        for name, value in zip(stmt.names, values):
            env.declare(name, value)

    def _exec_CallStmt(self, stmt: ast.CallStmt, env: Environment) -> None:
        self._eval(stmt.call, env)

    def _exec_If(self, stmt: ast.If, env: Environment) -> None:
        for condition, block in stmt.branches:
            if is_truthy(self._eval(condition, env)):
                self._exec_block(block, Environment(env))
                return
        self._exec_block(stmt.orelse, Environment(env))

    def _exec_While(self, stmt: ast.While, env: Environment) -> None:
        while is_truthy(self._eval(stmt.condition, env)):
            self._charge()
            try:
                self._exec_block(stmt.body, Environment(env))
            except _BreakSignal:
                break

    def _exec_Repeat(self, stmt: ast.Repeat, env: Environment) -> None:
        while True:
            self._charge()
            scope = Environment(env)
            try:
                self._exec_block(stmt.body, scope)
            except _BreakSignal:
                break
            # Lua scoping: the until condition sees the body's locals.
            if is_truthy(self._eval(stmt.condition, scope)):
                break

    def _exec_NumericFor(self, stmt: ast.NumericFor, env: Environment) -> None:
        start = self._to_number(self._eval(stmt.start, env), stmt.line,
                                stmt.column)
        stop = self._to_number(self._eval(stmt.stop, env), stmt.line,
                               stmt.column)
        step = (
            self._to_number(self._eval(stmt.step, env), stmt.line, stmt.column)
            if stmt.step is not None
            else 1.0
        )
        if step == 0:
            raise LuaRuntimeError("'for' step is zero", stmt.line, stmt.column)
        value = start
        while (step > 0 and value <= stop) or (step < 0 and value >= stop):
            self._charge()
            scope = Environment(env)
            scope.declare(stmt.var, value)
            try:
                self._exec_block(stmt.body, scope)
            except _BreakSignal:
                break
            value += step

    def _exec_GenericFor(self, stmt: ast.GenericFor, env: Environment) -> None:
        iterable = self._eval(stmt.iterable, env)
        if not hasattr(iterable, "__iter__"):
            raise LuaRuntimeError(
                "generic for expects pairs(t) or ipairs(t)",
                stmt.line, stmt.column,
            )
        for item in iterable:
            self._charge()
            scope = Environment(env)
            values = item if isinstance(item, tuple) else (item,)
            for i, name in enumerate(stmt.names):
                scope.declare(name, values[i] if i < len(values) else None)
            try:
                self._exec_block(stmt.body, scope)
            except _BreakSignal:
                break

    def _exec_FunctionDecl(self, stmt: ast.FunctionDecl, env: Environment) -> None:
        func = LuaFunction(stmt.func.params, stmt.func.body, env, name=stmt.name)
        if stmt.is_local:
            env.declare(stmt.name, func)
        else:
            env.assign(stmt.name, func)

    def _exec_Return(self, stmt: ast.Return, env: Environment) -> None:
        values = tuple(self._eval_list(stmt.values, env, want=0))
        raise _ReturnSignal(values)

    def _exec_Break(self, stmt: ast.Break, env: Environment) -> None:
        raise _BreakSignal()

    def _exec_Do(self, stmt: ast.Do, env: Environment) -> None:
        self._exec_block(stmt.body, Environment(env))

    # -- expressions ---------------------------------------------------------
    def _eval_list(self, exprs: tuple[ast.Expr, ...], env: Environment,
                   want: int) -> list[LuaValue]:
        """Evaluate an expression list with Lua multiplicity rules: only
        the *last* expression keeps multiple return values."""
        values: list[LuaValue] = []
        for index, expr in enumerate(exprs):
            if index == len(exprs) - 1:
                result = self._eval_multi(expr, env)
                if isinstance(result, MultiValue):
                    values.extend(result)
                else:
                    values.append(result)
            else:
                values.append(self._eval(expr, env))
        while len(values) < want:
            values.append(None)
        return values

    def _eval_multi(self, expr: ast.Expr, env: Environment) -> LuaValue:
        """Like _eval, but a call in this position keeps all its values."""
        if isinstance(expr, ast.Call):
            self._charge()
            func = self._eval(expr.func, env)
            args = self._call_args(expr, env)
            return self._call_multi(func, args, line=expr.line,
                                    column=expr.column)
        return self._eval(expr, env)

    def _call_args(self, expr: ast.Call, env: Environment) -> tuple:
        args: list[LuaValue] = []
        for index, arg in enumerate(expr.args):
            if index == len(expr.args) - 1:
                result = self._eval_multi(arg, env)
                if isinstance(result, MultiValue):
                    args.extend(result)
                else:
                    args.append(result)
            else:
                args.append(self._eval(arg, env))
        return tuple(args)

    def _eval(self, expr: ast.Expr, env: Environment) -> LuaValue:
        self._charge()
        method = _EVAL_DISPATCH.get(expr.__class__)
        if method is None:  # pragma: no cover
            raise LuaRuntimeError(f"unsupported expression {type(expr).__name__}")
        return method(self, expr, env)

    def _eval_NilLiteral(self, expr: ast.NilLiteral, env: Environment) -> None:
        return None

    def _eval_BoolLiteral(self, expr: ast.BoolLiteral, env: Environment) -> bool:
        return expr.value

    def _eval_NumberLiteral(self, expr: ast.NumberLiteral, env: Environment) -> float:
        return expr.value

    def _eval_StringLiteral(self, expr: ast.StringLiteral, env: Environment) -> str:
        return expr.value

    def _eval_Vararg(self, expr: ast.Vararg, env: Environment) -> LuaValue:
        raise LuaRuntimeError("varargs are not supported in policies",
                              expr.line, expr.column)

    def _eval_Name(self, expr: ast.Name, env: Environment) -> LuaValue:
        return env.lookup(expr.name)

    def _eval_Index(self, expr: ast.Index, env: Environment) -> LuaValue:
        obj = self._eval(expr.obj, env)
        key = self._eval(expr.key, env)
        if isinstance(obj, LuaTable):
            return obj.get(key)
        raise LuaRuntimeError(
            f"attempt to index a {type_name(obj)} value",
            expr.line, expr.column,
        )

    def _eval_Call(self, expr: ast.Call, env: Environment) -> LuaValue:
        func = self._eval(expr.func, env)
        args = self._call_args(expr, env)
        result = self._call_multi(func, args, line=expr.line,
                                  column=expr.column)
        # A call in single-value context truncates to its first value.
        if isinstance(result, MultiValue):
            return result.first()
        return result

    def call(self, func: LuaValue, args: tuple[LuaValue, ...],
             line: int | None = None) -> LuaValue:
        """Invoke a Lua or builtin function value (first return value)."""
        result = self._call_multi(func, args, line=line)
        if isinstance(result, MultiValue):
            return result.first()
        return result

    def _call_multi(self, func: LuaValue, args: tuple[LuaValue, ...],
                    line: int | None = None,
                    column: int | None = None) -> LuaValue:
        """Invoke a function, preserving multiple return values."""
        if isinstance(func, LuaFunction):
            if self._call_depth >= self._max_call_depth:
                raise LuaRuntimeError("call stack overflow in policy",
                                      line, column)
            scope = Environment(func.closure)
            for i, param in enumerate(func.params):
                scope.declare(param, args[i] if i < len(args) else None)
            self._call_depth += 1
            try:
                self._exec_block(func.body, scope)
            except _ReturnSignal as signal:
                if len(signal.values) == 1:
                    return signal.values[0]
                return MultiValue(signal.values)
            finally:
                self._call_depth -= 1
            return None
        if callable(func):
            try:
                return func(*args)
            except (LuaRuntimeError, LuaBudgetExceeded):
                raise
            except TypeError as exc:
                raise LuaRuntimeError(f"bad call: {exc}", line,
                                      column) from exc
        raise LuaRuntimeError(
            f"attempt to call a {type_name(func)} value", line, column
        )

    def _eval_UnaryOp(self, expr: ast.UnaryOp, env: Environment) -> LuaValue:
        operand = self._eval(expr.operand, env)
        if expr.op == "-":
            return -self._to_number(operand, expr.line, expr.column)
        if expr.op == "not":
            return not is_truthy(operand)
        if expr.op == "#":
            if isinstance(operand, LuaTable):
                return float(operand.length())
            if isinstance(operand, str):
                return float(len(operand))
            raise LuaRuntimeError(
                f"attempt to get length of a {type_name(operand)} value",
                expr.line, expr.column,
            )
        raise LuaRuntimeError(f"unknown unary operator {expr.op}",
                              expr.line, expr.column)

    def _eval_BinaryOp(self, expr: ast.BinaryOp, env: Environment) -> LuaValue:
        op = expr.op
        if op == "and":
            left = self._eval(expr.left, env)
            return self._eval(expr.right, env) if is_truthy(left) else left
        if op == "or":
            left = self._eval(expr.left, env)
            return left if is_truthy(left) else self._eval(expr.right, env)

        left = self._eval(expr.left, env)
        right = self._eval(expr.right, env)
        line, col = expr.line, expr.column
        if op == "==":
            return self._lua_equals(left, right)
        if op == "~=":
            return not self._lua_equals(left, right)
        if op == "..":
            return self._concat(left, right, line, col)
        if op in ("<", "<=", ">", ">="):
            return self._compare(op, left, right, line, col)
        if op not in ARITH_OPS:
            raise LuaRuntimeError(f"unknown operator {op}", line, col)
        return arith(op, self._to_number(left, line, col),
                     self._to_number(right, line, col))

    @staticmethod
    def _lua_equals(left: LuaValue, right: LuaValue) -> bool:
        if isinstance(left, bool) or isinstance(right, bool):
            return left is right
        if isinstance(left, (int, float)) and isinstance(right, (int, float)):
            return float(left) == float(right)
        if type(left) is not type(right):
            return False
        if isinstance(left, LuaTable):
            return left is right
        return left == right

    def _compare(self, op: str, left: LuaValue, right: LuaValue,
                 line: int, column: int | None = None) -> bool:
        if isinstance(left, (int, float)) and not isinstance(left, bool) and \
           isinstance(right, (int, float)) and not isinstance(right, bool):
            pass
        elif isinstance(left, str) and isinstance(right, str):
            pass
        else:
            raise LuaRuntimeError(
                f"attempt to compare {type_name(left)} with {type_name(right)}",
                line, column,
            )
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        return left >= right

    def _concat(self, left: LuaValue, right: LuaValue, line: int,
                column: int | None = None) -> str:
        def as_str(value: LuaValue) -> str:
            if isinstance(value, str):
                return value
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return lua_repr(float(value))
            raise LuaRuntimeError(
                f"attempt to concatenate a {type_name(value)} value",
                line, column,
            )

        return as_str(left) + as_str(right)

    def _eval_TableConstructor(self, expr: ast.TableConstructor,
                               env: Environment) -> LuaTable:
        table = LuaTable()
        index = 1
        for field in expr.fields:
            value = self._eval(field.value, env)
            if field.key is None:
                table.set(float(index), value)
                index += 1
            else:
                table.set(self._eval(field.key, env), value)
        return table

    def _eval_FunctionExpr(self, expr: ast.FunctionExpr,
                           env: Environment) -> LuaFunction:
        return LuaFunction(expr.params, expr.body, env)

    # -- coercion --------------------------------------------------------
    @staticmethod
    def _to_number(value: LuaValue, line: int | None = None,
                   column: int | None = None) -> float:
        if isinstance(value, bool) or value is None:
            raise LuaRuntimeError(
                f"attempt to perform arithmetic on a {type_name(value)} value",
                line, column,
            )
        if isinstance(value, (int, float)):
            return float(value)
        if isinstance(value, str):
            try:
                return float(value)
            except ValueError:
                pass
        raise LuaRuntimeError(
            f"attempt to perform arithmetic on a {type_name(value)} value",
            line, column,
        )


#: The binary operators :func:`arith` evaluates.
ARITH_OPS = ("+", "-", "*", "/", "%", "^")


def arith(op: str, a: float, b: float) -> float:
    """Lua arithmetic on two numbers: the one definition of ``+ - * / % ^``.

    Lua numbers are IEEE doubles, so no operator raises: ``x/0`` is
    ``+-inf`` (``nan`` for ``0/0``), ``x % 0`` is ``nan``, modulo is
    ``a - floor(a/b)*b``, and ``^`` overflows to ``+-inf`` and is ``nan``
    where the real result is complex.  The load-formula compiler
    (:mod:`repro.core.environment`) evaluates through this function too.
    """
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        if b == 0:
            if a == 0 or a != a:
                return math.nan
            return math.copysign(math.inf,
                                 math.copysign(1.0, a) * math.copysign(1.0, b))
        return a / b
    if op == "%":
        if b == 0:
            return math.nan
        quotient = a / b
        if math.isfinite(quotient):
            return a - math.floor(quotient) * b
        return a - quotient * b  # floor(+-inf) and floor(nan) are themselves
    try:
        result = a ** b
    except (OverflowError, ZeroDivisionError):
        # |a^b| is too big for a double, or a is zero and b negative.
        odd = b % 2 == 1
        return -math.inf if odd and math.copysign(1.0, a) < 0 else math.inf
    return math.nan if isinstance(result, complex) else result


def _build_dispatch(prefix: str) -> dict:
    """Node class -> unbound handler, so the hot _exec/_eval paths do one
    dict lookup instead of building a method-name string per node."""
    table = {}
    for attr in dir(Interpreter):
        if attr.startswith(prefix):
            node_cls = getattr(ast, attr[len(prefix):], None)
            if node_cls is not None:
                table[node_cls] = getattr(Interpreter, attr)
    return table


_EXEC_DISPATCH = _build_dispatch("_exec_")
_EVAL_DISPATCH = _build_dispatch("_eval_")

"""High-level sandboxed execution of Mantle-Lua policy source.

This is the facade the balancer driver uses: compile once, run per tick
against a fresh environment seeded with the Mantle metrics, under an
instruction budget.
"""

from __future__ import annotations

from typing import Any, Mapping

from . import lua_ast as ast
from .errors import LuaError, LuaSyntaxError
from .interpreter import DEFAULT_BUDGET, Environment, Interpreter
from .parser import parse_chunk, parse_expression
from .stdlib import new_environment
from .values import LuaValue, from_python, to_python


class CompiledPolicy:
    """A parsed policy chunk ready to execute against an environment."""

    def __init__(self, source: str, chunk: ast.Block,
                 budget: int = DEFAULT_BUDGET) -> None:
        self.source = source
        self.chunk = chunk
        self.budget = budget

    def run(self, bindings: Mapping[str, Any] | None = None,
            env: Environment | None = None) -> "PolicyResult":
        """Execute the chunk.

        *bindings* are injected as globals (Python values are converted).
        Returns a :class:`PolicyResult` exposing the final globals and any
        ``return`` values.
        """
        if env is None:
            env = new_environment()
        if bindings:
            for name, value in bindings.items():
                env.declare(name, from_python(value))
        interpreter = Interpreter(budget=self.budget)
        returned = interpreter.run(self.chunk, env)
        return PolicyResult(env, returned, interpreter.instructions_used)


class PolicyResult:
    """Outcome of one policy execution: globals + return values."""

    def __init__(self, env: Environment, returned: tuple | None,
                 instructions: int) -> None:
        self.env = env
        self.returned = returned
        self.instructions = instructions

    def global_value(self, name: str) -> LuaValue:
        return self.env.lookup(name)

    def python_value(self, name: str) -> Any:
        """Global *name* converted to plain Python (tables -> dict/list)."""
        return to_python(self.env.lookup(name))

    @property
    def return_value(self) -> Any:
        if not self.returned:
            return None
        return to_python(self.returned[0])


def compile_policy(source: str, budget: int = DEFAULT_BUDGET) -> CompiledPolicy:
    """Parse *source* as a statement chunk.

    Raises :class:`LuaSyntaxError` on malformed source -- callers should
    validate policies before injecting them (see
    :mod:`repro.core.validator`).
    """
    return CompiledPolicy(source, parse_chunk(source), budget=budget)


def compile_load_expression(source: str,
                            budget: int = DEFAULT_BUDGET) -> CompiledPolicy:
    """Compile a load formula such as ``IRD + 2*IWR + READDIR``.

    Accepts either a bare expression (the common case for
    ``mds_bal_metaload`` / ``mds_bal_mdsload``) or a full chunk ending in a
    ``return``/assignment.  A bare expression ``E`` compiles as
    ``return (E)``.
    """
    text = source.strip()
    try:
        expr = parse_expression(text)
    except LuaSyntaxError:
        return compile_policy(text, budget=budget)
    chunk = ast.Block((ast.Return(getattr(expr, "line", 1), (expr,)),))
    return CompiledPolicy(text, chunk, budget=budget)


def run_policy(source: str, bindings: Mapping[str, Any] | None = None,
               budget: int = DEFAULT_BUDGET) -> PolicyResult:
    """One-shot compile-and-run convenience (used by tests and examples)."""
    return compile_policy(source, budget=budget).run(bindings)


def evaluate_expression(source: str,
                        bindings: Mapping[str, Any] | None = None,
                        budget: int = DEFAULT_BUDGET) -> Any:
    """Evaluate a load formula and return its Python value."""
    result = compile_load_expression(source, budget=budget).run(bindings)
    if result.returned:
        return result.return_value
    return None


__all__ = [
    "CompiledPolicy",
    "PolicyResult",
    "compile_policy",
    "compile_load_expression",
    "run_policy",
    "evaluate_expression",
    "LuaError",
]

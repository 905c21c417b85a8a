"""Builtin functions available to Mantle-Lua policies.

The Mantle environment (paper Table 2) only guarantees ``max``, ``min``,
``WRstate`` and ``RDstate`` -- the last two are installed by the balancer
driver.  We additionally expose the safe, side-effect-free slice of the Lua
standard library that real Mantle policies in upstream Ceph ended up using
(``math.*``, ``tostring``, ``tonumber``, ``pairs``/``ipairs``...).
"""

from __future__ import annotations

import math
from typing import Iterator

from .errors import LuaRuntimeError
from .interpreter import Environment, arith
from .values import (
    LuaTable,
    LuaValue,
    MultiValue,
    is_truthy,
    lua_repr,
    type_name,
)


def _want_number(name: str, value: LuaValue) -> float:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            pass
    raise LuaRuntimeError(f"bad argument to '{name}' (number expected, "
                          f"got {type_name(value)})")


def lua_max(*args: LuaValue) -> float:
    if not args:
        raise LuaRuntimeError("bad argument to 'max' (value expected)")
    return max(_want_number("max", a) for a in args)


def lua_min(*args: LuaValue) -> float:
    if not args:
        raise LuaRuntimeError("bad argument to 'min' (value expected)")
    return min(_want_number("min", a) for a in args)


def lua_tostring(value: LuaValue = None) -> str:
    return lua_repr(value)


def lua_tonumber(value: LuaValue = None) -> float | None:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def lua_pairs(table: LuaValue = None) -> Iterator[tuple[LuaValue, LuaValue]]:
    if not isinstance(table, LuaTable):
        raise LuaRuntimeError(
            f"bad argument to 'pairs' (table expected, got {type_name(table)})"
        )
    return table.lua_pairs()


def lua_ipairs(table: LuaValue = None) -> Iterator[tuple[float, LuaValue]]:
    if not isinstance(table, LuaTable):
        raise LuaRuntimeError(
            f"bad argument to 'ipairs' (table expected, got {type_name(table)})"
        )
    return table.lua_ipairs()


def lua_type(value: LuaValue = None) -> str:
    return type_name(value)


def lua_assert(value: LuaValue = None, message: LuaValue = None) -> LuaValue:
    if not is_truthy(value):
        raise LuaRuntimeError(str(message) if message is not None
                              else "assertion failed!")
    return value


def lua_error(message: LuaValue = None) -> None:
    raise LuaRuntimeError(lua_repr(message))


def _finite_or(fn, fallback: float | None = None):
    """*fn* on finite inputs; *fallback* (default: the input) otherwise."""
    def wrapped(x: float) -> float:
        if math.isfinite(x):
            return fn(x)
        return x if fallback is None else fallback
    return wrapped


def _sqrt(x: float) -> float:
    return math.sqrt(x) if x >= 0 else math.nan


def _log(x: float) -> float:
    if x > 0:
        return math.log(x)
    return -math.inf if x == 0 else math.nan


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _math_table() -> LuaTable:
    # Lua numbers are IEEE doubles and its math library is C's: a domain
    # error gives nan and an overflow +-inf, where Python's math raises.
    table = LuaTable()
    one_arg = {
        "floor": _finite_or(math.floor),
        "ceil": _finite_or(math.ceil),
        "abs": abs,
        "sqrt": _sqrt,
        "exp": _exp,
        "log": _log,
        "sin": _finite_or(math.sin, math.nan),
        "cos": _finite_or(math.cos, math.nan),
        "tan": _finite_or(math.tan, math.nan),
    }
    for name, fn in one_arg.items():
        def wrapper(x: LuaValue = None, _fn=fn, _name=name) -> float:
            return float(_fn(_want_number(_name, x)))
        table.set(name, wrapper)
    table.set("max", lua_max)
    table.set("min", lua_min)
    table.set("huge", math.inf)
    table.set("pi", math.pi)

    def math_pow(x: LuaValue = None, y: LuaValue = None) -> float:
        return arith("^", _want_number("pow", x), _want_number("pow", y))

    table.set("pow", math_pow)

    def math_fmod(x: LuaValue = None, y: LuaValue = None) -> float:
        x = _want_number("fmod", x)
        y = _want_number("fmod", y)
        if y == 0 or math.isinf(x):
            return math.nan
        return math.fmod(x, y)

    table.set("fmod", math_fmod)
    return table


def _want_string(name: str, value: LuaValue) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return lua_repr(float(value))
    raise LuaRuntimeError(f"bad argument to '{name}' (string expected, "
                          f"got {type_name(value)})")


def _want_table(name: str, value: LuaValue) -> LuaTable:
    if isinstance(value, LuaTable):
        return value
    raise LuaRuntimeError(f"bad argument to '{name}' (table expected, "
                          f"got {type_name(value)})")


def _lua_index(i: float | int, length: int) -> int:
    """Convert a Lua string index (1-based, negative from the end)."""
    i = int(i)
    if i < 0:
        i = length + i + 1
    return i


def _string_table() -> LuaTable:
    table = LuaTable()

    def s_len(s: LuaValue = None) -> float:
        return float(len(_want_string("len", s)))

    def s_sub(s: LuaValue = None, i: LuaValue = 1, j: LuaValue = -1) -> str:
        text = _want_string("sub", s)
        start = max(1, _lua_index(_want_number("sub", i), len(text)))
        stop = min(len(text), _lua_index(_want_number("sub", j), len(text)))
        if start > stop:
            return ""
        return text[start - 1:stop]

    def s_upper(s: LuaValue = None) -> str:
        return _want_string("upper", s).upper()

    def s_lower(s: LuaValue = None) -> str:
        return _want_string("lower", s).lower()

    def s_rep(s: LuaValue = None, n: LuaValue = 0) -> str:
        return _want_string("rep", s) * int(_want_number("rep", n))

    def s_reverse(s: LuaValue = None) -> str:
        return _want_string("reverse", s)[::-1]

    def s_byte(s: LuaValue = None, i: LuaValue = 1) -> float | None:
        text = _want_string("byte", s)
        index = _lua_index(_want_number("byte", i), len(text))
        if 1 <= index <= len(text):
            return float(ord(text[index - 1]))
        return None

    def s_char(*codes: LuaValue) -> str:
        return "".join(chr(int(_want_number("char", c))) for c in codes)

    def s_find(s: LuaValue = None, pattern: LuaValue = None,
               init: LuaValue = 1, plain: LuaValue = None):
        """Plain substring find only (Lua patterns are not supported in
        the sandbox; pass plain=true semantics unconditionally)."""
        text = _want_string("find", s)
        needle = _want_string("find", pattern)
        start = max(1, _lua_index(_want_number("find", init), len(text)))
        index = text.find(needle, start - 1)
        if index < 0:
            return None
        # Lua returns (start, end); single-value contexts see start.
        return MultiValue((float(index + 1),
                           float(index + len(needle))))

    def s_format(fmt: LuaValue = None, *args: LuaValue):
        template = _want_string("format", fmt)
        out: list[str] = []
        arg_index = 0
        i = 0
        while i < len(template):
            ch = template[i]
            if ch != "%":
                out.append(ch)
                i += 1
                continue
            # Parse %[flags][width][.precision]spec
            j = i + 1
            while j < len(template) and template[j] in "-+ #0123456789.":
                j += 1
            if j >= len(template):
                raise LuaRuntimeError("invalid format string")
            spec = template[j]
            body = template[i + 1:j]
            if spec == "%":
                out.append("%")
                i = j + 1
                continue
            if arg_index >= len(args):
                raise LuaRuntimeError(
                    f"bad argument #{arg_index + 2} to 'format' "
                    "(no value)"
                )
            value = args[arg_index]
            arg_index += 1
            if spec in "di":
                out.append(f"%{body}d" % int(_want_number("format", value)))
            elif spec in "u":
                out.append(f"%{body}d" % int(_want_number("format", value)))
            elif spec in "fFgGeE":
                out.append(f"%{body}{spec}"
                           % _want_number("format", value))
            elif spec in "xX":
                out.append(f"%{body}{spec}"
                           % int(_want_number("format", value)))
            elif spec == "s":
                out.append(f"%{body}s" % lua_repr(value))
            elif spec == "q":
                out.append('"' + str(value).replace("\\", "\\\\")
                           .replace('"', '\\"') + '"')
            else:
                raise LuaRuntimeError(
                    f"invalid conversion '%{spec}' to 'format'"
                )
            i = j + 1
        return "".join(out)

    for name, fn in (("len", s_len), ("sub", s_sub), ("upper", s_upper),
                     ("lower", s_lower), ("rep", s_rep),
                     ("reverse", s_reverse), ("byte", s_byte),
                     ("char", s_char), ("find", s_find),
                     ("format", s_format)):
        table.set(name, fn)
    return table


def _table_table() -> LuaTable:
    table = LuaTable()

    def t_insert(t: LuaValue = None, a: LuaValue = None,
                 b: LuaValue = None) -> None:
        target = _want_table("insert", t)
        if b is None:
            target.set(float(target.length() + 1), a)
            return
        pos = int(_want_number("insert", a))
        n = target.length()
        if not 1 <= pos <= n + 1:
            raise LuaRuntimeError("bad argument #2 to 'insert' "
                                  "(position out of bounds)")
        for index in range(n, pos - 1, -1):
            target.set(float(index + 1), target.get(index))
        target.set(float(pos), b)

    def t_remove(t: LuaValue = None, pos: LuaValue = None):
        target = _want_table("remove", t)
        n = target.length()
        if n == 0:
            return None
        index = n if pos is None else int(_want_number("remove", pos))
        if not 1 <= index <= n:
            raise LuaRuntimeError("bad argument #2 to 'remove' "
                                  "(position out of bounds)")
        removed = target.get(index)
        for i in range(index, n):
            target.set(float(i), target.get(i + 1))
        target.set(float(n), None)
        return removed

    def t_concat(t: LuaValue = None, sep: LuaValue = "",
                 i: LuaValue = 1, j: LuaValue = None):
        target = _want_table("concat", t)
        separator = _want_string("concat", sep) if sep != "" else ""
        start = int(_want_number("concat", i))
        stop = target.length() if j is None else int(_want_number("concat",
                                                                  j))
        parts = []
        for index in range(start, stop + 1):
            value = target.get(index)
            if not isinstance(value, (str, int, float)) \
                    or isinstance(value, bool):
                raise LuaRuntimeError(
                    f"invalid value (at index {index}) in table for "
                    "'concat'"
                )
            parts.append(lua_repr(float(value))
                         if isinstance(value, (int, float)) else value)
        return separator.join(parts)

    def t_sort(t: LuaValue = None, comparator: LuaValue = None) -> None:
        target = _want_table("sort", t)
        if comparator is not None:
            raise LuaRuntimeError(
                "table.sort comparators are not supported in the sandbox; "
                "sort plain numbers or strings"
            )
        values = target.to_list()
        try:
            values.sort()
        except TypeError as exc:
            raise LuaRuntimeError(f"attempt to compare mixed types in "
                                  f"'sort': {exc}") from exc
        for index, value in enumerate(values, start=1):
            target.set(float(index), value)

    for name, fn in (("insert", t_insert), ("remove", t_remove),
                     ("concat", t_concat), ("sort", t_sort)):
        table.set(name, fn)
    return table


def _stdlib_vars() -> dict[str, LuaValue]:
    return {
        "max": lua_max,
        "min": lua_min,
        "tostring": lua_tostring,
        "tonumber": lua_tonumber,
        "pairs": lua_pairs,
        "ipairs": lua_ipairs,
        "type": lua_type,
        "assert": lua_assert,
        "error": lua_error,
        "math": _math_table(),
        "string": _string_table(),
        "table": _table_table(),
    }


def _table_member_names(table: LuaTable) -> frozenset[str]:
    return frozenset(key for key, _value in table.lua_pairs()
                     if isinstance(key, str))


#: The complete sandbox whitelist, derived from the live environment so the
#: static analyzer (repro.analysis) can never drift from what the runtime
#: actually installs.  ``SANDBOX_GLOBALS`` is every global name the stdlib
#: binds; ``SANDBOX_TABLE_MEMBERS`` maps each library table to its member
#: names (``math`` -> {"floor", ...}).
SANDBOX_GLOBALS: frozenset[str] = frozenset(_stdlib_vars())
SANDBOX_TABLE_MEMBERS: dict[str, frozenset[str]] = {
    name: _table_member_names(value)
    for name, value in _stdlib_vars().items()
    if isinstance(value, LuaTable)
}

#: Well-known Lua 5.1 stdlib names deliberately *absent* from the sandbox:
#: they are non-deterministic, reach outside the policy, or can subvert the
#: environment.  The determinism lint rule and the runtime agree on these
#: by construction (tests/analysis/test_purity_rules.py asserts it).
FORBIDDEN_STDLIB_GLOBALS: frozenset[str] = frozenset({
    "os", "io", "print", "require", "dofile", "load", "loadstring",
    "loadfile", "pcall", "xpcall", "select", "rawget", "rawset",
    "rawequal", "setmetatable", "getmetatable", "getfenv", "setfenv",
    "collectgarbage", "coroutine", "package", "debug", "unpack", "next",
    "_G",
})
#: Forbidden members of whitelisted library tables (the table is in the
#: sandbox, the member is not).
FORBIDDEN_STDLIB_MEMBERS: frozenset[str] = frozenset({
    "math.random", "math.randomseed", "string.dump", "string.gmatch",
    "string.gsub", "string.match", "table.getn", "table.setn",
})


#: Prototype stdlib bindings, built once.  ``new_environment`` clones the
#: mutable tables (math/string/table) so one run's mutations cannot leak
#: into the next; the builtins themselves are stateless callables.
_STDLIB_PROTO: dict[str, LuaValue] | None = None


def install_stdlib(env: Environment) -> Environment:
    """Install the safe builtins into *env* (typically the root scope)."""
    for name, value in _stdlib_vars().items():
        env.declare(name, value)
    return env


def new_environment() -> Environment:
    """Fresh root environment with the stdlib installed."""
    global _STDLIB_PROTO
    if _STDLIB_PROTO is None:
        _STDLIB_PROTO = _stdlib_vars()
    bindings = dict(_STDLIB_PROTO)
    for name in ("math", "string", "table"):
        bindings[name] = bindings[name].copy_shallow()
    return Environment(vars=bindings)

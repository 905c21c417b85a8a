"""Run-time values for the Mantle-Lua interpreter.

Lua values map to Python values: ``nil`` -> ``None``, booleans -> ``bool``,
numbers -> ``float``, strings -> ``str``, tables -> :class:`LuaTable`,
functions -> :class:`LuaFunction` or a Python callable registered in the
environment (e.g. ``WRstate``).
"""

from __future__ import annotations

from typing import Any, Iterator

from .errors import LuaRuntimeError

LuaValue = Any  # None | bool | float | str | LuaTable | LuaFunction | callable


class MultiValue(tuple):
    """Multiple return values from a Lua call.

    Only the last expression of an expression list keeps its multiplicity
    (Lua semantics); in any single-value context the first element is used
    (or nil when empty).
    """

    def first(self) -> LuaValue:
        return self[0] if self else None


def is_truthy(value: LuaValue) -> bool:
    """Lua truthiness: only ``nil`` and ``false`` are false."""
    return value is not None and value is not False


def type_name(value: LuaValue) -> str:
    if value is None:
        return "nil"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    if isinstance(value, str):
        return "string"
    if isinstance(value, LuaTable):
        return "table"
    if callable(value):
        return "function"
    return type(value).__name__


def lua_repr(value: LuaValue) -> str:
    """``tostring``-style rendering."""
    if value is None:
        return "nil"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value in (float("inf"), float("-inf")):
            return "inf" if value > 0 else "-inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, str):
        return value
    if isinstance(value, LuaTable):
        return f"table: 0x{id(value):x}"
    return f"function: 0x{id(value):x}"


#: Internal wrapper so boolean keys do not collide with 0/1 (Python dicts
#: treat True == 1 as the same key; Lua tables do not).
_BOOL_KEY = {True: ("__lua_bool__", True), False: ("__lua_bool__", False)}


def _normalize_key(key: LuaValue) -> LuaValue:
    """Integral float keys collapse to int so ``t[1]`` and ``t[1.0]`` agree."""
    if isinstance(key, bool):
        return _BOOL_KEY[key]
    if isinstance(key, float) and key - key == 0 and key == int(key):
        return int(key)  # finite: int(inf) and int(nan) would raise
    return key


def _denormalize_key(key: Any) -> LuaValue:
    if isinstance(key, tuple) and len(key) == 2 and key[0] == "__lua_bool__":
        return key[1]
    return key


class LuaTable:
    """A Lua table: a hash map with array-part semantics for ``#`` and ipairs.

    The array part is the maximal run of consecutive integer keys starting
    at 1, matching the only ``#`` behaviour Lua actually guarantees.
    """

    __slots__ = ("_data",)

    def __init__(self, array: list[LuaValue] | None = None,
                 hash_part: dict[Any, LuaValue] | None = None) -> None:
        self._data: dict[Any, LuaValue] = {}
        if array:
            for i, value in enumerate(array, start=1):
                if value is not None:
                    self._data[i] = value
        if hash_part:
            for key, value in hash_part.items():
                self.set(key, value)

    # -- core access -----------------------------------------------------
    def get(self, key: LuaValue) -> LuaValue:
        if key is None:
            return None
        return self._data.get(_normalize_key(key))

    def set(self, key: LuaValue, value: LuaValue) -> None:
        if key is None:
            raise LuaRuntimeError("table index is nil")
        if isinstance(key, float) and key != key:
            raise LuaRuntimeError("table index is NaN")
        key = _normalize_key(key)
        if value is None:
            self._data.pop(key, None)
        else:
            self._data[key] = value

    def length(self) -> int:
        """Border of the array part: largest n with t[1..n] all non-nil."""
        n = 0
        while (n + 1) in self._data:
            n += 1
        return n

    # -- iteration ---------------------------------------------------------
    def lua_pairs(self) -> Iterator[tuple[LuaValue, LuaValue]]:
        """Array part in order first, then remaining keys in insertion order."""
        n = self.length()
        for i in range(1, n + 1):
            yield float(i), self._data[i]
        for key, value in self._data.items():
            if isinstance(key, int) and not isinstance(key, bool) and 1 <= key <= n:
                continue
            key = _denormalize_key(key)
            yield (float(key) if isinstance(key, int) and not isinstance(key, bool)
                   else key), value

    def lua_ipairs(self) -> Iterator[tuple[float, LuaValue]]:
        n = self.length()
        for i in range(1, n + 1):
            yield float(i), self._data[i]

    def copy_shallow(self) -> "LuaTable":
        """A new table sharing no storage with this one (values are shared).

        Used to clone stdlib prototype tables per environment so a policy
        that mutates ``math``/``string``/``table`` cannot leak state into
        later runs.
        """
        clone = LuaTable()
        clone._data = self._data.copy()
        return clone

    # -- python conveniences -------------------------------------------------
    def to_list(self) -> list[LuaValue]:
        """Array part as a Python list (useful in tests and the balancer)."""
        return [self._data[i] for i in range(1, self.length() + 1)]

    def to_dict(self) -> dict[Any, LuaValue]:
        return {_denormalize_key(key): value
                for key, value in self._data.items()}

    def keys(self) -> list[Any]:
        return [_denormalize_key(key) for key in self._data.keys()]

    def __contains__(self, key: LuaValue) -> bool:
        return _normalize_key(key) in self._data

    def __len__(self) -> int:
        return self.length()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LuaTable({self._data!r})"


class LuaFunction:
    """A function defined in policy source (closure over its environment)."""

    __slots__ = ("params", "body", "closure", "name")

    def __init__(self, params: tuple[str, ...], body: Any, closure: Any,
                 name: str = "?") -> None:
        self.params = params
        self.body = body
        self.closure = closure
        self.name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<lua function {self.name}>"


def from_python(value: Any) -> LuaValue:
    """Convert a Python value (possibly nested) into a Lua value."""
    if value is None or isinstance(value, (bool, str, LuaTable)):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, dict):
        table = LuaTable()
        for key, item in value.items():
            table.set(from_python(key), from_python(item))
        return table
    if isinstance(value, (list, tuple)):
        return LuaTable(array=[from_python(item) for item in value])
    if callable(value):
        return value
    raise LuaRuntimeError(f"cannot convert {type(value).__name__} to a Lua value")


def to_python(value: LuaValue) -> Any:
    """Convert a Lua value to plain Python (tables become dict or list)."""
    if isinstance(value, LuaTable):
        n = value.length()
        data = value.to_dict()
        if len(data) == n:  # pure array
            return [to_python(item) for item in value.to_list()]
        return {key: to_python(item) for key, item in data.items()}
    return value

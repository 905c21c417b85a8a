"""Stdlib builtins available to policies."""

import math

import pytest

from repro.luapolicy import LuaRuntimeError, run_policy


def value_of(source, name="x"):
    return run_policy(source).python_value(name)


class TestMaxMin:
    def test_max_of_two(self):
        assert value_of("x = max(3, 7)") == 7.0

    def test_min_of_two(self):
        assert value_of("x = min(3, 7)") == 3.0

    def test_varargs(self):
        assert value_of("x = max(1, 9, 4, 2)") == 9.0

    def test_string_coercion(self):
        assert value_of('x = max("5", 3)') == 5.0

    def test_no_args_raises(self):
        with pytest.raises(LuaRuntimeError):
            run_policy("x = max()")

    def test_non_number_raises(self):
        with pytest.raises(LuaRuntimeError):
            run_policy("x = max({}, 1)")


class TestConversionBuiltins:
    def test_tostring(self):
        assert value_of("x = tostring(3)") == "3"
        assert value_of("x = tostring(nil)") == "nil"
        assert value_of("x = tostring(true)") == "true"

    def test_tonumber(self):
        assert value_of('x = tonumber("42")') == 42.0
        assert value_of('x = tonumber("nope") == nil') is True
        assert value_of("x = tonumber(nil) == nil") is True

    def test_type(self):
        assert value_of("x = type(3)") == "number"
        assert value_of('x = type("s")') == "string"
        assert value_of("x = type({})") == "table"
        assert value_of("x = type(nil)") == "nil"
        assert value_of("x = type(max)") == "function"


class TestMathTable:
    def test_floor_ceil(self):
        assert value_of("x = math.floor(3.7)") == 3.0
        assert value_of("x = math.ceil(3.2)") == 4.0

    def test_floor_negative(self):
        assert value_of("x = math.floor(-1.5)") == -2.0

    def test_abs_sqrt(self):
        assert value_of("x = math.abs(-4)") == 4.0
        assert value_of("x = math.sqrt(16)") == 4.0

    def test_exp_log(self):
        assert value_of("x = math.log(math.exp(1))") == pytest.approx(1.0)

    def test_huge_and_pi(self):
        assert value_of("x = math.huge") == math.inf
        assert value_of("x = math.pi") == pytest.approx(math.pi)

    def test_pow_fmod(self):
        assert value_of("x = math.pow(2, 8)") == 256.0
        assert value_of("x = math.fmod(7, 3)") == 1.0

    def test_max_min_aliases(self):
        assert value_of("x = math.max(1, 2)") == 2.0
        assert value_of("x = math.min(1, 2)") == 1.0


class TestMathIeee:
    """Lua's math library is C's: domain errors give nan, overflows
    +-inf, and nothing raises a host error a policy run cannot catch."""

    @pytest.mark.parametrize("expr", [
        "math.sqrt(-1)", "math.log(-1)", "math.fmod(1, 0)",
        "math.fmod(1/0, 2)", "math.floor(0/0)", "math.ceil(0/0)",
        "math.sin(1/0)", "math.cos(-1/0)", "math.tan(1/0)",
        "math.pow(-8, 1/3)",
    ])
    def test_domain_errors_give_nan(self, expr):
        assert math.isnan(value_of(f"x = {expr}"))

    @pytest.mark.parametrize("expr, expected", [
        ("math.log(0)", -math.inf),
        ("math.floor(1/0)", math.inf),
        ("math.floor(-1/0)", -math.inf),
        ("math.ceil(1/0)", math.inf),
        ("math.ceil(-1/0)", -math.inf),
        ("math.exp(1000)", math.inf),
        ("math.exp(-1/0)", 0.0),
        ("math.sqrt(1/0)", math.inf),
        ("math.log(1/0)", math.inf),
        ("math.pow(10, 400)", math.inf),
        ("math.pow(-10, 401)", -math.inf),
        ("math.pow(0, -1)", math.inf),
        ("math.fmod(5, 1/0)", 5.0),
        ("math.fmod(-7, 3)", -1.0),
    ])
    def test_edge_values_follow_ieee(self, expr, expected):
        assert value_of(f"x = {expr}") == expected

    @pytest.mark.parametrize("a, b", [(2, 0.5), (-2, 3), (0, 0),
                                      (-8, 1 / 3), (1e300, 2)])
    def test_pow_matches_the_operator(self, a, b):
        via_call = value_of(f"x = math.pow({a!r}, {b!r})")
        via_operator = value_of(f"x = ({a!r}) ^ ({b!r})")
        assert via_call == via_operator or (math.isnan(via_call)
                                            and math.isnan(via_operator))

    def test_non_number_still_raises(self):
        with pytest.raises(LuaRuntimeError):
            run_policy("x = math.sqrt({})")


class TestPairsIpairs:
    def test_pairs_on_non_table_raises(self):
        with pytest.raises(LuaRuntimeError):
            run_policy("for k in pairs(5) do end")

    def test_ipairs_gives_indices(self):
        assert value_of(
            "t = {7, 8} x = 0 for i, v in ipairs(t) do x = x + i end"
        ) == 3.0


class TestAssertError:
    def test_assert_passes_through(self):
        assert value_of("x = assert(5)") == 5.0

    def test_assert_failure(self):
        with pytest.raises(LuaRuntimeError, match="assertion failed"):
            run_policy("assert(false)")

    def test_assert_custom_message(self):
        with pytest.raises(LuaRuntimeError, match="boom"):
            run_policy('assert(nil, "boom")')

    def test_error_raises(self):
        with pytest.raises(LuaRuntimeError, match="bad policy"):
            run_policy('error("bad policy")')

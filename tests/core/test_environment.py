"""The Mantle environment (paper Table 2): formulas, bindings, targets."""

import importlib.util
import math
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.environment import (
    build_decision_bindings,
    compile_mdsload,
    compile_metaload,
    extract_targets,
)
from repro.core.policies import STOCK_POLICIES
from repro.core.policyfile import load_policy_file
from repro.luapolicy import LuaError, LuaRuntimeError, run_policy
from repro.luapolicy.sandbox import CompiledPolicy, compile_load_expression
from repro.namespace.counters import OP_KINDS

ROOT = Path(__file__).resolve().parents[2]


def snapshot(**values):
    base = {kind: 0.0 for kind in OP_KINDS}
    base.update(values)
    return base


class TestMetaloadCompilation:
    def test_cephfs_formula(self):
        fn = compile_metaload("IRD + 2*IWR + READDIR + 2*FETCH + 4*STORE")
        assert fn(snapshot(IRD=1, IWR=2, READDIR=3, FETCH=4, STORE=5)) == 36.0

    def test_single_metric(self):
        fn = compile_metaload("IWR")
        assert fn(snapshot(IWR=7)) == 7.0

    def test_unknown_metric_raises(self):
        fn = compile_metaload("BOGUS + 1")
        with pytest.raises(LuaRuntimeError):
            fn(snapshot())

    def test_transpiled_matches_interpreter(self):
        source = "IRD + 2*IWR - READDIR/4"
        fast = compile_metaload(source)
        values = snapshot(IRD=3, IWR=5, READDIR=8)
        slow = compile_load_expression(source).run(values).return_value
        assert fast(values) == slow

    def test_complex_formula_falls_back_to_interpreter(self):
        fn = compile_metaload("max(IRD, IWR) + math.floor(READDIR)")
        assert fn(snapshot(IRD=2, IWR=9, READDIR=3.7)) == 12.0

    def test_non_numeric_result_raises(self):
        fn = compile_metaload('"text"')
        with pytest.raises(LuaRuntimeError):
            fn(snapshot())

    @given(ird=st.floats(0, 1e5), iwr=st.floats(0, 1e5),
           rdd=st.floats(0, 1e5), fetch=st.floats(0, 1e5),
           store=st.floats(0, 1e5))
    def test_transpiler_equivalence_property(self, ird, iwr, rdd, fetch,
                                             store):
        source = "IRD + 2*IWR + READDIR + 2*FETCH + 4*STORE"
        values = snapshot(IRD=ird, IWR=iwr, READDIR=rdd, FETCH=fetch,
                          STORE=store)
        fast = compile_metaload(source)(values)
        slow = compile_load_expression(source).run(values).return_value
        assert fast == slow


class TestMdsloadCompilation:
    METRICS = [
        {"auth": 100.0, "all": 120.0, "cpu": 90.0, "mem": 40.0,
         "q": 5.0, "req": 2000.0},
        {"auth": 10.0, "all": 15.0, "cpu": 10.0, "mem": 10.0,
         "q": 0.0, "req": 100.0},
    ]

    def test_cephfs_formula(self):
        fn = compile_mdsload(
            '0.8*MDSs[i]["auth"] + 0.2*MDSs[i]["all"] + MDSs[i]["req"]'
            ' + 10*MDSs[i]["q"]'
        )
        assert fn(self.METRICS, 0) == pytest.approx(
            0.8 * 100 + 0.2 * 120 + 2000 + 50
        )
        assert fn(self.METRICS, 1) == pytest.approx(
            0.8 * 10 + 0.2 * 15 + 100
        )

    def test_all_only(self):
        fn = compile_mdsload('MDSs[i]["all"]')
        assert fn(self.METRICS, 1) == 15.0

    def test_non_numeric_result_raises(self):
        fn = compile_mdsload("MDSs")
        with pytest.raises(LuaRuntimeError):
            fn(self.METRICS, 0)


# -- the compiler against the interpreter ------------------------------------

#: Numbers that stress IEEE corners: zeros of both signs, negatives,
#: fractions, the edges of the double range, infinities and nan.
VALUES = st.sampled_from([
    0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -2.5, 3.0, 7.25, 1e300, -1e300,
    1e-300, math.inf, -math.inf, math.nan,
]) | st.floats()
#: Literal spellings; ``MDSs[1.5]``, ``MDSs[0]`` and ``MDSs[9]`` read nil.
LITERALS = st.sampled_from(["0", "1", "2", "3", "0.5", "1.5", "9", "10",
                            "1e308", "1e-300"])
METRIC_KEYS = ("auth", "all", "q", "cpu")


def expressions(leaves):
    """Parenthesised formula sources: the compiled subset (unary minus and
    ``+ - * / % ^``) plus ``max(a, b)``, a call outside it."""
    def extend(children):
        return st.one_of(
            children.map(lambda e: f"(-{e})"),
            st.tuples(children, st.sampled_from("+-*/%^"), children).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(children, children).map(
                lambda t: f"max({t[0]}, {t[1]})"),
        )
    return st.recursive(leaves, extend, max_leaves=8)


METALOAD_SOURCES = expressions(LITERALS | st.sampled_from(OP_KINDS))


@st.composite
def mds_leaves(draw):
    index = draw(st.sampled_from(["i", "1", "2", "0", "1.5", "9", "(i+1)",
                                  "(i-1)", "(1/0)", "(0/0)"]))
    key = draw(st.sampled_from(METRIC_KEYS + ("missing",)))
    return f'MDSs[{index}]["{key}"]'


MDSLOAD_SOURCES = expressions(LITERALS | st.just("i") | mds_leaves())
COUNTERS = st.fixed_dictionaries({kind: VALUES for kind in OP_KINDS})
METRICS = st.lists(
    st.dictionaries(st.sampled_from(METRIC_KEYS), VALUES), min_size=1,
    max_size=4)


def outcome(thunk):
    """``("value", float.hex)`` (nan as ``"nan"``) or ``("error",)`` when
    the formula raises a Lua error or produces something not a number."""
    try:
        value = thunk()
    except LuaError:
        return ("error",)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        return ("error",)
    return ("value", "nan" if math.isnan(value) else float.hex(float(value)))


def interpreted(source, bindings):
    result = compile_load_expression(source).run(bindings)
    return result.returned[0] if result.returned else None


class TestCompilerMatchesInterpreter:
    """The compiled formula and the interpreter agree bit for bit, or
    both fail -- on every shape the generator builds, including nil reads
    (out-of-range ranks, missing keys) and IEEE corners (``x/0``)."""

    @settings(max_examples=300, deadline=None)
    @given(source=METALOAD_SOURCES, counters=COUNTERS)
    @example(source="IWR / IRD", counters=snapshot(IWR=5.0))
    @example(source="IWR % IRD", counters=snapshot(IWR=5.0))
    @example(source="(-IRD) ^ 0.5", counters=snapshot(IRD=8.0))
    @example(source="IWR ^ 1e308", counters=snapshot(IWR=10.0))
    def test_metaload(self, source, counters):
        assert outcome(lambda: compile_metaload(source)(counters)) == \
            outcome(lambda: interpreted(source, dict(counters)))

    @settings(max_examples=300, deadline=None)
    @given(source=MDSLOAD_SOURCES, metrics=METRICS, data=st.data())
    @example(source='MDSs[i]["all"] / MDSs[i]["q"]',
             metrics=[{"all": 3.0, "q": 0.0}], data=None)
    @example(source='MDSs[i+1]["all"]', metrics=[{"all": 3.0}], data=None)
    @example(source='MDSs[1/0]["all"]', metrics=[{"all": 3.0}], data=None)
    def test_mdsload(self, source, metrics, data):
        i0 = 0 if data is None else data.draw(
            st.integers(0, len(metrics) - 1), label="i0")
        bindings = {"MDSs": [dict(m) for m in metrics], "i": i0 + 1}
        assert outcome(lambda: compile_mdsload(source)(metrics, i0)) == \
            outcome(lambda: interpreted(source, bindings))


def _shipped_policies():
    """Every policy the repo ships: stock, the custom example and the
    example policy files."""
    policies = [factory() for factory in STOCK_POLICIES.values()]
    spec = importlib.util.spec_from_file_location(
        "custom_balancer", ROOT / "examples" / "custom_balancer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    policies.append(module.build_custom_policy())
    for path in sorted((ROOT / "examples" / "policies").glob("*.lua")):
        policies.append(load_policy_file(path))
    return policies


@pytest.mark.parametrize("policy", _shipped_policies(),
                         ids=lambda policy: policy.name)
def test_shipped_formulas_take_the_compiled_path(policy, monkeypatch):
    """The benchmark's formulas must not silently move to the interpreter
    if the compiled subset narrows."""
    metaload = compile_metaload(policy.metaload)
    mdsload = compile_mdsload(policy.mdsload)

    def no_interpreter(self, *args, **kwargs):
        raise AssertionError(f"{self.source!r} ran in the interpreter")

    monkeypatch.setattr(CompiledPolicy, "run", no_interpreter)
    counters = snapshot(IRD=3.0, IWR=5.0, READDIR=1.0, FETCH=0.0, STORE=2.0)
    metrics = [
        {"auth": 4.0, "all": 6.0, "cpu": 50.0, "mem": 10.0, "q": 2.0,
         "req": 30.0, "alive": 1.0},
        {"auth": 0.0, "all": 0.0, "cpu": 1.0, "mem": 10.0, "q": 0.0,
         "req": 0.0, "alive": 1.0},
    ]
    assert isinstance(metaload(counters), float)
    for i0 in range(len(metrics)):
        assert isinstance(mdsload(metrics, i0), float)


class TestDecisionBindings:
    def run_decision(self, source, whoami=0, metrics=None):
        metrics = metrics or [
            {"auth": 10, "all": 12, "cpu": 50, "mem": 10, "q": 1,
             "req": 100, "load": 30.0},
            {"auth": 1, "all": 1, "cpu": 5, "mem": 5, "q": 0,
             "req": 10, "load": 2.0},
        ]
        state = {}
        bindings = build_decision_bindings(
            whoami=whoami,
            mds_metrics=metrics,
            local_counters=snapshot(IWR=5, IRD=3),
            auth_metaload=8.0,
            all_metaload=9.0,
            wrstate=lambda v=None: state.__setitem__("s", v),
            rdstate=lambda: state.get("s"),
        )
        return run_policy(source, bindings)

    def test_whoami_is_one_based(self):
        result = self.run_decision("x = whoami", whoami=0)
        assert result.python_value("x") == 1.0

    def test_mds_array_one_based(self):
        result = self.run_decision('x = MDSs[1]["load"] y = #MDSs')
        assert result.python_value("x") == 30.0
        assert result.python_value("y") == 2.0

    def test_total_is_sum_of_loads(self):
        result = self.run_decision("x = total")
        assert result.python_value("x") == 32.0

    def test_local_metrics_bound(self):
        result = self.run_decision(
            "a = IWR b = IRD c = authmetaload d = allmetaload"
        )
        assert result.python_value("a") == 5.0
        assert result.python_value("b") == 3.0
        assert result.python_value("c") == 8.0
        assert result.python_value("d") == 9.0

    def test_wrstate_rdstate_roundtrip(self):
        result = self.run_decision("WRstate(3) x = RDstate()")
        assert result.python_value("x") == 3.0

    def test_targets_table_present(self):
        result = self.run_decision("targets[2] = 5.5")
        assert result.python_value("targets") == {2: 5.5}


class TestExtractTargets:
    def test_one_based_to_zero_based(self):
        assert extract_targets({1: 10.0, 3: 5.0}, 4) == {0: 10.0, 2: 5.0}

    def test_list_form(self):
        assert extract_targets([1.0, 2.0], 4) == {0: 1.0, 1: 2.0}

    def test_out_of_range_dropped(self):
        assert extract_targets({0: 5.0, 9: 5.0}, 4) == {}

    def test_non_positive_dropped(self):
        assert extract_targets({1: 0.0, 2: -3.0}, 4) == {}

    def test_garbage_dropped(self):
        assert extract_targets({"x": 1.0, 1: "y", 2.5: 3.0}, 4) == {}
        assert extract_targets("nonsense", 4) == {}
        assert extract_targets(None, 4) == {}

    def test_fractional_index_dropped(self):
        assert extract_targets({1.5: 3.0}, 4) == {}

    def test_float_integral_index_kept(self):
        assert extract_targets({2.0: 3.0}, 4) == {1: 3.0}

import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stefanlab import coeffexpr
from stefanlab.coeffexpr import (Bin, Call, Const, Num, Unary, Var,
                                 ExprFunction, parse, pretty)
from stefanlab.errors import EvalDomainError, ExprSyntaxError, UnknownIdentifier


class TestParse:
    def test_plus_at_root(self):
        ast = parse("1 + 0.5*sin(2*pi*t)")
        assert isinstance(ast, Bin) and ast.op == "+"

    def test_power_right_associative(self):
        assert ExprFunction("2^3^2")(0.0) == 512

    def test_power_binds_above_unary_minus(self):
        # -2^2 parses as -(2^2)
        assert ExprFunction("-2^2")(0.0) == -4

    def test_precedence(self):
        assert ExprFunction("1+2*3")(0.0) == 7
        assert ExprFunction("(1+2)*3")(0.0) == 9
        assert ExprFunction("6/2/3")(0.0) == pytest.approx(1.0)

    def test_whitespace_insensitive(self):
        assert parse(" 1+ t * r") == parse("1+t*r")

    def test_unbalanced_paren_offset(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse("sin(t")
        assert exc.value.offset == 5
        assert ")" in exc.value.expected

    def test_empty(self):
        with pytest.raises(ExprSyntaxError):
            parse("   ")

    def test_trailing_garbage(self):
        with pytest.raises(ExprSyntaxError):
            parse("1+2 3")

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier) as exc:
            parse("1 + bogus")
        assert exc.value.name == "bogus"

    def test_source_size_cap(self):
        with pytest.raises(ExprSyntaxError):
            parse("1+" * 40000 + "1")

    @pytest.mark.parametrize("deepest, too_deep", [
        ("(" * 100 + "t" + ")" * 100, "(" * 101 + "t" + ")" * 101),
        ("-" * 99 + "t", "-" * 100 + "t"),
        ("t" + "+1" * 99, "t" + "+1" * 100),
        ("sin(" * 99 + "t" + ")" * 99, "sin(" * 100 + "t" + ")" * 100),
        ("2^" * 99 + "t", "2^" * 100 + "t")],
        ids=["groups", "minuses", "sum", "calls", "powers"])
    def test_depth_cap(self, deepest, too_deep):
        # MAX_DEPTH levels of groups, calls, minuses, exponents or tree
        assert coeffexpr.variables(parse(deepest)) == {"t"}
        with pytest.raises(ExprSyntaxError, match="deeper than 100 levels"):
            parse(too_deep)

    def test_scientific_notation(self):
        assert ExprFunction("1e-3 + 2E2")(0.0) == pytest.approx(200.001)


class TestEvaluate:
    def test_variables(self):
        assert ExprFunction("t*r")(2.0, 3.0) == 6.0

    def test_max_clamp(self):
        assert ExprFunction("max(0, r-1)")(0.0, 0.5) == 0.0

    def test_sqrt_negative(self):
        with pytest.raises(EvalDomainError):
            ExprFunction("sqrt(r-2)")(0.0, 1.0)

    def test_log_nonpositive(self):
        with pytest.raises(EvalDomainError):
            ExprFunction("log(t)")(0.0)

    def test_division_by_zero(self):
        with pytest.raises(EvalDomainError):
            ExprFunction("1/t")(0.0)

    def test_exp_overflow(self):
        with pytest.raises(EvalDomainError):
            ExprFunction("exp(t)")(1e4)

    def test_constants(self):
        assert ExprFunction("pi")(0.0) == math.pi
        assert ExprFunction("e")(0.0) == math.e

    def test_vectorized(self):
        t = np.linspace(0, 1, 11)
        out = ExprFunction("sin(2*pi*t)")(t)
        assert np.allclose(out, np.sin(2 * np.pi * t))

    def test_array_domain_check(self):
        r = np.array([1.0, -1.0])
        with pytest.raises(EvalDomainError):
            ExprFunction("sqrt(r)")(0.0, r)

    def test_domain_error_message_is_one_line(self):
        fn = ExprFunction("2+log(t)")
        t = np.linspace(0.0, 1.0, 33)[:, None] * np.ones((1, 64))
        with pytest.raises(EvalDomainError) as exc:
            fn(t)
        assert str(exc.value) == "domain error in log(t) at value 0.0"
        assert exc.value.node == fn.ast.right
        assert exc.value.value is t

    def test_domain_error_names_first_offending_value(self):
        r = np.array([1.0, 6.0, 7.0])
        with pytest.raises(EvalDomainError) as exc:
            ExprFunction("1+sqrt(5-r)")(0.0, r)
        assert str(exc.value) == "domain error in sqrt((5.0 - r)) at value -1.0"


# random ASTs for the round-trip and reference-evaluator properties

_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False).map(Num),
    st.sampled_from([Var("t"), Var("r"), Const("pi"), Const("e")]),
)


def _node(children):
    unary = children.map(lambda c: Unary("-", c))
    binop = st.tuples(st.sampled_from("+-*"), children, children).map(
        lambda x: Bin(x[0], x[1], x[2]))
    call1 = st.tuples(st.sampled_from(["sin", "cos", "tanh", "abs"]),
                      children).map(lambda x: Call(x[0], (x[1],)))
    call2 = st.tuples(st.sampled_from(["min", "max"]), children, children).map(
        lambda x: Call(x[0], (x[1], x[2])))
    return st.one_of(unary, binop, call1, call2)


_ast = st.recursive(_leaf, _node, max_leaves=32)


def _reference_eval(ast, t, r):
    """Direct recursive evaluator, independent of coeffexpr's compiled
    closures.

    It calls the numpy ufuncs they call, on the same inputs, so the
    properties check the order of operations and not libm: math.tanh and
    np.tanh can differ by an ulp, which a cancellation turns into a large
    relative error."""
    if isinstance(ast, Num):
        return ast.value
    if isinstance(ast, Const):
        return {"pi": math.pi, "e": math.e}[ast.name]
    if isinstance(ast, Var):
        return t if ast.name == "t" else r
    if isinstance(ast, Unary):
        return -_reference_eval(ast.child, t, r)
    if isinstance(ast, Bin):
        a = _reference_eval(ast.left, t, r)
        b = _reference_eval(ast.right, t, r)
        return {"+": a + b, "-": a - b, "*": a * b}[ast.op]
    fn = {"sin": np.sin, "cos": np.cos, "tanh": np.tanh,
          "abs": np.abs, "min": np.minimum, "max": np.maximum}[ast.fn]
    return fn(*[_reference_eval(c, t, r) for c in ast.args])


@settings(max_examples=300, deadline=None)
@given(_ast)
def test_parse_pretty_fixpoint(ast):
    assert parse(pretty(ast)) == ast


@settings(max_examples=300, deadline=None)
@given(_ast, st.floats(0, 5, allow_nan=False), st.floats(0, 5, allow_nan=False))
# --(sin(t) + tanh(t)): np.tanh and math.tanh differ by 1 ulp here
@example(Unary("-", Unary("-", Bin("+", Call("sin", (Var("t"),)),
                                   Call("tanh", (Var("t"),))))),
         4.9243385873879495, 0.0)
def test_matches_reference_evaluator(ast, t, r):
    ref = _reference_eval(ast, t, r)
    try:
        got = float(coeffexpr._compile(ast)(t, r))
    except EvalDomainError:
        assert not math.isfinite(ref)
        return
    if math.isfinite(ref):
        assert got == pytest.approx(ref, rel=1e-15, abs=1e-300)


def bitwise_equal(a, b):
    """Same shape and the same float64 bit patterns (-0.0 != 0.0)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


_coords = st.lists(st.floats(0, 5, allow_nan=False), min_size=1, max_size=4)


@settings(max_examples=300, deadline=None)
@given(_ast, _coords, _coords)
def test_compiled_matches_reference_bitwise(ast, t, r):
    # t as a column and r as a row: every node broadcasts its operands
    t = np.array(t)[:, None]
    r = np.array(r)[None, :]
    got = ExprFunction(pretty(ast))(t, r)
    ref = np.broadcast_to(_reference_eval(ast, t, r), (t.size, r.size))
    assert bitwise_equal(got, ref)


def test_expr_function_pickles():
    # the loaded copy recompiles: every domain-checked operation, on
    # broadcast arrays and on scalars
    fn = ExprFunction("1 + 0.5*sin(2*pi*t) + sqrt(1 + t*r)/(2 + 0.5)"
                      " - log(1 + r)*exp(-(max(t, 0.5)^1.5))")
    clone = pickle.loads(pickle.dumps(fn))
    t = np.linspace(0, 1, 7)
    r = np.linspace(0.0, 3.0, 13)
    for args in ((t[:, None], r), (0.3, r), (t,), (0.3, 0.2)):
        assert bitwise_equal(fn(*args), clone(*args))


class TestCompiledDomainChecks:
    """Each domain check fires inside a compiled ExprFunction, with its
    error class and one-line message."""

    @pytest.mark.parametrize("text,t,r,message", [
        ("t/(r-1)", 0.0, [2.0, 1.0, 1.0],
         "domain error in (t / (r - 1.0)) at value 0.0"),
        ("(r-3)^0.5", 0.0, [4.0, 1.0, 2.0],
         "domain error in ((r - 3.0) ^ 0.5) at value -2.0"),
        ("sqrt(1-t)", [0.5, 3.0, 2.0], 0.0,
         "domain error in sqrt((1.0 - t)) at value -2.0"),
        ("2+log(t)", [0.5, 0.0, -1.0], 0.0,
         "domain error in log(t) at value 0.0"),
        ("exp(r*t)", 1.0, [1.0, 800.0, 900.0],
         "domain error in exp((r * t)) at value 800.0")],
        ids=["divide", "power", "sqrt", "log", "exp"])
    def test_message(self, text, t, r, message):
        with pytest.raises(EvalDomainError) as exc:
            ExprFunction(text)(np.asarray(t), np.asarray(r))
        assert str(exc.value) == message
        assert "\n" not in str(exc.value)


class TestExprFunctionShape:
    @pytest.mark.parametrize("text", ["1.5", "2*pi", "1 + 0.5*sin(2*pi*t)",
                                      "exp(-(r^2))", "t*r"])
    def test_broadcast_shape(self, text):
        fn = ExprFunction(text)
        t = np.linspace(0.0, 1.0, 5)
        r = np.linspace(0.0, 2.0, 7)
        assert np.shape(fn(t[:, None], r)) == (5, 7)
        assert np.shape(fn(t)) == (5,)
        assert np.shape(fn(0.3, r)) == (7,)
        assert np.ndim(fn(0.3, 0.2)) == 0

    def test_constant_matches_zero_padded_formula(self):
        t = np.linspace(0.0, 1.0, 6)[:, None]
        r = np.linspace(0.0, 3.0, 4)
        out = ExprFunction("1.5")(t, r)
        assert np.array_equal(out, 1.5 + 0.0 * t + 0.0 * r)
        out[0, 0] = 0.0     # a fresh array, not a read-only broadcast view

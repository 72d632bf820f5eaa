"""Parser, printer, binder, and reference interpreter of the expression language."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from siphkit import exprlang
from siphkit.exprlang import (
    BinOp,
    Call,
    ExprBindError,
    ExprError,
    ExprSyntaxError,
    Neg,
    Num,
    Var,
    VecRef,
    bind,
    eval_ast,
    parse,
    to_source,
)


# ---------------------------------------------------------------------------
# values


def test_norm_squared_value():
    f = bind("norm(x)^2", 2)
    assert f.value([3.0, 4.0]) == pytest.approx(25.0, rel=1e-14)


def test_tanh_at_zero():
    f = bind("tanh(x_1)", 1)
    assert f.value([0.0]) == 0.0


def test_abs_binding_in_higher_dimension():
    f = bind(parse("abs(x_1)"), 3)
    assert f.value([-2.0, 5.0, 1.0]) == 2.0


def test_sum_of_root_coordinates_squared():
    f = bind("(sqrt(abs(x_1)) + sqrt(abs(x_2)))^2", 2)
    assert f.value([1.0, 1.0]) == pytest.approx(4.0, abs=1e-12)


def test_min_max_values():
    f = bind("min(x_1, x_2, 3)", 2)
    assert f.value([5.0, 4.0]) == 3.0
    g = bind("max(x_1, -x_1)", 1)
    assert g.value([-7.0]) == 7.0


def test_norm_whole_vector():
    f = bind("norm(x)", 3)
    assert f.value([1.0, 2.0, 2.0]) == pytest.approx(3.0, rel=1e-14)


def test_sqrt_of_negative_is_nan_not_error():
    f = bind("sqrt(x_1)", 1)
    with np.errstate(all="ignore"):
        assert math.isnan(f.value([-1.0]))


def test_division_by_zero_is_nonfinite():
    f = bind("1 / x_1", 1)
    with np.errstate(all="ignore"):
        assert math.isinf(f.value([0.0]))


# ---------------------------------------------------------------------------
# precedence and associativity


def test_power_is_right_associative():
    f = bind("2^3^2", 1)
    assert f.value([0.0]) == 512.0
    assert parse("2^3^2") == parse("2^(3^2)")
    assert parse("2^3^2") != parse("(2^3)^2")


def test_unary_minus_binds_looser_than_power():
    f = bind("-x_1^2", 1)
    assert f.value([3.0]) == -9.0
    assert parse("-x_1^2") == parse("-(x_1^2)")


def test_power_accepts_negated_exponent():
    f = bind("x_1^-1", 1)
    assert f.value([2.0]) == 0.5


def test_multiplication_before_addition():
    f = bind("2 + 3 * 4", 1)
    assert f.value([0.0]) == 14.0


def test_left_associative_subtraction_and_division():
    assert bind("2 - 3 - 4", 1).value([0.0]) == -5.0
    assert bind("8 / 4 / 2", 1).value([0.0]) == 1.0


def test_whitespace_and_spans_do_not_affect_equality():
    assert parse("1+2*x_1") == parse(" 1 + 2  *  x_1 ")


# ---------------------------------------------------------------------------
# errors


def test_trailing_operator_error_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x_1 +")
    assert exc.value.offset == 4
    assert "offset 4" in str(exc.value)


def test_out_of_range_variable_is_a_bind_error():
    node = parse("x_3")
    with pytest.raises(ExprBindError):
        bind(node, 2)
    # a source string is range-checked as it is bound
    with pytest.raises(ExprBindError) as exc:
        bind("x_1 + x_3", 2)
    assert exc.value.offset == 6


def test_norm_argument_must_be_the_vector_token():
    # the bare token, so norm((x)) is rejected too; the error is at norm
    for source in ["norm(x_1)", "norm(x, x)", "norm((x))", "norm(x + 0)",
                   "norm(x", "norm()"]:
        with pytest.raises(ExprSyntaxError) as exc:
            parse(source)
        assert exc.value.offset == 0, source


def test_vector_token_is_rejected_outside_norm():
    with pytest.raises(ExprSyntaxError):
        parse("x + 1")
    with pytest.raises(ExprSyntaxError):
        parse("abs(x)")


def test_unknown_function_and_identifier():
    with pytest.raises(ExprSyntaxError):
        parse("foo(x_1)")
    with pytest.raises(ExprSyntaxError):
        parse("y + 1")


def test_unexpected_character_offset():
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x_1 $ 2")
    assert exc.value.offset == 4


def test_arity_errors():
    with pytest.raises(ExprSyntaxError):
        parse("min(x_1)")
    with pytest.raises(ExprSyntaxError):
        parse("sin(x_1, x_2)")


def test_empty_and_unbalanced_sources():
    with pytest.raises(ExprSyntaxError):
        parse("")
    with pytest.raises(ExprSyntaxError):
        parse("(x_1")
    with pytest.raises(ExprSyntaxError):
        parse("x_1 2")


def test_the_first_error_in_reading_order_is_reported():
    # the bare x comes before the unknown y and the unclosed parenthesis
    with pytest.raises(ExprSyntaxError) as exc:
        parse("x * (y + 1")
    assert exc.value.offset == 0
    with pytest.raises(ExprSyntaxError) as exc:
        parse("norm(x_1) + y")
    assert exc.value.offset == 0


# ---------------------------------------------------------------------------
# length and depth


def test_a_chain_of_any_length_binds_and_folds_left():
    assert bind(" + ".join(["x_1"] * 3000), 1).value([1.0]) == 3000.0
    assert bind(" * ".join(["x_1"] * 3000), 1).value([1.0]) == 1.0
    X = np.random.default_rng(4).uniform(-2.0, 2.0, size=(50, 3))
    got = bind("x_1 - x_2 * x_3 / x_1 + x_2 - 3", 3).values(X)
    want = X[:, 0] - X[:, 1] * X[:, 2] / X[:, 0] + X[:, 1] - 3.0
    assert got.tobytes() == want.tobytes()


def test_nesting_beyond_the_cap_is_a_syntax_error_naming_it():
    cap = exprlang.MAX_DEPTH
    # the outermost factor is level 1, so cap - 1 parentheses still fit
    fits = "(" * (cap - 1) + "x_1" + ")" * (cap - 1)
    assert bind(fits, 1).value([2.0]) == 2.0
    for source in ["(" * cap + "x_1" + ")" * cap, "-" * 3000 + "x_1",
                   "abs(" * 300 + "x_1" + ")" * 300, "2^" * 300 + "2",
                   "min(1, " * 300 + "x_1" + ")" * 300]:
        with pytest.raises(ExprSyntaxError, match=f"deeper than {cap} levels"):
            parse(source)


# ---------------------------------------------------------------------------
# printing round trip


def test_to_source_prints_numbers_exactly():
    assert to_source(parse("2")) == "2.0"
    assert to_source(parse("x_2 + 1.5")) == "x_2 + 1.5"


def _random_ast(rng, n, depth):
    """A random AST over x_1..x_n; the vector token appears only inside norm."""
    if depth <= 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Num(value=float(round(rng.uniform(0.0, 10.0), 3)))
        return Var(index=int(rng.integers(1, n + 1)))
    kind = rng.choice(["neg", "bin", "call", "norm"])
    if kind == "neg":
        return Neg(child=_random_ast(rng, n, depth - 1))
    if kind == "bin":
        op = rng.choice(["+", "-", "*", "/", "^"])
        return BinOp(op=str(op), left=_random_ast(rng, n, depth - 1),
                     right=_random_ast(rng, n, depth - 1))
    if kind == "norm":
        return Call(name="norm", args=(VecRef(),))
    name = str(rng.choice(["abs", "sqrt", "exp", "log", "sin", "cos", "tanh",
                           "min", "max"]))
    if name in ("min", "max"):
        k = int(rng.integers(2, 4))
        args = tuple(_random_ast(rng, n, depth - 1) for _ in range(k))
    else:
        args = (_random_ast(rng, n, depth - 1),)
    return Call(name=name, args=args)


def test_print_parse_round_trip_on_random_trees():
    rng = np.random.default_rng(123)
    for _ in range(200):
        tree = _random_ast(rng, n=3, depth=4)
        assert parse(to_source(tree)) == tree


def test_reference_interpreter_agrees_with_compiled_evaluator():
    rng = np.random.default_rng(321)
    checked = 0
    with np.errstate(all="ignore"):
        for _ in range(200):
            tree = _random_ast(rng, n=3, depth=4)
            f = bind(tree, 3)
            # stay away from exact zeros, where 0^negative conventions differ
            x = rng.uniform(0.1, 2.0, size=3) * np.where(rng.random(3) < 0.5, -1.0, 1.0)
            got = f.value(x)
            want = eval_ast(tree, x)
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
            checked += 1
    assert checked == 200


@given(st.text(alphabet="x_123+-*/^(), abscdeghilmnopqrt.", max_size=16))
def test_fuzzed_sources_parse_or_raise_expression_errors(source):
    try:
        parse(source)
    except ExprError:
        pass  # the only acceptable failure mode

"""Expression mini-language: lexing, parsing, printing, evaluation."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superstar.errors import DimensionError
from superstar.expr import (
    Add,
    Coordinate,
    Exp,
    ExpressionError,
    ExprSyntaxError,
    Literal,
    Mul,
    Neg,
    OddGenerator,
    Pow,
    StarOp,
    Sub,
    UnknownSymbolError,
    _quadratic,
    evaluate,
    parse,
    print_expression,
)
from superstar.exppoly import ExpPolyFunction
from superstar.starprod import DeformationContext, star
from superstar.superfun import Superfunction, sf_max_dev, smul

CTX = DeformationContext(0.7, 1, 2, (1, 1))


# ---------------------------------------------------------------------------
# parsing to the expected shapes
# ---------------------------------------------------------------------------


def test_star_node_shape():
    ast = parse("x1 star x2")
    assert ast == StarOp(Coordinate(1), Coordinate(2))


def test_product_with_exp_shape():
    ast = parse("exp(-x1^2) * xi1")
    assert ast == Mul(Exp(Neg(Pow(Coordinate(1), 2))), OddGenerator(1))


def test_precedence_and_associativity():
    ast = parse("x1 + x2 * x1 star x2 - 2")
    assert ast == Sub(Add(Coordinate(1),
                          StarOp(Mul(Coordinate(2), Coordinate(1)),
                                 Coordinate(2))),
                      Literal(complex(2.0)))


def test_leading_minus_negates_first_term():
    assert parse("-x1 + x2") == Add(Neg(Coordinate(1)), Coordinate(2))
    assert parse("-x1 * x2") == Neg(Mul(Coordinate(1), Coordinate(2)))


def test_imaginary_literals():
    assert parse("2i") == Literal(2j)
    assert parse("i") == Literal(1j)
    assert parse("0.5i * x1") == Mul(Literal(0.5j), Coordinate(1))


def test_exp_polynomial_collects_terms():
    ast = parse("exp(x2*x1 + 0.5*x1*x2 - x1 + 2i*x1 + 1)")
    assert _quadratic(ast) == ((((1, 2), complex(1.5)),),
                               ((1, complex(-1.0, 2.0)),),
                               complex(1.0))


def test_power_binds_tightest():
    assert parse("2*x1^2") == Mul(Literal(complex(2.0)), Pow(Coordinate(1), 2))
    assert parse("x1^1 star x2") == StarOp(Pow(Coordinate(1), 1), Coordinate(2))


def test_positions_are_tracked_but_not_compared():
    ast = parse("x1 +\n  x2")
    assert isinstance(ast, Add)
    assert ast.rhs.line == 2 and ast.rhs.col == 3
    assert ast == parse("x1 + x2")


# ---------------------------------------------------------------------------
# errors carry line and column
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("src,exc,col", [
    ("x1 star", ExprSyntaxError, 8),
    ("x1 +* x2", ExprSyntaxError, 5),
    ("(x1 + x2", ExprSyntaxError, 9),
    ("x1 ) x2", ExprSyntaxError, 4),
    ("exp x1", ExprSyntaxError, 5),
    ("exp(xi1)", ExprSyntaxError, 5),
    ("exp(x1^3)", ExprSyntaxError, 7),
    ("exp(x1*x2*x1)", ExprSyntaxError, 11),
    ("x0", ExprSyntaxError, 1),
    ("foo + 1", UnknownSymbolError, 1),
    ("x1 @ x2", ExprSyntaxError, 4),
    ("x1 + 1e400i", ExpressionError, 6),
    ("exp(1e300*x1*1e300)", ExpressionError, 1),
    ("exp(2*(x1 + x2))", ExprSyntaxError, 11),
    ("exp(x1 star x2)", ExprSyntaxError, 8),
    ("exp(exp(x1))", ExprSyntaxError, 5),
    ("exp(x1*x2^2)", ExprSyntaxError, 8),
    ("xi1^2", ExprSyntaxError, 4),
    ("x1^3", ExprSyntaxError, 3),
])
def test_errors_with_position(src, exc, col):
    with pytest.raises(exc) as info:
        parse(src)
    assert info.value.line == 1
    assert info.value.col == col


def test_error_line_numbers_across_newlines():
    with pytest.raises(UnknownSymbolError) as info:
        parse("x1 +\n  bad")
    assert info.value.line == 2
    assert info.value.col == 3


# ---------------------------------------------------------------------------
# printing: canonical text and round-trip stability
# ---------------------------------------------------------------------------

CORPUS = [
    "x1 star x2",
    "exp(-x1^2) * xi1",
    "x1 + x2 star x1 - 2i * xi1",
    "-x1 * (x2 + xi1) star xi2",
    "exp(0.5*x1*x2 - 1.25i*x2^2 + 2*x1 + 0.75) * (xi1 star xi1)",
    "exp(-x1^2 - x2^2) star exp(-x1^2 - x2^2)",
    "3.5e-2 * x1 - i",
    "x1 + (x2 + x1)",
    "(x1 + x2) * x1",
    "x1 star (x2 * x1)",
]


@pytest.mark.parametrize("src", CORPUS)
def test_round_trip_on_corpus(src):
    ast = parse(src)
    text = print_expression(ast)
    assert parse(text) == ast
    assert print_expression(parse(text)) == text


def test_printer_uses_minimal_parentheses():
    assert print_expression(parse("(x1 + x2) + x1")) == "x1 + x2 + x1"
    assert print_expression(parse("x1 + (x2 + x1)")) == "x1 + (x2 + x1)"
    assert print_expression(parse("(x1 * x2) star x1")) == "x1 * x2 star x1"


@pytest.mark.parametrize("src, text", [
    ("-x1 + x2", "-x1 + x2"),
    ("(-x1) + x2", "-x1 + x2"),
    ("-(x1 + x2) + x3", "-(x1 + x2) + x3"),
    ("exp((-x1^2) - x2^2)", "exp(-x1^2 - x2^2)"),
    ("x1 + (-x2)", "x1 + (-x2)"),
    ("x1 - (-x2)", "x1 - (-x2)"),
    ("(-x1) * x2", "(-x1) * x2"),
    ("(-x1) star x2", "(-x1) star x2"),
    ("-(-x1)", "-(-x1)"),
])
def test_negation_is_parenthesized_only_where_it_must_be(src, text):
    # a leading negation prints bare; a right operand, a factor of * or star,
    # or the operand of another negation keeps its parentheses
    assert print_expression(parse(src)) == text
    assert parse(text) == parse(src)


_coeff = st.one_of(
    st.integers(min_value=-9, max_value=9).filter(lambda v: v != 0).map(float),
    st.floats(min_value=-32.0, max_value=32.0,
              allow_nan=False).filter(lambda v: v != 0),
)


def _literals():
    return st.one_of(
        _coeff.filter(lambda v: v > 0).map(lambda v: Literal(complex(v))),
        _coeff.filter(lambda v: v > 0).map(lambda v: Literal(complex(0, v))),
    )


def _powers():
    return st.builds(Pow, st.integers(1, 2).map(Coordinate), st.integers(1, 2))


def _degree(factor) -> int:
    if isinstance(factor, Pow):
        return factor.power
    return int(isinstance(factor, Coordinate))


def _exp_nodes():
    """exp of a signed sum of monomials of degree <= 2, left-nested products."""
    factor = st.one_of(_literals(), st.integers(1, 2).map(Coordinate), _powers())
    monomial = st.lists(factor, min_size=1, max_size=3).filter(
        lambda fs: sum(map(_degree, fs)) <= 2).map(
        lambda fs: functools.reduce(Mul, fs))

    def extend(children):
        return st.one_of(
            st.builds(lambda cls, a, b: cls(a, b), st.sampled_from([Add, Sub]),
                      children, children),
            children.map(lambda a: a if isinstance(a, Neg) else Neg(a)),
        )

    return st.recursive(monomial, extend, max_leaves=6).map(Exp)


def _ast_nodes():
    leaves = st.one_of(
        _literals(),
        st.integers(1, 2).map(Coordinate),
        st.integers(1, 2).map(OddGenerator),
        _powers(),
        _exp_nodes(),
    )

    def extend(children):
        binop = st.sampled_from([Add, Sub, Mul, StarOp])
        return st.one_of(
            st.builds(lambda cls, a, b: cls(a, b), binop, children, children),
            children.map(lambda a: a if isinstance(a, Neg) else Neg(a)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=150, deadline=None)
@given(_ast_nodes())
def test_round_trip_on_random_asts(ast):
    text = print_expression(ast)
    again = parse(text)
    assert again == ast
    assert print_expression(again) == text


# ---------------------------------------------------------------------------
# evaluation against the engine
# ---------------------------------------------------------------------------


def test_evaluate_atoms():
    d, n = 2 * CTX.m, CTX.n
    assert sf_max_dev(evaluate(parse("2i"), CTX),
                      Superfunction.one(d, n).scale(2j)) == 0
    assert sf_max_dev(evaluate(parse("x2"), CTX),
                      Superfunction.coordinate(d, n, 1)) == 0
    assert sf_max_dev(evaluate(parse("xi2"), CTX),
                      Superfunction.xi(d, n, 2)) == 0


def test_evaluate_star_matches_engine():
    d, n = 2 * CTX.m, CTX.n
    x1 = Superfunction.coordinate(d, n, 0)
    xi1 = Superfunction.xi(d, n, 1)
    lhs = evaluate(parse("x1 star xi1 + x1 * xi1"), CTX)
    rhs = star(CTX, x1, xi1) + smul(x1, xi1)
    assert sf_max_dev(lhs, rhs) <= 1e-14


def test_evaluate_odd_star_square_is_half_coupling():
    fun = evaluate(parse("xi1 star xi1"), CTX)
    body = fun.coefficient(0)
    pts = np.zeros((1, 2))
    c_plus = CTX.ledger["c_plus"][0]
    assert abs(body.eval(pts)[0] - c_plus) <= 1e-15
    assert abs(c_plus - 0.35j) <= 1e-15


def test_evaluate_pointwise_odd_square_vanishes():
    fun = evaluate(parse("xi1 * xi1"), CTX)
    assert fun.is_zero


def test_power_outside_exp_is_the_product():
    assert sf_max_dev(evaluate(parse("x1^2 * xi1 + x2^1"), CTX),
                      evaluate(parse("x1 * x1 * xi1 + x2"), CTX)) == 0


@pytest.mark.parametrize("nested, flat", [
    ("exp(-(x1^2 + x2^2))", "exp(-x1^2 - x2^2)"),
    ("exp(-(x1^2 + x2^2) + (0.5i*x1 - (2 - x2)))", "exp(-x1^2 - x2^2 + 0.5i*x1 - 2 + x2)"),
])
def test_exp_reads_signs_and_parentheses(nested, flat):
    assert evaluate(parse(nested), CTX).terms[0].keys == evaluate(parse(flat), CTX).terms[0].keys


def test_evaluate_exp_quadratic_matches_gaussian():
    src = "exp(-x1^2 - 0.5*x2^2 + 0.25*x1*x2 + 0.3*x1 - 1i*x2 + 0.2)"
    fun = evaluate(parse(src), CTX)
    A = np.array([[-1.0, 0.125], [0.125, -0.5]], dtype=complex)
    b = np.array([0.3, -1j])
    ref = ExpPolyFunction.gaussian(2, A, b, np.exp(0.2))
    pts = np.array([[0.0, 0.0], [1.0, -0.5], [0.3, 2.0], [-1.2, 0.7]])
    assert np.max(np.abs(fun.coefficient(0).eval(pts) - ref.eval(pts))) <= 1e-12


def test_evaluate_spec_product_example():
    ctx = DeformationContext(1.0, 1, 0, (0, 0))
    fun = evaluate(parse("x1 star x2"), ctx)
    pts = np.array([[1.3, -0.7], [0.2, 2.0], [0.0, 0.0]])
    vals = fun.coefficient(0).eval(pts)
    expected = pts[:, 0] * pts[:, 1] - 0.5j
    assert np.max(np.abs(vals - expected)) <= 1e-14


def test_evaluate_subtraction_and_negation():
    d, n = 2 * CTX.m, CTX.n
    fun = evaluate(parse("-(x1 - x2) + x1"), CTX)
    assert sf_max_dev(fun, Superfunction.coordinate(d, n, 1)) <= 1e-15


def test_evaluate_out_of_range_indices():
    with pytest.raises(DimensionError):
        evaluate(parse("x3"), CTX)
    with pytest.raises(DimensionError):
        evaluate(parse("xi3"), CTX)
    with pytest.raises(DimensionError):
        evaluate(parse("exp(-x3^2)"), CTX)


def test_evaluate_round_trip_agrees():
    for src in CORPUS:
        direct = evaluate(parse(src), CTX)
        reprinted = evaluate(parse(print_expression(parse(src))), CTX)
        assert sf_max_dev(direct, reprinted) <= 1e-12

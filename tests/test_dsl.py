"""Tests for the expression language: lexing, precedence, evaluation."""

import random
from fractions import Fraction

import pytest

from helpers import random_operator

from dunklweyl.builders import build, names
from dunklweyl.dsl import (
    BinOp,
    Call,
    Name,
    Num,
    ParseError,
    Pow,
    evaluate,
    parse,
    parse_eval,
)
from dunklweyl.opalg import OperatorElement, commutator
from dunklweyl.scalars import Scalar


def x(i, n, p=1):
    return OperatorElement.x(i, n, p)


class TestParsing:
    def test_ast_shape(self):
        assert parse("x1", 1) == Name("x1")
        assert parse("3", 1) == Num(3)
        assert parse("x1^2", 1) == Pow(Name("x1"), 2)
        assert parse("comm(d1, x1)", 1) == Call("comm", (Name("d1"), Name("x1")))

    def test_precedence(self):
        # power binds tighter than *, which binds tighter than +.
        ast = parse("x1 + d1*x1^2", 1)
        assert ast == BinOp("+", Name("x1"),
                            BinOp("*", Name("d1"), Pow(Name("x1"), 2)))

    def test_unary_minus_below_power(self):
        assert parse_eval("-x1^2", 1) == -(x(0, 1) ** 2)

    def test_whitespace(self):
        assert parse_eval("  comm( d1 ,  x1 )  ", 1) == OperatorElement.identity(1)

    def test_greedy_names(self):
        # A-1 is a single token, not a subtraction; same for J+ and
        # the tilde/underscore names with trailing indices.
        assert parse_eval("A-1*A+2", 2) == build("A-1", 2) * build("A+2", 2)
        assert parse_eval("J+ * J-", 2) == build("J+", 2) * build("J-", 2)
        assert parse_eval("Htilde1", 1) == build("Htilde1", 1)
        assert parse_eval("H_susy1", 1) == build("H_susy1", 1)
        assert parse_eval("J0^3+J0", 2) == build("J0", 2) ** 3 + build("J0", 2)

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse("x1 +", 1)
        assert err.value.position == 4
        with pytest.raises(ParseError) as err:
            parse("x1 x1", 1)
        assert err.value.position == 3

    def test_unknown_symbols(self):
        with pytest.raises(ParseError):
            parse("foo", 1)
        # Index beyond the working dimension is not a name at all.
        with pytest.raises(ParseError):
            parse("x3", 2)
        with pytest.raises(ParseError):
            parse("J+", 1)

    def test_function_arity(self):
        with pytest.raises(ParseError):
            parse("comm(x1)", 1)
        with pytest.raises(ParseError):
            parse("adjoint(x1, d1)", 1)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("", 1)
        with pytest.raises(ValueError):
            parse("x1", 0)


class TestEvaluation:
    def test_defining_commutator(self):
        assert parse_eval("comm(d1, x1)", 1) == OperatorElement.identity(1)

    def test_scalar_literals(self):
        one = OperatorElement.identity(1)
        assert parse_eval("i^2", 1) == -one
        assert parse_eval("sqrt2^2", 1) == 2 * one
        assert parse_eval("mu1*x1", 1) == Scalar.parameter(0, 1) * x(0, 1)
        assert parse_eval("1/2 + 1/3", 1) == Fraction(5, 6) * one

    def test_division_by_constants(self):
        assert parse_eval("x1/2", 1) == x(0, 1) / 2
        assert parse_eval("K1/4", 2) == build("K1", 2) / 4
        for bad in ("x1/d1", "x1/mu1", "x1/0", "x1/(x1 + 1)"):
            with pytest.raises(ValueError):
                parse_eval(bad, 1)

    def test_negative_powers(self):
        assert parse_eval("x1^-2", 1) == x(0, 1, -2)
        assert parse_eval("(x1*x2)^-1", 2) == x(0, 2, -1) * x(1, 2, -1)
        assert parse_eval("(2*x1)^-1", 1) == x(0, 1, -1) / 2
        for bad in ("d1^-1", "R1^-1", "(x1 + x2)^-1", "(mu1*x1)^-1"):
            with pytest.raises(ValueError):
                parse_eval(bad, 2)

    def test_function_forms(self):
        assert parse_eval("comm(comm(d1, x1), x1)", 1).is_zero()
        q = build("Q1", 1)
        assert parse_eval("adjoint(Q1) - Q1", 1).is_zero()
        assert parse_eval("acomm(A+1, A-1) - 2*A01", 2).is_zero()
        assert evaluate(parse("adjoint(i*x1)", 1), 1) == -parse_eval("i*x1", 1)

    def test_registry_identity_expression(self):
        # One full structure relation straight through the parser.
        text = ("comm(K-, K+) - (J0^3"
                " + J0*(3 - H^2 - 2*mu1^2 - 2*mu2^2 + 2*mu1*R1 + 2*mu2*R2)"
                " + H*(2*mu1^2 - 2*mu2^2 + 2*mu2*R2 - 2*mu1*R1))")
        assert parse_eval(text, 2).is_zero()


class TestRoundTrip:
    def test_random_operators(self):
        rng = random.Random(505)
        for _ in range(60):
            n = rng.choice([1, 2, 3])
            a = random_operator(rng, n)
            assert parse_eval(str(a), n) == a

    def test_registry_operators(self):
        for dims in (1, 2):
            for name in names(dims):
                a = build(name, dims)
                assert parse_eval(str(a), dims) == a

    def test_zero_renders_and_parses(self):
        z = OperatorElement.zero(2)
        assert str(z) == "0"
        assert parse_eval("0", 2) == z

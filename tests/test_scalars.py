"""Tests for the exact scalar layer: read-only views of Q(i, sqrt2) numbers
and parameter polynomials.  Their arithmetic is the kernel's, tested in
``test_kernel``, exact division included; here the views compare, hash,
evaluate and write what the kernel computed, and a number or scalar meets
an operator."""

import random
from fractions import Fraction

import pytest

from helpers import number, scalar

from dunklweyl._kernel import BN_ONE, bn_add, bn_mul, poly_add, poly_mul
from dunklweyl.dsl import parse_eval
from dunklweyl.scalars import (
    I,
    SQRT2,
    ZERO,
    ArityMismatchError,
    BaseNumber,
    Scalar,
    base_tuple,
)


def random_base(rng: random.Random) -> BaseNumber:
    def frac() -> Fraction:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return number(frac(), frac(), frac(), frac())


def random_scalar(rng: random.Random, nvars: int, max_deg: int = 3) -> Scalar:
    poly: dict = {}
    for _ in range(rng.randint(0, 4)):
        coef = random_base(rng)
        expo = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        if coef:
            poly = poly_add(poly, {expo: coef._data})
    return Scalar(poly, nvars)


def constant(text: str) -> BaseNumber:
    """The number ``text`` evaluates to."""
    return scalar(text, 1).constant_value()


class TestBaseNumber:
    def test_units(self):
        i, root = I._data, SQRT2._data
        assert bn_mul(i, i) == base_tuple(-1)
        assert bn_mul(root, root) == base_tuple(2)
        assert bn_mul(SQRT2.inverse()._data, root) == BN_ONE
        i_root = bn_mul(i, root)
        assert bn_mul(i_root, i_root) == base_tuple(-2)

    def test_one_number(self):
        assert BaseNumber(3) == 3
        assert BaseNumber(Fraction(7, 2)) == Fraction(7, 2)
        assert BaseNumber(SQRT2) == SQRT2
        with pytest.raises(TypeError):
            BaseNumber(1, 2)

    @pytest.mark.parametrize("value", [0.3, 1.0, complex(1, 1), "1/3"])
    def test_floats_refused(self, value):
        # A float converts to Fraction exactly, but to the wrong number:
        # 0.3 is 5404319552844595/18014398509481984.
        with pytest.raises(TypeError, match="cannot interpret"):
            BaseNumber(value)

    def test_rational_interop(self):
        assert constant("3 + 1/2") == BaseNumber(Fraction(7, 2))
        assert constant("1 - 1/3").as_fraction() == Fraction(2, 3)
        assert I.inverse() == number(0, -1)

    def test_as_fraction_rejects_irrational(self):
        with pytest.raises(ValueError):
            constant("1 + sqrt2").as_fraction()
        with pytest.raises(ValueError):
            I.as_fraction()

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()
        with pytest.raises(ZeroDivisionError):
            BaseNumber(0).inverse()

    def test_pow(self):
        # Powers of the constant operator 1 + i, a coordinate monomial.
        z = parse_eval("1 + i", 1)
        assert (z ** 4).as_scalar() == -4
        assert (z ** 0).as_scalar() == 1
        assert ((z ** -2).as_scalar().constant_value()
                == (z ** 2).as_scalar().constant_value().inverse())

    def test_hash_eq(self):
        assert hash(BaseNumber(Fraction(3, 2))) == hash(Fraction(3, 2))
        assert BaseNumber(2) == 2
        assert BaseNumber(2) != number(2, 1)
        assert len({number(1, 2), number(1, 2), number(2, 1)}) == 2

    def test_str(self):
        assert str(ZERO) == "0"
        assert str(number(Fraction(-1, 2), 0, 1, 0)) == "-1/2 + sqrt2"
        assert str(number(0, 0, 0, Fraction(2, 3))) == "2/3*i*sqrt2"
        assert str(number(0, -1)) == "-i"


class TestScalar:
    def test_constructors(self):
        assert not Scalar({}, 2)
        assert Scalar({(0, 0): BN_ONE}, 2).is_constant()
        assert scalar("1/3", 1).constant_value() == Fraction(1, 3)
        mu = Scalar.parameter(0, 1)
        assert not mu.is_constant()
        with pytest.raises(IndexError):
            Scalar.parameter(2, 2)

    def test_arity_mismatch(self):
        # A scalar multiple of an operator is on the operator's variables.
        with pytest.raises(ArityMismatchError):
            parse_eval("1", 1) + parse_eval("1", 2)
        with pytest.raises(ArityMismatchError):
            Scalar.parameter(0, 1) * parse_eval("mu1", 3)

    def test_evaluate_is_homomorphism(self):
        rng = random.Random(104)
        vals = [Fraction(1, 3), Fraction(-1, 2)]
        for _ in range(60):
            a = random_scalar(rng, 2)
            b = random_scalar(rng, 2)
            va, vb = a.evaluate(vals)._data, b.evaluate(vals)._data
            assert (Scalar(poly_mul(a.kernel_poly, b.kernel_poly), 2)
                    .evaluate(vals)._data == bn_mul(va, vb))
            assert (Scalar(poly_add(a.kernel_poly, b.kernel_poly), 2)
                    .evaluate(vals)._data == bn_add(va, vb))

    def test_evaluate_arity(self):
        # The message the CLI prints for a --mu of the wrong length.
        with pytest.raises(ArityMismatchError,
                           match="^need 2 deformation values, got 1$"):
            Scalar({(0, 0): BN_ONE}, 2).evaluate([1])

    def test_conjugate(self):
        # The adjoint conjugates coefficients; the parameters are real.
        z = parse_eval("i*mu1 + sqrt2", 1)
        assert z.adjoint() == parse_eval("-i*mu1 + sqrt2", 1)
        assert z.adjoint().adjoint() == z

    def test_hash_eq(self):
        two = scalar("2", 1)
        half = scalar("1/2", 2)
        root = scalar("sqrt2", 1)
        assert two == 2 and hash(two) == hash(2)
        assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
        assert root == SQRT2 and hash(root) == hash(SQRT2)
        assert hash(Scalar({}, 3)) == hash(0)
        assert len({two, 2, BaseNumber(2)}) == 1
        table = {2: "two", Fraction(1, 2): "half", SQRT2: "root"}
        assert table[two] == "two" and table[half] == "half"
        assert table[root] == "root"
        mu = Scalar.parameter(0, 1)
        assert len({mu, scalar("mu1 + 0", 1), two}) == 2

    def test_eq_across_arities(self):
        # Constants compare by value, as they hash; a scalar carrying a
        # parameter equals nothing of another arity.  Comparison never
        # raises, while arithmetic across arities still does.
        two1, two2 = scalar("2", 1), scalar("2", 2)
        assert two1 == two2 and hash(two1) == hash(two2)
        assert len({two1, two2}) == 1
        assert Scalar({}, 1) == Scalar({}, 3)
        assert scalar("3", 1) != two2
        mu1, mu2 = Scalar.parameter(0, 1), Scalar.parameter(0, 2)
        assert mu1 != mu2 and not mu1 == mu2
        assert scalar("mu1 + 2", 1) != two2 and two2 != scalar("mu1 + 2", 1)
        assert len({mu1, mu2, two1, two2}) == 3
        with pytest.raises(ArityMismatchError):
            two1 * parse_eval("2", 2)

    def test_pow(self):
        assert scalar("mu1^0", 1) == 1
        assert scalar("(mu1 + 1)^2", 1) == scalar("mu1*mu1 + 2*mu1 + 1", 1)
        assert scalar("(mu1 + 1)^1", 1) == scalar("mu1 + 1", 1)
        assert scalar("(mu1 - 2)^3", 1) == scalar(
            "(mu1 - 2)*(mu1 - 2)*(mu1 - 2)", 1)

    def test_str_deterministic(self):
        assert (str(scalar("mu1^2*mu2 - 1/2*mu2 + 3", 2))
                == "mu1^2*mu2 - 1/2*mu2 + 3")
        assert str(scalar("(1 + i)*mu1", 1)) == "(1 + i)*mu1"
        assert str(Scalar({}, 2)) == "0"

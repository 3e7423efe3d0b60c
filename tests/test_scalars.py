"""Tests for the exact scalar layer: Q(i, sqrt2) and parameter polynomials."""

import random
from fractions import Fraction

import pytest

from dunklweyl.scalars import (
    I,
    INV_SQRT2,
    ONE,
    SQRT2,
    ZERO,
    ArityMismatchError,
    BaseNumber,
    InexactDivisionError,
    Scalar,
)


def random_base(rng: random.Random) -> BaseNumber:
    def frac() -> Fraction:
        return Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    return BaseNumber(frac(), frac(), frac(), frac())


def random_scalar(rng: random.Random, nvars: int, max_deg: int = 3) -> Scalar:
    out = Scalar.zero(nvars)
    for _ in range(rng.randint(0, 4)):
        term = Scalar.constant(random_base(rng), nvars)
        for i in range(nvars):
            term = term * Scalar.parameter(i, nvars) ** rng.randint(0, max_deg)
        out = out + term
    return out


class TestBaseNumber:
    def test_units(self):
        assert I * I == -1
        assert SQRT2 * SQRT2 == 2
        assert INV_SQRT2 * SQRT2 == ONE
        assert (I * SQRT2) ** 2 == -2

    def test_component_properties(self):
        z = BaseNumber(Fraction(1, 2), -3, Fraction(2, 3), Fraction(-1, 6))
        assert z.p == Fraction(1, 2)
        assert z.q == -3
        assert z.r == Fraction(2, 3)
        assert z.s == Fraction(-1, 6)

    def test_field_axioms(self):
        rng = random.Random(101)
        for _ in range(200):
            a, b, c = (random_base(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            assert a - a == ZERO
            if a:
                assert a * a.inverse() == ONE
                assert a / a == ONE

    def test_conjugation(self):
        rng = random.Random(102)
        for _ in range(100):
            a, b = random_base(rng), random_base(rng)
            assert (a + b).conjugate() == a.conjugate() + b.conjugate()
            assert (a * b).conjugate() == a.conjugate() * b.conjugate()
            assert a.conjugate().conjugate() == a
            mag = a * a.conjugate()
            assert mag.q == 0 and mag.s == 0

    def test_rational_interop(self):
        assert BaseNumber(3) + Fraction(1, 2) == BaseNumber(Fraction(7, 2))
        assert 2 * BaseNumber(Fraction(1, 4)) == Fraction(1, 2)
        assert (1 - BaseNumber(Fraction(1, 3))).as_fraction() == Fraction(2, 3)
        assert 1 / BaseNumber(0, 1) == -I

    def test_as_fraction_rejects_irrational(self):
        with pytest.raises(ValueError):
            (ONE + SQRT2).as_fraction()
        with pytest.raises(ValueError):
            I.as_fraction()

    def test_zero_division(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()
        with pytest.raises(ZeroDivisionError):
            ONE / BaseNumber(0)

    def test_pow(self):
        z = BaseNumber(1, 1)
        assert z ** 4 == -4
        assert z ** 0 == ONE
        assert z ** -2 == (z ** 2).inverse()

    def test_hash_eq(self):
        assert hash(BaseNumber(Fraction(3, 2))) == hash(Fraction(3, 2))
        assert BaseNumber(2) == 2
        assert BaseNumber(2) != BaseNumber(2, 1)
        assert len({BaseNumber(1, 2), BaseNumber(1, 2), BaseNumber(2, 1)}) == 2

    def test_str(self):
        assert str(ZERO) == "0"
        assert str(BaseNumber(Fraction(-1, 2), 0, 1, 0)) == "-1/2 + sqrt2"
        assert str(BaseNumber(0, 0, 0, Fraction(2, 3))) == "2/3*i*sqrt2"
        assert str(-I) == "-i"


class TestScalar:
    def test_constructors(self):
        assert not Scalar.zero(2)
        assert Scalar.one(2).is_constant()
        assert Scalar.constant(Fraction(1, 3), 1).constant_value() == Fraction(1, 3)
        mu = Scalar.parameter(0, 1)
        assert not mu.is_constant()
        with pytest.raises(IndexError):
            Scalar.parameter(2, 2)

    def test_ring_axioms(self):
        rng = random.Random(103)
        for _ in range(60):
            a = random_scalar(rng, 2)
            b = random_scalar(rng, 2)
            c = random_scalar(rng, 2)
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a - a == Scalar.zero(2)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            Scalar.one(1) + Scalar.one(2)
        with pytest.raises(ArityMismatchError):
            Scalar.parameter(0, 1) * Scalar.parameter(0, 3)

    def test_evaluate_is_homomorphism(self):
        rng = random.Random(104)
        vals = [Fraction(1, 3), Fraction(-1, 2)]
        for _ in range(60):
            a = random_scalar(rng, 2)
            b = random_scalar(rng, 2)
            assert (a * b).evaluate(vals) == a.evaluate(vals) * b.evaluate(vals)
            assert (a + b).evaluate(vals) == a.evaluate(vals) + b.evaluate(vals)

    def test_evaluate_arity(self):
        with pytest.raises(ArityMismatchError):
            Scalar.one(2).evaluate([1])

    def test_exact_div_roundtrip(self):
        rng = random.Random(105)
        checked = 0
        while checked < 40:
            a = random_scalar(rng, 2)
            b = random_scalar(rng, 2)
            if not b:
                continue
            assert (a * b).exact_div(b) == a
            checked += 1

    def test_exact_div_failure(self):
        mu1 = Scalar.parameter(0, 2)
        mu2 = Scalar.parameter(1, 2)
        with pytest.raises(InexactDivisionError):
            (mu1 * mu2 + 1).exact_div(mu1)
        with pytest.raises(ZeroDivisionError):
            mu1.exact_div(Scalar.zero(2))

    def test_division_by_constant(self):
        mu = Scalar.parameter(0, 1)
        assert (mu * 4) / 2 == mu * 2
        assert mu / SQRT2 == mu * INV_SQRT2
        assert (mu * mu) / mu == mu

    def test_conjugate(self):
        mu = Scalar.parameter(0, 1)
        z = Scalar.constant(I, 1) * mu + SQRT2
        assert z.conjugate() == Scalar.constant(-I, 1) * mu + SQRT2
        assert z.conjugate().conjugate() == z

    def test_hash_eq(self):
        two = Scalar.constant(2, 1)
        half = Scalar.constant(Fraction(1, 2), 2)
        root = Scalar.constant(SQRT2, 1)
        assert two == 2 and hash(two) == hash(2)
        assert half == Fraction(1, 2) and hash(half) == hash(Fraction(1, 2))
        assert root == SQRT2 and hash(root) == hash(SQRT2)
        assert hash(Scalar.zero(3)) == hash(0)
        assert len({two, 2, BaseNumber(2)}) == 1
        table = {2: "two", Fraction(1, 2): "half", SQRT2: "root"}
        assert table[two] == "two" and table[half] == "half"
        assert table[root] == "root"
        mu = Scalar.parameter(0, 1)
        assert len({mu, mu + 0, two}) == 2

    def test_eq_across_arities(self):
        # Constants compare by value, as they hash; a scalar carrying a
        # parameter equals nothing of another arity.  Comparison never
        # raises, while arithmetic across arities still does.
        two1, two2 = Scalar.constant(2, 1), Scalar.constant(2, 2)
        assert two1 == two2 and hash(two1) == hash(two2)
        assert len({two1, two2}) == 1
        assert Scalar.zero(1) == Scalar.zero(3)
        assert Scalar.constant(3, 1) != two2
        mu1, mu2 = Scalar.parameter(0, 1), Scalar.parameter(0, 2)
        assert mu1 != mu2 and not mu1 == mu2
        assert mu1 + 2 != two2 and two2 != mu1 + 2
        assert len({mu1, mu2, two1, two2}) == 3
        with pytest.raises(ArityMismatchError):
            two1 + two2

    def test_pow(self):
        mu = Scalar.parameter(0, 1)
        assert mu ** 0 == Scalar.one(1)
        assert (mu + 1) ** 2 == mu * mu + 2 * mu + 1
        assert (mu + 1) ** 1 == mu + 1
        assert (mu - 2) ** 3 == (mu - 2) * (mu - 2) * (mu - 2)

    def test_str_deterministic(self):
        mu1 = Scalar.parameter(0, 2)
        mu2 = Scalar.parameter(1, 2)
        s = mu1 ** 2 * mu2 - Fraction(1, 2) * mu2 + 3
        assert str(s) == "mu1^2*mu2 - 1/2*mu2 + 3"
        t = Scalar.constant(ONE + I, 1) * Scalar.parameter(0, 1)
        assert str(t) == "(1 + i)*mu1"
        assert str(Scalar.zero(2)) == "0"

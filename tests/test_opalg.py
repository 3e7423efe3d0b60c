"""Tests for normal forms, products, adjoints and the function-space action."""

import contextlib
import io
import random
from fractions import Fraction
from operator import add, mul, sub
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    number,
    random_base,
    random_laurent,
    random_operator,
    random_scalar,
    reference_adjoint,
    reference_bracket,
    reference_laurent_mul,
    reference_laurent_str,
    reference_op_mul,
    reference_ratio,
    reference_render,
    scalar,
)

from dunklweyl._kernel import (
    BN_ZERO, bn_make, op_add, op_bracket, op_neg, op_scale, poly_add)

from dunklweyl import _kernel, cli, opalg
from dunklweyl.builders import build
from dunklweyl.dsl import parse_eval
from dunklweyl.opalg import (
    LaurentPolynomial,
    OperatorElement,
    anticommutator,
    commutator,
)
from dunklweyl.scalars import ArityMismatchError, BaseNumber, I, Scalar


SETTINGS = settings(max_examples=200, deadline=None)

# Coefficients with and without i and sqrt2 parts, in 1-3 parameters (one
# per variable), on monomials with negative x-powers and reflections.
_coeffs = st.one_of(
    st.builds(lambda p, d: bn_make(p, 0, 0, 0, d),
              st.integers(-20, 20), st.sampled_from([1, 2, 3, 6])),
    st.builds(bn_make, st.integers(-5, 5), st.integers(-5, 5),
              st.integers(-5, 5), st.integers(-5, 5),
              st.sampled_from([1, 2, 3, 6])),
).filter(lambda c: c[0] or c[1] or c[2] or c[3])


def _polys(nvars):
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * nvars), _coeffs,
                           min_size=1, max_size=3)


@st.composite
def operators(draw):
    n = draw(st.integers(1, 3))
    block = st.tuples(st.integers(-4, 4), st.integers(0, 4), st.integers(0, 1))
    monos = st.tuples(*[block] * n).map(lambda bs: sum(bs, ()))
    return OperatorElement(draw(st.dictionaries(monos, _polys(n), max_size=6)), n)


@st.composite
def laurents(draw):
    n = draw(st.integers(1, 3))
    exps = st.tuples(*[st.integers(-4, 4)] * n)
    return LaurentPolynomial(draw(st.dictionaries(exps, _polys(n), max_size=6)), n)


def gens(nvars: int, i: int = 0):
    return (OperatorElement.x(i, nvars), OperatorElement.d(i, nvars),
            OperatorElement.r(i, nvars))


class TestDefiningRelations:
    def test_weyl(self):
        x, d, _ = gens(1)
        assert commutator(d, x) == 1

    def test_reflection(self):
        x, d, r = gens(1)
        assert anticommutator(r, x).is_zero()
        assert anticommutator(r, d).is_zero()
        assert r * r == OperatorElement.identity(1)

    def test_inverse_powers(self):
        x = OperatorElement.x(0, 1)
        xinv = OperatorElement.x(0, 1, -1)
        d = OperatorElement.d(0, 1)
        assert x * xinv == 1
        assert xinv * x == 1
        assert d * xinv == OperatorElement.x(0, 1, -1) * d - OperatorElement.x(0, 1, -2)

    def test_cross_variable_commutation(self):
        for A in gens(2, 0):
            for B in gens(2, 1):
                assert commutator(A, B).is_zero()

    def test_derivative_reordering(self):
        # d^3 x^2 = x^2 d^3 + 6 x d^2 + 6 d
        x, d, _ = gens(1)
        lhs = d ** 3 * x ** 2
        rhs = x ** 2 * d ** 3 + 6 * x * d ** 2 + 6 * d
        assert lhs == rhs

    def test_associativity_random(self):
        rng = random.Random(201)
        for _ in range(60):
            n = rng.choice([1, 2])
            A = random_operator(rng, n)
            B = random_operator(rng, n)
            C = random_operator(rng, n)
            assert (A * B) * C == A * (B * C)

    def test_distributivity_random(self):
        rng = random.Random(202)
        for _ in range(40):
            A = random_operator(rng, 2)
            B = random_operator(rng, 2)
            C = random_operator(rng, 2)
            assert A * (B + C) == A * B + A * C

    def test_scalars_are_central(self):
        rng = random.Random(203)
        for _ in range(20):
            A = random_operator(rng, 2)
            s = random_scalar(rng, 2)
            assert s * A == A * s


class TestBracketContract:
    """What ``commutator``/``anticommutator`` accept and return, whichever
    way the kernel computes them."""

    A = (OperatorElement.x(0, 1) + Scalar.parameter(0, 1)
         * OperatorElement.d(0, 1) * OperatorElement.r(0, 1))

    def test_integer_operand(self):
        A = self.A
        assert commutator(A, 2).is_zero() and commutator(2, A).is_zero()
        assert anticommutator(A, 2) == anticommutator(2, A) == 4 * A

    @pytest.mark.parametrize("s", [Fraction(2, 3), Scalar.parameter(0, 1),
                                   number(1, 1)],
                             ids=["Fraction", "Scalar", "BaseNumber"])
    def test_scalar_operand_on_either_side(self, s):
        A = self.A
        assert commutator(A, s).is_zero() and commutator(s, A).is_zero()
        assert anticommutator(A, s) == anticommutator(s, A) == 2 * (s * A)

    def test_bracket_with_itself(self):
        R1 = OperatorElement.r(0, 1)
        assert commutator(self.A, self.A).is_zero()
        assert anticommutator(R1, R1) == 2
        assert anticommutator(self.A, self.A) == 2 * self.A * self.A

    def test_arity_mismatch(self):
        one, two = OperatorElement.x(0, 1), OperatorElement.x(0, 2)
        for bracket in (commutator, anticommutator):
            for a, b in ((one, two), (two, one)):
                with pytest.raises(ArityMismatchError):
                    bracket(a, b)
            with pytest.raises(ArityMismatchError):
                bracket(one, Scalar.parameter(0, 2))

    def test_functions_are_not_operands(self):
        op, f = OperatorElement.identity(1), LaurentPolynomial.monomial((0,))
        for bracket in (commutator, anticommutator):
            for a, b in ((op, f), (f, op)):
                with pytest.raises(TypeError):
                    bracket(a, b)


def _one_variable(rng, j, nvars, mu=None):
    """A random operator of one or two terms on variable j alone, with
    coefficients in Q(i, sqrt2), times ``mu`` if given."""
    out = OperatorElement.zero(nvars)
    for k in range(rng.randint(1, 2)):
        # The first term is not a constant, so the operator touches j;
        # no coefficient is zero, so neither is the operator.
        power = rng.choice([-2, -1, 1, 2]) if k == 0 else rng.randint(-2, 2)
        term = ((random_base(rng) or 1) * OperatorElement.x(j, nvars, power)
                * OperatorElement.d(j, nvars, rng.randint(0, 1)))
        out = out + (term * OperatorElement.r(j, nvars) if rng.random() < 0.5
                     else term)
    return out if mu is None else mu * out


@st.composite
def factored(draw, max_factors=4):
    """``(nvars, factors)``: one-variable operators on two or more distinct
    variables of 2-4, the first carrying another variable's mu."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(2, 4))
    variables = rng.sample(range(n), rng.randint(2, min(n, max_factors)))
    mu = Scalar.parameter((variables[0] + 1) % n, n)
    factors = [_one_variable(rng, j, n, mu if k == 0 else None)
               for k, j in enumerate(variables)]
    return n, factors


def _reference_product(ops, nvars):
    out = ops[0].kernel_op
    for op in ops[1:]:
        out = reference_op_mul(out, op.kernel_op, nvars)
    return out


def _reference_power(op, k, nvars):
    """``op^k`` by reference products on the flat operand."""
    out = OperatorElement.identity(nvars).kernel_op
    for _ in range(k):
        out = reference_op_mul(op.kernel_op, out, nvars)
    return out


def _times(ops):
    out = ops[0]
    for op in ops[1:]:
        out = out * op
    return out


class TestFactoredPath:
    """Products of one-variable factors on distinct variables are kept
    factored, multiplied and bracketed factor by factor; every result
    equals the reference on the flattened operands."""

    FACTORED = settings(max_examples=60, deadline=None)

    @FACTORED
    @given(factored(), st.randoms(use_true_random=False))
    def test_products(self, case, rng):
        n, fs = case
        T = _times(fs)
        assert T._factors is not None or T.is_zero()
        flat_t = _reference_product(fs, n)
        assert T.kernel_op == flat_t
        # Factors of U may share variables with those of T; a U of one
        # factor is a plain one-variable operator.
        gs = [_one_variable(rng, j, n)
              for j in rng.sample(range(n), rng.randint(1, n))]
        U = _times(gs)
        flat_u = _reference_product(gs, n)
        assert (T * U).kernel_op == reference_op_mul(flat_t, flat_u, n)
        assert (U * T).kernel_op == reference_op_mul(flat_u, flat_t, n)
        # A flat operand on two variables takes the flat product.
        mixed = fs[0] + fs[1]
        assert (T * mixed).kernel_op == reference_op_mul(
            flat_t, mixed.kernel_op, n)

    @FACTORED
    @given(factored(max_factors=2), st.integers(0, 3))
    def test_powers(self, case, p):
        n, fs = case
        T = _times(fs)
        assert (T ** p).kernel_op == _reference_power(T, p, n)

    @FACTORED
    @given(factored(), st.randoms(use_true_random=False), st.booleans())
    def test_brackets_by_leibniz(self, case, rng, constant):
        # T against a sum S of one-variable terms and against a product U
        # kept factored, on 2-4 of T's variables and others.
        n, fs = case
        T = _times(fs)
        S = sum((_one_variable(rng, j, n)
                 for j in rng.sample(range(n), rng.randint(1, n))),
                random_base(rng) if constant else 0)
        U = _times([_one_variable(rng, j, n)
                    for j in rng.sample(range(n), rng.randint(2, n))])
        assert U._factors is not None or U.is_zero()
        flat_t = T.kernel_op
        for other in (S, U):
            flat_o = other.kernel_op
            for sign, bracket in ((-1, commutator), (1, anticommutator)):
                assert bracket(other, T).kernel_op == reference_bracket(
                    flat_o, flat_t, n, sign)
                assert bracket(T, other).kernel_op == reference_bracket(
                    flat_t, flat_o, n, sign)

    @FACTORED
    @given(factored(), st.randoms(use_true_random=False))
    def test_reads_match_flat_twin(self, case, rng):
        # Every read is the first on a fresh product, so none of them sees
        # a flat form that an earlier read built.
        n, fs = case
        twin = OperatorElement(_reference_product(fs, n), n)

        def fresh():
            return _times(fs)

        with mock.patch.object(opalg, "_flatten", side_effect=AssertionError):
            assert len(fresh()) == len(twin)
            assert bool(fresh()) == bool(twin)
            assert fresh().is_zero() == twin.is_zero()
        assert str(fresh()) == str(twin)
        assert fresh().kernel_op == twin.kernel_op
        absent = (9, 0, 0) * n
        for key in (next(iter(twin.kernel_op), absent), absent):
            assert fresh().coefficient(key) == twin.coefficient(key)
        for other in (twin, 3 * twin, fs[0]):
            assert fresh().ratio(other) == twin.ratio(other)
            assert other.ratio(fresh()) == other.ratio(twin)
        assert fresh().as_scalar() == twin.as_scalar()
        f = random_laurent(rng, n)
        assert fresh().act(f) == twin.act(f)
        assert fresh().adjoint() == twin.adjoint()
        vals = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                for _ in range(n)]
        assert fresh().substitute_params(vals) == twin.substitute_params(vals)
        assert fresh() == twin and twin == fresh()


def _graded(rng, j, nvars, degree):
    """A random operator on variable j alone, homogeneous of ``degree``
    (x counts 1, d counts -1): one or two of ``x^(degree+b)*d^b*R^e``."""
    shapes = [(b, e) for b in range(3) for e in range(2)
              if degree + b or b or e]
    out = OperatorElement.zero(nvars)
    for b, e in rng.sample(shapes, rng.randint(1, 2)):
        coeff = random_base(rng) or 1
        term = (coeff * OperatorElement.x(j, nvars, degree + b)
                * OperatorElement.d(j, nvars, b))
        out = out + (term * OperatorElement.r(j, nvars) if e else term)
    return out


@st.composite
def ladder_cases(draw):
    """``(nvars, factors, sum)``: one-variable factors on each of 2-3
    variables, some homogeneous (so that the Euler operator ``x_j*d_j``
    brackets them to a multiple of themselves), some not (the bracket keeps
    their monomials but scales them apart); and a sum of one-variable
    terms: ``x_j*d_j``, ``mu_j*x_j*d_j``, a random operator, and a
    constant."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(2, 3))
    factors = []
    for j in range(n):
        degree = rng.randint(-2, 2)
        f = _graded(rng, j, n, degree)
        if draw(st.booleans()):
            f = f + _graded(rng, j, n, degree + rng.choice([-1, 1]))
        factors.append(f)
    s = random_base(rng) if draw(st.booleans()) else 0
    for j in rng.sample(range(n), rng.randint(1, n)):
        euler = OperatorElement.x(j, n) * OperatorElement.d(j, n)
        s = s + draw(st.sampled_from([
            euler, Scalar.parameter(j, n) * euler,
            _one_variable(rng, j, n)]))
    return n, factors, s


class TestFactoredArithmetic:
    """Sums, differences, scalar multiples and Leibniz brackets of products
    kept factored, against the flat kernel operations on operands
    flattened by the reference product."""

    @settings(max_examples=120, deadline=None)
    @given(ladder_cases(), st.randoms(use_true_random=False))
    def test_against_flat_operations(self, case, rng):
        n, fs, s = case
        flat = [_reference_product(fs, n)]
        T = _times(fs)
        assert T._factors is not None and T.kernel_op == flat[0]
        # U agrees with T in all factors but one; V differs in two;
        # W is T again from equal dicts that are other objects.
        j, k = rng.sample(range(n), 2)
        other = _graded(rng, j, n, rng.randint(-2, 2))
        us = fs[:j] + [other] + fs[j + 1:]
        vs = [_one_variable(rng, i, n) if i in (j, k) else f
              for i, f in enumerate(fs)]
        ws = [OperatorElement(dict(f.kernel_op), n) for f in fs]
        operands = [T]
        for gs in (us, vs, ws):
            operands.append(_times(gs))
            flat.append(_reference_product(gs, n))
        for X, fx in zip(operands[1:], flat[1:]):
            assert (T + X).kernel_op == op_add(flat[0], fx)
            assert (T - X).kernel_op == op_add(flat[0], op_neg(fx))
            assert (X - T).kernel_op == op_add(fx, op_neg(flat[0]))
        assert (T - T).is_zero()
        assert (T + T).kernel_op == op_add(flat[0], flat[0])
        assert (-T).kernel_op == op_neg(flat[0])
        mu = Scalar.parameter(rng.randrange(n), n)
        for c in (3, Fraction(-2, 5), mu, scalar(f"{mu} - 1", n), 0):
            want = op_scale(flat[0], scalar(str(c), n).kernel_poly)
            assert (c * T).kernel_op == want and (T * c).kernel_op == want
            const = c * OperatorElement.identity(n)
            assert (const * T).kernel_op == want
            assert (T * const).kernel_op == want
        # Brackets with the sum of one-variable terms, either way round.
        fs_ = s.kernel_op
        for sign, bracket in ((-1, commutator), (1, anticommutator)):
            assert bracket(s, T).kernel_op == op_bracket(fs_, flat[0], n, sign)
            assert bracket(T, s).kernel_op == op_bracket(flat[0], fs_, n, sign)

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_zero_in_a_sum_keeps_the_product(self, k):
        # Zero plus or minus a product, or a product minus zero, is that
        # product or its negation, kept factored and written factor by
        # factor; a nonzero constant plus a product is not one product.
        for text, same in ((f"0 - J+^{k}", f"-J+^{k}"),
                           (f"0 + J+^{k}", f"J+^{k}"),
                           (f"J+^{k} + 0", f"J+^{k}"),
                           (f"J+^{k} - 0", f"J+^{k}")):
            out = parse_eval(text, 2)
            assert out._parts()[1] is not None, text
            assert str(out) == str(parse_eval(same, 2))
        assert parse_eval(f"1 - J+^{k}", 2)._parts()[1] is None

    def test_proportional_terms_stay_factored(self):
        # [x1*d1 + mu2*x2*d2, x1^2*R1 * x2^-1*d2] is (2 - 2*mu2) times the
        # product, and {3 + mu2, T} is (6 + 2*mu2)*T.
        n = 2
        x, d, r = OperatorElement.x, OperatorElement.d, OperatorElement.r
        T = (x(0, n, 2) * r(0, n)) * (x(1, n, -1) * d(1, n))
        mu2 = build("mu2", n)
        euler = x(0, n) * d(0, n) + mu2 * x(1, n) * d(1, n)
        const = (3 + mu2) * OperatorElement.identity(n)
        # A single term that is not proportional keeps the product too.
        single = x(0, n) * d(0, n) + 3
        for S, sign, want in ((euler, -1, (2 - 2 * mu2) * T),
                              (const, 1, (6 + 2 * mu2) * T),
                              (single, 1, None)):
            out = (commutator if sign < 0 else anticommutator)(S, T)
            assert out._factors is not None
            flat = op_bracket(S.kernel_op, T.kernel_op, n, sign)
            assert out.kernel_op == flat
            assert want is None or out == want


@st.composite
def power_cases(draw):
    """``(nvars, A, B)``: small operators on one or two variables where
    ``[A, B]`` is anything (random), zero (``A`` a polynomial in ``B``), or
    a scalar multiple of ``B`` (``A`` a sum of ``c_i*x_i*d_i`` with
    parametric ``c_i`` and ``B`` one term)."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 2))
    kind = draw(st.sampled_from(["random", "commuting", "euler"]))
    # One term in B keeps the powers of A = c*B^2 + ... small.  A zero B
    # would make every bracket zero.
    B = (random_operator(rng, n, max_terms=2 if kind == "random" else 1,
                         max_pow=2)
         or OperatorElement.x(0, n, -1) * OperatorElement.d(0, n))
    if kind == "random":
        A = random_operator(rng, n, max_terms=2, max_pow=2)
    elif kind == "commuting":
        A = random_scalar(rng, n) * B * B + random_base(rng) * B + 2
    else:
        A = sum(random_scalar(rng, n) * OperatorElement.x(i, n)
                * OperatorElement.d(i, n) for i in range(n))
    return n, A, B


class TestPowerBracket:
    """A commutator with a recorded power, ``[A, B^k]``, decided from
    ``[A, B]`` where that is zero or a multiple of ``B`` (or of ``A``, for
    ``[A^j, B]``), against the kernel's bracket on operands flattened by
    the reference product."""

    @staticmethod
    def outcomes(monkeypatch):
        """What the rule made of each bracket with a recorded power: zero,
        a multiple, or None where it fell through.  The rule is replaced
        where the operations reach it, in its entry of ``_RULES``."""
        out = []
        rule = opalg._power_bracket

        def recording(a, b, how):
            value = rule(a, b, how)
            if a._power or b._power:
                out.append(value if value is None
                           else "zero" if value.is_zero() else "multiple")
            return value

        for how, rules in opalg._RULES.items():
            monkeypatch.setitem(opalg._RULES, how, tuple(
                recording if r is rule else r for r in rules))
        return out

    @settings(max_examples=80, deadline=None)
    @given(power_cases(), st.integers(0, 4))
    def test_against_flat_bracket(self, case, k):
        n, A, B = case
        flat_a, flat_p = A.kernel_op, _reference_power(B, k, n)
        assert commutator(A, B ** k).kernel_op == op_bracket(
            flat_a, flat_p, n, -1)
        assert commutator(B ** k, A).kernel_op == op_bracket(
            flat_p, flat_a, n, -1)

    @settings(max_examples=40, deadline=None)
    @given(power_cases(), st.integers(2, 3), st.integers(0, 2))
    def test_powers_of_powers(self, case, i, j):
        n, A, B = case
        flat_a = A.kernel_op
        nested, flat_n = (B ** j) ** i, _reference_power(B, i * j, n)
        assert commutator(A, nested).kernel_op == op_bracket(
            flat_a, flat_n, n, -1)
        assert commutator(nested, A).kernel_op == op_bracket(
            flat_n, flat_a, n, -1)
        assert commutator(A ** i, B ** j).kernel_op == op_bracket(
            _reference_power(A, i, n), _reference_power(B, j, n), n, -1)

    @settings(max_examples=40, deadline=None)
    @given(ladder_cases(), st.integers(0, 2))
    def test_factored_bases(self, case, k):
        # A product kept factored as the base, bracketed with a sum of
        # one-variable terms: zero, a multiple of it, or neither.
        n, fs, s = case
        T = _times(fs)
        flat_s, flat_p = s.kernel_op, _reference_power(T, k, n)
        assert commutator(s, T ** k).kernel_op == op_bracket(
            flat_s, flat_p, n, -1)
        assert commutator(T ** k, s).kernel_op == op_bracket(
            flat_p, flat_s, n, -1)

    @pytest.mark.parametrize("k", range(5))
    @pytest.mark.parametrize("ladder", ["J+", "J-"])
    def test_hamiltonian_and_ladder_powers(self, monkeypatch, ladder, k):
        H, J = build("H", 2), build(ladder, 2)
        outcomes = self.outcomes(monkeypatch)
        out = commutator(H, J ** k)
        assert out.kernel_op == op_bracket(
            H.kernel_op, _reference_power(J, k, 2), 2, -1) == {}
        assert outcomes == (["zero"] if k >= 2 else [])

    def test_zero_the_rule_does_not_decide(self, monkeypatch):
        # [R1, x1] = -2*x1*R1 is no multiple of x1, yet [R1, x1^2] = 0.
        r, x = OperatorElement.r(0, 1), OperatorElement.x(0, 1)
        outcomes = self.outcomes(monkeypatch)
        assert commutator(r, x ** 2).is_zero()
        assert outcomes == [None]

    def test_multiples(self, monkeypatch):
        # [J0, J+] = 2*J+ and [mu1*J0, J+] = 2*mu1*J+.
        n = 2
        mu1 = Scalar.parameter(0, n)
        j0, jp = build("J0", n), build("J+", n)
        outcomes = self.outcomes(monkeypatch)
        for a, b, want, k in ((j0, jp ** 3, "6", 3),
                              (mu1 * j0, jp ** 3, "6*mu1", 3),
                              (jp ** 3, j0, "-6", 3),
                              (j0, (jp ** 2) ** 2, "8", 4)):
            power = _reference_power(jp, k, n)
            out = commutator(a, b)
            assert out._factors is not None
            assert out.kernel_op == op_scale(
                power, scalar(want, n).kernel_poly)
            flat_a = power if a._power else a.kernel_op
            flat_b = power if b._power else b.kernel_op
            assert out.kernel_op == op_bracket(flat_a, flat_b, n, -1)
        assert outcomes == ["multiple"] * 4

    def test_fall_through(self, monkeypatch):
        # [K-, K+] has two powers whose bases do not commute; [J0 + x1, J+]
        # is no multiple of J+.
        n = 2
        jm, jp = build("J-", n), build("J+", n)
        mixed = build("J0", n) + OperatorElement.x(0, n)
        outcomes = self.outcomes(monkeypatch)
        assert commutator(build("K-", n), build("K+", n)).kernel_op == (
            op_bracket(_reference_power(jm, 2, n),
                       _reference_power(jp, 2, n), n, -1))
        assert commutator(mixed, jp ** 2).kernel_op == op_bracket(
            mixed.kernel_op, _reference_power(jp, 2, n), n, -1)
        assert outcomes == [None, None]

    def test_two_powers_bracket_by_factors(self, monkeypatch):
        # With both operands powers the bases' bracket is not paid first,
        # and the products K- = J-^2 and K+ = J+^2 are bracketed factor by
        # factor: no bracket sees more than one factor of J-^2 or J+^2.
        n = 2
        km, kp = build("K-", n), build("K+", n)
        flat = op_bracket(_reference_power(build("J-", n), 2, n),
                          _reference_power(build("J+", n), 2, n), n, -1)
        largest = max(map(len, [*km._parts()[1].values(),
                                *kp._parts()[1].values()]))
        calls = []

        def counting(A, B, nvars, sign):
            calls.append((len(A), len(B)))
            return op_bracket(A, B, nvars, sign)

        monkeypatch.setattr(opalg, "op_bracket", counting)
        assert commutator(km, kp).kernel_op == flat
        assert calls and max(max(sizes) for sizes in calls) <= largest

    @pytest.mark.parametrize("k", [2, 3])
    def test_anticommutator_takes_no_rule(self, monkeypatch, k):
        n = 2
        j0, jp = build("J0", n), build("J+", n)
        outcomes = self.outcomes(monkeypatch)
        assert anticommutator(j0, jp ** k).kernel_op == op_bracket(
            j0.kernel_op, _reference_power(jp, k, n), n, 1)
        assert anticommutator(jp ** k, j0).kernel_op == op_bracket(
            _reference_power(jp, k, n), j0.kernel_op, n, 1)
        assert outcomes == []


@st.composite
def deferred_cases(draw):
    """``(nvars, A, k, B, f, values)``: a small operator ``A`` on one or
    two variables and another one ``B``, both parametric or both numeric,
    an exponent ``k`` of 2-4, a Laurent polynomial ``f`` and numeric
    parameter values.

    A parametric coefficient is one term ``c*mu^e``.  The twin test
    squares ``A^k``, and with coefficients of up to three terms the
    polynomials of ``A^8`` grew so that one example of two terms in two
    variables took up to 4.7 s, against 0.55 s with one term (the
    slowest of seeds 200-239, Python 3.11.7, 2 vCPU)."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 2))
    parametric = draw(st.booleans())
    A, B = (random_operator(rng, n, max_terms=2, max_pow=1,
                            parametric=parametric, scalar_terms=1)
            for _ in range(2))
    values = [Fraction(rng.randint(-5, 5), rng.randint(1, 4))
              for _ in range(n)]
    return n, A, draw(st.integers(2, 4)), B, random_laurent(rng, n), values


def _print_nf(expr, dims=2):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(["nf", "--dims", str(dims), expr])
    return code, stdout.getvalue()


class TestDeferredPower:
    """``A**k`` with ``k >= 2`` keeps its operand and exponent, and is
    multiplied out on the first read of its terms (``_parts``), once; a
    commutator that the power rule decides never reads them."""

    @staticmethod
    def products(monkeypatch):
        """The calls of the kernel's one pair loop, from here on."""
        calls = []
        product = _kernel._product

        def counting(*args):
            calls.append(args)
            return product(*args)

        monkeypatch.setattr(_kernel, "_product", counting)
        return calls

    @pytest.mark.parametrize("power, base", [
        ("comm(H, J+^30)", "comm(H, J+)"),
        ("comm(H, J-^5)", "comm(H, J-)"),
        ("comm(C, J-^12)", "comm(C, J-)"),
        ("comm(P, K+^2)", "comm(P, J+)"),
    ])
    def test_decided_power_is_never_multiplied_out(self, monkeypatch, power,
                                                   base):
        # One run of each first, so that the registry values they read
        # are built and their kept forms made.
        for expr in (base, power):
            _print_nf(expr)
        calls = self.products(monkeypatch)
        assert _print_nf(base) == (0, "0\n")
        want = len(calls)
        calls.clear()
        assert _print_nf(power) == (0, "0\n")
        assert len(calls) == want

    @pytest.mark.parametrize("power, base", [
        ("comm(H, (J+^15)^2)", "comm(H, J+)"),
        ("comm(P, K+^2)", "comm(P, J+)"),
    ])
    def test_power_of_a_pending_power_reads_its_operand(self, monkeypatch,
                                                        power, base):
        # Cold, with every registry value built afresh: neither J+^15 nor
        # K+ = J+^2 is multiplied out, so both cost what J+ costs.
        calls, counts = self.products(monkeypatch), []
        for expr in (base, power):
            build.cache_clear()
            calls.clear()
            assert _print_nf(expr) == (0, "0\n")
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_coordinate_power_of_a_pending_power(self):
        # A negative power reads a pending power, by its closed form where
        # the operand is a coordinate monomial, else multiplied out; a
        # positive power of it reads nothing.
        x1, r1 = build("x1", 2), build("R1", 2)
        assert (x1 ** 2) ** -3 == x1 ** -6
        square = r1 ** 2
        cube = square ** 3
        assert cube._data is None and cube._factors is None
        assert square._data is None and square._factors is None
        assert square._power == (r1, 2)
        assert square ** -1 == OperatorElement.identity(2)
        assert square._data is not None or square._factors is not None

    def test_shared_power_is_multiplied_out_once(self, monkeypatch):
        # The parser shares the node J+^4, which the power rule scales.
        jp = build("J+", 2)
        _print_nf("comm(J0, J+) - 2*J+")
        calls = self.products(monkeypatch)
        assert _print_nf("comm(J0, J+) - 2*J+") == (0, "0\n")
        base = len(calls)
        calls.clear()
        fresh = jp ** 4
        assert not calls and fresh._power == (jp, 4)
        assert fresh._data is None and fresh._factors is None
        fresh._parts()
        once = len(calls)
        calls.clear()
        assert _print_nf("comm(J0, J+^4) - 8*J+^4") == (0, "0\n")
        assert len(calls) == base + once

    @settings(max_examples=40, deadline=None)
    @pytest.mark.parametrize("rules", ["table", "emptied"])
    @given(case=deferred_cases())
    def test_twin_of_an_eager_power(self, rules, case):
        # Each operation is the first read of a fresh deferred power, and
        # gives what it gives on the power multiplied out by reference
        # products.  With the rule table emptied, every operation, the
        # power's own products included, takes the flat kernel.
        n, A, k, B, f, values = case
        empty = dict.fromkeys(opalg._RULES, ())
        with (mock.patch.object(opalg, "_RULES", empty) if rules == "emptied"
              else contextlib.nullcontext()):
            E = OperatorElement(_reference_power(A, k, n), n)

            def fresh():
                out = A ** k
                assert out._data is None and out._factors is None
                return out

            for other in (B, A):
                for op in (mul, add, sub, commutator, anticommutator):
                    want = op(E, other).kernel_op
                    assert op(fresh(), other).kernel_op == want
                    want = op(other, E).kernel_op
                    assert op(other, fresh()).kernel_op == want
            assert fresh().adjoint().kernel_op == E.adjoint().kernel_op
            assert (fresh().substitute_params(values).kernel_op
                    == E.substitute_params(values).kernel_op)
            assert len(fresh()) == len(E)
            assert fresh() == E and E == fresh()
            assert fresh().act(f) == E.act(f)
            assert str(fresh()) == str(E)
            assert (fresh() ** 2).kernel_op == (E * E).kernel_op


class TestActOracle:
    def test_generator_actions(self):
        x, d, r = gens(1)
        f = LaurentPolynomial.monomial((3,)) + LaurentPolynomial.monomial((-2,))
        assert x.act(f) == LaurentPolynomial.monomial((4,)) + LaurentPolynomial.monomial((-1,))
        assert d.act(f) == (3 * LaurentPolynomial.monomial((2,))
                            - 2 * LaurentPolynomial.monomial((-3,)))
        assert r.act(f) == -LaurentPolynomial.monomial((3,)) + LaurentPolynomial.monomial((-2,))

    def test_product_action_matches_composition(self):
        rng = random.Random(204)
        for _ in range(80):
            n = rng.choice([1, 2])
            A = random_operator(rng, n)
            B = random_operator(rng, n)
            f = random_laurent(rng, n)
            assert (A * B).act(f) == A.act(B.act(f))

    def test_action_is_linear(self):
        rng = random.Random(205)
        for _ in range(30):
            A = random_operator(rng, 1)
            f = random_laurent(rng, 1)
            g = random_laurent(rng, 1)
            assert A.act(f + g) == A.act(f) + A.act(g)

    def test_identity_acts_trivially(self):
        rng = random.Random(206)
        f = random_laurent(rng, 2)
        assert OperatorElement.identity(2).act(f) == f


class TestAdjoint:
    def test_generators(self):
        x, d, r = gens(1)
        assert x.adjoint() == x
        assert d.adjoint() == -d
        assert r.adjoint() == r
        assert OperatorElement.x(0, 1, -1).adjoint() == OperatorElement.x(0, 1, -1)

    def test_coefficients_conjugate(self):
        x = OperatorElement.x(0, 1)
        assert (I * x).adjoint() == -(I * x)
        mu = Scalar.parameter(0, 1)
        assert (mu * x).adjoint() == mu * x

    def test_antihomomorphism(self):
        rng = random.Random(207)
        for _ in range(40):
            n = rng.choice([1, 2])
            A = random_operator(rng, n)
            B = random_operator(rng, n)
            assert (A * B).adjoint() == B.adjoint() * A.adjoint()

    def test_involution(self):
        rng = random.Random(208)
        for _ in range(40):
            A = random_operator(rng, rng.choice([1, 2]))
            assert A.adjoint().adjoint() == A

    def test_additivity(self):
        rng = random.Random(209)
        for _ in range(20):
            A = random_operator(rng, 1)
            B = random_operator(rng, 1)
            assert (A + B).adjoint() == A.adjoint() + B.adjoint()

    @SETTINGS
    @given(operators())
    def test_equals_reference_loop(self, A):
        assert A.adjoint().kernel_op == reference_adjoint(A).kernel_op


class TestSubstitution:
    def test_commutes_with_product(self):
        rng = random.Random(210)
        vals = [Fraction(1, 3), Fraction(-1, 4)]
        for _ in range(30):
            A = random_operator(rng, 2)
            B = random_operator(rng, 2)
            assert (A * B).substitute_params(vals) == \
                A.substitute_params(vals) * B.substitute_params(vals)

    def test_values(self):
        mu = build("mu1", 1)
        A = mu * OperatorElement.x(0, 1) + mu ** 2
        got = A.substitute_params([Fraction(1, 2)])
        want = Fraction(1, 2) * OperatorElement.x(0, 1) + Fraction(1, 4)
        assert got == want

    def test_arity(self):
        # The message the CLI prints for a --mu of the wrong length.
        with pytest.raises(ArityMismatchError,
                           match="^need 2 deformation values, got 1$"):
            OperatorElement.identity(2).substitute_params([1])

    @settings(max_examples=60, deadline=None)
    @given(factored(), st.lists(st.fractions(-3, 3).filter(bool),
                                min_size=4, max_size=4))
    def test_factored_product_one_factor_at_a_time(self, case, values):
        n, fs = case
        vals = values[:n]
        with mock.patch.object(opalg, "_flatten", side_effect=AssertionError):
            got = _times(fs).substitute_params(vals)
        assert got._factors is not None
        flat = OperatorElement(_reference_product(fs, n), n)
        assert got.kernel_op == flat.substitute_params(vals).kernel_op

    def test_power_keeps_its_base(self, monkeypatch):
        # K- = J-^2 substituted is the substituted J- squared, and the
        # power rule decides its brackets at numeric mu as it does
        # parametrically, with the flat bracket's result.
        n, vals = 2, [Fraction(1, 3), Fraction(1, 2)]
        km = build("K-", n).substitute_params(vals)
        base, k = km._power
        assert k == 2 and base == build("J-", n).substitute_params(vals)
        assert km == base ** 2
        outcomes = TestPowerBracket.outcomes(monkeypatch)
        for name in ("C", "J0"):
            a = build(name, n).substitute_params(vals)
            assert commutator(a, km).kernel_op == op_bracket(
                a.kernel_op, km.kernel_op, n, -1)
        assert outcomes == ["zero", "multiple"]

    def test_vanishing_factor(self):
        n = 2
        mu1 = build("mu1", n)
        T = ((mu1 - Fraction(1, 3)) * OperatorElement.x(0, n)
             * OperatorElement.d(1, n))
        assert T._factors is not None
        assert T.substitute_params([Fraction(1, 3), 5]).is_zero()
        assert T.substitute_params([1, 5]) == (
            Fraction(2, 3) * OperatorElement.x(0, n) * OperatorElement.d(1, n))


class TestElementApi:
    def test_zero_identity(self):
        assert OperatorElement.zero(2).is_zero()
        assert OperatorElement.identity(2) == 1
        assert not OperatorElement.zero(2)

    def test_power_and_division(self):
        x = OperatorElement.x(0, 1)
        assert x ** 0 == 1
        assert x ** 3 == x * x * x
        assert (4 * x) / 2 == 2 * x
        assert (x / Fraction(1, 2)) == 2 * x

    def test_division_by_a_constant_operator(self):
        jp, one = build("J+", 2), OperatorElement.identity(2)
        assert jp / (2 * one) == jp * Fraction(1, 2)
        with pytest.raises(ValueError,
                           match="^division needs a constant divisor$"):
            jp / jp
        with pytest.raises(ValueError, match="^division by zero$"):
            jp / (0 * one)

    def test_negative_power(self):
        # One term for a coordinate monomial; no inverse for anything else.
        x1 = OperatorElement.x(0, 2)
        assert len(x1 ** -2) == 1 and x1 ** -2 == OperatorElement.x(0, 2, -2)
        with pytest.raises(ValueError, match="^negative powers need a "
                           "coordinate monomial with constant coefficient$"):
            build("J+", 2) ** -1
        with pytest.raises(ValueError, match="^division by zero$"):
            (0 * x1) ** -1

    def test_power_starts_from_base(self, monkeypatch):
        # A ** 3 is A * A * A: two products, none with the identity.
        A = OperatorElement.d(0, 1) + OperatorElement.r(0, 1)
        cube = A * A * A
        calls = []
        op_mul = opalg.op_mul

        def counting(*args):
            calls.append(args)
            return op_mul(*args)

        monkeypatch.setattr(opalg, "op_mul", counting)
        assert A ** 3 == cube
        assert len(calls) == 2
        # The single factor stays on the left: A * (A * A).
        assert all(left == A.kernel_op for left, _, _ in calls)
        assert A ** 1 == A

    @settings(max_examples=60, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 2),
           st.integers(0, 5))
    def test_power_equals_right_multiplied_product(self, rng, nvars, n):
        A = random_operator(rng, nvars, max_terms=3, max_pow=2)
        product = OperatorElement.identity(nvars)
        if n:
            product = A
            for _ in range(n - 1):
                product = product * A
        assert A ** n == product

    def test_coefficient_accessor(self):
        mu = Scalar.parameter(0, 1)
        A = mu * OperatorElement.x(0, 1, -1) + 3
        assert A.coefficient((-1, 0, 0)) == mu
        assert A.coefficient((0, 0, 0)) == 3
        assert A.coefficient((5, 0, 0)) == Scalar({}, 1)

    def test_terms_sorted(self):
        # Terms are written reflection-free and low-order first.
        x, d, r = gens(1)
        assert str(r + x + d) == "x1 + d1 + R1"
        B = OperatorElement.x(1, 2, -1) * OperatorElement.r(0, 2) * 2 + 3
        assert str(B) == "3 + 2*R1*x2^-1"
        assert len(B) == 2
        assert B.coefficient((0, 0, 0, 0, 0, 0)) == 3
        assert B.coefficient((0, 0, 1, -1, 0, 0)) == 2

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            OperatorElement.x(0, 1) * OperatorElement.x(0, 2)
        with pytest.raises(ArityMismatchError):
            OperatorElement.x(0, 1) + OperatorElement.x(0, 2)

    def test_eq_across_arities(self):
        # Comparison with a scalar of another arity is False, as between
        # operators; arithmetic across arities still raises.
        one, mu = OperatorElement.identity(1), Scalar.parameter(0, 2)
        assert not one == mu and one != mu and mu != one
        with pytest.raises(ArityMismatchError):
            one + mu
        f, c = LaurentPolynomial.monomial((0,)), scalar("1", 2)
        assert not f == c and f != c and c != f
        with pytest.raises(ArityMismatchError):
            f - c

    def test_operators_and_functions_do_not_mix(self):
        # Both share one base, but neither coerces the other.
        op, f = OperatorElement.identity(1), LaurentPolynomial.monomial((0,))
        for a, b in ((op, f), (f, op)):
            assert not a == b and a != b
            with pytest.raises(TypeError):
                a + b
            with pytest.raises(TypeError):
                a - b
            with pytest.raises(TypeError):
                a * b

    def test_index_range(self):
        with pytest.raises(IndexError):
            OperatorElement.x(2, 2)
        with pytest.raises(ValueError):
            OperatorElement.d(0, 1, -1)

    def test_str(self):
        x, d, r = gens(1)
        mu = build("mu1", 1)
        A = d * d + 2 * mu * OperatorElement.x(0, 1, -1) * d - mu * OperatorElement.x(0, 1, -2) \
            + mu * OperatorElement.x(0, 1, -2) * r
        assert str(A) == "-mu1*x1^-2 + 2*mu1*x1^-1*d1 + d1^2 + mu1*x1^-2*R1"
        assert str(OperatorElement.zero(1)) == "0"
        assert str((mu + 1) * x) == "(mu1 + 1)*x1"
        assert str(OperatorElement.identity(1)) == "1"
        n = 2
        two = (OperatorElement.x(0, n, 2) * OperatorElement.d(0, n)
               * OperatorElement.r(0, n) * OperatorElement.x(1, n, -1))
        assert str(two) == "x1^2*d1*R1*x2^-1"


class TestRatio:
    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 3),
           st.booleans())
    def test_scalar_multiple(self, rng, n, operator):
        A = random_operator(rng, n) if operator else random_laurent(rng, n)
        assume(A)
        c = random_scalar(rng, n)
        assert (c * A).ratio(A) == c
        # A term A lacks: no multiple of A has it.
        lacks = (OperatorElement.x(0, n, 9) if operator
                 else LaurentPolynomial.monomial((9,) * n))
        assert (c * A + lacks).ratio(A) is None
        assert type(A).zero(n).ratio(A) == 0
        assert A.ratio(type(A).zero(n)) is None

    def test_not_proportional(self):
        x, d, _ = gens(1)
        mu = build("mu1", 1)
        assert (2 * x + 3 * d).ratio(x + d) is None
        assert (mu * x + 1).ratio(x + 1) is None
        assert (mu * x).ratio((mu + 1) * x) is None
        # Single-term coefficients: the quotient's exponent is below zero.
        assert x.ratio(mu * x) is None
        assert (x + mu * d).ratio(mu * x + mu * d) is None

    def test_factored_against_flat(self):
        mu1 = Scalar.parameter(0, 2)
        T = build("J+", 2) ** 3
        assert T._parts()[1] is not None
        flat = OperatorElement(dict(T.kernel_op), 2)
        assert (mu1 * T).ratio(flat) == mu1
        assert flat.ratio(-T) == -1

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            OperatorElement.x(0, 1).ratio(OperatorElement.x(0, 2))
        with pytest.raises(ArityMismatchError):
            LaurentPolynomial.monomial((0,)).ratio(LaurentPolynomial.monomial((0, 0)))


_FAULTS = ("multiple", "coefficient", "missing", "below", "zero term",
           "zero factor")


@st.composite
def ratio_cases(draw):
    """``(term, factor, nvars, c, fault)``: operator or function dicts in
    1-3 variables, ``term`` being ``c*factor`` changed by ``fault``, with
    ``c`` a constant, one mu-monomial or a polynomial of several terms and
    ``factor``'s coefficients single terms or several."""
    n = draw(st.integers(1, 3))
    expo = st.tuples(*[st.integers(0, 3)] * n)
    if draw(st.booleans()):
        block = st.tuples(st.integers(-4, 4), st.integers(0, 4),
                          st.integers(0, 1))
        keys = st.tuples(*[block] * n).map(lambda bs: sum(bs, ()))
    else:
        keys = st.tuples(*[st.integers(-4, 4)] * n)
    polys = st.dictionaries(expo, _coeffs, min_size=1,
                            max_size=draw(st.sampled_from([1, 1, 1, 3])))
    factor = draw(st.dictionaries(keys, polys, min_size=1, max_size=5))
    shape = draw(st.sampled_from(["constant", "monomial", "polynomial"]))
    c = draw(st.dictionaries(
        st.just((0,) * n) if shape == "constant" else expo, _coeffs,
        min_size=1 if shape != "polynomial" else 2,
        max_size=1 if shape != "polynomial" else 3))
    term = op_scale(factor, c)
    fault = draw(st.sampled_from(_FAULTS))
    mono = draw(st.sampled_from(sorted(term)))
    if fault == "coefficient":
        e = draw(st.one_of(st.sampled_from(sorted(term[mono])), expo))
        poly = poly_add(term[mono], {e: draw(_coeffs)})
        term = {**term, mono: poly} if poly else {
            m: p for m, p in term.items() if m != mono}
    elif fault == "missing":
        # A monomial of one side only: dropped from term, added to it, or
        # both, so that the lengths agree.
        how = draw(st.sampled_from(["drop", "add", "swap"]))
        if how != "add" and len(term) > 1:
            term = {m: p for m, p in term.items() if m != mono}
        if how != "drop":
            extra = draw(keys.filter(lambda m: m not in factor))
            term[extra] = draw(polys)
    elif fault == "below":
        # factor is c times term: no polynomial quotient unless c is a
        # constant, and a monomial c leaves an exponent below zero.
        term, factor = factor, term
    elif fault == "zero term":
        term = {}
    elif fault == "zero factor":
        # Only zero is a multiple of zero.
        term, factor = ({} if draw(st.booleans()) else factor), {}
    # The quotient is read off term's first monomial: any of them.
    order = draw(st.permutations(sorted(term)))
    return {m: term[m] for m in order}, factor, n, c, fault


class TestRatioOracle:
    """``_ratio`` against the division-based ``reference_ratio``."""

    @settings(max_examples=120, deadline=None)
    @given(ratio_cases())
    def test_against_reference(self, case):
        term, factor, n, c, fault = case
        got = opalg._ratio(term, factor)
        assert got == reference_ratio(term, factor)
        if fault == "multiple":
            assert got == c
        elif fault == "zero term":
            assert got == {}


class TestAsScalar:
    def test_constants(self):
        one = OperatorElement.identity(1)
        assert (3 * one).as_scalar() == 3
        assert OperatorElement.zero(1).as_scalar() == 0
        mu1 = Scalar.parameter(0, 1)
        assert (mu1 * one).as_scalar() == mu1

    def test_not_constant(self):
        x = OperatorElement.x(0, 1)
        assert x.as_scalar() is None
        assert (x + 1).as_scalar() is None

    def test_factored_stays_factored(self):
        T = build("J+", 2) ** 2
        with mock.patch.object(opalg, "_flatten", side_effect=AssertionError):
            assert T.as_scalar() is None


class TestLaurentPolynomial:
    def test_diff_leibniz(self):
        # The derivative acting on a product, the product taken by the
        # reference loop.
        rng = random.Random(211)
        for _ in range(30):
            f = random_laurent(rng, 2)
            g = random_laurent(rng, 2)
            for i in range(2):
                d = OperatorElement.d(i, 2)
                assert d.act(reference_laurent_mul(f, g)) == (
                    reference_laurent_mul(d.act(f), g)
                    + reference_laurent_mul(f, d.act(g)))

    def test_exponents(self):
        f = (LaurentPolynomial.monomial((3, 0))
             + LaurentPolynomial.monomial((-2, 1), Scalar.parameter(0, 2)))
        assert sorted(f.exponents()) == [(-2, 1), (3, 0)]
        assert not LaurentPolynomial.zero(1).exponents()

    def test_diff_constant(self):
        one = LaurentPolynomial.monomial((0,))
        assert OperatorElement.d(0, 1).act(one).is_zero()

    @pytest.mark.parametrize("offset", [-1, 0, 3])
    def test_diff_index_out_of_range(self, offset):
        # Index -1, n and n + 3, on zero and nonzero functions.
        for f in (LaurentPolynomial.zero(2), LaurentPolynomial.monomial((2, 3)),
                  LaurentPolynomial.monomial((-1, 4), Scalar.parameter(1, 2))):
            index = -1 if offset < 0 else f.nvars + offset
            with pytest.raises(IndexError, match=f"index {index} out"):
                OperatorElement.d(index, f.nvars).act(f)

    def test_str(self):
        f = LaurentPolynomial.monomial((1, -2), 3) - 1
        assert str(f) == "-1 + 3*x1*x2^-2"

    @SETTINGS
    @given(laurents())
    def test_str_equals_reference_renderer(self, f):
        assert str(f) == reference_laurent_str(f)

    def test_from_laurent_action(self):
        # The multiplication operator by f, each x^a written x^a*d^0*R^0,
        # acts as the product with f.
        rng = random.Random(213)
        for _ in range(30):
            f = random_laurent(rng, 2)
            g = random_laurent(rng, 2)
            times_f = OperatorElement(
                {(a, 0, 0, b, 0, 0): poly
                 for (a, b), poly in f.kernel_op.items()}, 2)
            assert times_f.act(g) == reference_laurent_mul(f, g)
            with pytest.raises(TypeError):
                f * g

    def test_arity(self):
        with pytest.raises(ArityMismatchError):
            LaurentPolynomial.monomial((0,)) + LaurentPolynomial.monomial((0, 0))
        with pytest.raises(ArityMismatchError):
            OperatorElement.x(0, 1).act(LaurentPolynomial.monomial((0, 0)))


# Coefficients as the renderer meets them: each of the four lines 1, i,
# sqrt2 and i*sqrt2 of Q(i, sqrt2) alone or several mixed, negative
# numerators, denominators up to a million.
_parts = st.one_of(st.just(0), st.integers(-3, 3), st.integers(-10**6, 10**6))
_dens = st.one_of(st.integers(1, 12), st.integers(1, 10**6))
_wide_coeffs = st.one_of(
    st.builds(lambda line, num, den: bn_make(
        *(num if j == line else 0 for j in range(4)), den),
        st.integers(0, 3), _parts.filter(bool), _dens),
    st.builds(bn_make, _parts, _parts, _parts, _parts, _dens),
).filter(lambda c: c[0] or c[1] or c[2] or c[3])


def _wide_polys(nvars, min_size=1):
    """Parametric coefficients, or with ``nvars`` 0 constant ones."""
    return st.dictionaries(st.tuples(*[st.integers(0, 3)] * nvars),
                           _wide_coeffs, min_size=min_size, max_size=4)


_wide_arity = st.integers(0, 4)


@st.composite
def wide_scalars(draw):
    n = draw(_wide_arity)
    return Scalar(draw(_wide_polys(n, min_size=0)), n)


@st.composite
def wide_operators(draw):
    n = draw(_wide_arity)
    block = st.tuples(st.integers(-4, 4), st.integers(0, 4), st.integers(0, 1))
    monos = st.tuples(*[block] * n).map(lambda bs: sum(bs, ()))
    return OperatorElement(
        draw(st.dictionaries(monos, _wide_polys(n), max_size=8)), n)


@st.composite
def wide_laurents(draw):
    n = draw(_wide_arity)
    exps = st.tuples(*[st.integers(-4, 4)] * n)
    return LaurentPolynomial(
        draw(st.dictionaries(exps, _wide_polys(n), max_size=8)), n)


@st.composite
def separated(draw):
    """``(nvars, factors, flattens)``: one-variable operators on 2-4
    distinct variables of 2-4, with negative x-powers and reflections, each
    coefficient a polynomial in its own variable's mu alone or, numeric, a
    constant, on all four lines of Q(i, sqrt2).  Their mu-supports are then
    disjoint and in variable order, so their product is written factor by
    factor.  With ``flattens`` the factors of the lowest and the highest
    variable both carry the highest one's mu as well: the supports meet,
    and the product is flattened to be written."""
    n = draw(st.integers(2, 4))
    variables = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n,
                              unique=True))
    parametric, flattens = draw(st.booleans()), draw(st.booleans())
    block = st.tuples(st.integers(-3, 3), st.integers(0, 2), st.integers(0, 1))
    factors = []
    for j in variables:
        own = (st.integers(0, 3) if parametric else st.just(0)).map(
            lambda e, j=j: tuple(e if i == j else 0 for i in range(n)))
        monos = block.map(
            lambda b, j=j: (0, 0, 0) * j + b + (0, 0, 0) * (n - j - 1))
        # A factor with only a constant term would be a scalar multiple.
        terms = st.dictionaries(
            monos, st.dictionaries(own, _wide_coeffs, min_size=1, max_size=3),
            min_size=1, max_size=3).filter(lambda d: any(map(any, d)))
        factors.append(OperatorElement(draw(terms), n))
    if flattens:
        mu = Scalar.parameter(max(variables), n)
        for k in {variables.index(min(variables)),
                  variables.index(max(variables))}:
            factors[k] = mu * factors[k]
    return n, factors, flattens


class TestRenderer:
    """Numbers, scalars, operators and functions on 0-4 variables render
    as the renderer that the one-pass operator text replaced did, byte for
    byte (``reference_render``)."""

    @SETTINGS
    @given(st.one_of(st.just(BN_ZERO), _wide_coeffs))
    def test_base_numbers(self, data):
        value = BaseNumber._from_tuple(data)
        assert str(value) == reference_render(value)
        if value.is_rational():
            assert str(value) == str(value.as_fraction())

    @SETTINGS
    @given(wide_scalars())
    def test_scalars(self, value):
        assert str(value) == reference_render(value)

    @SETTINGS
    @given(wide_operators())
    def test_operators(self, op):
        assert str(op) == reference_render(op)

    @SETTINGS
    @given(wide_laurents())
    def test_laurent_polynomials(self, f):
        assert str(f) == reference_render(f)

    @settings(max_examples=60, deadline=None)
    @given(factored(), _wide_coeffs)
    def test_fresh_product_renders_as_its_flat_twin(self, case, coef):
        n, fs = case
        T = BaseNumber._from_tuple(coef) * _times(fs)
        assert T._factors is not None and T._data is None
        twin = OperatorElement(
            op_scale(_reference_product(fs, n), {(0,) * n: coef}), n)
        assert str(T) == reference_render(twin) == str(twin)

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(separated(), factored().map(lambda case: (*case, None))),
           _wide_coeffs)
    def test_factored_walk_renders_as_its_flat_twin(self, case, coef):
        # Factor by factor where the mu-supports are apart, flattened where
        # they meet; ``factored`` draws either, its first factor carrying
        # another variable's mu.
        n, fs, flattens = case
        T = BaseNumber._from_tuple(coef) * _times(fs)
        assert T._factors is not None and T._data is None
        twin = OperatorElement(
            op_scale(_reference_product(fs, n), {(0,) * n: coef}), n)
        assert str(T) == reference_render(twin) == str(twin)
        if flattens is not None:
            assert (T._data is not None) == flattens

    def test_ladder_products_print_unflattened(self, monkeypatch):
        # Warm first, so that the registry values are built; the power is
        # multiplied out before counting, as reading its factors does.
        for expr in ("J+^5", "comm(J0, J+^5) - 11*J+^5"):
            str(parse_eval(expr, 2))
            value = parse_eval(expr, 2)
            assert value._parts()[1] is not None
            calls = TestDeferredPower.products(monkeypatch)
            text = str(value)
            assert calls == [] and value._parts()[0] is None
            monkeypatch.undo()
            assert text == str(OperatorElement(value.kernel_op, 2))
        # mu2 joins the factor of variable 1, whose support then meets
        # variable 2's: flattened, and written as its flat twin.
        value = parse_eval("mu2*J+^3", 2)
        assert value._parts()[1] is not None
        text = str(value)
        assert value._parts()[0] is not None
        twin = OperatorElement(value.kernel_op, 2)
        assert text == str(twin) == reference_render(twin)

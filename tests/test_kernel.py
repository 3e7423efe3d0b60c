"""The exact kernel's base numbers and mu-polynomials, checked directly:
every result is canonical, its value agrees with an oracle that keeps a
number as four Fractions, the parts along 1, i, sqrt2 and i*sqrt2, and
the operations obey the field and ring axioms.  All arithmetic on numbers
and mu-polynomials is here, evaluation and exact division included;
``scalars`` only views its results.  A difference is a sum with the
negation, so subtraction is checked as that composition."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dunklweyl._kernel import (
    BN_ONE,
    BN_ZERO,
    bn_add,
    bn_conj,
    bn_inv,
    bn_make,
    bn_mul,
    bn_neg,
    op_add,
    op_neg,
    poly_add,
    poly_div,
    poly_eval,
    poly_mul,
    poly_neg,
    poly_scale,
)

SETTINGS = settings(max_examples=300, deadline=None)

# Each basis element i^a * sqrt2^c as its exponent pair (a, c).
BASIS = [(0, 0), (1, 0), (0, 1), (1, 1)]


def _value(c):
    return tuple(Fraction(part, c[4]) for part in c[:4])


def _oracle_mul(x, y):
    out = [Fraction(0)] * 4
    for (a, c), u in zip(BASIS, x):
        for (b, d), v in zip(BASIS, y):
            k = u * v * (-1 if a and b else 1) * (2 if c and d else 1)
            out[BASIS.index(((a + b) % 2, (c + d) % 2))] += k
    return tuple(out)


def _oracle_poly_value(p):
    return {e: _value(c) for e, c in p.items()}


def _oracle_poly_combine(p, q, sign):
    out = dict(p)
    for e, v in q.items():
        old = out.get(e, (Fraction(0),) * 4)
        out[e] = tuple(x + sign * y for x, y in zip(old, v))
    return {e: v for e, v in out.items() if any(v)}


def _oracle_poly_mul(p, q):
    out = {}
    for ea, va in p.items():
        for eb, vb in q.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            old = out.get(e, (Fraction(0),) * 4)
            out[e] = tuple(x + y for x, y in zip(old, _oracle_mul(va, vb)))
    return {e: v for e, v in out.items() if any(v)}


def assert_canonical_number(c):
    p, q, r, s, den = c
    assert all(type(x) is int for x in c)
    assert den > 0
    assert gcd(p, q, r, s, den) == 1
    if not (p or q or r or s):
        assert c == (0, 0, 0, 0, 1)


def assert_canonical_poly(poly):
    for c in poly.values():
        assert_canonical_number(c)
        assert c[0] or c[1] or c[2] or c[3]


# Denominators share some factors and not others; components reach past
# the denominators so that reductions both happen and do not.
_dens = st.sampled_from([-6, -1, 1, 2, 3, 4, 6, 9, 35])
_parts = st.integers(-30, 30)
numbers = st.builds(bn_make, _parts, _parts, _parts, _parts, _dens)
rationals = st.builds(lambda p, d: bn_make(p, 0, 0, 0, d), _parts, _dens)
any_numbers = st.one_of(numbers, rationals)
nonzero = any_numbers.filter(lambda c: c[0] or c[1] or c[2] or c[3])


@st.composite
def poly_tuples(draw, count=2):
    nparams = draw(st.integers(1, 3))
    expo = st.tuples(*[st.integers(0, 3)] * nparams)
    # Few exponents per parameter, so that terms meet and cancel.
    polys = st.dictionaries(expo, nonzero, max_size=5)
    return tuple(draw(polys) for _ in range(count))


class TestBaseNumbers:
    @SETTINGS
    @given(any_numbers, any_numbers)
    def test_add_sub_mul(self, a, b):
        va, vb = _value(a), _value(b)
        for got, want in (
                (bn_add(a, b), tuple(x + y for x, y in zip(va, vb))),
                (bn_add(a, bn_neg(b)), tuple(x - y for x, y in zip(va, vb))),
                (bn_mul(a, b), _oracle_mul(va, vb))):
            assert_canonical_number(got)
            assert _value(got) == want

    @SETTINGS
    @given(any_numbers)
    def test_self_cancels(self, a):
        assert bn_add(a, bn_neg(a)) == (0, 0, 0, 0, 1)

    @SETTINGS
    @given(any_numbers)
    def test_neg(self, a):
        got = bn_neg(a)
        assert_canonical_number(got)
        assert _value(got) == tuple(-x for x in _value(a))

    @SETTINGS
    @given(nonzero)
    def test_inverse(self, a):
        got = bn_inv(a)
        assert_canonical_number(got)
        assert _oracle_mul(_value(a), _value(got)) == (1, 0, 0, 0)

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            bn_inv(BN_ZERO)

    @SETTINGS
    @given(any_numbers, any_numbers)
    def test_conjugation(self, a, b):
        # i -> -i: an involution and a ring homomorphism, and a*conj(a)
        # is real.
        got = bn_conj(a)
        assert_canonical_number(got)
        p, q, r, s = _value(a)
        assert _value(got) == (p, -q, r, -s)
        assert bn_conj(got) == a
        assert bn_conj(bn_add(a, b)) == bn_add(got, bn_conj(b))
        assert bn_conj(bn_mul(a, b)) == bn_mul(got, bn_conj(b))
        _, q, _, s = _value(bn_mul(a, got))
        assert q == s == 0

    @SETTINGS
    @given(any_numbers, any_numbers, any_numbers)
    def test_field_axioms(self, a, b, c):
        assert bn_add(bn_add(a, b), c) == bn_add(a, bn_add(b, c))
        assert bn_mul(bn_mul(a, b), c) == bn_mul(a, bn_mul(b, c))
        assert bn_mul(a, bn_add(b, c)) == bn_add(bn_mul(a, b), bn_mul(a, c))
        assert bn_add(a, b) == bn_add(b, a)
        assert bn_mul(a, b) == bn_mul(b, a)
        assert bn_add(a, bn_neg(a)) == BN_ZERO
        if a != BN_ZERO:
            assert bn_mul(a, bn_inv(a)) == BN_ONE


class TestPolynomials:
    @SETTINGS
    @given(poly_tuples())
    def test_add_sub_mul(self, pair):
        p, q = pair
        vp, vq = _oracle_poly_value(p), _oracle_poly_value(q)
        for got, want in (
                (poly_add(p, q), _oracle_poly_combine(vp, vq, 1)),
                (poly_add(p, poly_neg(q)), _oracle_poly_combine(vp, vq, -1)),
                (poly_mul(p, q), _oracle_poly_mul(vp, vq))):
            assert_canonical_poly(got)
            assert _oracle_poly_value(got) == want

    @SETTINGS
    @given(poly_tuples())
    def test_self_cancels(self, pair):
        p, _ = pair
        assert poly_add(p, poly_neg(p)) == {}
        assert poly_add(p, {e: (-c[0], -c[1], -c[2], -c[3], c[4])
                            for e, c in p.items()}) == {}

    @SETTINGS
    @given(poly_tuples(), any_numbers)
    def test_neg_scale(self, pair, c):
        p, _ = pair
        vp, vc = _oracle_poly_value(p), _value(c)
        for got, want in (
                (poly_neg(p), {e: tuple(-x for x in v) for e, v in vp.items()}),
                (poly_scale(p, c), {e: _oracle_mul(v, vc) for e, v in vp.items()
                                    if any(vc)})):
            assert_canonical_poly(got)
            assert _oracle_poly_value(got) == want

    @SETTINGS
    @given(poly_tuples(3))
    def test_ring_axioms(self, triple):
        a, b, c = triple
        assert poly_mul(poly_add(a, b), c) == poly_add(
            poly_mul(a, c), poly_mul(b, c))
        assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))
        assert poly_mul(a, b) == poly_mul(b, a)
        assert poly_add(a, b) == poly_add(b, a)
        assert poly_add(a, poly_neg(a)) == {}

    @SETTINGS
    @given(poly_tuples(1), st.lists(any_numbers, min_size=3, max_size=3))
    def test_eval(self, single, values):
        # Against the oracle: each term's number times its powers of the
        # values, summed part by part.  Values past the polynomial's
        # parameters are not read.
        (p,) = single
        vals = [_value(v) for v in values]
        want = (Fraction(0),) * 4
        for e, c in p.items():
            term = _value(c)
            for v, k in zip(vals, e):
                for _ in range(k):
                    term = _oracle_mul(term, v)
            want = tuple(x + y for x, y in zip(want, term))
        got = poly_eval(p, values)
        assert_canonical_number(got)
        assert _value(got) == want

    @SETTINGS
    @given(poly_tuples())
    def test_div_roundtrip(self, pair):
        a, b = pair
        assume(b)
        assert poly_div(poly_mul(a, b), b) == a

    @SETTINGS
    @given(poly_tuples(), nonzero)
    def test_div_inexact(self, pair, r):
        # A nonconstant divisor leaves a nonzero constant as remainder;
        # a quotient found is exact.
        a, b = pair
        assume(b and any(max(b)))
        f = poly_add(poly_mul(a, b), {(0,) * len(max(b)): r})
        assert poly_div(f, b) is None
        c = poly_div(a, b)
        assert c is None or poly_mul(c, b) == a

    def test_div_failure(self):
        mu1, mu2 = {(1, 0): BN_ONE}, {(0, 1): BN_ONE}
        assert poly_div(poly_add(poly_mul(mu1, mu2), {(0, 0): BN_ONE}),
                        mu1) is None
        assert poly_div(mu2, mu1) is None
        with pytest.raises(ZeroDivisionError):
            poly_div(mu1, {})
        assert poly_div({}, mu1) == {}

    def test_division_by_constant(self):
        mu = {(1,): BN_ONE}
        assert poly_div({(1,): (4, 0, 0, 0, 1)}, {(0,): (2, 0, 0, 0, 1)}) == {
            (1,): (2, 0, 0, 0, 1)}
        # mu/sqrt2 = (sqrt2/2)*mu.
        assert poly_div(mu, {(0,): (0, 0, 1, 0, 1)}) == {(1,): (0, 0, 1, 0, 2)}
        assert poly_div({(2,): BN_ONE}, mu) == mu


class TestOperators:
    @SETTINGS
    @given(poly_tuples(3))
    def test_neg(self, triple):
        # Polynomials keyed by monomials: op_neg negates each, and adding
        # the negation cancels every term.
        A = {(k, 0, 0): p for k, p in enumerate(triple) if p}
        got = op_neg(A)
        assert got.keys() == A.keys()
        for m, p in got.items():
            assert_canonical_poly(p)
            assert p == poly_neg(A[m])
        assert op_add(A, op_neg(A)) == {}
        assert op_neg(got) == A

"""The common-denominator op_mul against the term-by-term reference."""

import copy
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_op_mul

from dunklweyl._kernel.pykernel import bn_make, op_mul

SETTINGS = settings(max_examples=200, deadline=None)


def _nonzero(c):
    return bool(c[0] or c[1] or c[2] or c[3])


# Rational coefficients take the plain-int path, the others the four-part
# numerator path; operands mix both.  Denominators share some factors and
# not others, so the common denominators differ from every single one.
_dens = st.sampled_from([1, 2, 3, 4, 5, 6, 9, 12, 35])
_rational = st.builds(lambda p, d: bn_make(p, 0, 0, 0, d),
                      st.integers(-40, 40), _dens)
_general = st.builds(bn_make, st.integers(-9, 9), st.integers(-9, 9),
                     st.integers(-9, 9), st.integers(-9, 9), _dens)
_coeffs = st.one_of(_rational, _general).filter(_nonzero)


def _polys(nparams):
    # High exponents, and negative ones, which the exponent packing must
    # offset rather than carry.
    expo = st.tuples(*[st.integers(-3, 12)] * nparams)
    return st.dictionaries(expo, _coeffs, min_size=1, max_size=4)


def _monos(nvars):
    # Negative x-powers, derivative orders and reflections in every variable.
    block = st.tuples(st.integers(-4, 4), st.integers(0, 4), st.integers(0, 1))
    return st.tuples(*[block] * nvars).map(lambda bs: sum(bs, ()))


def _ops(nvars, nparams, min_size=0, max_size=5):
    return st.dictionaries(_monos(nvars), _polys(nparams),
                           min_size=min_size, max_size=max_size)


@st.composite
def operand_pairs(draw):
    nvars = draw(st.integers(1, 3))
    nparams = draw(st.integers(1, 3))
    A = draw(_ops(nvars, nparams))
    B = draw(_ops(nvars, nparams))
    return A, B, nvars, nparams


@st.composite
def cancelling_pairs(draw):
    """A = C*(1 + R_j), B = (1 - R_j)*D, so that A*B = 0."""
    nvars = draw(st.integers(1, 3))
    nparams = draw(st.integers(1, 3))
    j = draw(st.integers(0, nvars - 1))
    one = (0, 0, 0) * nvars
    refl = one[:3 * j] + (0, 0, 1) + one[3 * j + 3:]
    unit = {(0,) * nparams: (1, 0, 0, 0, 1)}
    minus = {(0,) * nparams: (-1, 0, 0, 0, 1)}
    C = draw(_ops(nvars, nparams, min_size=1, max_size=3))
    D = draw(_ops(nvars, nparams, min_size=1, max_size=3))
    A = reference_op_mul(C, {one: unit, refl: unit}, nvars)
    B = reference_op_mul({one: unit, refl: minus}, D, nvars)
    return A, B, nvars, nparams


def assert_canonical(op, nvars, nparams):
    for mono, poly in op.items():
        assert len(mono) == 3 * nvars
        assert poly, "empty polynomial kept"
        for e, c in poly.items():
            assert len(e) == nparams
            assert _nonzero(c), "zero coefficient kept"
            assert c[4] > 0
            assert gcd(*c) == 1


class TestAgainstReference:
    @SETTINGS
    @given(operand_pairs())
    def test_equals_reference(self, case):
        A, B, nvars, nparams = case
        A0, B0 = copy.deepcopy(A), copy.deepcopy(B)
        got = op_mul(A, B, nvars)
        assert A == A0 and B == B0, "operands mutated"
        assert got == reference_op_mul(A, B, nvars)
        assert_canonical(got, nvars, nparams)
        inputs = {id(p) for X in (A, B) for p in X.values()}
        assert not any(id(p) in inputs for p in got.values())

    @settings(max_examples=100, deadline=None)
    @given(cancelling_pairs())
    def test_cancellation_to_zero(self, case):
        A, B, nvars, nparams = case
        assert op_mul(A, B, nvars) == {} == reference_op_mul(A, B, nvars)
        got = op_mul(A, A, nvars)
        assert got == reference_op_mul(A, A, nvars)
        assert_canonical(got, nvars, nparams)

    @settings(max_examples=30, deadline=None)
    @given(operand_pairs())
    def test_empty_operands(self, case):
        A, _, nvars, _ = case
        assert op_mul({}, A, nvars) == {} == op_mul(A, {}, nvars)

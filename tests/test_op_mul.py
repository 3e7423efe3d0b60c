"""The exact kernel's operator functions: the common-denominator op_mul,
the fused bracket and the action on Laurent polynomials against the
term-by-term references, the linear operations against them and each
other, and the reordering rows against their closed form."""

import copy
from collections import Counter
from math import comb, gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    reference_act,
    reference_adjoint,
    reference_bracket,
    reference_op_mul,
)

from dunklweyl import _kernel, cli
from dunklweyl._kernel import (
    Operand,
    _Surd,
    _plan,
    bn_make,
    bn_neg,
    dx_rows,
    op_act,
    op_add,
    op_adjoint,
    op_bracket,
    op_mul,
    op_neg,
    op_scale,
)
from dunklweyl.builders import build
from dunklweyl.opalg import LaurentPolynomial, OperatorElement
from dunklweyl.states import _gauged, fock

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


def _on_line(part):
    """Coefficients on one line of Q(i, sqrt2): rational multiples of 1, i,
    sqrt2 or i*sqrt2 for part 0 to 3."""
    return st.builds(lambda k, d: bn_make(*[k if j == part else 0
                                            for j in range(4)], d),
                     st.integers(-40, 40).filter(bool), _dens)


def _polys(nparams, coeffs=_coeffs):
    # High exponents, and negative ones, which the exponent packing must
    # offset rather than carry.
    expo = st.tuples(*[st.integers(-3, 12)] * nparams)
    return st.dictionaries(expo, coeffs, min_size=1, max_size=4)


def _monos(nvars):
    # Negative x-powers, derivative orders and reflections in every variable.
    block = st.tuples(st.integers(-4, 4), st.integers(0, 4), st.integers(0, 1))
    return st.tuples(*[block] * nvars).map(lambda bs: sum(bs, ()))


def _ops(nvars, nparams, min_size=0, max_size=5, coeffs=_coeffs):
    return st.dictionaries(_monos(nvars), _polys(nparams, coeffs),
                           min_size=min_size, max_size=max_size)


@st.composite
def operand_pairs(draw):
    nvars = draw(st.integers(1, 3))
    nparams = draw(st.integers(1, 3))
    A = draw(_ops(nvars, nparams))
    B = draw(_ops(nvars, nparams))
    return A, B, nvars, nparams


# The derivative orders of one monomial of a squared operand sum to at
# most this.  A product or bracket costs about the product of (order + 1)
# over the variables per pair of terms: 125 for d^4 in each of three
# variables against at most 12 under this bound, and the square's orders
# double again before its bracket with the operand.
_SQUARED_ORDER = 4


@st.composite
def _low_order_monos(draw, nvars):
    """A monomial as ``_monos`` draws it, its derivative orders summing to
    at most ``_SQUARED_ORDER``: up to d^4 in one variable, or less in
    several."""
    orders = Counter(draw(st.lists(st.integers(0, nvars - 1),
                                   max_size=_SQUARED_ORDER)))
    mono = draw(_monos(nvars))
    return tuple(orders[k // 3] if k % 3 == 1 else e
                 for k, e in enumerate(mono))


@st.composite
def small_operands(draw):
    """One operator of at most three terms, small enough to square."""
    nvars = draw(st.integers(1, 3))
    nparams = draw(st.integers(1, 3))
    A = draw(st.dictionaries(_low_order_monos(nvars), _polys(nparams),
                             max_size=3))
    return A, nvars, nparams


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


@st.composite
def linear_cases(draw):
    """Two operators and a polynomial.  B repeats some monomials of A with
    some coefficients negated, so sums and differences cancel in part."""
    nvars = draw(st.integers(1, 3))
    nparams = draw(st.integers(1, 3))
    A = draw(_ops(nvars, nparams))
    B = draw(_ops(nvars, nparams))
    for mono in draw(st.sets(st.sampled_from(sorted(A)))) if A else ():
        B[mono] = {e: bn_neg(c) if draw(st.booleans()) else c
                   for e, c in A[mono].items()}
    poly = draw(st.one_of(st.just({}), _polys(nparams)))
    return A, B, poly, nvars, nparams


def assert_canonical(op, nvars, nparams, width=3):
    """``op`` is canonical, its keys ``width`` entries per variable: 3 for
    an operator's monomials, 1 for a function's exponents."""
    for mono, poly in op.items():
        assert len(mono) == width * nvars
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


class TestBracketAgainstReference:
    """``op_bracket(A, B, n, sign)`` is ``A*B + sign*B*A`` from two
    reference products, for both signs."""

    @SETTINGS
    @given(operand_pairs(), st.sampled_from([1, -1]))
    def test_equals_reference(self, case, sign):
        A, B, nvars, nparams = case
        A0, B0 = copy.deepcopy(A), copy.deepcopy(B)
        got = op_bracket(A, B, nvars, sign)
        assert A == A0 and B == B0, "operands mutated"
        assert got == reference_bracket(A, B, nvars, sign)
        assert_canonical(got, nvars, nparams)
        inputs = {id(p) for X in (A, B) for p in X.values()}
        assert not any(id(p) in inputs for p in got.values())

    @settings(max_examples=100, deadline=None)
    @given(cancelling_pairs(), st.sampled_from([1, -1]))
    def test_cancelling_operands(self, case, sign):
        # A*B vanishes here, so the bracket is sign*B*A; the bracket of an
        # operand with itself is 0 or 2*A*A.
        A, B, nvars, nparams = case
        for X, Y in ((A, B), (B, A), (A, A)):
            got = op_bracket(X, Y, nvars, sign)
            assert got == reference_bracket(X, Y, nvars, sign)
            assert_canonical(got, nvars, nparams)
        assert op_bracket(A, A, nvars, -1) == {}

    @settings(max_examples=100, deadline=None)
    @given(small_operands())
    def test_brackets_that_vanish(self, case):
        # A commutes with its own square, and R_j anticommutes with x_j,
        # d_j and x_j^-3 R_j.
        A, nvars, nparams = case
        square = op_mul(A, A, nvars)
        assert op_bracket(A, square, nvars, -1) == {}
        assert op_bracket(square, A, nvars, -1) == {}
        one = (0, 0, 0) * nvars
        unit = {(0,) * nparams: (1, 0, 0, 0, 1)}
        for j in range(nvars):
            refl = {one[:3 * j] + (0, 0, 1) + one[3 * j + 3:]: unit}
            odd = {one[:3 * j] + blk + one[3 * j + 3:]: unit
                   for blk in ((1, 0, 0), (0, 1, 0), (-3, 0, 1))}
            assert op_bracket(refl, odd, nvars, 1) == {}

    @settings(max_examples=30, deadline=None)
    @given(operand_pairs(), st.sampled_from([1, -1]))
    def test_empty_operands(self, case, sign):
        A, _, nvars, _ = case
        assert op_bracket({}, A, nvars, sign) == {} == op_bracket(
            A, {}, nvars, sign)


# Every unordered pair of lines: the ten entries of the unit table.
_LINE_PAIRS = [(a, b) for a in range(4) for b in range(a, 4)]


def _lifted(A, B, nvars):
    """The lifted numerators of both operands of one product."""
    *_, (ta, _, _), (tb, _, _) = _plan(Operand(A), Operand(B), nvars)
    return [c for *_, nums in ta + tb for _, c in nums]


class TestUnitLift:
    """Operands whose coefficients each lie on one line, ``Q`` times 1, i,
    sqrt2 or i*sqrt2, lift to plain ints; the product of the two units
    comes back in the reduction."""

    def _check(self, A, B, nvars, nparams):
        for X, Y in ((A, B), (B, A)):
            got = op_mul(X, Y, nvars)
            assert got == reference_op_mul(X, Y, nvars)
            assert_canonical(got, nvars, nparams)
            for sign in (1, -1):
                got = op_bracket(X, Y, nvars, sign)
                assert got == reference_bracket(X, Y, nvars, sign)
                assert_canonical(got, nvars, nparams)

    @pytest.mark.parametrize("parts", _LINE_PAIRS,
                             ids=lambda parts: "%d-%d" % parts)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_each_pair_of_lines(self, parts, data):
        nvars = data.draw(st.integers(1, 3))
        nparams = data.draw(st.integers(1, 3))
        A, B = [data.draw(_ops(nvars, nparams, min_size=1,
                               coeffs=_on_line(part))) for part in parts]
        assert all(type(c) is int for c in _lifted(A, B, nvars))
        self._check(A, B, nvars, nparams)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), part=st.integers(0, 3))
    def test_mixed_operand(self, data, part):
        # A coefficient with parts on two lines sends both operands down
        # the four-part path.
        nvars = data.draw(st.integers(1, 3))
        nparams = data.draw(st.integers(1, 3))
        A = data.draw(_ops(nvars, nparams, min_size=1))
        mono = data.draw(_monos(nvars))
        A[mono] = {(0,) * nparams: bn_make(1, 0, 1, 0, 2)}
        B = data.draw(_ops(nvars, nparams, min_size=1, coeffs=_on_line(part)))
        assert any(type(c) is _Surd for c in _lifted(A, B, nvars))
        self._check(A, B, nvars, nparams)


def _functions(nvars, nparams, min_size=0, coeffs=_coeffs):
    # Negative exponents, and nonnegative ones both below and above the
    # derivative orders of _monos, so that d^b kills some terms.
    expo = st.tuples(*[st.integers(-4, 6)] * nvars)
    return st.dictionaries(expo, _polys(nparams, coeffs),
                           min_size=min_size, max_size=5)


def _as_operator(F):
    """A function as its multiplication operator, x^g as (g, 0, 0)."""
    return {sum(((g, 0, 0) for g in e), ()): p for e, p in F.items()}


class TestActAgainstReference:
    """``op_act(A, F, n)`` equals the term-by-term ``reference_act``, on
    every unit line and on the four-part path."""

    def _check(self, A, F, nvars, nparams):
        A0, F0 = copy.deepcopy((A, F))
        got = op_act(A, F, nvars)
        assert (A, F) == (A0, F0), "operands mutated"
        want = reference_act(OperatorElement(A, nvars),
                             LaurentPolynomial(F, nvars))
        assert got == want._data
        assert_canonical(got, nvars, nparams, width=1)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_equals_reference(self, data):
        # As many parameters as variables, so that coefficients carry
        # other variables' deformation parameters, as in the model.
        nvars = data.draw(st.integers(1, 3))
        A = data.draw(_ops(nvars, nvars))
        F = data.draw(_functions(nvars, nvars))
        self._check(A, F, nvars, nvars)

    @pytest.mark.parametrize("parts", _LINE_PAIRS,
                             ids=lambda parts: "%d-%d" % parts)
    @settings(max_examples=5, deadline=None)
    @given(data=st.data())
    def test_each_pair_of_lines(self, parts, data):
        nvars = data.draw(st.integers(1, 3))
        for a, f in (parts, parts[::-1]):
            A = data.draw(_ops(nvars, nvars, min_size=1, coeffs=_on_line(a)))
            F = data.draw(_functions(nvars, nvars, min_size=1,
                                     coeffs=_on_line(f)))
            assert all(type(c) is int
                       for c in _lifted(A, _as_operator(F), nvars))
            self._check(A, F, nvars, nvars)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), part=st.integers(0, 3))
    def test_mixed_operand(self, data, part):
        nvars = data.draw(st.integers(1, 3))
        A = data.draw(_ops(nvars, nvars, min_size=1, coeffs=_on_line(part)))
        F = data.draw(_functions(nvars, nvars, min_size=1))
        F[data.draw(st.tuples(*[st.integers(-4, 6)] * nvars))] = {
            (0,) * nvars: bn_make(1, 0, 1, 0, 2)}
        assert any(type(c) is _Surd
                   for c in _lifted(A, _as_operator(F), nvars))
        self._check(A, F, nvars, nvars)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_one_operator_many_functions(self, data):
        # One value acts on a sequence of functions and keeps its lift
        # between calls, so each call must still see its own function's
        # packing weights (the mu-exponent ranges differ from call to call)
        # and line (plain-line and mixed functions come in any order).
        nvars = data.draw(st.integers(1, 3))
        A = data.draw(_ops(nvars, nvars, min_size=1,
                           coeffs=_on_line(data.draw(st.integers(0, 3)))))
        op = OperatorElement(A, nvars)
        for _ in range(data.draw(st.integers(3, 6))):
            lo = data.draw(st.integers(-3, 6))
            expo = st.tuples(*[st.integers(lo, lo + data.draw(
                st.integers(0, 8)))] * nvars)
            mixed = data.draw(st.booleans())
            coeffs = _coeffs if mixed else _on_line(
                data.draw(st.integers(0, 3)))
            F = data.draw(st.dictionaries(
                st.tuples(*[st.integers(-4, 6)] * nvars),
                st.dictionaries(expo, coeffs, min_size=1, max_size=4),
                min_size=1, max_size=5))
            if mixed:
                F[data.draw(st.tuples(*[st.integers(-4, 6)] * nvars))] = {
                    (lo,) * nvars: bn_make(1, 0, 1, 0, 2)}
            f = LaurentPolynomial(F, nvars)
            got = op.act(f)
            assert got._data == reference_act(op, f)._data
            assert_canonical(got._data, nvars, nvars, width=1)

    @pytest.mark.parametrize("block,g,want", [
        ((0, 3, 0), 2, None),          # d^3 kills x^2
        ((0, 3, 0), 3, ((0,), 6)),     # d^3 x^3 = 6
        ((2, 0, 1), 3, ((5,), -1)),    # R flips an odd power
        ((0, 0, 1), 4, ((4,), 1)),     # and keeps an even one
        ((1, 2, 1), -3, ((-4,), -12)),  # -3 * -4, negated by R
        ((-2, 1, 0), 0, None),         # d kills a constant
    ])
    def test_one_term(self, block, g, want):
        # One variable of two: the other's x^1 passes through.
        unit = {(0, 0): (1, 0, 0, 0, 1)}
        A = {block + (0, 0, 0): unit}
        F = {(g, 1): unit}
        got = op_act(A, F, 2)
        if want is None:
            assert got == {}
        else:
            (e,), k = want
            assert got == {(e, 1): {(0, 0): (k, 0, 0, 0, 1)}}
        self._check(A, F, 2, 2)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_empty_operands(self, data):
        nvars = data.draw(st.integers(1, 3))
        A = data.draw(_ops(nvars, nvars))
        F = data.draw(_functions(nvars, nvars))
        assert op_act({}, F, nvars) == {} == op_act(A, {}, nvars)


@st.composite
def repeated_blocks(draw):
    """Two operators and a function on 1 to 5 variables whose terms take
    each variable's block from a pool of two or three, so that first
    blocks and the rests of the terms repeat within an operand, as in the
    model's operators.  As many parameters as variables; coefficients are
    rational, on one line of ``Q(i, sqrt2)`` or mixed."""
    nvars = draw(st.integers(1, 5))
    block = st.tuples(st.integers(-4, 4), st.integers(0, 2),
                      st.integers(0, 1))
    coeffs = draw(st.one_of(st.just(_coeffs),
                            st.integers(0, 3).map(_on_line)))

    def terms(blocks, width):
        pools = [draw(st.lists(blocks, min_size=2, max_size=3, unique=True))
                 for _ in range(nvars)]
        keys = st.tuples(*map(st.sampled_from, pools)).map(
            lambda bs: sum(bs, ()) if width == 3 else bs)
        return draw(st.dictionaries(keys, _polys(nvars, coeffs),
                                    min_size=1, max_size=6))

    A, B = terms(block, 3), terms(block, 3)
    F = terms(st.integers(-4, 6), 1)
    return A, B, F, nvars


class TestRepeatedBlocks:
    """Operands whose first blocks and rests repeat across terms, so that
    the pair loop reuses its table entries, against the term-by-term
    references."""

    @settings(max_examples=60, deadline=None)
    @given(repeated_blocks())
    def test_equals_references(self, case):
        A, B, F, nvars = case
        before = copy.deepcopy((A, B, F))
        got = op_mul(A, B, nvars)
        assert got == reference_op_mul(A, B, nvars)
        assert_canonical(got, nvars, nvars)
        for sign in (1, -1):
            got = op_bracket(A, B, nvars, sign)
            assert got == reference_bracket(A, B, nvars, sign)
            assert_canonical(got, nvars, nvars)
        got = op_act(A, F, nvars)
        assert got == reference_act(OperatorElement(A, nvars),
                                    LaurentPolynomial(F, nvars))._data
        assert_canonical(got, nvars, nvars, width=1)
        got = op_adjoint(A, nvars)
        assert got == reference_adjoint(OperatorElement(A, nvars)).kernel_op
        assert_canonical(got, nvars, nvars)
        assert (A, B, F) == before, "operands mutated"

    def test_no_variables(self):
        # With no variables an operator is a scalar, and the only monomial
        # and exponent tuple are empty.
        A = {(): {(): bn_make(2, 0, 0, 0, 3)}}
        B = {(): {(): bn_make(1, 1, 0, 0, 1)}}
        assert op_mul(A, B, 0) == {(): {(): (2, 2, 0, 0, 3)}}
        assert op_bracket(A, B, 0, 1) == {(): {(): (4, 4, 0, 0, 3)}}
        assert op_bracket(A, B, 0, -1) == {}
        assert op_act(A, B, 0) == {(): {(): (2, 2, 0, 0, 3)}}
        assert op_adjoint(B, 0) == {(): {(): (1, -1, 0, 0, 1)}}


@st.composite
def touching_pairs(draw):
    """``(A, B, nvars)``: two operators on 3-6 variables, each touching a
    drawn set of them, none (a constant), one, some or all, and each with
    a constant term or not; one parameter per variable, and each operand's
    coefficients general or on one line of Q(i, sqrt2)."""
    nvars = draw(st.integers(3, 6))
    every = range(nvars)
    one = (0, 0, 0) * nvars
    # Low derivative orders keep the reference's rows short in six
    # variables; negative x-powers and reflections stay.
    block = st.tuples(st.integers(-3, 3), st.integers(0, 2),
                      st.integers(0, 1))

    def operand():
        touched = draw(st.one_of(
            st.just(set()), st.sets(st.sampled_from(every), min_size=1,
                                    max_size=1),
            st.sets(st.sampled_from(every)), st.just(set(every))))
        coeffs = draw(st.sampled_from([_coeffs] + [_on_line(part)
                                                   for part in range(4)]))
        monos = st.tuples(*[block if j in touched else st.just((0, 0, 0))
                            for j in every]).map(lambda bs: sum(bs, ()))
        X = draw(st.dictionaries(monos, _polys(nvars, coeffs), max_size=4))
        if draw(st.booleans()):
            X[one] = draw(_polys(nvars, coeffs))
        return X

    return operand(), operand(), nvars


class TestTouchedVariables:
    """Operators that touch only some of the variables, multiplied,
    bracketed and adjoined on those alone, against the term-by-term
    references on every variable."""

    @SETTINGS
    @given(touching_pairs())
    def test_equals_references(self, case):
        A, B, nvars = case
        before = copy.deepcopy((A, B))
        got = op_mul(A, B, nvars)
        assert got == reference_op_mul(A, B, nvars)
        assert_canonical(got, nvars, nvars)
        for sign in (1, -1):
            got = op_bracket(A, B, nvars, sign)
            assert got == reference_bracket(A, B, nvars, sign)
            assert_canonical(got, nvars, nvars)
        got = op_adjoint(A, nvars)
        assert got == reference_adjoint(OperatorElement(A, nvars)).kernel_op
        assert_canonical(got, nvars, nvars)
        assert (A, B) == before, "operands mutated"

    @pytest.mark.parametrize("dims", [5, 16])
    def test_pair_loop_width(self, capsys, monkeypatch, dims):
        # The Leibniz rule brackets H's one-variable parts with the
        # product's one-variable factors: every call of the pair loop,
        # the cold registry builds included, carries as many blocks per
        # key as its operands touch variables, not dims.
        calls = []
        product = _kernel._product

        def counting(a, b, nvars, *rest):
            calls.append((a.terms, b.terms, nvars))
            return product(a, b, nvars, *rest)

        monkeypatch.setattr(_kernel, "_product", counting)
        build.cache_clear()
        code = cli.main(["nf", "--dims", str(dims),
                         "comm(H, A+2*A-5*A+5*A-1)"])
        assert (code, capsys.readouterr().out) == (0, "0\n")
        assert calls
        for A, B, width in calls:
            keys = [m for X in (A, B) for m in X]
            assert all(len(m) == 3 * width for m in keys)
            touched = {j for m in keys for j in range(0, len(m), 3)
                       if m[j:j + 3] != (0, 0, 0)}
            assert width <= len(touched)


def _distinct_pairs(A, B, width_b):
    """Distinct pairs of first blocks plus distinct pairs of rests of two
    operands, ``A`` keyed by flat monomials and ``B`` by keys of
    ``width_b`` ints per variable."""
    def parts(X, width):
        return {k[:width] for k in X}, {k[width:] for k in X}

    (fa, ra), (fb, rb) = parts(A, 3), parts(B, width_b)
    return len(fa) * len(fb) + len(ra) * len(rb)


class TestRowsOncePerDistinctPair:
    """The pair loop takes each row once per distinct pair of first blocks
    and once per distinct pair of rests, not once per monomial pair and
    variable."""

    @staticmethod
    def _count(monkeypatch):
        calls = []

        def counting(row):
            def wrapped(key):
                calls.append(key)
                return row(key)
            return wrapped

        for name in ("_block", "_act_row", "_adjoint_row"):
            monkeypatch.setattr(_kernel, name,
                                counting(getattr(_kernel, name)))
        monkeypatch.setattr(_kernel, "_BRACKET_ROWS", {
            sign: counting(row)
            for sign, row in _kernel._BRACKET_ROWS.items()})
        return calls

    def test_bracket(self, monkeypatch):
        C, E1 = build("C", 2).kernel_op, build("E1", 2).kernel_op
        want = op_bracket(C, E1, 2, -1)
        calls = self._count(monkeypatch)
        assert op_bracket(C, E1, 2, -1) == want
        assert 0 < len(calls) <= _distinct_pairs(C, E1, 3) < len(C) * len(E1)

    def test_action(self, monkeypatch):
        H = _gauged("H", 2).kernel_op
        f = fock((3, 2)).kernel_op
        want = op_act(H, f, 2)
        calls = self._count(monkeypatch)
        assert op_act(H, f, 2) == want
        assert 0 < len(calls) <= _distinct_pairs(H, f, 1) < len(H) * len(f)


class TestLinear:
    @SETTINGS
    @given(linear_cases())
    def test_add_sub_scale(self, case):
        A, B, poly, nvars, nparams = case
        A0, B0, poly0 = copy.deepcopy((A, B, poly))
        total = op_add(A, B)
        neg = op_neg(B)
        diff = op_add(A, neg)
        scaled = op_scale(A, poly)
        assert (A, B, poly) == (A0, B0, poly0), "arguments mutated"
        for got in (total, neg, diff, scaled):
            assert got is not A and got is not B
            assert_canonical(got, nvars, nparams)
        assert total == op_add(B, A)
        assert op_add(total, neg) == A
        assert op_add(A, op_neg(A)) == {}
        minus = {(0,) * nparams: (-1, 0, 0, 0, 1)}
        assert neg == op_scale(B, minus)
        unit = {(0, 0, 0) * nvars: poly} if poly else {}
        assert scaled == op_mul(A, unit, nvars)


def test_reordering_rows():
    """d^b x^a = sum_k C(b, k) * a(a-1)...(a-k+1) * x^(a-k) d^(b-k)."""
    for b in range(7):
        for a in range(-6, 7):
            direct = [(k, comb(b, k) * prod(range(a - k + 1, a + 1)))
                      for k in range(b + 1)]
            assert dx_rows(b, a) == tuple((k, c) for k, c in direct if c)

"""Exact-arithmetic kernels on plain data:

* base number -- 5-tuple of ints ``(p, q, r, s, den)`` encoding
  ``(p + q*i + r*sqrt2 + s*i*sqrt2) / den`` with ``den > 0`` and
  ``gcd(p, q, r, s, den) == 1``.  Zero is ``(0, 0, 0, 0, 1)``.
* polynomial -- dict mapping exponent tuples (one entry per deformation
  parameter) to nonzero base numbers.  Zero is the empty dict.
* operator -- dict mapping flat monomials to nonzero polynomials.  A flat
  monomial packs one ``(x_power, d_power, reflection)`` triple per variable,
  normal-ordered as x-power, then d-power, then reflection:
  ``(a1, b1, e1, a2, b2, e2, ...)``.  x-powers may be negative.  Zero is the
  empty dict.

All arithmetic on numbers and polynomials is here, each operation once:
a difference is a sum with the negation, an integer multiple a scale by
``(k, 0, 0, 0, 1)``, and ``poly_eval`` and ``poly_div`` evaluate and
divide exactly on top of the same sums and products.  ``op_add``,
``op_neg`` and ``op_scale`` never look inside the keys, so they serve
every dict of polynomials: they are the linear-space arithmetic of
``opalg._Combination``, the base that operators and the exponent-keyed
Laurent polynomials share.

No kernel function mutates its arguments.  The outermost dict a function
returns is always new, but the inner polynomial dicts of an operator (or
Laurent polynomial) result may be the very dicts of an input: ``op_add``
passes an unmatched term's polynomial through.  Copying them would cost
time on every call, so the rule is instead that nobody mutates a
polynomial dict, inner or not, once it is stored in a value.

``op_mul``, where nearly all of a verification's time goes, does not
normalise term by term.  It lifts each operand to integer numerators over
one common denominator, packs each mu-exponent tuple into one int, sums
the products of numerators, and reduces each output coefficient by one gcd
at the end.  The numerators are plain ints when each operand's
coefficients lie on one line ``Q*u``, ``u`` one of 1, i, sqrt2 and
i*sqrt2 (the ladder operators carry 1/sqrt2), and the product of the two
units, from a ten-entry table, is restored in the reduction; otherwise
they are four-part numerators where a coefficient mixes parts.  The
per-variable products of monomial blocks are cached for the life of the
process.  The result is the same canonical dict as term-by-term arithmetic
gives.

``op_bracket`` computes ``A*B + sign*B*A``, the commutator (``sign=-1``)
and the anticommutator (``sign=1``) behind every relation the verifier
checks, in the same pass.  The two orders share one lift: the radix of each
packed exponent and the denominator ``DA*DB`` are symmetric in the operands,
and scalars are central, so a monomial pair's coefficient product serves
both orders.  For each pair the kernel merges the integer multipliers of
the ``A*B`` and ``B*A`` expansions per output monomial, as ``k_ab +
sign*k_ba`` with the zeros dropped, and only then runs the coefficient loop,
once per surviving monomial.  ``op_mul`` is the one-sided case of the same
loop.

The pair loop, ``_product``, splits each monomial into its first
variable's block and the rest.  The lift numbers each operand's distinct
first blocks and rests, and the loop keeps two tables for the call, one
entry per pair of first blocks and one per pair of rests, filled from the
cached rows the first time a pair reaches them; each monomial pair then
costs two table lookups and the product of two short rows.  A bracket
entry holds both orders' rows, whether they differ and their merged row:
where the first blocks commute, the pair's bracket is their row times the
rests' merged row (empty for a commutator whose rests commute too); where
only the rests commute, the first blocks' merged row times the rests' row;
only where both differ are the two orders merged term by term.  The tables
die with the call, so nothing but the one-key rows outlives it.

``op_mul``, ``op_bracket`` and ``op_adjoint`` run the pair loop on the
variables their operands touch, those where some key has a block other
than ``(0, 0, 0)`` (``_touched``): the other blocks are dropped from the
operands' keys and put back into the result's, as identity times identity
is identity.  Coefficients keep one exponent per parameter, so the lift,
the exponent packing and the reduction are as they were.  The Leibniz
rule of ``opalg`` brackets one-variable factors, so at dims 16 a bracket
of two of them runs one block per key where it ran sixteen.  At two
variables or fewer nothing is cut.

``op_act`` applies an operator to a Laurent polynomial lifted straight from
its exponent tuples, ``x^g`` as the one-int block ``(g,)``: a cached row
per variable gives the image's exponent and integer, or nothing if a d^b
kills the term, so each pair gives at most one term and the result comes
out keyed as a function.  Each operand of the pair loop is an
:class:`Operand` holding its own set-up (denominator, exponent range and
line) and its last lift, with the numbered blocks; an operator or function
value keeps its ``Operand``, so that repeated actions of one operator, and
every action on one function, lift it once.
``op_adjoint`` multiplies the conjugated operator by the identity, each
monomial ``x^a d^b R^e`` taken to the normal form of ``R^e (-d)^b x^a``
through a cached row per variable.  Products, brackets, action and adjoint
are one pair loop, ``_product``, that differs only in its rows and, for
the bracket, in how a pair's two entries combine, and every row comes from
the one reordering rule, ``dx_rows`` through ``_block``.
"""

from functools import cache, partial
from math import gcd, lcm
from operator import add, itemgetter

BN_ZERO = (0, 0, 0, 0, 1)
BN_ONE = (1, 0, 0, 0, 1)


def bn_make(p, q, r, s, den):
    """Canonicalize a raw 5-tuple: positive denominator, content 1."""
    if den == 0:
        raise ZeroDivisionError("base number with zero denominator")
    if den < 0:
        p, q, r, s, den = -p, -q, -r, -s, -den
    g = gcd(p, q, r, s, den)
    if g > 1:
        return (p // g, q // g, r // g, s // g, den // g)
    return (p, q, r, s, den)


def bn_add(a, b):
    p1, q1, r1, s1, d1 = a
    p2, q2, r2, s2, d2 = b
    if d1 == d2:
        p, q, r, s, d = p1 + p2, q1 + q2, r1 + r2, s1 + s2, d1
    else:
        g0 = gcd(d1, d2)
        m1 = d2 // g0
        m2 = d1 // g0
        p = p1 * m1 + p2 * m2
        q = q1 * m1 + q2 * m2
        r = r1 * m1 + r2 * m2
        s = s1 * m1 + s2 * m2
        d = d1 * m1
    g = gcd(p, q, r, s, d)
    if g > 1:
        return (p // g, q // g, r // g, s // g, d // g)
    return (p, q, r, s, d)


def bn_neg(a):
    p, q, r, s, d = a
    return (-p, -q, -r, -s, d)


def bn_mul(a, b):
    # i*i = -1, sqrt2*sqrt2 = 2, and i commutes with sqrt2.
    p1, q1, r1, s1, d1 = a
    p2, q2, r2, s2, d2 = b
    p = p1 * p2 - q1 * q2 + 2 * (r1 * r2 - s1 * s2)
    q = p1 * q2 + q1 * p2 + 2 * (r1 * s2 + s1 * r2)
    r = p1 * r2 + r1 * p2 - q1 * s2 - s1 * q2
    s = p1 * s2 + s1 * p2 + q1 * r2 + r1 * q2
    d = d1 * d2
    g = gcd(p, q, r, s, d)
    if g > 1:
        return (p // g, q // g, r // g, s // g, d // g)
    return (p, q, r, s, d)


def bn_conj(a):
    """Complex conjugation: i -> -i, sqrt2 fixed."""
    p, q, r, s, d = a
    return (p, -q, r, -s, d)


def bn_inv(a):
    """The inverse of a nonzero base number.

    Write the numerator as A + B*sqrt2 with Gaussian integers A = p + q*i,
    B = r + s*i.  Then 1/(A + B*sqrt2) = (A - B*sqrt2) / (A^2 - 2*B^2), and
    the Gaussian denominator C = A^2 - 2*B^2 is cleared by its own
    conjugate.  C vanishes only when the number itself is zero, since sqrt2
    is not in Q(i).
    """
    p, q, r, s, den = a
    cp = p * p - q * q - 2 * (r * r - s * s)
    cq = 2 * (p * q - 2 * r * s)
    if cp == 0 and cq == 0:
        raise ZeroDivisionError("inverse of zero")
    return bn_make(den * (p * cp + q * cq), den * (q * cp - p * cq),
                   den * (-r * cp - s * cq), den * (-s * cp + r * cq),
                   cp * cp + cq * cq)


def poly_add(a, b):
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for e, c in b.items():
        x = out.get(e)
        if x is None:
            out[e] = c
        else:
            v = bn_add(x, c)
            if v[0] or v[1] or v[2] or v[3]:
                out[e] = v
            else:
                del out[e]
    return out


def poly_neg(a):
    return {e: bn_neg(c) for e, c in a.items()}


def poly_scale(a, c):
    """Multiply every coefficient by the base number ``c``."""
    if not (c[0] or c[1] or c[2] or c[3]):
        return {}
    return {e: bn_mul(v, c) for e, v in a.items()}


def poly_mul(a, b):
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            c = bn_mul(ca, cb)
            x = out.get(e)
            if x is None:
                out[e] = c
            else:
                v = bn_add(x, c)
                if v[0] or v[1] or v[2] or v[3]:
                    out[e] = v
                else:
                    del out[e]
    return out


def poly_eval(poly, values):
    """The base number ``poly`` takes at ``values``, one base number per
    deformation parameter."""
    acc = BN_ZERO
    for expo, coef in poly.items():
        term = coef
        for v, e in zip(values, expo):
            for _ in range(e):
                term = bn_mul(term, v)
        acc = bn_add(acc, term)
    return acc


def poly_div(a, b):
    """The exact quotient ``a / b``, or None where a remainder survives.

    Divides by the lex-leading term of ``b``, which must be nonzero.
    """
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    lead = max(b)
    lead_inv = bn_inv(b[lead])
    rem, quot = a, {}
    while rem:
        top = max(rem)
        qe = tuple(x - y for x, y in zip(top, lead))
        if any(e < 0 for e in qe):
            return None
        qc = bn_mul(rem[top], lead_inv)
        quot[qe] = qc
        shifted = {tuple(x + y for x, y in zip(qe, e)): c
                   for e, c in b.items()}
        rem = poly_add(rem, poly_scale(shifted, bn_neg(qc)))
    return quot


def op_add(A, B):
    if not A:
        return dict(B)
    if not B:
        return dict(A)
    out = dict(A)
    for m, p in B.items():
        x = out.get(m)
        if x is None:
            out[m] = p
        else:
            v = poly_add(x, p)
            if v:
                out[m] = v
            else:
                del out[m]
    return out


def op_neg(A):
    return {m: poly_neg(p) for m, p in A.items()}


def op_scale(A, poly):
    """Multiply every coefficient polynomial by ``poly``."""
    if not poly:
        return {}
    out = {}
    for m, p in A.items():
        v = poly_mul(p, poly)
        if v:
            out[m] = v
    return out


def dx_rows(b, a):
    """Reordering coefficients for d^b x^a.

    d^b x^a = sum_k C(b,k) * a(a-1)...(a-k+1) * x^(a-k) d^(b-k), valid for
    any integer a.  Returns the nonzero ``(k, coefficient)`` pairs.
    """
    out = []
    coef = 1
    for k in range(b + 1):
        if coef:
            out.append((k, coef))
        if k < b:
            coef = coef * (b - k) * (a - k) // (k + 1)
    return tuple(out)


class _Surd:
    """Integer numerator ``p + q*i + r*sqrt2 + s*i*sqrt2`` of an op_mul term.

    Rational numerators are plain ints; this class covers the rest.  It
    mixes with ints under ``+`` and ``*``, so one accumulation loop serves
    both kinds of coefficient.
    """

    __slots__ = ("p", "q", "r", "s")

    def __init__(self, p, q, r, s):
        self.p = p
        self.q = q
        self.r = r
        self.s = s

    def __add__(self, o):
        if type(o) is int:
            return _Surd(self.p + o, self.q, self.r, self.s)
        return _Surd(self.p + o.p, self.q + o.q, self.r + o.r, self.s + o.s)

    __radd__ = __add__

    def __mul__(self, o):
        p1, q1, r1, s1 = self.p, self.q, self.r, self.s
        if type(o) is int:
            return _Surd(p1 * o, q1 * o, r1 * o, s1 * o)
        p2, q2, r2, s2 = o.p, o.q, o.r, o.s
        return _Surd(p1 * p2 - q1 * q2 + 2 * (r1 * r2 - s1 * s2),
                     p1 * q2 + q1 * p2 + 2 * (r1 * s2 + s1 * r2),
                     p1 * r2 + r1 * p2 - q1 * s2 - s1 * q2,
                     p1 * s2 + s1 * p2 + q1 * r2 + r1 * q2)

    __rmul__ = __mul__


def _bounds(X):
    """Common denominator, per-parameter exponent range and line of an
    operator.

    Returns ``(den, lo, hi, axis)``: ``den`` is the lcm of the coefficient
    denominators, ``lo``/``hi`` list the least and greatest exponent of each
    deformation parameter, and ``axis`` is the one part of the base number
    (0 to 3, for 1, i, sqrt2, i*sqrt2) that every coefficient lies on, or
    None when the coefficients use more than one.
    """
    polys = X.values()
    *parts, dens = zip(*[c for p in polys for c in p.values()])
    axes = [j for j, part in enumerate(parts) if any(part)]
    columns = list(zip(*[e for p in polys for e in p]))
    return (lcm(*dens), [min(c) for c in columns], [max(c) for c in columns],
            axes[0] if len(axes) == 1 else None)


def _lift(X, den, lo, weights, nvars, axis, width):
    """Terms as ``(first, rest, [(packed_exponent, numerator)])``, with
    the blocks the ids stand for.

    Each key of ``X`` holds one block of ``width`` ints per variable: an
    ``(a, b, e)`` triple of a flat monomial, or the one-int ``(g,)`` of an
    exponent tuple.  ``first`` numbers the key's first block and ``rest``
    its other blocks, each in order of first appearance, so that the pair
    loop can keep its entries in tables indexed by the ids.  Returns
    ``(terms, firsts, rests)``: ``firsts`` lists the distinct first blocks
    (empty with no variables) and ``rests`` the distinct rests as split
    monomials, tuples of blocks.  The exponent tuple of each coefficient,
    shifted by ``lo``, is packed with the place values ``weights``.  The
    numerator is over ``den``: with ``axis`` set, every coefficient lies on
    that part's line and the numerator is the int on it; with ``axis``
    None, an int when the coefficient is rational and a :class:`_Surd`
    otherwise.
    """
    shift = sum(b * w for b, w in zip(lo, weights))
    packed = {}
    firsts = {}
    rests = {}
    out = []
    for m, p in X.items():
        nums = []
        for e, c in p.items():
            key = packed.get(e)
            if key is None:
                key = sum([x * w for x, w in zip(e, weights)]) - shift
                packed[e] = key
            k = den // c[4]
            if axis is not None:
                nums.append((key, c[axis] * k))
            elif c[1] or c[2] or c[3]:
                nums.append((key, _Surd(c[0] * k, c[1] * k, c[2] * k,
                                        c[3] * k)))
            else:
                nums.append((key, c[0] * k))
        out.append((firsts.setdefault(m[:width], len(firsts)),
                    rests.setdefault(m[width:], len(rests)), nums))
    starts = range(0, width * (nvars - 1), width)
    return out, list(firsts), [tuple([r[j:j + width] for j in starts])
                               for r in rests]


class Operand:
    """One operand of the pair loop: its terms, their own set-up and the
    last lift made of them.

    ``terms`` is an operator, keyed by flat monomials (``width`` 3), or a
    function, keyed by exponent tuples (``width`` 1).  The set-up,
    ``bounds``, is :func:`_bounds` of the terms and needs no partner.  The
    lift reads two things from the partner, the packing weights and the
    line the numerators are taken on, so :meth:`lift` keeps its last
    result under that key and lifts again only when the key changes.  An
    operator or function value keeps its ``Operand`` for its life, so
    that an action reuses the lift of either side whenever the partner
    leaves the key as it was: a state of a spectrum is lifted once for
    its eigencheck, its raise and its lowering, whose operators share
    their exponent ranges and lines.  Products, brackets and adjoints
    make theirs per call and drop them.
    """

    __slots__ = ("terms", "width", "bounds", "_key", "_lifted")

    def __init__(self, terms, width=3):
        self.terms = terms
        self.width = width
        self.bounds = _bounds(terms) if terms else None
        self._key = self._lifted = None

    def lift(self, weights, axis, nvars):
        """The terms lifted onto ``weights`` and ``axis``, see :func:`_lift`."""
        key = (weights, axis)
        if key != self._key:
            den, lo = self.bounds[:2]
            self._lifted = _lift(self.terms, den, lo, weights, nvars, axis,
                                 self.width)
            self._key = key
        return self._lifted


@cache
def _block(key):
    """Normal-ordered one-variable product x^a1 d^b1 R^e1 * x^a2 d^b2 R^e2.

    ``key`` is ``(a1, b1, e1, a2, b2, e2)``.  Returns a nonempty tuple of
    ``((a, b, e), integer_coefficient)`` pairs.  The reflection of the left
    factor moves past the right factor's x- and d-powers picking up a sign,
    reflections compose mod 2, and d-powers move past x-powers by the
    falling-factorial rule.  Rows are cached for the life of the process,
    as are the bracket entries of :data:`_BRACKET_ROWS`.
    """
    a1, b1, e1, a2, b2, e2 = key
    sign = -1 if e1 and ((a2 + b2) & 1) else 1
    e = e1 ^ e2
    return tuple(((a1 + a2 - k, b1 + b2 - k, e), sign * c)
                 for k, c in dx_rows(b1, a2))


def _merge(xy, yx, sign):
    """``xy + sign*yx`` for two sequences of ``(key, multiplier)`` pairs,
    each key at most once per sequence; zeros are dropped."""
    out = dict(xy)
    for m, k in yx:
        out[m] = out.get(m, 0) + sign * k
    return tuple([(m, k) for m, k in out.items() if k])


def _bracket_row(key, sign):
    """One variable's entry in a bracket, ``key`` being ``x + y``:
    ``(apart, xy, yx, merged)``, the rows of ``x*y`` and ``y*x``, whether
    they differ, and the row of ``x*y + sign*y*x``."""
    xy, yx = _block(key), _block(key[3:] + key[:3])
    return xy != yx, xy, yx, _merge(xy, yx, sign)


# One variable's entry in a bracket, per sign.
_BRACKET_ROWS = {sign: cache(partial(_bracket_row, sign=sign))
                 for sign in (1, -1)}
_UNIT = (((), 1),)


def _expand(ka, kb, rows=_block):
    """The normal-ordered product of two split monomials, ``ka * kb``.

    Multiplies one variable block at a time, ``rows(x + y)`` giving each
    variable's row, and returns the ``(flat_monomial, multiplier)`` pairs,
    one per distinct output monomial.
    """
    terms = None
    for row in map(rows, map(add, ka, kb)):
        if terms is None:
            terms = row
        else:
            terms = _cross(terms, row)
    # With no variables the only monomial is the empty one.
    return _UNIT if terms is None else terms


def _cross(xs, ys):
    """The product of two rows on disjoint variables: each pair of
    entries, monomials joined and multipliers multiplied."""
    return [(x + y, j * k) for x, j in xs for y, k in ys]


# The product of the units of two lines of Q(i, sqrt2), per pair of parts
# (0 to 3, for 1, i, sqrt2, i*sqrt2): the part it lies on and the integer
# it carries, so that i*(i*sqrt2) = -sqrt2 is (2, -1).
_UNIT_PRODUCTS = {
    (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
    (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
    (2, 2): (0, 2), (2, 3): (1, 2),
    (3, 3): (0, -2),
}


def _plan(a, b, nvars):
    """Lift both operands of one product onto a shared exponent packing.

    ``a`` and ``b`` are :class:`Operand` values.  Returns ``(den, unpack,
    unit, ta, tb)``: ``den`` is the denominator ``DA*DB`` of every product
    term, ``unpack`` the ``(weight, radix, offset)`` of each parameter for
    :func:`_reduce`, ``unit`` the ``(part, integer)`` an int sum of
    products stands for, and ``ta``/``tb`` the lifts of ``a``/``b``, each
    ``(terms, firsts, rests)`` as :func:`_lift` returns them.
    When each operand's coefficients lie on one line, ``Q`` times 1, i,
    sqrt2 or i*sqrt2, both lift to plain ints and ``unit`` is the product
    of the two lines' units; otherwise ints are rational and the rest
    :class:`_Surd`.  Radix, denominator and unit are symmetric in the
    operands, so one plan serves ``A*B`` and ``B*A`` alike.  Each operand's
    bounds are its own; its lift depends on the partner only through the
    weights and the line, and an operand reuses its last lift when both
    are unchanged.
    """
    da, loa, hia, axa = a.bounds
    db, lob, hib, axb = b.bounds
    if axa is None or axb is None:
        axa = axb = None
        unit = (0, 1)
    else:
        unit = _UNIT_PRODUCTS[min(axa, axb), max(axa, axb)]
    # Place value and radix of each parameter: the packed sum of two
    # exponents cannot carry into the next parameter's digit.
    weights = []
    unpack = []
    weight = 1
    for j in range(len(loa)):
        radix = hia[j] - loa[j] + hib[j] - lob[j] + 1
        weights.append(weight)
        unpack.append((weight, radix, loa[j] + lob[j]))
        weight *= radix
    return (da * db, unpack, unit, a.lift(weights, axa, nvars),
            b.lift(weights, axb, nvars))


def _reduce(acc, den, unpack, unit):
    """The canonical operator from packed integer sums over ``den``.

    An int sum stands for itself times ``unit``.  Each coefficient is
    reduced once, by ``gcd(p, q, r, s, den)``, zeros and emptied monomials
    are dropped, and each packed key is unpacked.
    """
    part, factor = unit
    unpacked = {}
    # Reduce in place, so the integer sums are freed as the result grows.
    for mono, nums in acc.items():
        poly = {}
        for e, c in nums.items():
            if type(c) is int:
                if not c:
                    continue
                c *= factor
                g = gcd(c, den)
                if part:
                    v = [0, 0, 0, 0, den // g]
                    v[part] = c // g
                    v = tuple(v)
                else:
                    v = (c // g, 0, 0, 0, den // g)
            else:
                p, q, r, s = c.p, c.q, c.r, c.s
                if not (p or q or r or s):
                    continue
                g = gcd(p, q, r, s, den)
                v = (p // g, q // g, r // g, s // g, den // g)
            expo = unpacked.get(e)
            if expo is None:
                expo = unpacked[e] = tuple(
                    e // w % n + b for w, n, b in unpack)
            poly[expo] = v
        acc[mono] = poly
    return {m: p for m, p in acc.items() if p}


def _product(a, b, nvars, rows, rest=None, combine=None):
    """The sum over term pairs of the :class:`Operand` values ``a`` and
    ``b``, each output key's integer multiplier times the pair's
    coefficient product.

    A pair's output keys are the cross of two rows: its first variable's
    entry, ``rows(x + y)`` of the two first blocks, and its rest's,
    ``rest(xs, ys)`` of the two rests as split monomials (``_expand``
    through ``rows`` if not given); ``combine``, if given, turns the two
    entries into the two rows.  Every first block and rest is numbered by
    the lift, so the entries sit in two tables indexed by the ids, each
    filled the first time the loop reaches it and dropped with the call:
    per pair the loop makes two lookups and crosses two short rows.  The
    ``pa x pb`` coefficient loop runs once per output key of each pair."""
    if not a.terms or not b.terms:
        return {}
    if rest is None:
        rest = partial(_expand, rows=rows)
    den, unpack, unit, (ta, xa, ya), (tb, xb, yb) = _plan(a, b, nvars)
    firsts = [[None] * len(xb) for _ in xa]
    rests = [[None] * len(yb) for _ in ya]
    acc = {}
    for i, j, pa in ta:
        x, y, frow, rrow = xa[i], ya[j], firsts[i], rests[j]
        for i2, j2, pb in tb:
            f = frow[i2]
            if f is None:
                # With no variables there is no first block, and the
                # entry is the rest's of two empty monomials.
                f = frow[i2] = rows(x + xb[i2]) if x else rest((), ())
            r = rrow[j2]
            if r is None:
                r = rrow[j2] = rest(y, yb[j2])
            if combine is not None:
                f, r = combine(f, r)
            for m, u in f:
                for n, k in r:
                    mono = m + n
                    tgt = acc.get(mono)
                    if tgt is None:
                        tgt = acc[mono] = {}
                    k *= u
                    for ea, ca in pa:
                        kc = k * ca
                        for eb, cb in pb:
                            e = ea + eb
                            tgt[e] = tgt.get(e, 0) + kc * cb
    del ta, tb, firsts, rests
    return _reduce(acc, den, unpack, unit)


def _touched(nvars, *ops):
    """The operators ``ops`` cut to the variables they touch.

    A variable is touched where some key of some operator has a block
    other than the identity's ``(0, 0, 0)``; the scan stops as soon as the
    keys seen touch every variable.  Returns ``(ops, width, widen)``:
    ``ops`` with each key cut to the touched variables' blocks, ``width``
    their number, and ``widen``, which puts the identity blocks back into
    the keys of an operator on those variables.  Untouched blocks only
    multiply identity by identity, so a map run on the cut operators and
    widened gives what it gives on ``ops``; coefficients are left as they
    are, one exponent per parameter.  With every variable touched, ``ops``
    come back as they are and ``widen`` returns its argument; so they do
    at two variables or fewer, where the scan, the cut and the widening
    cost more than the one block they could save.
    """
    if nvars <= 2:
        return ops, nvars, _same
    left = range(0, 3 * nvars, 3)
    for X in ops:
        for m in X:
            for j in left:
                if m[j] or m[j + 1] or m[j + 2]:
                    # A variable not seen yet: drop all the key touches.
                    left = [i for i in left
                            if not (m[i] or m[i + 1] or m[i + 2])]
                    if not left:
                        return ops, nvars, _same
                    break
    places = [i for j in range(0, 3 * nvars, 3) if j not in left
              for i in (j, j + 1, j + 2)]
    cut = itemgetter(*places) if places else lambda m: ()
    # A widened key reads each touched place from the cut key and every
    # other place from the zero appended to it.
    spots = [len(places)] * (3 * nvars)
    for n, i in enumerate(places):
        spots[i] = n
    put = itemgetter(*spots)

    def widen(X):
        return {put(m + (0,)): p for m, p in X.items()}

    return ([{cut(m): p for m, p in X.items()} for X in ops],
            len(places) // 3, widen)


def _same(X):
    return X


def op_mul(A, B, nvars):
    """Normal-ordered product of two operators on ``nvars`` variables.

    Both operands are lifted to integer numerators over one common
    denominator each, ``DA`` and ``DB`` (the lcm of their coefficient
    denominators), so every product term has the denominator ``DA*DB`` and
    the inner loop only multiplies and adds integers: plain ints when each
    operand's coefficients lie on one line of ``Q(i, sqrt2)``, else plain
    ints for rational coefficients and :class:`_Surd` for the rest.  Each
    mu-exponent tuple, less the operand's least exponent per parameter, is
    packed into one int with a per-call radix of ``spanA_j + spanB_j + 1``
    for parameter j, so adding two packed keys adds the exponents without
    carry.  Monomials are multiplied one variable block at a time through
    the cached rows.  At the end each output coefficient is reduced once,
    by ``gcd(p, q, r, s, DA*DB)``, and each key unpacked; since the
    canonical form is unique the result equals term-by-term arithmetic.
    The product runs on the variables either operand touches, each key
    cut to their blocks and the result's widened again (``_touched``).
    """
    (A, B), width, widen = _touched(nvars, A, B)
    return widen(_product(Operand(A), Operand(B), width, _block))


def op_bracket(A, B, nvars, sign):
    """``A*B + sign*B*A`` for ``sign`` 1 or -1, in one pass over the pairs.

    Equal to ``op_add(op_mul(A, B), op_neg(op_mul(B, A)))`` for
    ``sign=-1`` (the commutator) and to ``op_add`` of the two products for
    ``sign=1`` (the anticommutator), from one plan and one accumulator:
    each monomial pair merges the multipliers of its two orders before any
    coefficient is touched.  The entry of a pair of first blocks, and of a
    pair of rests, is ``(apart, xy, yx, merged)``: the rows of both orders,
    whether they differ, and ``xy + sign*yx``, cached per sign for one
    block and built once per call for longer rests.  A pair then needs no
    merge unless both its parts differ: with ``X``, ``Y`` the first blocks
    and ``Z``, ``W`` the rests, ``XZ*YW + sign*YW*XZ`` is ``XY`` times the
    rests' merged row where ``XY = YX``, and the first blocks' merged row
    times ``ZW`` where ``ZW = WZ``.  Like :func:`op_mul`, the bracket runs
    on the variables either operand touches (``_touched``), so the rests
    of one-variable factors are empty and a two-variable rest is one
    cached block.
    """
    rows = _BRACKET_ROWS[sign]

    def rest(x, y):
        if len(x) == 1:
            return rows(x[0] + y[0])
        xy, yx = _expand(x, y), _expand(y, x)
        return xy != yx, xy, yx, _merge(xy, yx, sign)

    def combine(f, r):
        f_apart, xy, yx, f_merged = f
        r_apart, ab, ba, r_merged = r
        if not f_apart:
            return xy, r_merged
        if not r_apart:
            return f_merged, ab
        return _merge(_cross(xy, ab), _cross(yx, ba), sign), _UNIT

    (A, B), width, widen = _touched(nvars, A, B)
    return widen(_product(Operand(A), Operand(B), width, rows, rest,
                          combine))


@cache
def _act_row(key):
    """x^a d^b R^e on x^g, ``key = (a, b, e, g)``: the row of the image,
    the one-int block ``(a + g - b,)`` with the integer (-1)^g if ``e``
    times g(g-1)...(g-b+1), or empty if d^b kills.  The falling factorial
    is the d-free entry of ``dx_rows(b, g)``."""
    a, b, e, g = key
    k, c = dx_rows(b, g)[-1]
    sign = -1 if e and g & 1 else 1
    return (((a + g - b,), sign * c),) if k == b else ()


def op_act(A, F, nvars):
    """``A`` applied to ``F``, a dict from exponent tuples to polynomials.

    ``A`` is an operator dict or its :class:`Operand`, ``F`` a function
    dict or its ``Operand`` of ``width`` 1; an ``Operand`` kept across
    calls lifts its terms once, for as long as the packing weights and the
    line stay the same.  ``F`` is lifted straight from its exponent tuples,
    one-int blocks ``(g,)``, so the pair loop returns exponent-keyed terms.
    Each entry of the loop's tables is a row of at most one term, through
    :func:`_act_row`, so a pair costs two lookups and at most one term.
    """
    if isinstance(A, dict):
        A = Operand(A)
    if isinstance(F, dict):
        F = Operand(F, 1)
    return _product(A, F, nvars, _act_row)


@cache
def _adjoint_row(key):
    """The adjoint of x^a d^b R^e, ``key = (a, b, e, 0, 0, 0)``: the row of
    ``R^e (-d)^b x^a``, which is ``(-1)^b d^b x^a`` when ``e = 0`` and, as
    ``R d = -d R``, ``d^b R x^a`` when ``e = 1``."""
    a, b, e = key[:3]
    sign = -1 if b & 1 and not e else 1
    return tuple([(blk, sign * c) for blk, c in _block((0, b, e, a, 0, 0))])


def op_adjoint(A, nvars):
    """The formal adjoint of ``A``: coefficients conjugated and each
    monomial reversed, with x and R self-adjoint and d skew-adjoint.
    Distinct variables commute, so the reversed monomial is one block per
    variable; it is ``A``, conjugated, times the identity, under the pair
    rule of :func:`_adjoint_row`, on the variables ``A`` touches."""
    conj = {m: {e: bn_conj(c) for e, c in p.items()} for m, p in A.items()}
    (conj,), width, widen = _touched(nvars, conj)
    one = {(0, 0, 0) * width: {(0,) * nvars: BN_ONE}}
    return widen(_product(Operand(conj), Operand(one), width, _adjoint_row))

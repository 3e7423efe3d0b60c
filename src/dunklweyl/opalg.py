"""The reflection-extended Weyl algebra on n commuting variables.

Per variable i the algebra carries a coordinate ``x_i`` (integer powers,
negative allowed), a derivative ``d_i`` and a reflection ``R_i``, subject to

    d x = x d + 1,    R x = -x R,    R d = -d R,    R^2 = 1,

with generators of distinct variables commuting.  Every element has a unique
normal form: a sum of monomials ``x^a d^b R^e`` (per variable, in that
order) with polynomial coefficients in the deformation parameters mu1..muN
over Q(i, sqrt2).  ``OperatorElement`` stores that normal form and all
operations preserve it, so equality is literal dict equality and an identity
holds exactly when the difference normalizes to zero.

The adjoint implemented here is the formal one of the flat (unweighted) L^2
pairing: x and R are self-adjoint, d is skew-adjoint, numeric coefficients
are complex-conjugated, and products reverse.

``LaurentPolynomial`` is the function space the algebra acts on: spans of
``x^a`` with integer (possibly negative) exponents and Scalar coefficients.

A product of operators on distinct variables, such as the Schwinger-Dunkl
generator ``J+ = A+1*A-2`` and its powers, is kept as its one-variable
factors: ``J+^5`` is two 36-term factors rather than 1,296 flat terms.
Scalar multiples, negation and substituting numeric parameters go factor
by factor.  Every shortcut that decides a product, sum or bracket without
the flat kernel (factor by factor, the telescoping bracket, a commutator
with a power from the bases' bracket) is listed once, per operation and in
the order tried, in ``_RULES``; where none decides, the flat kernel runs,
and the normal forms are the same either way.  ``kernel_op`` alone builds
the flat normal form, once, and keeps it; ``len()`` counts terms without
it.

A power ``B^k`` with ``k >= 2`` is built on its first read: ``**`` keeps
only its operand and exponent, and ``_parts``, the one reader of an
element's terms, multiplies it out there, once, and keeps the result.  A
commutator that the power rule decides from the bases never reads it, so
``[H, J+^30]`` costs the one bracket ``[H, J+]``.

Both value types are linear combinations of keyed terms and share one base,
``_Combination``, which holds their sums, differences, negation, scalar
multiples, equality and ``ratio``, the one test for an exact scalar multiple
(``self == c*other``), and the kernel operand a value keeps from its first
``act`` on either side; only the key of the unit term differs (a ``(0, 0,
0)`` block per variable against a ``0`` exponent).  Each subclass adds its
own constructors and products, and a Laurent polynomial renders as its
multiplication operator.  ``OperatorElement.as_scalar`` is the one test
for a constant operator, and ``coordinate_power`` raises a coordinate
monomial such as ``2*x1`` to any integer power, negative too, as one term.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import prod
from operator import itemgetter
from typing import (
    Callable, Dict, KeysView, List, Optional, Sequence, Tuple, Type, TypeVar)

from dunklweyl._kernel import (
    BN_ONE,
    BN_ZERO,
    Operand,
    bn_inv,
    bn_mul,
    op_act,
    op_add,
    op_adjoint,
    op_bracket,
    op_mul,
    op_neg,
    op_scale,
    poly_add,
    poly_div,
    poly_eval,
    poly_mul,
    poly_scale,
)
from dunklweyl.scalars import (
    ArityMismatchError,
    BaseLike,
    BaseNumber,
    Scalar,
    ScalarLike,
    base_tuple,
    poly_renderer,
)

Block = Tuple[int, int, int]
_C = TypeVar("_C", bound="_Combination")
_SCALARS = (Scalar, BaseNumber, int, Fraction)


def _scalar_poly(value: ScalarLike, nvars: int) -> dict:
    """Coerce a scalar-like value to a kernel polynomial dict."""
    if isinstance(value, Scalar):
        if value.nvars != nvars:
            raise ArityMismatchError(
                f"scalar on {value.nvars} parameters used with {nvars} variables")
        return value.kernel_poly
    data = base_tuple(value)
    if data == (0, 0, 0, 0, 1):
        return {}
    return {(0,) * nvars: data}


class _Combination:
    """A finite sum of keyed terms with Scalar coefficients on ``nvars``
    variables, stored as the kernel dict ``{key: polynomial}``.

    This is the linear-space code both value types share.  A subclass fixes
    the key of its unit term, per variable, in ``_UNIT``, names its values
    in ``_NOUN`` for arity errors, and adds its own products.  Instances are
    immutable; all operations return new objects.

    ``_action`` is None until the first ``act`` that reads this value, as
    the operator or as the function, and keeps there the kernel's prepared
    operand of it (its set-up and last lift, ``len(_UNIT)`` ints per
    variable), so that every later ``act`` on the value reuses it; it dies
    with the value.
    """

    __slots__ = ("_data", "_nvars", "_action")
    _UNIT: tuple = ()
    _NOUN = ""

    def __init__(self, data: dict, nvars: int) -> None:
        self._data = data
        self._nvars = nvars
        self._action: Optional[Operand] = None

    @classmethod
    def zero(cls: Type[_C], nvars: int) -> _C:
        return cls({}, nvars)

    @property
    def nvars(self) -> int:
        return self._nvars

    @property
    def kernel_op(self) -> dict:
        """The underlying kernel dict; treat as read-only."""
        return self._data

    def __len__(self) -> int:
        """The number of terms."""
        return len(self._data)

    def is_zero(self) -> bool:
        return len(self) == 0

    def coefficient(self, key: Sequence[int]) -> Scalar:
        """The Scalar coefficient of a term, zero if absent.  The key is an
        exponent tuple for functions and a flat monomial, ``(a, b, e)`` per
        variable in a row, for operators."""
        return Scalar(dict(self.kernel_op.get(tuple(key), {})), self._nvars)

    def ratio(self: _C, other: _C) -> Optional[Scalar]:
        """The Scalar ``c`` with ``self == c*other``, or None if there is
        none (zero if ``self`` is zero; None if only ``other`` is).  The
        energies and ladder coefficients of ``states`` are such ratios.
        Where the leading coefficients are single terms, as at numeric
        parameters, ``c`` is confirmed on base numbers (see ``_ratio``).
        """
        self._check_arity(other)
        c = _ratio(self.kernel_op, other.kernel_op)
        return None if c is None else Scalar(c, self._nvars)

    def _operand(self) -> Operand:
        """The kernel's prepared operand of this value, made on the first
        call and kept in ``_action``."""
        if self._action is None:
            self._action = Operand(self.kernel_op, len(self._UNIT))
        return self._action

    def _check_arity(self: _C, other: _C) -> None:
        if other._nvars != self._nvars:
            raise ArityMismatchError(
                f"{self._NOUN} on {self._nvars} and {other._nvars} variables")

    def _coerce(self, other) -> Optional[dict]:
        """The term dict of a value of the same type or of a scalar, else
        None."""
        if isinstance(other, type(self)):
            self._check_arity(other)
            return other.kernel_op
        if isinstance(other, _SCALARS):
            poly = _scalar_poly(other, self._nvars)
            return {self._UNIT * self._nvars: poly} if poly else {}
        return None

    def __add__(self: _C, other) -> _C:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return type(self)(op_add(self.kernel_op, o), self._nvars)

    __radd__ = __add__

    def __sub__(self: _C, other) -> _C:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return type(self)(op_add(self.kernel_op, op_neg(o)), self._nvars)

    def __rsub__(self: _C, other) -> _C:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return type(self)(op_add(o, op_neg(self.kernel_op)), self._nvars)

    def __mul__(self: _C, other) -> _C:
        if isinstance(other, _SCALARS):
            return type(self)(
                op_scale(self.kernel_op, _scalar_poly(other, self._nvars)),
                self._nvars)
        return NotImplemented

    # Scalars are central, so left and right actions agree.
    __rmul__ = __mul__

    def __neg__(self: _C) -> _C:
        return type(self)(op_neg(self.kernel_op), self._nvars)

    def __eq__(self, other: object) -> bool:
        if (isinstance(other, (type(self), Scalar))
                and other.nvars != self._nvars):
            return False
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.kernel_op == o

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self}, nvars={self._nvars})"


def _products(x: OperatorElement) -> Optional[List[Dict[int, dict]]]:
    """``x`` as a sum of products of one-variable factors keyed by
    variable: the one product kept factored, or one one-factor product per
    variable of a sum of one-variable terms, its constant joining the
    lowest variable's factor (variable 0's if alone); else None."""
    data, factors = x._parts()
    if factors is not None:
        return [factors]
    parts: Dict[int, dict] = {}
    const: dict = {}
    for mono, poly in data.items():
        touched = [j // 3 for j in range(0, len(mono), 3)
                   if mono[j] or mono[j + 1] or mono[j + 2]]
        if len(touched) > 1:
            return None
        (parts.setdefault(touched[0], {}) if touched else const)[mono] = poly
    if const:
        parts.setdefault(min(parts, default=0), {}).update(const)
    return [{j: parts[j]} for j in sorted(parts)]


def _times(p: dict, q: dict, i: int, nvars: int) -> dict:
    """The factor at variable ``i`` of the product of two products."""
    return op_mul(p[i], q[i], nvars) if i in p and i in q else p.get(i) or q[i]


def _flatten(factors: Dict[int, dict], nvars: int) -> dict:
    """The normal form of a product of factors on distinct variables."""
    return reduce(lambda a, b: op_mul(a, b, nvars),
                  [factors[j] for j in sorted(factors)])


class OperatorElement(_Combination):
    """An element of the algebra in normal form, keyed by flat monomials.

    A product of operators on distinct variables, such as ``J+ = A+1*A-2``
    or ``J+^5``, is held as its factors instead: ``_factors`` maps each
    variable to a kernel dict whose monomials touch no other variable (its
    coefficients may carry any parameter).  A scalar multiple or a negation
    scales the lowest variable's factor, and the rules of ``_RULES`` keep
    the factors where a product, sum or bracket is still one product.
    ``_data`` is then None until ``kernel_op``, the one place a product is
    flattened, builds the flat form by products and keeps it; ``len()``
    counts the terms without it.  ``_factors`` is None for any other element.

    ``_power`` is ``(base, k)`` on a value made as ``base**k`` with ``k >=
    2`` (the base of a power of a power is the innermost one), and None on
    any other value, products made by ``*`` included: a commutator with it
    may be decided from the one bracket of the bases (``_power_bracket``).
    Such a value is made with ``_pending``, ``(operand, n)`` of the call
    ``operand**n``, and no terms: ``_data`` and ``_factors`` are both None
    until ``_parts`` multiplies it out.  Every read of either slot goes
    through ``_parts``.
    """

    __slots__ = ("_factors", "_power", "_pending")
    _UNIT = (0, 0, 0)
    _NOUN = "operators"

    def __init__(self, data: Optional[dict], nvars: int) -> None:
        super().__init__(data, nvars)
        self._factors: Optional[Dict[int, dict]] = None
        self._power: Optional[Tuple[OperatorElement, int]] = None
        self._pending: Optional[Tuple[OperatorElement, int]] = None

    @classmethod
    def _product_of(cls, factors: Dict[int, dict],
                    nvars: int) -> "OperatorElement":
        """The product of one-variable factors, kept factored when there
        are two or more."""
        if not all(factors.values()):
            return cls.zero(nvars)
        if len(factors) == 1:
            (data,) = factors.values()
            return cls(data, nvars)
        out = cls(None, nvars)
        out._factors = factors
        return out

    def _parts(self) -> Tuple[Optional[dict], Optional[Dict[int, dict]]]:
        """``(_data, _factors)``, the one read of either.  A pending power
        ``x**n`` is multiplied out here, on the first call, as ``x * (x *
        ...)``, and stays multiplied out."""
        if self._pending is not None:
            x, n = self._pending
            out = x
            for _ in range(n - 1):
                out = x * out
            self._data, self._factors = out._parts()
            self._pending = None
        return self._data, self._factors

    @property
    def kernel_op(self) -> dict:
        """The flat kernel dict; treat as read-only.  A product kept
        factored is flattened here, on the first read, and only here."""
        data, factors = self._parts()
        if data is None:
            data = self._data = _flatten(factors, self._nvars)
        return data

    def __len__(self) -> int:
        """The number of terms, counted without flattening a product: the
        terms of its factors multiply to distinct monomials, none zero."""
        data, factors = self._parts()
        if factors is None:
            return len(data)
        return prod(map(len, factors.values()))

    def _scaled(self, scale: Callable[[dict], dict]) -> "OperatorElement":
        """``scale``, a scalar multiple of kernel dicts, applied to this
        element: to the lowest variable's factor only, if kept factored."""
        data, factors = self._parts()
        if factors is None:
            return OperatorElement(scale(data), self._nvars)
        low = min(factors)
        return OperatorElement._product_of(
            {**factors, low: scale(factors[low])}, self._nvars)

    def as_scalar(self) -> Optional[Scalar]:
        """The coefficient of a constant operator (zero for zero), else
        None.  A product kept factored is not constant and stays factored.
        """
        unit = self._UNIT * self._nvars
        data, factors = self._parts()
        if factors is None and data.keys() <= {unit}:
            return self.coefficient(unit)
        return None

    def coordinate_power(self, k: int) -> Optional["OperatorElement"]:
        """The k-th power, for any integer k, of a coordinate monomial
        ``c*x1^a1*...*xn^an`` with constant ``c``: the one term
        ``c^k*x1^(k*a1)*...*xn^(k*an)``.  None for any other element; a
        product kept factored is read factor by factor, never flattened."""
        n, zero = self._nvars, (0,) * self._nvars
        mono, coeff = (0,) * (3 * n), BN_ONE
        flat, factors = self._parts()
        for data in (flat,) if factors is None else factors.values():
            if len(data) != 1:
                return None
            ((m, poly),) = data.items()
            if poly.keys() != {zero} or any(m[1::3]) or any(m[2::3]):
                return None
            mono = tuple(u + k * v for u, v in zip(mono, m))
            coeff = bn_mul(coeff, poly[zero])
        if k < 0:
            coeff, k = bn_inv(coeff), -k
        return OperatorElement(
            {mono: {zero: reduce(bn_mul, [coeff] * k, BN_ONE)}}, n)

    def __add__(self, other) -> "OperatorElement":
        out = _decide("+", self, other)
        return super().__add__(other) if out is None else out

    def __sub__(self, other) -> "OperatorElement":
        out = _decide("-", self, other)
        return super().__sub__(other) if out is None else out

    def __neg__(self) -> "OperatorElement":
        return self._scaled(op_neg)

    @classmethod
    def identity(cls, nvars: int) -> "OperatorElement":
        return cls({(0, 0, 0) * nvars: {(0,) * nvars: BN_ONE}}, nvars)

    @classmethod
    def _single(cls, index: int, nvars: int, block: Block) -> "OperatorElement":
        if not 0 <= index < nvars:
            raise IndexError(f"variable index {index} out of range for {nvars} variables")
        flat = (0, 0, 0) * index + block + (0, 0, 0) * (nvars - index - 1)
        return cls({flat: {(0,) * nvars: BN_ONE}}, nvars)

    @classmethod
    def x(cls, index: int, nvars: int, power: int = 1) -> "OperatorElement":
        """The multiplication operator x_{index+1}^power; power may be negative."""
        if power == 0:
            return cls.identity(nvars)
        return cls._single(index, nvars, (power, 0, 0))

    @classmethod
    def d(cls, index: int, nvars: int, power: int = 1) -> "OperatorElement":
        """The derivative d_{index+1}^power."""
        if power < 0:
            raise ValueError("derivative power must be nonnegative")
        if power == 0:
            return cls.identity(nvars)
        return cls._single(index, nvars, (0, power, 0))

    @classmethod
    def r(cls, index: int, nvars: int) -> "OperatorElement":
        """The reflection R_{index+1}."""
        return cls._single(index, nvars, (0, 0, 1))

    def __mul__(self, other) -> "OperatorElement":
        if isinstance(other, OperatorElement):
            out = _decide("*", self, other)
            return out if out is not None else OperatorElement(
                op_mul(self.kernel_op, other.kernel_op, self._nvars),
                self._nvars)
        if isinstance(other, _SCALARS):
            poly = _scalar_poly(other, self._nvars)
            return self._scaled(lambda data: op_scale(data, poly))
        return NotImplemented

    # Scalars are central, so left and right actions agree.
    __rmul__ = __mul__

    def __truediv__(self, other) -> "OperatorElement":
        if isinstance(other, Scalar):
            other = other.constant_value()
        if isinstance(other, (BaseNumber, int, Fraction)):
            return self * BaseNumber(other).inverse()
        return NotImplemented

    def __pow__(self, n: int) -> "OperatorElement":
        """Repeated multiplication from the left, ``self * (self * ...)``,
        done on the first read of the result (``_parts``), not here.

        Normal ordering moves each ``d^b`` of the left factor past the
        x-power of the right one, which gives up to ``b + 1`` terms
        (exactly ``b + 1`` when that x-power is negative).  Keeping the
        single factor, of low derivative order, on the left keeps every
        such row short.  A product kept factored is raised factor by
        factor, each factor from the left, and stays factored: ``J+^5`` is
        ``A+1^5`` and ``A-2^5``, 36 terms each, and its 1,296 flat terms
        are built only when something reads them.

        For ``n >= 2`` the result records its base and exponent in
        ``_power``: ``(B, n)``, or ``(B, j*n)`` when ``self`` is ``B^j``.
        A commutator that ``_power_bracket`` decides from that record never
        multiplies the power out: ``[H, J+^30]`` is the one bracket ``[H,
        J+]``.
        """
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        if n == 0:
            return OperatorElement.identity(self._nvars)
        if n == 1:
            return self
        out = OperatorElement(None, self._nvars)
        out._pending = (self, n)
        base, j = self._power or (self, 1)
        out._power = (base, j * n)
        return out

    def adjoint(self) -> "OperatorElement":
        """Formal adjoint of the flat L^2 pairing.

        Reverses products, conjugates coefficients, and maps x -> x,
        d -> -d, R -> R: ``op_adjoint``, the kernel's pair loop with one
        more cached row; ``reference_adjoint`` is the independent oracle.
        """
        return OperatorElement(op_adjoint(self.kernel_op, self._nvars),
                               self._nvars)

    def substitute_params(self, values: Sequence[BaseLike]) -> "OperatorElement":
        """Evaluate every coefficient at numeric parameter values.  A
        product kept factored is substituted factor by factor and stays
        factored (zero if a factor vanishes); a recorded power keeps its
        record, with the base substituted."""
        n = self._nvars
        if len(values) != n:
            raise ArityMismatchError(
                f"expected {n} parameter values, got {len(values)}")
        zero, vals = (0,) * n, [base_tuple(v) for v in values]

        def substitute(data: dict) -> dict:
            return {mono: {zero: val} for mono, poly in data.items()
                    if (val := poly_eval(poly, vals)) != BN_ZERO}

        data, factors = self._parts()
        out = (OperatorElement(substitute(data), n)
               if factors is None else OperatorElement._product_of(
                   {j: substitute(f) for j, f in factors.items()}, n))
        if self._power is not None:
            base, k = self._power
            out._power = (base.substitute_params(values), k)
        return out

    def act(self, f: "LaurentPolynomial") -> "LaurentPolynomial":
        """Apply to a Laurent polynomial.

        Normal form acts right to left per variable: reflections first
        (x -> -x), then derivatives, then coordinate powers.  ``op_act``
        shares the kernel's lift, pair loop and reduction with products
        and has its own cached row; the function is lifted from its
        exponent tuples.
        Each side's lift is made on its first action and kept with its
        value in ``_action``, and every later action reuses it while the
        packing and the line it was made for hold: an operator acting on
        many states lifts once, and so does a state that many operators
        act on.  ``reference_apply``, ``reference_act`` and the sympy
        tests are the independent oracles.
        """
        n = self._nvars
        if f.nvars != n:
            raise ArityMismatchError(
                f"operator on {n} variables applied to function on {f.nvars}")
        return LaurentPolynomial(op_act(self._operand(), f._operand(), n), n)

    def __str__(self) -> str:
        """The normal form as text, in one pass: reflection-free, low-order
        terms first (``(e, b, a)`` of each variable in turn), each written
        as ``scalars._render_sum`` writes a term.  The coefficient texts
        come from one ``poly_renderer`` and the ``x^a*d^b*R`` text of each
        block from a memo per variable, both kept for this call only."""
        n, data = self._nvars, self.kernel_op
        order = [i for j in range(0, 3 * n, 3) for i in (j + 2, j + 1, j)]
        coefficient, blocks = poly_renderer(), [{} for _ in range(n)]
        out = ""
        for mono in sorted(data, key=itemgetter(*order)) if n else data:
            ms = ""
            for j, texts in enumerate(blocks):
                block = mono[3 * j:3 * j + 3]
                text = texts.get(block)
                if text is None:
                    a, b, e = block
                    v = j + 1
                    text = texts[block] = "*".join(part for part in (
                        (f"x{v}" if a == 1 else f"x{v}^{a}") if a else "",
                        (f"d{v}" if b == 1 else f"d{v}^{b}") if b else "",
                        f"R{v}" if e else "") if part)
                if text:
                    ms = f"{ms}*{text}" if ms else text
            cs = coefficient(data[mono])
            if not ms:
                body = cs
            elif cs == "1":
                body = ms
            elif cs == "-1":
                body = "-" + ms
            elif " " in cs:
                body = f"({cs})*{ms}"
            else:
                body = f"{cs}*{ms}"
            if not out:
                out = body
            elif body.startswith("-"):
                out += " - " + body[1:]
            else:
                out += " + " + body
        return out or "0"


def _ratio(term: dict, factor: dict) -> Optional[dict]:
    """The polynomial ``c`` with ``term == c*factor``, or None if there is
    none: the quotient of one coefficient, confirmed on each in turn.

    Where that coefficient is a single term on both sides, as every one is
    at numeric parameters, ``c`` is the one monomial ``s*mu^e`` of their
    quotient, and each coefficient ``p`` of ``factor`` is confirmed on base
    numbers: ``c*p`` shifts each exponent of ``p`` by ``e`` and scales its
    number by ``s``, distinct exponents staying distinct.  Otherwise ``c``
    is the exact polynomial quotient, confirmed by products.
    """
    if not term:
        return {}
    mono = next(iter(term))
    if len(term) != len(factor) or mono not in factor:
        return None
    top, lead = term[mono], factor[mono]
    if len(top) == len(lead) == 1:
        ((et, ct),), ((el, cl),) = top.items(), lead.items()
        e = tuple([a - b for a, b in zip(et, el)])
        if any(x < 0 for x in e):
            return None
        s = bn_mul(ct, bn_inv(cl))
        for m, p in factor.items():
            q = term.get(m)
            if q is None or len(q) != len(p):
                return None
            for ep, cp in p.items():
                shifted = tuple([a + b for a, b in zip(ep, e)])
                if q.get(shifted) != bn_mul(cp, s):
                    return None
        return {e: s}
    c = poly_div(top, lead)
    if c is None:
        return None
    for m, p in factor.items():
        if term.get(m) != poly_mul(p, c):
            return None
    return c


def _constant_product(a: OperatorElement, b: OperatorElement,
                      how: str) -> Optional[OperatorElement]:
    """``a*b`` where one side is a constant operator, as the DSL makes for
    a number: a scalar multiple of the other side."""
    for product, const in ((a, b), (b, a)):
        c = const.as_scalar()
        if c is not None:
            return product._scaled(lambda data: op_scale(data, c.kernel_poly))
    return None


def _factor_product(a: OperatorElement, b: OperatorElement,
                    how: str) -> Optional[OperatorElement]:
    """``a*b`` factor by factor where ``_products`` reads each side as one
    product: distinct variables commute."""
    left, right = _products(a), _products(b)
    if not (left and right and len(left) == len(right) == 1):
        return None
    (p,), (q,), n = left, right, a._nvars
    return OperatorElement._product_of(
        {i: _times(p, q, i, n) for i in p.keys() | q.keys()}, n)


def _combine(a: OperatorElement, b: OperatorElement,
             how: str) -> Optional[OperatorElement]:
    """``a + b`` or ``a - b`` of two products kept factored on the same
    variables that agree in every factor but at most one (the same dict
    object, or an equal one), applied to that factor (to the lowest
    variable's if all agree); None for any other pair of operands."""
    f, g = a._parts()[1], b._parts()[1]
    if f is None or g is None or f.keys() != g.keys():
        return None
    differ = [j for j in f if f[j] is not g[j] and f[j] != g[j]]
    if len(differ) > 1:
        return None
    j = differ[0] if differ else min(f)
    h = g[j] if how == "+" else op_neg(g[j])
    return OperatorElement._product_of({**f, j: op_add(f[j], h)}, a._nvars)


def _product_bracket(a: OperatorElement, b: OperatorElement,
                     how: str) -> Optional[OperatorElement]:
    """``[a, b]`` or ``{a, b}`` factor by factor where one operand ``T`` is
    a product kept factored and ``_products`` reads the other, else None.
    Distinct variables commute, so for ``X = prod_i X_i`` and ``Y = prod_i
    Y_i``, a missing factor read as 1,

        [X, Y] = sum_j (prod_{i<j} Y_i X_i) [X_j, Y_j] (prod_{i>j} X_i Y_i),
        {X, Y} = prod_i X_i Y_i + prod_i Y_i X_i,

    one term, ``{X_j, Y_j}`` at ``j``, if they share no other variable.
    With a one-factor ``X`` this is the Leibniz rule, each term ``T`` but
    at ``j``; one that is ``c_j*T_j`` there only adds ``c_j`` to a scalar
    ``c``, and ``c*T`` stays factored or joins the first other term.  Only
    a sum of two or more products is flattened.
    """
    T = b if b._parts()[1] is not None else a
    t = T._parts()[1]
    others = None if t is None else _products(a if T is b else b)
    if others is None:
        return None
    n, sign = a._nvars, -1 if how == "[]" else 1
    one = OperatorElement.identity(n).kernel_op
    scalar: dict = {}
    rest: List[Tuple[Optional[int], Dict[int, dict]]] = []
    for s in others:
        x, y = (s, t) if T is b else (t, s)
        variables = sorted(s.keys() | t.keys())
        shared = [j for j in variables if j in s and j in t]
        if sign > 0 and len(shared) > 1:
            rest += [(None, {i: _times(x, y, i, n) for i in variables}),
                     (None, {i: _times(y, x, i, n) for i in variables})]
            continue
        for j in shared if sign < 0 else shared or [min(s)]:
            bracket = op_bracket(x.get(j, one), y.get(j, one), n, sign)
            c = _ratio(bracket, t.get(j, one)) if len(s) == 1 else None
            if c is not None:
                scalar = poly_add(scalar, c)
            elif bracket:
                rest.append((j, {i: bracket if i == j else _times(y, x, i, n)
                                 if i < j else _times(x, y, i, n)
                                 for i in variables}))
    if not rest:
        return T._scaled(lambda data: op_scale(data, scalar))
    j, first = rest[0]
    if scalar:
        first[j] = op_add(first[j], op_scale(t.get(j, one), scalar))
    products = [OperatorElement._product_of(term, n) for _, term in rest]
    if len(products) == 1:
        return products[0]
    return OperatorElement(reduce(op_add, (p.kernel_op for p in products)), n)


def _factor_ratio(a: OperatorElement, b: OperatorElement
                  ) -> Optional[dict]:
    """The polynomial ``c`` with ``a == c*b``, found without flattening, or
    None.  Two products kept factored on the same variables go factor by
    factor, ``c`` being the product of the factors' ratios; two flat
    elements go by ``_ratio``.  None may miss a ratio that exists: where
    one operand is kept factored and the other is not, or where the
    factors' ratios are not all polynomials."""
    (x, f), (y, g) = a._parts(), b._parts()
    if f is None and g is None:
        return _ratio(x, y)
    if f is None or g is None or f.keys() != g.keys():
        return None
    c = {(0,) * a._nvars: BN_ONE}
    for j in f:
        if f[j] is not g[j]:
            r = _ratio(f[j], g[j])
            if r is None:
                return None
            c = poly_mul(c, r)
    return c


def _power_bracket(a: OperatorElement, b: OperatorElement,
                   how: str) -> Optional[OperatorElement]:
    """``[a, b]`` from the bracket of the bases where exactly one of ``a``
    and ``b`` is a recorded power, or None where that bracket does not
    decide it.

    ``ad_A = [A, .]`` is a derivation, so ``[A, B^k] = sum_i B^i [A, B]
    B^(k-1-i)``.  With ``c = [A, B]``: if ``c`` is zero, so are ``[A, B^k]``
    and ``[A^j, B]``; if ``c = l*B``, then ``[A, B^k] = k*l*B^k``; and if
    ``c = l*A``, then ``[A^j, B] = j*l*A^j``.  Where both are powers only
    the zero case could apply, and the bases' bracket would be paid for
    nothing, as in ``[K-, K+]``, which ``_product_bracket`` decides.
    """
    a0, j = a._power or (a, 1)
    b0, k = b._power or (b, 1)
    if (j > 1) == (k > 1):
        return None
    c = _bracket(a0, b0, -1)
    if c.is_zero():
        return c
    power, base, n = (b, b0, k) if j == 1 else (a, a0, j)
    lam = _factor_ratio(c, base)
    if lam is None:
        return None
    scale = poly_scale(lam, (n, 0, 0, 0, 1))
    return power._scaled(lambda data: op_scale(data, scale))


def _bracket(a, b, sign: int) -> OperatorElement:
    """``a*b + sign*b*a``; either operand may be a scalar.  The rules of
    ``_RULES`` for ``[]`` (``sign`` -1) or ``{}`` are tried first, else the
    kernel's one pass runs."""
    if isinstance(a, OperatorElement):
        out = _decide("[]" if sign < 0 else "{}", a, b)
        if out is not None:
            return out
    elif isinstance(b, OperatorElement):
        # A scalar is central: its commutator vanishes and its
        # anticommutator is symmetric, so the order does not matter.
        return _bracket(b, a, sign)
    data = a._coerce(b) if isinstance(a, OperatorElement) else None
    if data is None:
        raise TypeError(f"no bracket of {type(a).__name__} "
                        f"and {type(b).__name__}")
    return OperatorElement(op_bracket(a.kernel_op, data, a._nvars, sign),
                           a._nvars)


def _decide(how: str, a: OperatorElement, b) -> Optional[OperatorElement]:
    """``a how b`` from the first rule of ``_RULES[how]`` that decides it,
    or None, where the caller runs the flat kernel (always if ``b`` is no
    operator)."""
    if isinstance(b, OperatorElement):
        a._check_arity(b)
        for rule in _RULES[how]:
            out = rule(a, b, how)
            if out is not None:
                return out
    return None


# Every shortcut of the factored path, per operation, in the order tried;
# each rule returns None where it does not decide.  The power rule comes
# before the product rule: the product rule also reads the ``H`` or ``J0``
# beside a power, and tried first it slowed ``comm(H, J+^5)`` from 1.27 to
# 2.12 ms and ``comm(J0, J+^4) - 8*J+^4`` from 1.07 to 1.44 ms, helping
# only ``comm(K+-, Rj)`` and ``comm(P, K+^2)`` (warm, min of 7, Python
# 3.11.7, 2 vCPU).
_RULES = {
    "*": (_constant_product, _factor_product),
    "+": (_combine,),
    "-": (_combine,),
    "[]": (_power_bracket, _product_bracket),
    "{}": (_product_bracket,),
}


def commutator(a: OperatorElement, b: OperatorElement) -> OperatorElement:
    """``[a, b] = a*b - b*a``."""
    return _bracket(a, b, -1)


def anticommutator(a: OperatorElement, b: OperatorElement) -> OperatorElement:
    """``{a, b} = a*b + b*a``."""
    return _bracket(a, b, 1)


class LaurentPolynomial(_Combination):
    """A function sum_a c_a * x^a with integer exponent tuples (negative
    exponents allowed) and Scalar coefficients, keyed by exponent tuple."""

    __slots__ = ()
    _UNIT = (0,)
    _NOUN = "functions"

    @classmethod
    def monomial(cls, exponents: Sequence[int], coeff: ScalarLike = 1
                 ) -> "LaurentPolynomial":
        n = len(exponents)
        poly = _scalar_poly(coeff, n)
        if not poly:
            return cls({}, n)
        return cls({tuple(exponents): poly}, n)

    def exponents(self) -> KeysView[tuple]:
        """The exponent tuples of the nonzero terms, in no set order."""
        return self._data.keys()

    def __str__(self) -> str:
        # Written as its multiplication operator, each x^a as x^a*d^0*R^0.
        return str(OperatorElement(
            {sum(((g, 0, 0) for g in exps), ()): poly
             for exps, poly in self._data.items()}, self._nvars))

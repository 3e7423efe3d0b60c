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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, KeysView, Optional, Sequence, Tuple, Union

from dunklweyl._kernel import (
    BN_ONE,
    bn_conj,
    dx_rows,
    op_add,
    op_mul,
    op_scale,
    op_sub,
    poly_add,
    poly_mul,
    poly_neg,
    poly_scale_int,
)
from dunklweyl.scalars import (
    ArityMismatchError,
    BaseLike,
    BaseNumber,
    Scalar,
    ScalarLike,
    _render_sum,
    base_tuple,
)

Block = Tuple[int, int, int]


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


def _render_monomial(flat: tuple, nvars: int) -> str:
    factors = []
    for j in range(nvars):
        a, b, e = flat[3 * j], flat[3 * j + 1], flat[3 * j + 2]
        if a == 1:
            factors.append(f"x{j + 1}")
        elif a:
            factors.append(f"x{j + 1}^{a}")
        if b == 1:
            factors.append(f"d{j + 1}")
        elif b:
            factors.append(f"d{j + 1}^{b}")
        if e:
            factors.append(f"R{j + 1}")
    return "*".join(factors) if factors else "1"


def _mono_sort_key(flat: tuple, nvars: int) -> tuple:
    # Reflection-free, low-order terms first; deterministic everywhere.
    return tuple((flat[3 * j + 2], flat[3 * j + 1], flat[3 * j])
                 for j in range(nvars))


@dataclass(frozen=True)
class NFMonomial:
    """A normal-form monomial: one ``(x_power, d_power, reflection)`` block
    per variable."""

    blocks: Tuple[Block, ...]

    def __post_init__(self) -> None:
        for a, b, e in self.blocks:
            if b < 0:
                raise ValueError("derivative power must be nonnegative")
            if e not in (0, 1):
                raise ValueError("reflection exponent must be 0 or 1")

    @classmethod
    def from_flat(cls, flat: tuple, nvars: int) -> "NFMonomial":
        return cls(tuple(
            (flat[3 * j], flat[3 * j + 1], flat[3 * j + 2])
            for j in range(nvars)))

    @property
    def flat(self) -> tuple:
        out: tuple = ()
        for blk in self.blocks:
            out += blk
        return out

    @property
    def nvars(self) -> int:
        return len(self.blocks)

    def is_identity(self) -> bool:
        return all(blk == (0, 0, 0) for blk in self.blocks)

    def __str__(self) -> str:
        return _render_monomial(self.flat, len(self.blocks))


class OperatorElement:
    """An element of the algebra in normal form.

    Instances are immutable; all operations return new elements.
    """

    __slots__ = ("_op", "_nvars")

    def __init__(self, op: dict, nvars: int) -> None:
        self._op = op
        self._nvars = nvars

    @classmethod
    def zero(cls, nvars: int) -> "OperatorElement":
        return cls({}, nvars)

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

    @property
    def nvars(self) -> int:
        return self._nvars

    def is_zero(self) -> bool:
        return not self._op

    def __bool__(self) -> bool:
        return bool(self._op)

    def coefficient(self, mono: Union[NFMonomial, tuple]) -> Scalar:
        """The Scalar coefficient of a normal-form monomial (zero if absent)."""
        flat = mono.flat if isinstance(mono, NFMonomial) else mono
        poly = self._op.get(flat)
        if poly is None:
            return Scalar.zero(self._nvars)
        return Scalar(dict(poly), self._nvars)

    def terms(self) -> Iterator[Tuple[NFMonomial, Scalar]]:
        """Deterministic (monomial, coefficient) pairs."""
        for flat in sorted(self._op, key=lambda m: _mono_sort_key(m, self._nvars)):
            yield (NFMonomial.from_flat(flat, self._nvars),
                   Scalar(dict(self._op[flat]), self._nvars))

    def _coerce(self, other) -> Optional["OperatorElement"]:
        if isinstance(other, OperatorElement):
            if other._nvars != self._nvars:
                raise ArityMismatchError(
                    f"operators on {self._nvars} and {other._nvars} variables")
            return other
        if isinstance(other, (Scalar, BaseNumber, int, Fraction)):
            poly = _scalar_poly(other, self._nvars)
            if not poly:
                return OperatorElement.zero(self._nvars)
            return OperatorElement({(0, 0, 0) * self._nvars: poly}, self._nvars)
        return None

    def __add__(self, other) -> "OperatorElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return OperatorElement(op_add(self._op, o._op), self._nvars)

    __radd__ = __add__

    def __sub__(self, other) -> "OperatorElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return OperatorElement(op_sub(self._op, o._op), self._nvars)

    def __rsub__(self, other) -> "OperatorElement":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return OperatorElement(op_sub(o._op, self._op), self._nvars)

    def __mul__(self, other) -> "OperatorElement":
        if isinstance(other, OperatorElement):
            if other._nvars != self._nvars:
                raise ArityMismatchError(
                    f"operators on {self._nvars} and {other._nvars} variables")
            return OperatorElement(op_mul(self._op, other._op, self._nvars), self._nvars)
        if isinstance(other, (Scalar, BaseNumber, int, Fraction)):
            return OperatorElement(
                op_scale(self._op, _scalar_poly(other, self._nvars)), self._nvars)
        return NotImplemented

    def __rmul__(self, other) -> "OperatorElement":
        # Scalars are central, so left and right actions agree.
        if isinstance(other, (Scalar, BaseNumber, int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __truediv__(self, other) -> "OperatorElement":
        if isinstance(other, Scalar):
            other = other.constant_value()
        if isinstance(other, (BaseNumber, int, Fraction)):
            inv = BaseNumber(other).inverse() if not isinstance(other, BaseNumber) \
                else other.inverse()
            return self.__mul__(inv)
        return NotImplemented

    def __neg__(self) -> "OperatorElement":
        return OperatorElement({m: poly_neg(p) for m, p in self._op.items()},
                               self._nvars)

    def __pow__(self, n: int) -> "OperatorElement":
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = OperatorElement.identity(self._nvars)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if (isinstance(other, (OperatorElement, Scalar))
                and other.nvars != self._nvars):
            return False
        if isinstance(other, (OperatorElement, Scalar, BaseNumber, int, Fraction)):
            o = self._coerce(other)
            return self._op == o._op
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def adjoint(self) -> "OperatorElement":
        """Formal adjoint of the flat L^2 pairing.

        Reverses products, conjugates coefficients, and maps x -> x,
        d -> -d, R -> R.  Per variable the reversed monomial
        R^e d^b x^a re-normalizes through the same reordering rows as
        multiplication, with sign (-1)^b * (-1)^(e*(a+b)).
        """
        out: dict = {}
        n = self._nvars
        for mono, poly in self._op.items():
            conj = {e: bn_conj(c) for e, c in poly.items()}
            sign = 1
            rows = []
            for j in range(n):
                a, b, e = mono[3 * j], mono[3 * j + 1], mono[3 * j + 2]
                if b & 1:
                    sign = -sign
                if e and ((a + b) & 1):
                    sign = -sign
                rows.append([((a - k, b - k, e), c) for k, c in dx_rows(b, a)])
            stack = [((), 1)]
            for row in rows:
                stack = [(m + blk, kc * c) for m, kc in stack for blk, c in row]
            for m, kc in stack:
                piece = poly_scale_int(conj, sign * kc)
                cur = out.get(m)
                if cur is None:
                    out[m] = piece
                else:
                    v = poly_add(cur, piece)
                    if v:
                        out[m] = v
                    else:
                        del out[m]
        return OperatorElement(out, n)

    def substitute_params(self, values: Sequence[BaseLike]) -> "OperatorElement":
        """Evaluate every coefficient at numeric parameter values."""
        if len(values) != self._nvars:
            raise ArityMismatchError(
                f"expected {self._nvars} parameter values, got {len(values)}")
        zero_expo = (0,) * self._nvars
        out: dict = {}
        for mono, poly in self._op.items():
            val = Scalar(dict(poly), self._nvars).evaluate(values)
            if val:
                out[mono] = {zero_expo: base_tuple(val)}
        return OperatorElement(out, self._nvars)

    def act(self, f: "LaurentPolynomial") -> "LaurentPolynomial":
        """Apply to a Laurent polynomial.

        Normal form acts right to left per variable: reflections first
        (x -> -x), then derivatives, then coordinate powers.  This is
        independent of the multiplication routine, which makes it a faithful
        cross-check: acting with a product must equal acting twice.
        """
        if f.nvars != self._nvars:
            raise ArityMismatchError(
                f"operator on {self._nvars} variables applied to function on {f.nvars}")
        n = self._nvars
        out: dict = {}
        for mono, opoly in self._op.items():
            for fexp, fpoly in f._poly.items():
                factor = 1
                new_exp = []
                for j in range(n):
                    a, b, e = mono[3 * j], mono[3 * j + 1], mono[3 * j + 2]
                    g = fexp[j]
                    if e and (g & 1):
                        factor = -factor
                    for t in range(b):
                        factor *= (g - t)
                    if not factor:
                        break
                    new_exp.append(g - b + a)
                if not factor:
                    continue
                piece = poly_mul(opoly, fpoly)
                if factor != 1:
                    piece = poly_scale_int(piece, factor)
                key = tuple(new_exp)
                cur = out.get(key)
                if cur is None:
                    out[key] = piece
                else:
                    v = poly_add(cur, piece)
                    if v:
                        out[key] = v
                    else:
                        del out[key]
        return LaurentPolynomial(out, n)

    def __str__(self) -> str:
        return _render_sum((str(coeff), str(mono))
                           for mono, coeff in self.terms())

    def __repr__(self) -> str:
        return f"OperatorElement({self}, nvars={self._nvars})"

    @property
    def kernel_op(self) -> dict:
        """The underlying kernel dict; treat as read-only."""
        return self._op


def commutator(a: OperatorElement, b: OperatorElement) -> OperatorElement:
    return a * b - b * a


def anticommutator(a: OperatorElement, b: OperatorElement) -> OperatorElement:
    return a * b + b * a


class LaurentPolynomial:
    """A function sum_a c_a * x^a with integer exponent tuples (negative
    exponents allowed) and Scalar coefficients.

    Instances are immutable; all operations return new objects.
    """

    __slots__ = ("_poly", "_nvars")

    def __init__(self, poly: dict, nvars: int) -> None:
        self._poly = poly
        self._nvars = nvars

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPolynomial":
        return cls({}, nvars)

    @classmethod
    def one(cls, nvars: int) -> "LaurentPolynomial":
        return cls({(0,) * nvars: {(0,) * nvars: BN_ONE}}, nvars)

    @classmethod
    def monomial(cls, exponents: Sequence[int], coeff: ScalarLike = 1,
                 nvars: Optional[int] = None) -> "LaurentPolynomial":
        n = len(exponents) if nvars is None else nvars
        if len(exponents) != n:
            raise ArityMismatchError(
                f"expected {n} exponents, got {len(exponents)}")
        poly = _scalar_poly(coeff, n)
        if not poly:
            return cls({}, n)
        return cls({tuple(exponents): poly}, n)

    @property
    def nvars(self) -> int:
        return self._nvars

    def is_zero(self) -> bool:
        return not self._poly

    def __bool__(self) -> bool:
        return bool(self._poly)

    def exponents(self) -> KeysView[tuple]:
        """The exponent tuples of the nonzero terms, in no set order."""
        return self._poly.keys()

    def coefficient(self, exponents: Sequence[int]) -> Scalar:
        poly = self._poly.get(tuple(exponents))
        if poly is None:
            return Scalar.zero(self._nvars)
        return Scalar(dict(poly), self._nvars)

    def terms(self) -> Iterator[Tuple[tuple, Scalar]]:
        for e in sorted(self._poly):
            yield e, Scalar(dict(self._poly[e]), self._nvars)

    def _coerce(self, other) -> Optional["LaurentPolynomial"]:
        if isinstance(other, LaurentPolynomial):
            if other._nvars != self._nvars:
                raise ArityMismatchError(
                    f"functions on {self._nvars} and {other._nvars} variables")
            return other
        if isinstance(other, (Scalar, BaseNumber, int, Fraction)):
            poly = _scalar_poly(other, self._nvars)
            if not poly:
                return LaurentPolynomial.zero(self._nvars)
            return LaurentPolynomial({(0,) * self._nvars: poly}, self._nvars)
        return None

    def __add__(self, other) -> "LaurentPolynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentPolynomial(op_add(self._poly, o._poly), self._nvars)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPolynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentPolynomial(op_sub(self._poly, o._poly), self._nvars)

    def __rsub__(self, other) -> "LaurentPolynomial":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other) -> "LaurentPolynomial":
        if isinstance(other, LaurentPolynomial):
            return from_laurent(self).act(other)
        if isinstance(other, (Scalar, BaseNumber, int, Fraction)):
            return LaurentPolynomial(
                op_scale(self._poly, _scalar_poly(other, self._nvars)),
                self._nvars)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(
            {e: poly_neg(p) for e, p in self._poly.items()}, self._nvars)

    def __eq__(self, other: object) -> bool:
        if (isinstance(other, (LaurentPolynomial, Scalar))
                and other.nvars != self._nvars):
            return False
        if isinstance(other, (LaurentPolynomial, Scalar, BaseNumber, int, Fraction)):
            o = self._coerce(other)
            return self._poly == o._poly
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def diff(self, index: int) -> "LaurentPolynomial":
        """Partial derivative in x_{index+1}."""
        # Distinct exponents stay distinct after lowering one of them, so
        # no two terms meet and nothing can cancel.
        return LaurentPolynomial(
            {e[:index] + (e[index] - 1,) + e[index + 1:]:
             poly_scale_int(p, e[index])
             for e, p in self._poly.items() if e[index]}, self._nvars)

    def __str__(self) -> str:
        terms = []
        for exps, coeff in self.terms():
            factors = [f"x{j + 1}" if g == 1 else f"x{j + 1}^{g}"
                       for j, g in enumerate(exps) if g]
            terms.append((str(coeff), "*".join(factors) or "1"))
        return _render_sum(terms)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({self}, nvars={self._nvars})"


def from_laurent(f: LaurentPolynomial) -> OperatorElement:
    """The multiplication operator by a Laurent polynomial."""
    out: dict = {}
    n = f.nvars
    for exps, poly in f._poly.items():
        flat: tuple = ()
        for g in exps:
            flat += (g, 0, 0)
        out[flat] = dict(poly)
    return OperatorElement(out, n)

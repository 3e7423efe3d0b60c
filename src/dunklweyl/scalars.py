"""Read-only views of the exact kernel's numbers and mu-polynomials, and
the one renderer of both.

``BaseNumber`` is an element of Q(i, sqrt2) and ``Scalar`` a polynomial in
the deformation parameters mu1..muN with such coefficients.  Each holds
the kernel's data (a reduced 5-tuple of integers, a dict of them keyed by
exponent tuples) and only compares, hashes and writes it, and hands it to
the kernel to invert or evaluate.  All arithmetic is in ``_kernel``: the
``bn_*`` and ``poly_*`` functions, reached through the operators of
``opalg``.  A plain number or scalar times an operator is the operator's
scalar multiple.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import reduce
from itertools import product
from math import gcd
from typing import Callable, Iterable, Iterator, Sequence, Tuple, Union

from dunklweyl._kernel import (
    BN_ONE, BN_ZERO, bn_inv, bn_make, bn_mul, poly_eval)

BaseLike = Union["BaseNumber", int, Fraction]
ScalarLike = Union["Scalar", "BaseNumber", int, Fraction]


class ArityMismatchError(ValueError):
    """Raised when combining scalars or operators built for different
    numbers of variables."""


class BaseNumber:
    """An exact element of Q(i, sqrt2): a read-only view of the kernel's
    ``(p, q, r, s, den)``, the number ``(p + q*i + r*sqrt2 +
    s*i*sqrt2) / den`` with ``den > 0`` and ``gcd(p, q, r, s, den) == 1``.
    """

    __slots__ = ("_data",)

    def __init__(self, value: BaseLike) -> None:
        self._data = base_tuple(value)

    @classmethod
    def _from_tuple(cls, data: tuple) -> "BaseNumber":
        out = object.__new__(cls)
        out._data = data
        return out

    def __bool__(self) -> bool:
        d = self._data
        return bool(d[0] or d[1] or d[2] or d[3])

    def is_rational(self) -> bool:
        d = self._data
        return not (d[1] or d[2] or d[3])

    def as_fraction(self) -> Fraction:
        """The value as a Fraction; raises if it involves i or sqrt2."""
        if not self.is_rational():
            raise ValueError(f"not a rational number: {self}")
        return Fraction(self._data[0], self._data[4])

    def inverse(self) -> "BaseNumber":
        return BaseNumber._from_tuple(bn_inv(self._data))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (BaseNumber, int, Fraction)):
            return self._data == base_tuple(other)
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(Fraction(self._data[0], self._data[4]))
        return hash(self._data)

    def __str__(self) -> str:
        return render_base(self._data)

    def __repr__(self) -> str:
        return f"BaseNumber({self})"


def _render_sum(terms: Iterable[Tuple[str, str]]) -> str:
    """Signed sum of rendered ``(coefficient, monomial)`` terms.

    The monomial ``"1"`` is the unit and shows only its coefficient; a
    coefficient of 1 or -1 shows as the bare or negated monomial, and one
    with spaces in it is parenthesised.  A term with a leading minus joins
    as ``" - "``, the rest as ``" + "``; the empty sum is ``"0"``.  Base
    numbers, scalars, operators and Laurent polynomials all render here.
    """
    out = ""
    for cs, ms in terms:
        if ms == "1":
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


def _quotient(num: int, den: int) -> str:
    """``num/den`` in lowest terms, written as ``str(Fraction(num, den))``
    writes it for ``den > 0``, without building the Fraction."""
    g = gcd(num, den)
    try:
        return str(num // g) if g == den else f"{num // g}/{den // g}"
    except ValueError:
        # str() of an int with more digits than the interpreter allows.
        raise ValueError(
            f"a coefficient has more than {sys.get_int_max_str_digits()} "
            f"digits, too large to print") from None


def render_base(data: tuple) -> str:
    """Deterministic human-readable form of a base-number tuple."""
    den = data[4]
    return _render_sum((_quotient(num, den), unit) for num, unit
                       in zip(data, ("1", "i", "sqrt2", "i*sqrt2")) if num)


def poly_renderer() -> Callable[[Sequence[Sequence[dict]]], Iterator[str]]:
    """A writer of kernel mu-polynomials, terms lex-descending in mu, that
    formats each distinct base number and mu-monomial once in its life: a
    caller keeps it for one output, and the memo dies with it.

    ``render(groups)`` yields, in nested order (the first group outermost),
    the text of the product of each combination of one polynomial from
    each group; one group yields its polynomials' own texts.  The groups'
    mu-supports (the parameters with a nonzero exponent in any of a
    group's polynomials) must be disjoint and increase in the order given,
    so that a product is written without multiplying it out: its terms are
    the nested combinations of its factors' terms, none merging and
    already lex-descending; each number is ``bn_mul`` of theirs, one
    multiplication per distinct pair; and each mu-monomial is the
    ``*``-join of theirs.
    """
    numbers: dict = {}
    monomials: dict = {}
    # The number each text writes, and the text of each product of two
    # numbers, keyed by the factors' texts, left then right.
    values: dict = {}
    products: dict = {}

    def number(coef: tuple) -> str:
        cs = numbers.get(coef)
        if cs is None:
            cs = numbers[coef] = render_base(coef)
            values[cs] = coef
        return cs

    def monomial(expo: tuple) -> str:
        ms = monomials[expo] = "*".join(
            f"mu{i + 1}" if e == 1 else f"mu{i + 1}^{e}"
            for i, e in enumerate(expo) if e) or "1"
        return ms

    def terms(poly: dict) -> list:
        """The ``(number, mu-monomial)`` texts of each term,
        lex-descending."""
        out = []
        for expo in sorted(poly, reverse=True):
            coef = poly[expo]
            cs = numbers.get(coef)
            if cs is None:
                cs = number(coef)
            ms = monomials.get(expo)
            if ms is None:
                ms = monomial(expo)
            out.append((cs, ms))
        return out

    def times(left_terms: list, right_terms: list) -> list:
        """The terms of the product of two polynomials' terms."""
        out = []
        for left_cs, left in left_terms:
            row = products.get(left_cs)
            if row is None:
                row = products[left_cs] = {}
            for right_cs, right in right_terms:
                cs = row.get(right_cs)
                if cs is None:
                    cs = row[right_cs] = number(
                        bn_mul(values[left_cs], values[right_cs]))
                out.append((cs, right if left == "1" else left
                            if right == "1" else f"{left}*{right}"))
        return out

    def render(groups: Sequence[Sequence[dict]]) -> Iterator[str]:
        # One group is written as it is walked: a flat output never holds
        # the terms of all its coefficients at once.
        if len(groups) == 1:
            return map(_render_sum, map(terms, groups[0]))
        walks = [list(map(terms, group)) for group in groups]
        return (_render_sum(reduce(times, combination))
                for combination in product(*walks))

    return render


def base_tuple(value: BaseLike) -> tuple:
    """Coerce a number-like value to the kernel 5-tuple layout."""
    if isinstance(value, BaseNumber):
        return value._data
    if isinstance(value, int):
        return (value, 0, 0, 0, 1)
    if isinstance(value, Fraction):
        return bn_make(value.numerator, 0, 0, 0, value.denominator)
    raise TypeError(f"cannot interpret {value!r} as an exact number")


ZERO = BaseNumber._from_tuple(BN_ZERO)
I = BaseNumber._from_tuple((0, 1, 0, 0, 1))
SQRT2 = BaseNumber._from_tuple((0, 0, 1, 0, 1))


class Scalar:
    """A polynomial in the deformation parameters mu1..muN over Q(i, sqrt2):
    a read-only view of the kernel's dict ``{exponents: base number}``.

    Instances are immutable.  A scalar compares, hashes, evaluates and
    writes itself; arithmetic goes through the kernel's ``poly_*``
    functions, or through an operator it multiplies.
    """

    __slots__ = ("_poly", "_nvars")

    def __init__(self, poly: dict, nvars: int) -> None:
        self._poly = poly
        self._nvars = nvars

    @classmethod
    def parameter(cls, index: int, nvars: int) -> "Scalar":
        """The parameter mu_{index+1} as a polynomial on ``nvars`` variables."""
        if not 0 <= index < nvars:
            raise IndexError(f"parameter index {index} out of range for {nvars} variables")
        expo = tuple(1 if i == index else 0 for i in range(nvars))
        return cls({expo: BN_ONE}, nvars)

    @property
    def nvars(self) -> int:
        return self._nvars

    def __bool__(self) -> bool:
        return bool(self._poly)

    def is_constant(self) -> bool:
        return all(not any(e) for e in self._poly)

    def constant_value(self) -> BaseNumber:
        """The value as a BaseNumber; raises if any parameter appears."""
        if not self._poly:
            return ZERO
        if not self.is_constant():
            raise ValueError(f"not a constant: {self}")
        return BaseNumber._from_tuple(next(iter(self._poly.values())))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Scalar):
            if other._nvars == self._nvars:
                return self._poly == other._poly
            # Across arities only constants can be equal, by value, as
            # their hashes are; a parameter ties a scalar to its arity.
            if not other.is_constant():
                return False
            other = other.constant_value()
        if isinstance(other, (BaseNumber, int, Fraction)):
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self) -> int:
        # A constant equals the plain number, so it must hash like one.
        if self.is_constant():
            return hash(self.constant_value())
        return hash((self._nvars, frozenset(self._poly.items())))

    def evaluate(self, values: Sequence[BaseLike]) -> BaseNumber:
        """Evaluate at the given parameter values."""
        if len(values) != self._nvars:
            raise ArityMismatchError(
                f"need {self._nvars} deformation values, got {len(values)}")
        return BaseNumber._from_tuple(
            poly_eval(self._poly, [base_tuple(v) for v in values]))

    def terms(self) -> Iterator[tuple]:
        """Deterministic (exponents, BaseNumber) pairs, lex-descending."""
        return ((e, BaseNumber._from_tuple(self._poly[e]))
                for e in sorted(self._poly, reverse=True))

    def __str__(self) -> str:
        return next(poly_renderer()([[self._poly]]))

    def __repr__(self) -> str:
        return f"Scalar({self}, nvars={self._nvars})"

    @property
    def kernel_poly(self) -> dict:
        """The underlying kernel dict; treat as read-only."""
        return self._poly

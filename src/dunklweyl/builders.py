"""Registry of named operators of the Dunkl oscillator model.

Every operator is parametric in the dimension and the deformation parameters
mu_i.  Composite operators (ladder squares, Schwinger bilinears, Hahn and
superalgebra generators) are assembled by multiplying previously built
parts, never hand-expanded, so the registry itself exercises the algebra.

Naming follows the conventional symbols: per variable i the registry has
D{i}, H{i}, A+{i}, A-{i}, A0{i}, B+{i}, B-{i}, Htilde{i}, Atilde+{i},
Atilde-{i}, the conformal block Qc{i}, Sc{i}, Hc{i}, Kc{i}, Dc{i}, and the
supersymmetric pair Q{i}, H_susy{i}.  Global names: H, Q_susy, H_susy in any
dimension, plus the two-variable family J+, J-, J0, C, P, K+, K-, K0, K1,
K2, E0, E1, E2, F+, F-, Htilde.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from dunklweyl.opalg import (
    LaurentPolynomial,
    OperatorElement,
    anticommutator,
    commutator,
    from_laurent,
)
from dunklweyl.scalars import I, INV_SQRT2, Scalar

OperatorName = str


class ParityError(ValueError):
    """Raised when a superpotential violates its parity constraint."""


@dataclass(frozen=True)
class SuperpotentialPair:
    """An even potential V and an odd potential W, both one-variable
    Laurent polynomials (coefficients may depend on mu1)."""

    V: LaurentPolynomial
    W: LaurentPolynomial

    def __post_init__(self) -> None:
        for f, name, parity in ((self.V, "V", 0), (self.W, "W", 1)):
            if f.nvars != 1:
                raise ParityError(f"{name} must be a one-variable potential")
            for exps, _ in f.terms():
                if exps[0] % 2 != parity:
                    kind = "even" if parity == 0 else "odd"
                    raise ParityError(
                        f"{name} must be {kind}: term x^{exps[0]} violates parity")


def _mu(i: int, n: int) -> Scalar:
    return Scalar.parameter(i, n)


def _dunkl(i: int, n: int) -> OperatorElement:
    d = OperatorElement.d(i, n)
    xinv = OperatorElement.x(i, n, -1)
    r = OperatorElement.r(i, n)
    return d + _mu(i, n) * xinv * (1 - r)


def _build(name: OperatorName, dims: int) -> OperatorElement:
    n = dims
    half = Scalar.constant(1, n) / 2

    if name == "H":
        return sum((build(f"H{i + 1}", n) for i in range(1, n)),
                   build("H1", n))
    if name == "Q_susy":
        total = OperatorElement.zero(n)
        for i in range(n):
            tail = OperatorElement.identity(n)
            for j in range(i + 1, n):
                tail = tail * OperatorElement.r(j, n)
            total = total + build(f"Q{i + 1}", n) * tail
        return total
    if name == "H_susy":
        return sum((build(f"H_susy{i + 1}", n) for i in range(1, n)),
                   build("H_susy1", n))

    if n == 2:
        if name == "J+":
            return build("A+1", n) * build("A-2", n)
        if name == "J-":
            return build("A-1", n) * build("A+2", n)
        if name == "J0":
            return build("H1", n) - build("H2", n)
        if name == "P":
            return OperatorElement.r(0, n) * OperatorElement.r(1, n)
        if name == "C":
            j0 = build("J0", n)
            refl = (_mu(0, n) * OperatorElement.r(0, n)
                    + _mu(1, n) * OperatorElement.r(1, n))
            return (j0 * j0
                    + 2 * anticommutator(build("J+", n), build("J-", n))
                    + 2 * refl
                    + 4 * _mu(0, n) * _mu(1, n) * build("P", n))
        if name == "K+":
            return build("J+", n) ** 2
        if name == "K-":
            return build("J-", n) ** 2
        if name == "K0":
            return build("J0", n) / 8
        if name == "K1":
            return (build("K+", n) + build("K-", n)
                    + build("J0", n) ** 2 / 2) / 8
        if name == "K2":
            return commutator(build("K0", n), build("K1", n))
        if name == "E0":
            return build("J0", n) / 8
        if name == "E1":
            return (build("J+", n) ** 2 + build("J-", n) ** 2
                    + build("J0", n) ** 2 / 2) / 8
        if name == "E2":
            return (build("J+", n) ** 2 - build("J-", n) ** 2) / 16
        if name == "F+":
            return build("J+", n)
        if name == "F-":
            return build("J-", n)
        if name == "Htilde":
            # The fully gauged two-variable oscillator, entered from its
            # explicit display; equality with Htilde1 + Htilde2 is a
            # verified relation, not a definition.
            x1sq = OperatorElement.x(0, n, 2)
            x2sq = OperatorElement.x(1, n, 2)
            x1m2 = OperatorElement.x(0, n, -2)
            x2m2 = OperatorElement.x(1, n, -2)
            return (-half * (OperatorElement.d(0, n, 2) + OperatorElement.d(1, n, 2))
                    + half * (x1sq + x2sq
                              + _mu(0, n) ** 2 * x1m2 + _mu(1, n) ** 2 * x2m2)
                    - half * _mu(0, n) * x1m2 * OperatorElement.r(0, n)
                    - half * _mu(1, n) * x2m2 * OperatorElement.r(1, n))

    m = re.fullmatch(
        r"(Atilde\+|Atilde-|H_susy|Htilde|Qc|Sc|Hc|Kc|Dc|A\+|A-|A0|B\+|B-|D|H|Q)"
        r"([1-9]\d*)", name)
    if m is None:
        raise KeyError(f"unknown operator name: {name!r}")
    kind = m.group(1)
    i = int(m.group(2)) - 1
    if not 0 <= i < n:
        raise IndexError(f"variable index {i + 1} out of range for {n} dimensions")

    x = OperatorElement.x(i, n)
    xinv = OperatorElement.x(i, n, -1)
    r = OperatorElement.r(i, n)
    d = OperatorElement.d(i, n)
    mu = _mu(i, n)

    if kind == "D":
        return _dunkl(i, n)
    if kind == "H":
        dk = build(f"D{i + 1}", n)
        return -half * dk * dk + half * x * x
    if kind == "A+":
        return INV_SQRT2 * (x - build(f"D{i + 1}", n))
    if kind == "A-":
        return INV_SQRT2 * (x + build(f"D{i + 1}", n))
    if kind == "A0":
        return build(f"H{i + 1}", n)
    if kind == "B+":
        return build(f"A+{i + 1}", n) ** 2 / 2
    if kind == "B-":
        return build(f"A-{i + 1}", n) ** 2 / 2
    if kind == "Htilde":
        return half * (-d * d + x * x + mu ** 2 * xinv * xinv
                       - mu * xinv * xinv * r)
    if kind == "Atilde+":
        return INV_SQRT2 * (x - d + mu * xinv * r)
    if kind == "Atilde-":
        return INV_SQRT2 * (x + d - mu * xinv * r)
    if kind == "Qc":
        return (build(f"Atilde-{i + 1}", n) - build(f"Atilde+{i + 1}", n)) * r / 2
    if kind == "Sc":
        return r * (build(f"Atilde+{i + 1}", n)
                    + build(f"Atilde-{i + 1}", n)) / (2 * I)
    if kind == "Hc":
        return build(f"Qc{i + 1}", n) ** 2
    if kind == "Kc":
        return build(f"Sc{i + 1}", n) ** 2
    if kind == "Dc":
        return -half * anticommutator(build(f"Qc{i + 1}", n),
                                      build(f"Sc{i + 1}", n))
    if kind == "Q":
        return INV_SQRT2 * (d * r + x - mu * xinv)
    if kind == "H_susy":
        return build(f"Q{i + 1}", n) ** 2
    raise KeyError(f"unknown operator name: {name!r}")


@lru_cache(maxsize=None)
def build(name: OperatorName, dims: int) -> OperatorElement:
    """Construct a registry operator for the given dimension."""
    if dims < 1:
        raise ValueError("dimension must be at least 1")
    return _build(name, dims)


def names(dims: int) -> Tuple[OperatorName, ...]:
    """All registry names valid at this dimension, longest first (so the
    list doubles as a greedy lexer table)."""
    if dims < 1:
        raise ValueError("dimension must be at least 1")
    out = ["H", "Q_susy", "H_susy"]
    if dims == 2:
        out += ["J+", "J-", "J0", "C", "P", "K+", "K-", "K0", "K1", "K2",
                "E0", "E1", "E2", "F+", "F-", "Htilde"]
    for i in range(1, dims + 1):
        out += [f"D{i}", f"H{i}", f"A+{i}", f"A-{i}", f"A0{i}",
                f"B+{i}", f"B-{i}", f"Htilde{i}", f"Atilde+{i}", f"Atilde-{i}",
                f"Qc{i}", f"Sc{i}", f"Hc{i}", f"Kc{i}", f"Dc{i}",
                f"Q{i}", f"H_susy{i}"]
    return tuple(sorted(out, key=lambda s: (-len(s), s)))


def build_generic_supercharge(vw: SuperpotentialPair) -> OperatorElement:
    """The reflection supercharge Q = (1/sqrt2)((d + V)R + W) on one
    variable."""
    v_op = from_laurent(vw.V)
    w_op = from_laurent(vw.W)
    d = OperatorElement.d(0, 1)
    r = OperatorElement.r(0, 1)
    return INV_SQRT2 * ((d + v_op) * r + w_op)

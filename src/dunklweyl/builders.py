"""Registry of named operators of the Dunkl oscillator model.

Every operator is parametric in the dimension and the deformation parameters
mu_i.  Composite operators (ladder squares, Schwinger bilinears, Hahn and
superalgebra generators) are assembled by multiplying previously built
parts, never hand-expanded, so the registry itself exercises the algebra.

Every name is declared once, as a key of one of three constructor tables:
_GLOBAL (valid in any dimension), _TWO_VARIABLE (valid only when dims is
2) and _PER_VARIABLE (a kind such as "A+", named "A+1" .. "A+{dims}").
The tables hold the raw generators x, d and R of each variable and the
scalars i, sqrt2 and mu<k> (times the identity) as well, so names() is
the whole name surface of the expression language, which lexes from it
and resolves every name through build().  Adding an operator is adding
one entry.
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Callable, Dict, Tuple

from dunklweyl.opalg import OperatorElement, anticommutator, commutator
from dunklweyl.scalars import I, INV_SQRT2, SQRT2, Scalar

OperatorName = str


class _Var:
    """The generators of variable i (0-based) in n dimensions, handed to
    each per-variable constructor; op(kind) is the registry operator of
    that kind in the same variable."""

    def __init__(self, i: int, n: int) -> None:
        self.i, self.n = i, n
        self.x = OperatorElement.x(i, n)
        self.xinv = OperatorElement.x(i, n, -1)
        self.r = OperatorElement.r(i, n)
        self.d = OperatorElement.d(i, n)
        self.mu = Scalar.parameter(i, n)
        self.half = Scalar.constant(1, n) / 2

    def op(self, kind: str) -> OperatorElement:
        return build(f"{kind}{self.i + 1}", self.n)


def _sum_of(kind: str) -> Callable[[int], OperatorElement]:
    """The constructor of sum_i {kind}{i}."""
    return lambda n: sum((build(f"{kind}{i + 1}", n) for i in range(1, n)),
                         build(f"{kind}1", n))


def _q_susy(n: int) -> OperatorElement:
    total = OperatorElement.zero(n)
    for i in range(n):
        tail = OperatorElement.identity(n)
        for j in range(i + 1, n):
            tail = tail * OperatorElement.r(j, n)
        total = total + build(f"Q{i + 1}", n) * tail
    return total


def _casimir(n: int) -> OperatorElement:
    j0 = build("J0", n)
    mu1, mu2 = Scalar.parameter(0, n), Scalar.parameter(1, n)
    refl = mu1 * OperatorElement.r(0, n) + mu2 * OperatorElement.r(1, n)
    return (j0 * j0
            + 2 * anticommutator(build("J+", n), build("J-", n))
            + 2 * refl
            + 4 * mu1 * mu2 * build("P", n))


def _htilde(n: int) -> OperatorElement:
    # The fully gauged two-variable oscillator, entered from its explicit
    # display; equality with Htilde1 + Htilde2 is a verified relation,
    # not a definition.
    half = Scalar.constant(1, n) / 2
    mu1, mu2 = Scalar.parameter(0, n), Scalar.parameter(1, n)
    x1sq = OperatorElement.x(0, n, 2)
    x2sq = OperatorElement.x(1, n, 2)
    x1m2 = OperatorElement.x(0, n, -2)
    x2m2 = OperatorElement.x(1, n, -2)
    return (-half * (OperatorElement.d(0, n, 2) + OperatorElement.d(1, n, 2))
            + half * (x1sq + x2sq + mu1 ** 2 * x1m2 + mu2 ** 2 * x2m2)
            - half * mu1 * x1m2 * OperatorElement.r(0, n)
            - half * mu2 * x2m2 * OperatorElement.r(1, n))


def _hamiltonian(v: _Var) -> OperatorElement:
    dk = v.op("D")
    return -v.half * dk * dk + v.half * v.x * v.x


# Names valid in every dimension.
_GLOBAL: Dict[OperatorName, Callable[[int], OperatorElement]] = {
    "H": _sum_of("H"),
    "Q_susy": _q_susy,
    "H_susy": _sum_of("H_susy"),
    "i": lambda n: I * OperatorElement.identity(n),
    "sqrt2": lambda n: SQRT2 * OperatorElement.identity(n),
}

# Names valid in two dimensions only.
_TWO_VARIABLE: Dict[OperatorName, Callable[[int], OperatorElement]] = {
    "J+": lambda n: build("A+1", n) * build("A-2", n),
    "J-": lambda n: build("A-1", n) * build("A+2", n),
    "J0": lambda n: build("H1", n) - build("H2", n),
    "C": _casimir,
    "P": lambda n: OperatorElement.r(0, n) * OperatorElement.r(1, n),
    "K+": lambda n: build("J+", n) ** 2,
    "K-": lambda n: build("J-", n) ** 2,
    "K0": lambda n: build("J0", n) / 8,
    "K1": lambda n: (build("K+", n) + build("K-", n)
                     + build("J0", n) ** 2 / 2) / 8,
    "K2": lambda n: commutator(build("K0", n), build("K1", n)),
    "E0": lambda n: build("J0", n) / 8,
    "E1": lambda n: (build("J+", n) ** 2 + build("J-", n) ** 2
                     + build("J0", n) ** 2 / 2) / 8,
    "E2": lambda n: (build("J+", n) ** 2 - build("J-", n) ** 2) / 16,
    "F+": lambda n: build("J+", n),
    "F-": lambda n: build("J-", n),
    "Htilde": _htilde,
    # The central parts of the cubic and Hahn structure constants; H is
    # central, so these are constants over the center.
    "gamma1": lambda n: (3 - build("H", n) * build("H", n)
                         - 2 * build("mu1", n) ** 2
                         - 2 * build("mu2", n) ** 2),
    "gamma2": lambda n: 2 * build("mu1", n) ** 2 - 2 * build("mu2", n) ** 2,
    "omega1": lambda n: build("gamma1", n) / 2,
    "omega2": lambda n: build("gamma2", n) / 2,
    "delta": lambda n: (build("H", n) * build("H", n) - 1) / 2,
    # The gauge-frame symmetry generators of the supersymmetric oscillator.
    "Jtilde+": lambda n: build("Atilde+1", n) * build("Atilde-2", n),
    "Jtilde-": lambda n: build("Atilde-1", n) * build("Atilde+2", n),
    "Jtilde0": lambda n: build("Htilde1", n) - build("Htilde2", n),
    "Ktilde+": lambda n: build("Jtilde+", n) * build("Jtilde+", n),
    "Ktilde-": lambda n: build("Jtilde-", n) * build("Jtilde-", n),
}

# Kinds named {kind}{i} for each variable i = 1..dims.
_PER_VARIABLE: Dict[str, Callable[[_Var], OperatorElement]] = {
    "x": lambda v: v.x,
    "d": lambda v: v.d,
    "R": lambda v: v.r,
    "mu": lambda v: v.mu * OperatorElement.identity(v.n),
    "D": lambda v: v.d + v.mu * v.xinv * (1 - v.r),
    "H": _hamiltonian,
    "A+": lambda v: INV_SQRT2 * (v.x - v.op("D")),
    "A-": lambda v: INV_SQRT2 * (v.x + v.op("D")),
    "A0": lambda v: v.op("H"),
    "B+": lambda v: v.op("A+") ** 2 / 2,
    "B-": lambda v: v.op("A-") ** 2 / 2,
    "Htilde": lambda v: v.half * (-v.d * v.d + v.x * v.x
                                  + v.mu ** 2 * v.xinv * v.xinv
                                  - v.mu * v.xinv * v.xinv * v.r),
    "Atilde+": lambda v: INV_SQRT2 * (v.x - v.d + v.mu * v.xinv * v.r),
    "Atilde-": lambda v: INV_SQRT2 * (v.x + v.d - v.mu * v.xinv * v.r),
    "Qc": lambda v: (v.op("Atilde-") - v.op("Atilde+")) * v.r / 2,
    "Sc": lambda v: v.r * (v.op("Atilde+") + v.op("Atilde-")) / (2 * I),
    "Hc": lambda v: v.op("Qc") ** 2,
    "Kc": lambda v: v.op("Sc") ** 2,
    "Dc": lambda v: -v.half * anticommutator(v.op("Qc"), v.op("Sc")),
    "Q": lambda v: INV_SQRT2 * (v.d * v.r + v.x - v.mu * v.xinv),
    "H_susy": lambda v: v.op("Q") ** 2,
}


def _build(name: OperatorName, dims: int) -> OperatorElement:
    if name in _GLOBAL:
        return _GLOBAL[name](dims)
    if dims == 2 and name in _TWO_VARIABLE:
        return _TWO_VARIABLE[name](dims)
    m = re.fullmatch(r"(\D.*?)([1-9]\d*)", name)
    if m is None or m.group(1) not in _PER_VARIABLE:
        raise KeyError(f"unknown operator name: {name!r}")
    i = int(m.group(2)) - 1
    if not 0 <= i < dims:
        raise IndexError(
            f"variable index {i + 1} out of range for {dims} dimensions")
    return _PER_VARIABLE[m.group(1)](_Var(i, dims))


@lru_cache(maxsize=None)
def build(name: OperatorName, dims: int) -> OperatorElement:
    """Construct a registry operator for the given dimension."""
    if dims < 1:
        raise ValueError("dimension must be at least 1")
    return _build(name, dims)


def names(dims: int) -> Tuple[OperatorName, ...]:
    """All registry names valid at this dimension, longest first: the
    whole name surface of the expression language."""
    if dims < 1:
        raise ValueError("dimension must be at least 1")
    out = list(_GLOBAL)
    if dims == 2:
        out += list(_TWO_VARIABLE)
    out += [f"{kind}{i}" for i in range(1, dims + 1) for kind in _PER_VARIABLE]
    return tuple(sorted(out, key=lambda s: (-len(s), s)))


"""Verified identity families for the deformed oscillator operator algebra.

Each family bundles the operator identities characterizing one layer of
the model's symmetry structure.  A check constructs both sides of every
identity from the builder registry, reduces the difference to normal
form, and passes exactly when each residual is the zero element.

Two modes, chosen by whether check() is given deformation values:

* ``parametric`` keeps the deformation parameters symbolic, so a passing
  residual is a proof of the identity for all parameter values.
* ``numeric`` substitutes exact rational parameter values into every
  constituent operator before composing, then verifies the specialized
  identity.  This is cheaper and doubles as an independent cross-check
  of the parametric run.

Families are declared once each, by the @_family decorator on the
function that builds their identities; the decorators run in reporting
order and fill REGISTRY (id, description, dimension, perturbability),
from which FAMILIES, check() and the command-line listing all read.
A family function takes a source s: s.op(name) gives the registry
operator of that name (R1 as much as J+), and a vanishing bracket is
declared by its pair of names, _zero(s, "[]", "H", "J+") for
"[H, J+] = 0", which writes the label from the same two names.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .builders import SuperpotentialPair, build, build_generic_supercharge
from .opalg import (
    LaurentPolynomial,
    OperatorElement,
    anticommutator,
    commutator,
    from_laurent,
)
from .scalars import I, INV_SQRT2, BaseLike, BaseNumber, Scalar


@dataclass(frozen=True)
class IdentityResult:
    """Outcome of one identity: its label and residual."""

    label: str
    residual: OperatorElement

    @property
    def residual_terms(self) -> int:
        return len(self.residual)

    @property
    def passed(self) -> bool:
        return self.residual.is_zero()


@dataclass(frozen=True)
class RelationReport:
    """Outcome of one family check."""

    family: str
    mode: str
    identities: Tuple[IdentityResult, ...]
    wall_time: float

    @property
    def passed(self) -> bool:
        return all(ir.passed for ir in self.identities)


class _Source:
    """Operator supplier for one check run.

    op(name) gives the registry operator called name, the reflection R1
    as much as J+, made once per source.  Numeric mode substitutes the
    deformation values into every registry operator as it is first
    pulled, before any composition happens; products of substituted
    operators equal substituted products, so this is the cheap direction.
    Values are reused cyclically when a family needs more of them than
    were given.  A family that picks its own dimensions gets dims None,
    and the values as given, to make its own sources from.  perturb asks
    a perturbable family for its negative control.
    """

    __slots__ = ("dims", "values", "perturb", "_ops")

    def __init__(self, dims: Optional[int],
                 values: Optional[Sequence[BaseNumber]],
                 perturb: bool = False):
        self.dims = dims
        if values is not None and dims is not None:
            values = tuple(values[k % len(values)] for k in range(dims))
        self.values = values
        self.perturb = perturb
        self._ops: Dict[str, OperatorElement] = {}

    def op(self, name: str) -> OperatorElement:
        built = self._ops.get(name)
        if built is None:
            built = build(name, self.dims)
            if self.values is not None:
                built = built.substitute_params(self.values)
            self._ops[name] = built
        return built

    def mu(self, index: int) -> Scalar:
        if self.values is not None:
            return Scalar.constant(self.values[index], self.dims)
        return Scalar.parameter(index, self.dims)

    def x(self, index: int, power: int = 1) -> OperatorElement:
        return OperatorElement.x(index, self.dims, power)

    def d(self, index: int, power: int = 1) -> OperatorElement:
        return OperatorElement.d(index, self.dims, power)

    def one(self) -> OperatorElement:
        return OperatorElement.identity(self.dims)


Identity = Tuple[str, OperatorElement]
_FamilyFunc = Callable[[_Source], List[Identity]]


@dataclass(frozen=True)
class Family:
    """A registered identity family.  dims None: the family picks its own
    dimensions.  A perturbable family can break one structure constant on
    purpose, as a negative control: a verification pipeline that cannot
    fail is not a verifier."""

    id: str
    description: str
    dims: Optional[int]
    perturbable: bool
    identities: _FamilyFunc


REGISTRY: Dict[str, Family] = {}


def _family(id: str, description: str, dims: Optional[int] = 2,
            perturbable: bool = False
            ) -> Callable[[_FamilyFunc], _FamilyFunc]:
    """Register the decorated function as a family; decoration order is
    reporting order."""
    def register(func: _FamilyFunc) -> _FamilyFunc:
        REGISTRY[id] = Family(id, description, dims, perturbable, func)
        return func
    return register


def _zero(s: _Source, bracket: str, a: str, b: str) -> Identity:
    """The identity [a, b] = 0 (bracket "[]") or {a, b} = 0 (bracket
    "{}") between the operators that s.op calls a and b, labelled from
    the same two names."""
    form = commutator if bracket == "[]" else anticommutator
    return f"{bracket[0]}{a}, {b}{bracket[1]} = 0", form(s.op(a), s.op(b))


def _sl12(h: str, up: str, down: str) -> _FamilyFunc:
    """The sl12-type relations of the ladder kinds (h, up, down) and the
    reflection of each variable."""
    def identities(s: _Source) -> List[Identity]:
        out: List[Identity] = []
        for i in (1, 2):
            a0, ap, am, r = f"{h}{i}", f"{up}{i}", f"{down}{i}", f"R{i}"
            out += [
                (f"[{a0}, {ap}] = {ap}",
                 commutator(s.op(a0), s.op(ap)) - s.op(ap)),
                (f"[{a0}, {am}] = -{am}",
                 commutator(s.op(a0), s.op(am)) + s.op(am)),
                (f"{{{ap}, {am}}} = 2*{a0}",
                 anticommutator(s.op(ap), s.op(am)) - 2 * s.op(a0)),
                _zero(s, "{}", ap, r),
                _zero(s, "{}", am, r),
                _zero(s, "[]", a0, r),
            ]
        return out
    return identities


_family("sl12", "ladder/reflection relations of the deformed oscillator")(
    _sl12("A0", "A+", "A-"))


@_family("su11", "commutation relations of the quadratic ladder operators")
def _fam_su11(s: _Source) -> List[Identity]:
    out: List[Identity] = []
    for i in (1, 2):
        a0, bp, bm = s.op(f"A0{i}"), s.op(f"B+{i}"), s.op(f"B-{i}")
        out.append((f"[B-{i}, B+{i}] = A0{i}", commutator(bm, bp) - a0))
        out.append((f"[A0{i}, B+{i}] = 2*B+{i}",
                    commutator(a0, bp) - 2 * bp))
        out.append((f"[A0{i}, B-{i}] = -2*B-{i}",
                    commutator(a0, bm) + 2 * bm))
    return out


@_family("osp12-grading", "reflection grading and mixed even/odd brackets")
def _fam_osp12_grading(s: _Source) -> List[Identity]:
    out: List[Identity] = []
    for i in (1, 2):
        ap, am = s.op(f"A+{i}"), s.op(f"A-{i}")
        bp, bm = s.op(f"B+{i}"), s.op(f"B-{i}")
        out += [_zero(s, "[]", f"B{e}{i}", f"R{i}") for e in "+-"]
        out.append((f"[B+{i}, A-{i}] = -A+{i}", commutator(bp, am) + ap))
        out.append((f"[B-{i}, A+{i}] = A-{i}", commutator(bm, ap) - am))
    return out


@_family("sd2",
         "defining relations of the two-parameter symmetry algebra",
         perturbable=True)
def _fam_sd2(s: _Source) -> List[Identity]:
    jp, jm, j0, h = s.op("J+"), s.op("J-"), s.op("J0"), s.op("H")
    r1, r2 = s.op("R1"), s.op("R2")
    m1, m2 = s.mu(0), s.mu(1)
    # Negative control: break the [J0, J+] structure constant.  The
    # perturbed residual is J+ itself, nonzero even with both
    # deformation parameters set to zero.
    up = 3 if s.perturb else 2
    out: List[Identity] = [
        (f"[J0, J+] = {up}*J+", commutator(j0, jp) - up * jp),
        ("[J0, J-] = -2*J-", commutator(j0, jm) + 2 * jm),
    ]
    out += [_zero(s, "{}", a, r) for a in ("J+", "J-") for r in ("R1", "R2")]
    out += [_zero(s, "[]", "J0", r) for r in ("R1", "R2")]
    rhs = j0 + j0 * (m1 * r1 + m2 * r2) - h * (m1 * r1 - m2 * r2)
    out.append(("[J+, J-] = J0 + J0*(mu1*R1 + mu2*R2) - H*(mu1*R1 - mu2*R2)",
                commutator(jp, jm) - rhs))
    return out


@_family("sd2-conserved", "symmetry generators commute with the Hamiltonian")
def _fam_sd2_conserved(s: _Source) -> List[Identity]:
    return [_zero(s, "[]", "H", b) for b in ("J+", "J-", "J0", "R1", "R2")]


@_family("casimir-sd2", "Casimir value H^2 - 1; centrality of C and R1*R2")
def _fam_casimir_sd2(s: _Source) -> List[Identity]:
    h = s.op("H")
    return [
        ("C = H^2 - 1", s.op("C") - (h * h - s.one())),
        *(_zero(s, "[]", a, b) for a in ("C", "P") for b in ("J+", "J-", "J0")),
        _zero(s, "[]", "P", "H"),
    ]


_family("gauge-sl12", "gauge-transformed ladder operators satisfy sl12")(
    _sl12("Htilde", "Atilde+", "Atilde-"))


@_family("conformal",
         "translation/dilation/special generators and H = Hc + Kc")
def _fam_conformal(s: _Source) -> List[Identity]:
    half = Fraction(1, 2)
    out: List[Identity] = []
    for i in (1, 2):
        j = i - 1
        qc, sc = s.op(f"Qc{i}"), s.op(f"Sc{i}")
        hc, kc, dc = s.op(f"Hc{i}"), s.op(f"Kc{i}"), s.op(f"Dc{i}")
        mu = s.mu(j)
        x, xinv, d, r = s.x(j), s.x(j, -1), s.d(j), s.op(f"R{i}")
        # Explicit displays of the five generators.
        out.append((f"Qc{i} = (1/sqrt2)*(d{i}*R{i} - mu{i}*x{i}^-1)",
                    qc - INV_SQRT2 * (d * r - mu * xinv)))
        out.append((f"Sc{i} = (i/sqrt2)*x{i}*R{i}",
                    sc - (I * INV_SQRT2) * (x * r)))
        out.append((f"Hc{i} = (1/2)*(-d{i}^2 + mu{i}^2*x{i}^-2"
                    f" - mu{i}*x{i}^-2*R{i})",
                    hc - (-half * s.d(j, 2)
                          + half * mu * mu * s.x(j, -2)
                          - half * mu * s.x(j, -2) * r)))
        out.append((f"Kc{i} = (1/2)*x{i}^2", kc - half * s.x(j, 2)))
        out.append((f"Dc{i} = (i/2)*(x{i}*d{i} + 1/2)",
                    dc - (I * half) * (x * d + half * s.one())))
        # so(2,1)-type closure of the conformal generators.
        out.append((f"[Hc{i}, Dc{i}] = i*Hc{i}",
                    commutator(hc, dc) - I * hc))
        out.append((f"[Hc{i}, Kc{i}] = 2*i*Dc{i}",
                    commutator(hc, kc) - (2 * I) * dc))
        out.append((f"[Dc{i}, Kc{i}] = i*Kc{i}",
                    commutator(dc, kc) - I * kc))
        # Reflection block.
        out += [_zero(s, "{}", f"{k}{i}", f"R{i}") for k in ("Qc", "Sc")]
        out += [_zero(s, "[]", f"{k}{i}", f"R{i}") for k in ("Hc", "Kc", "Dc")]
        # The gauged Hamiltonian splits into kinetic plus confining parts.
        out.append((f"Htilde{i} = Hc{i} + Kc{i}",
                    s.op(f"Htilde{i}") - (hc + kc)))
    return out


@_family("gauge-2d", "2D gauged Hamiltonian equals the sum of 1D ones")
def _fam_gauge_2d(s: _Source) -> List[Identity]:
    return [("Htilde = Htilde1 + Htilde2",
             s.op("Htilde") - (s.op("Htilde1") + s.op("Htilde2")))]


@_family("k-reflection",
         "squared symmetry generators commute with reflections")
def _fam_k_reflection(s: _Source) -> List[Identity]:
    return [_zero(s, "[]", k, r) for k in ("K+", "K-") for r in ("R1", "R2")]


def _structure_scalars(s: _Source) -> Tuple[OperatorElement, OperatorElement]:
    """The reflection-dressed central coefficients of the cubic closure,
    gamma1 + 2*mu1*R1 + 2*mu2*R2 and gamma2 + 2*mu2*R2 - 2*mu1*R1.

    H is central (checked by sd2-conserved before this family runs), so
    gamma1 and gamma2 are honest structure "constants" over the center.
    """
    h, one = s.op("H"), s.one()
    r1, r2 = s.op("R1"), s.op("R2")
    m1, m2 = s.mu(0), s.mu(1)
    g1 = 3 * one - h * h - (2 * m1 * m1 + 2 * m2 * m2) * one
    g2 = (2 * m1 * m1 - 2 * m2 * m2) * one
    return g1 + 2 * m1 * r1 + 2 * m2 * r2, g2 + 2 * m2 * r2 - 2 * m1 * r1


def _hahn_right_side(s: _Source, a0: OperatorElement,
                     a1: OperatorElement) -> OperatorElement:
    """{a0, a1} + (1/8)*a0*(gamma1 + ...) + (1/64)*H*(gamma2 + ...): the
    right side of [K1, K2] with (a0, a1) = (K0, K1), and of [E1, E2] with
    (E0, E1), whose label writes it with omega = gamma/2."""
    c1, c2 = _structure_scalars(s)
    return (anticommutator(a0, a1)
            + Fraction(1, 8) * a0 * c1
            + Fraction(1, 64) * s.op("H") * c2)


@_family("cubic", "cubic closure of J0 with K+ = J+^2 and K- = J-^2")
def _fam_cubic(s: _Source) -> List[Identity]:
    j0, kp, km = s.op("J0"), s.op("K+"), s.op("K-")
    c1, c2 = _structure_scalars(s)
    return [
        ("[J0, K+] = 4*K+", commutator(j0, kp) - 4 * kp),
        ("[J0, K-] = -4*K-", commutator(j0, km) + 4 * km),
        ("[K-, K+] = J0^3 + J0*(gamma1 + 2*mu1*R1 + 2*mu2*R2)"
         " + H*(gamma2 + 2*mu2*R2 - 2*mu1*R1)",
         commutator(km, kp) - (j0 ** 3 + j0 * c1 + s.op("H") * c2)),
    ]


@_family("hahn",
         "Hahn-algebra presentation of the rescaled generators",
         perturbable=True)
def _fam_hahn(s: _Source) -> List[Identity]:
    k0, k1, k2 = s.op("K0"), s.op("K1"), s.op("K2")
    # Negative control: break the 1/4 coefficient in [K2, K0].
    frac = Fraction(1, 3) if s.perturb else Fraction(1, 4)
    return [
        ("[K0, K1] = K2", commutator(k0, k1) - k2),
        ("[K1, K2] = {K0, K1} + (1/8)*K0*(gamma1 + 2*mu1*R1 + 2*mu2*R2)"
         " + (1/64)*H*(gamma2 + 2*mu2*R2 - 2*mu1*R1)",
         commutator(k1, k2) - _hahn_right_side(s, k0, k1)),
        (f"[K2, K0] = K0^2 - {frac}*K1",
         commutator(k2, k0) - (k0 * k0 - frac * k1)),
    ]


@_family("super-odd", "anticommutators of the odd superalgebra generators")
def _fam_super_odd(s: _Source) -> List[Identity]:
    e0, e1, e2 = s.op("E0"), s.op("E1"), s.op("E2")
    fp, fm = s.op("F+"), s.op("F-")
    h = s.op("H")
    r1, r2 = s.op("R1"), s.op("R2")
    m1, m2 = s.mu(0), s.mu(1)
    delta = (h * h - s.one()) / 2
    e0sq = 32 * e0 * e0
    return [
        ("{F+, F+} = 8*E1 + 16*E2 - 32*E0^2",
         anticommutator(fp, fp) - (8 * e1 + 16 * e2 - e0sq)),
        ("{F-, F-} = 8*E1 - 16*E2 - 32*E0^2",
         anticommutator(fm, fm) - (8 * e1 - 16 * e2 - e0sq)),
        ("{F+, F-} = -32*E0^2 - mu1*R1 - mu2*R2 - 2*mu1*mu2*R1*R2 + delta",
         anticommutator(fp, fm)
         - (-e0sq - m1 * r1 - m2 * r2 - 2 * (m1 * m2) * (r1 * r2) + delta)),
    ]


@_family("super-evenodd", "mixed even/odd superalgebra relations")
def _fam_super_evenodd(s: _Source) -> List[Identity]:
    e0, e1, e2 = s.op("E0"), s.op("E1"), s.op("E2")
    fp, fm = s.op("F+"), s.op("F-")
    refl = s.mu(0) * s.op("R1") + s.mu(1) * s.op("R2")
    quarter, eighth = Fraction(1, 4), Fraction(1, 8)
    return [
        ("[E0, F+] = (1/4)*F+", commutator(e0, fp) - quarter * fp),
        ("[E0, F-] = -(1/4)*F-", commutator(e0, fm) + quarter * fm),
        ("[E1, F+] = {E0, F+} - {E0, F-} - (1/4)*F-*(mu1*R1 + mu2*R2)",
         commutator(e1, fp)
         - (anticommutator(e0, fp) - anticommutator(e0, fm)
            - quarter * (fm * refl))),
        # The anticommutator difference does not alternate between the
        # two branches; only the trailing F factor swaps.
        ("[E1, F-] = {E0, F+} - {E0, F-} - (1/4)*F+*(mu1*R1 + mu2*R2)",
         commutator(e1, fm)
         - (anticommutator(e0, fp) - anticommutator(e0, fm)
            - quarter * (fp * refl))),
        ("[E2, F+] = (1/2)*{E0, F-} + (1/8)*F-*(mu1*R1 + mu2*R2)",
         commutator(e2, fp)
         - (Fraction(1, 2) * anticommutator(e0, fm)
            + eighth * (fm * refl))),
        ("[E2, F-] = (1/2)*{E0, F+} - (1/8)*F+*(mu1*R1 + mu2*R2)",
         commutator(e2, fm)
         - (Fraction(1, 2) * anticommutator(e0, fp)
            - eighth * (fp * refl))),
    ]


@_family("super-even", "even sector reproduces the Hahn presentation")
def _fam_super_even(s: _Source) -> List[Identity]:
    e0, e1, e2 = s.op("E0"), s.op("E1"), s.op("E2")
    return [
        ("[E0, E1] = E2", commutator(e0, e1) - e2),
        ("[E1, E2] = {E0, E1} + (1/4)*E0*(omega1 + mu1*R1 + mu2*R2)"
         " + (1/32)*H*(omega2 + mu2*R2 - mu1*R1)",
         commutator(e1, e2) - _hahn_right_side(s, e0, e1)),
        ("[E2, E0] = E0^2 - (1/4)*E1",
         commutator(e2, e0) - (e0 * e0 - Fraction(1, 4) * e1)),
        ("E1 = K1", e1 - s.op("K1")),
        ("E2 = K2", e2 - s.op("K2")),
    ]


@_family("super-casimir", "C is central for the superalgebra generators")
def _fam_super_casimir(s: _Source) -> List[Identity]:
    return [_zero(s, "[]", "C", b) for b in ("E0", "E1", "E2", "F+", "F-")]


@_family("susy-defining", "H = (1/2){Q, adjoint(Q)} with Q conserved", dims=1)
def _fam_susy_defining(s: _Source) -> List[Identity]:
    q, h = s.op("Q_susy"), s.op("H_susy")
    qdag = q.adjoint()
    return [
        ("H_susy = (1/2)*{Q_susy, adjoint(Q_susy)}",
         h - anticommutator(q, qdag) / 2),
        _zero(s, "[]", "Q_susy", "H_susy"),
        ("[adjoint(Q_susy), H_susy] = 0", commutator(qdag, h)),
    ]


@_family("susy-1d", "1D factorization H = Q^2 with Q symmetric", dims=1)
def _fam_susy_1d(s: _Source) -> List[Identity]:
    q, hs = s.op("Q1"), s.op("H_susy1")
    return [
        ("H_susy1 = Q1^2", hs - q * q),
        ("adjoint(Q1) = Q1", q.adjoint() - q),
        ("H_susy1 = Htilde1 - (1/2)*R1 - mu1",
         hs - (s.op("Htilde1") - s.op("R1") / 2 - s.mu(0) * s.one())),
    ]


def _generic_samples() -> List[Tuple[str, SuperpotentialPair]]:
    mu = Scalar.parameter(0, 1)
    zero = LaurentPolynomial.zero(1)
    x = LaurentPolynomial.monomial((1,))
    return [
        ("V=0, W=x - mu*x^-1",
         SuperpotentialPair(zero, x - mu * LaurentPolynomial.monomial((-1,)))),
        ("V=0, W=0", SuperpotentialPair(zero, zero)),
        ("V=x^2, W=x",
         SuperpotentialPair(LaurentPolynomial.monomial((2,)), x)),
        ("V=mu*x^-2 + x^4, W=x^3 - 2*mu*x^-1",
         SuperpotentialPair(
             mu * LaurentPolynomial.monomial((-2,))
             + LaurentPolynomial.monomial((4,)),
             LaurentPolynomial.monomial((3,))
             - (2 * mu) * LaurentPolynomial.monomial((-1,)))),
    ]


@_family("susy-generic",
         "factorization for sampled superpotentials (V, W)", dims=1)
def _fam_susy_generic(s: _Source) -> List[Identity]:
    half = Fraction(1, 2)
    d, r = s.d(0), s.op("R1")

    def sub(a: OperatorElement) -> OperatorElement:
        return a.substitute_params(s.values) if s.values is not None else a

    out: List[Identity] = []
    for tag, vw in _generic_samples():
        q = sub(build_generic_supercharge(vw))
        ov = sub(from_laurent(vw.V))
        ow = sub(from_laurent(vw.W))
        ovp = sub(from_laurent(vw.V.diff(0)))
        owp = sub(from_laurent(vw.W.diff(0)))
        rhs = half * (-d * d + ov * ov + ow * ow + ovp - owp * r)
        out.append((f"Q^2 = (1/2)*(-d^2 + V^2 + W^2 + V' - W'*R) for {tag}",
                    q * q - rhs))
    model = _generic_samples()[0][1]
    out.append(("Q(V=0, W=x - mu*x^-1) = Q1",
                sub(build_generic_supercharge(model)) - s.op("Q1")))
    return out


@_family("susy-nd",
         "n-dimensional supercharge squares to the Hamiltonian", dims=None)
def _fam_susy_nd(s: _Source) -> List[Identity]:
    out: List[Identity] = []
    for n in (1, 2, 3):
        sn = _Source(n, s.values)
        q, h = sn.op("Q_susy"), sn.op("H_susy")
        out.append((f"n={n}: Q_susy^2 = H_susy", q * q - h))
        if n == 2:
            out.append(("n=2: Q_susy = Q1*R2 + Q2",
                        q - (sn.op("Q1") * sn.op("R2") + sn.op("Q2"))))
        if n >= 2:
            label, residual = _zero(sn, "[]", "Q_susy", "H_susy")
            out.append((f"n={n}: {label}", residual))
    return out


@_family("susy-k-invariance",
         "gauge-frame squared generators commute with "
         "the supersymmetric Hamiltonian")
def _fam_susy_k_invariance(s: _Source) -> List[Identity]:
    # The squared symmetry generators conserved by the supersymmetric
    # Hamiltonian are the gauge-frame ones, assembled here from gauged
    # ladder products; the ungauged K+ and K- do not commute with it.
    hs = s.op("H_susy")
    jtp = s.op("Atilde+1") * s.op("Atilde-2")
    jtm = s.op("Atilde-1") * s.op("Atilde+2")
    jt0 = s.op("Htilde1") - s.op("Htilde2")
    return [
        ("[Ktilde+, H_susy] = 0", commutator(jtp * jtp, hs)),
        ("[Ktilde-, H_susy] = 0", commutator(jtm * jtm, hs)),
        ("[Jtilde0^2, H_susy] = 0", commutator(jt0 * jt0, hs)),
    ]


FAMILIES: Tuple[str, ...] = tuple(REGISTRY)


def check(
    family: str,
    *,
    mu_values: Optional[Sequence[BaseLike]] = None,
    perturb: bool = False,
) -> RelationReport:
    """Check one family and report per-identity residuals.

    Parametric without mu_values, numeric with them; values are reused
    cyclically if the family needs more than were given.  perturb is
    accepted only for perturbable families and flips one structure
    constant as a negative control.
    """
    fam = REGISTRY.get(family)
    if fam is None:
        raise KeyError(f"unknown relation family: {family!r}")
    if perturb and not fam.perturbable:
        raise ValueError(f"family {family!r} has no perturbed variant")

    values = None
    if mu_values is not None:
        if not mu_values:
            raise ValueError(
                "numeric mode needs at least one deformation value")
        values = tuple(BaseNumber(v) for v in mu_values)
    start = time.perf_counter()
    identities = tuple(IdentityResult(label, residual) for label, residual
                       in fam.identities(_Source(fam.dims, values, perturb)))
    return RelationReport(
        family=family,
        mode="parametric" if values is None else "numeric",
        identities=identities,
        wall_time=time.perf_counter() - start,
    )


def check_all(
    *,
    mu_values: Optional[Sequence[BaseLike]] = None,
) -> List[RelationReport]:
    """Check every family in registry order."""
    return [check(fid, mu_values=mu_values) for fid in FAMILIES]

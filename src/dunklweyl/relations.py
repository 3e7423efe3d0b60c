"""Verified identity families for the deformed oscillator operator algebra.

Each family bundles the operator identities characterizing one layer of
the model's symmetry structure.  An identity is one statement of the
expression language, ``lhs = rhs``, as in ``"[J0, J+] = 2*J+"``: its text
is its label, and its residual is ``lhs - rhs`` evaluated with every name
resolved to its registry operator.  A check passes exactly when each
residual is the zero element.

Two modes, chosen by whether check() is given deformation values:

* ``parametric`` keeps the deformation parameters symbolic, so a passing
  residual is a proof of the identity for all parameter values.
* ``numeric`` substitutes exact rational parameter values into every
  constituent operator before composing, then verifies the specialized
  identity.  This is cheaper and doubles as an independent cross-check
  of the parametric run.

Families are declared once each, by the @_family decorator on the
function that lists their statements; the decorators run in reporting
order and fill REGISTRY (id, description, dimension, perturbability),
from which FAMILIES, check() and the command-line listing all read.  A
family that picks its own dimensions prefixes each statement with
``n=k: ``, and the statement is checked on k variables.  A family of
sampled cases, as ``susy-generic``'s superpotentials, fills one statement
template per case from a table of texts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .builders import build
from .dsl import Program, parse_all, program, run
from .opalg import OperatorElement
from .scalars import BaseLike, BaseNumber


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


@lru_cache(maxsize=None)
def _residuals(statements: Tuple[str, ...], dims: int) -> Program:
    """``lhs - rhs`` of each statement ``lhs = rhs`` on dims variables,
    parsed together, so that a subexpression written in several
    statements is one node, and compiled once."""
    return program(parse_all(
        [f"({lhs}) - ({rhs})" for lhs, rhs in
         (statement.split(" = ") for statement in statements)], dims))


class _Source:
    """Operator supplier for one check run.

    op(name, dims) gives the registry operator called name, the
    reflection R1 as much as J+, made once per source; it resolves every
    name of the check's statements.  Numeric mode substitutes the
    deformation values into every registry operator as it is first
    pulled, before any composition happens; products of substituted
    operators equal substituted products, so this is the cheap direction.
    Values are reused cyclically when a family needs more of them than
    were given.  perturb asks a perturbable family for its negative
    control.
    """

    __slots__ = ("dims", "values", "perturb", "_ops")

    def __init__(self, dims: Optional[int],
                 values: Optional[Sequence[BaseNumber]],
                 perturb: bool = False):
        self.dims, self.values, self.perturb = dims, values, perturb
        self._ops: Dict[Tuple[str, int], OperatorElement] = {}

    def op(self, name: str, dims: int) -> OperatorElement:
        built = self._ops.get((name, dims))
        if built is None:
            built = build(name, dims)
            if self.values is not None:
                values = self.values
                built = built.substitute_params(
                    [values[k % len(values)] for k in range(dims)])
            self._ops[name, dims] = built
        return built

    def identities(self, statements: List[str]) -> List[IdentityResult]:
        """Each statement of a family with its residual; a statement is its
        own label.  The statements on one number of variables are
        evaluated together, as one program, so a subexpression written in
        several of them is evaluated once per check.  An ``n=k: `` prefix,
        taken only by a family that picks its own dimensions, puts a
        statement on k variables."""
        out: List[IdentityResult] = []
        for dims, group in groupby(
                statements,
                key=lambda text: self.dims or int(text[2:text.index(":")])):
            texts = tuple(group)
            bodies = tuple(text.split(": ")[-1] for text in texts)
            out += map(IdentityResult, texts,
                       run(_residuals(bodies, dims), dims, self.op))
        return out


_FamilyFunc = Callable[[_Source], List[str]]


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


def _sl12(h: str, up: str, down: str) -> List[str]:
    """The sl12-type relations of the ladder kinds (h, up, down) and the
    reflection of each variable."""
    return [statement for i in (1, 2) for statement in (
        f"[{h}{i}, {up}{i}] = {up}{i}",
        f"[{h}{i}, {down}{i}] = -{down}{i}",
        f"{{{up}{i}, {down}{i}}} = 2*{h}{i}",
        f"{{{up}{i}, R{i}}} = 0",
        f"{{{down}{i}, R{i}}} = 0",
        f"[{h}{i}, R{i}] = 0",
    )]


_family("sl12", "ladder/reflection relations of the deformed oscillator")(
    lambda s: _sl12("A0", "A+", "A-"))


@_family("su11", "commutation relations of the quadratic ladder operators")
def _fam_su11(s: _Source) -> List[str]:
    return [statement for i in (1, 2) for statement in (
        f"[B-{i}, B+{i}] = A0{i}",
        f"[A0{i}, B+{i}] = 2*B+{i}",
        f"[A0{i}, B-{i}] = -2*B-{i}",
    )]


@_family("osp12-grading", "reflection grading and mixed even/odd brackets")
def _fam_osp12_grading(s: _Source) -> List[str]:
    return [statement for i in (1, 2) for statement in (
        f"[B+{i}, R{i}] = 0",
        f"[B-{i}, R{i}] = 0",
        f"[B+{i}, A-{i}] = -A+{i}",
        f"[B-{i}, A+{i}] = A-{i}",
    )]


@_family("sd2",
         "defining relations of the two-parameter symmetry algebra",
         perturbable=True)
def _fam_sd2(s: _Source) -> List[str]:
    # Negative control: break the [J0, J+] structure constant.  The
    # perturbed residual is J+ itself, nonzero even with both
    # deformation parameters set to zero.
    up = 3 if s.perturb else 2
    return [
        f"[J0, J+] = {up}*J+",
        "[J0, J-] = -2*J-",
        *(f"{{{a}, {r}}} = 0" for a in ("J+", "J-") for r in ("R1", "R2")),
        "[J0, R1] = 0",
        "[J0, R2] = 0",
        "[J+, J-] = J0 + J0*(mu1*R1 + mu2*R2) - H*(mu1*R1 - mu2*R2)",
    ]


@_family("sd2-conserved", "symmetry generators commute with the Hamiltonian")
def _fam_sd2_conserved(s: _Source) -> List[str]:
    return [f"[H, {b}] = 0" for b in ("J+", "J-", "J0", "R1", "R2")]


@_family("casimir-sd2", "Casimir value H^2 - 1; centrality of C and R1*R2")
def _fam_casimir_sd2(s: _Source) -> List[str]:
    return [
        "C = H^2 - 1",
        *(f"[{a}, {b}] = 0" for a in ("C", "P") for b in ("J+", "J-", "J0")),
        "[P, H] = 0",
    ]


_family("gauge-sl12", "gauge-transformed ladder operators satisfy sl12")(
    lambda s: _sl12("Htilde", "Atilde+", "Atilde-"))


@_family("conformal",
         "translation/dilation/special generators and H = Hc + Kc")
def _fam_conformal(s: _Source) -> List[str]:
    return [statement for i in (1, 2) for statement in (
        # Explicit displays of the five generators.
        f"Qc{i} = (1/sqrt2)*(d{i}*R{i} - mu{i}*x{i}^-1)",
        f"Sc{i} = (i/sqrt2)*x{i}*R{i}",
        f"Hc{i} = (1/2)*(-d{i}^2 + mu{i}^2*x{i}^-2 - mu{i}*x{i}^-2*R{i})",
        f"Kc{i} = (1/2)*x{i}^2",
        f"Dc{i} = (i/2)*(x{i}*d{i} + 1/2)",
        # so(2,1)-type closure of the conformal generators.
        f"[Hc{i}, Dc{i}] = i*Hc{i}",
        f"[Hc{i}, Kc{i}] = 2*i*Dc{i}",
        f"[Dc{i}, Kc{i}] = i*Kc{i}",
        # Reflection block.
        *(f"{{{k}{i}, R{i}}} = 0" for k in ("Qc", "Sc")),
        *(f"[{k}{i}, R{i}] = 0" for k in ("Hc", "Kc", "Dc")),
        # The gauged Hamiltonian splits into kinetic plus confining parts.
        f"Htilde{i} = Hc{i} + Kc{i}",
    )]


@_family("gauge-2d", "2D gauged Hamiltonian equals the sum of 1D ones")
def _fam_gauge_2d(s: _Source) -> List[str]:
    return ["Htilde = Htilde1 + Htilde2"]


@_family("k-reflection",
         "squared symmetry generators commute with reflections")
def _fam_k_reflection(s: _Source) -> List[str]:
    return [f"[{k}, {r}] = 0" for k in ("K+", "K-") for r in ("R1", "R2")]


# gamma1 and gamma2 (the registry names) are central, since H is (checked
# by sd2-conserved before these families run), so they are honest
# structure "constants" over the center; omega is gamma/2.
@_family("cubic", "cubic closure of J0 with K+ = J+^2 and K- = J-^2")
def _fam_cubic(s: _Source) -> List[str]:
    return [
        "[J0, K+] = 4*K+",
        "[J0, K-] = -4*K-",
        "[K-, K+] = J0^3 + J0*(gamma1 + 2*mu1*R1 + 2*mu2*R2)"
        " + H*(gamma2 + 2*mu2*R2 - 2*mu1*R1)",
    ]


@_family("hahn",
         "Hahn-algebra presentation of the rescaled generators",
         perturbable=True)
def _fam_hahn(s: _Source) -> List[str]:
    # Negative control: break the 1/4 coefficient in [K2, K0].
    frac = Fraction(1, 3) if s.perturb else Fraction(1, 4)
    return [
        "[K0, K1] = K2",
        "[K1, K2] = {K0, K1} + (1/8)*K0*(gamma1 + 2*mu1*R1 + 2*mu2*R2)"
        " + (1/64)*H*(gamma2 + 2*mu2*R2 - 2*mu1*R1)",
        f"[K2, K0] = K0^2 - {frac}*K1",
    ]


@_family("super-odd", "anticommutators of the odd superalgebra generators")
def _fam_super_odd(s: _Source) -> List[str]:
    return [
        "{F+, F+} = 8*E1 + 16*E2 - 32*E0^2",
        "{F-, F-} = 8*E1 - 16*E2 - 32*E0^2",
        "{F+, F-} = -32*E0^2 - mu1*R1 - mu2*R2 - 2*mu1*mu2*R1*R2 + delta",
    ]


@_family("super-evenodd", "mixed even/odd superalgebra relations")
def _fam_super_evenodd(s: _Source) -> List[str]:
    return [
        "[E0, F+] = (1/4)*F+",
        "[E0, F-] = -(1/4)*F-",
        "[E1, F+] = {E0, F+} - {E0, F-} - (1/4)*F-*(mu1*R1 + mu2*R2)",
        # The anticommutator difference does not alternate between the
        # two branches; only the trailing F factor swaps.
        "[E1, F-] = {E0, F+} - {E0, F-} - (1/4)*F+*(mu1*R1 + mu2*R2)",
        "[E2, F+] = (1/2)*{E0, F-} + (1/8)*F-*(mu1*R1 + mu2*R2)",
        "[E2, F-] = (1/2)*{E0, F+} - (1/8)*F+*(mu1*R1 + mu2*R2)",
    ]


@_family("super-even", "even sector reproduces the Hahn presentation")
def _fam_super_even(s: _Source) -> List[str]:
    return [
        "[E0, E1] = E2",
        "[E1, E2] = {E0, E1} + (1/4)*E0*(omega1 + mu1*R1 + mu2*R2)"
        " + (1/32)*H*(omega2 + mu2*R2 - mu1*R1)",
        "[E2, E0] = E0^2 - (1/4)*E1",
        "E1 = K1",
        "E2 = K2",
    ]


@_family("super-casimir", "C is central for the superalgebra generators")
def _fam_super_casimir(s: _Source) -> List[str]:
    return [f"[C, {b}] = 0" for b in ("E0", "E1", "E2", "F+", "F-")]


@_family("susy-defining", "H = (1/2){Q, adjoint(Q)} with Q conserved", dims=1)
def _fam_susy_defining(s: _Source) -> List[str]:
    return [
        "H_susy = (1/2)*{Q_susy, adjoint(Q_susy)}",
        "[Q_susy, H_susy] = 0",
        "[adjoint(Q_susy), H_susy] = 0",
    ]


@_family("susy-1d", "1D factorization H = Q^2 with Q symmetric", dims=1)
def _fam_susy_1d(s: _Source) -> List[str]:
    return [
        "H_susy1 = Q1^2",
        "adjoint(Q1) = Q1",
        "H_susy1 = Htilde1 - (1/2)*R1 - mu1",
    ]


# The reflection supercharge Q = (1/sqrt2)((d + V)R + W), for an even V
# and an odd W, and its square.  V' and W' are typed beside V and W, not
# written as [d1, V], which would put a fault of the reordering rule on
# both sides, where it could cancel.
_Q = "(1/sqrt2)*((d1 + ({V}))*R1 + ({W}))"
_Q_SQUARED = ("(" + _Q + ")^2"
              " = (1/2)*(-d1^2 + ({V})^2 + ({W})^2 + ({dV}) - ({dW})*R1)")
# Sampled superpotentials (V, W, V', W'); the first is the model's own.
_SUPERPOTENTIALS = (
    ("0", "x1 - mu1*x1^-1", "0", "1 + mu1*x1^-2"),
    ("0", "0", "0", "0"),
    ("x1^2", "x1", "2*x1", "1"),
    ("mu1*x1^-2 + x1^4", "x1^3 - 2*mu1*x1^-1",
     "-2*mu1*x1^-3 + 4*x1^3", "3*x1^2 + 2*mu1*x1^-2"),
)


@_family("susy-generic",
         "factorization for sampled superpotentials (V, W)", dims=1)
def _fam_susy_generic(s: _Source) -> List[str]:
    model = _SUPERPOTENTIALS[0]
    return [
        *(_Q_SQUARED.format(V=v, W=w, dV=dv, dW=dw)
          for v, w, dv, dw in _SUPERPOTENTIALS),
        f"{_Q.format(V=model[0], W=model[1])} = Q1",
    ]


@_family("susy-nd",
         "n-dimensional supercharge squares to the Hamiltonian", dims=None)
def _fam_susy_nd(s: _Source) -> List[str]:
    return [
        "n=1: Q_susy^2 = H_susy",
        "n=2: Q_susy^2 = H_susy",
        "n=2: Q_susy = Q1*R2 + Q2",
        "n=2: [Q_susy, H_susy] = 0",
        "n=3: Q_susy^2 = H_susy",
        "n=3: [Q_susy, H_susy] = 0",
    ]


@_family("susy-k-invariance",
         "gauge-frame squared generators commute with "
         "the supersymmetric Hamiltonian")
def _fam_susy_k_invariance(s: _Source) -> List[str]:
    # The squared symmetry generators conserved by the supersymmetric
    # Hamiltonian are the gauge-frame ones, Ktilde+- = Jtilde+-^2 from
    # gauged ladder products; the ungauged K+ and K- do not commute with it.
    return [
        "[Ktilde+, H_susy] = 0",
        "[Ktilde-, H_susy] = 0",
        "[Jtilde0^2, H_susy] = 0",
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
    source = _Source(fam.dims, values, perturb)
    identities = tuple(source.identities(fam.identities(source)))
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

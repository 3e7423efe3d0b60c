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

The families are one table of Family entries, in reporting order: an id,
a description, the statements, the number of variables and, for a family
with a negative control, the statement it breaks and its broken text.
REGISTRY, FAMILIES, check() and the command-line listing all read it.  A
family that picks its own dimensions prefixes each statement with
``n=k: ``, and the statement is checked on k variables.  A family of
sampled cases, as ``susy-generic``'s superpotentials, fills one statement
template per case from a table of texts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .builders import build
from .dsl import Program, parse_all, run
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


@dataclass(frozen=True)
class Family:
    """An identity family: its statements, checked on dims variables, or
    on the ``n=k: `` prefix of each statement when dims is None.

    control, if given, is a pair (statement, broken statement), and a
    perturbed check states the broken text in place of the statement: a
    negative control, since a verification pipeline that cannot fail is
    not a verifier."""

    id: str
    description: str
    statements: Tuple[str, ...]
    dims: Optional[int] = 2
    control: Optional[Tuple[str, str]] = None


@lru_cache(maxsize=None)
def _residuals(statements: Tuple[str, ...], dims: int) -> Program:
    """``lhs - rhs`` of each statement ``lhs = rhs`` on dims variables,
    parsed together, so that a subexpression written in several
    statements is one step, and parsed once.  A statement without exactly
    one ``" = "`` raises ``ValueError``, naming it."""
    sides = [statement.split(" = ") for statement in statements]
    for statement, parts in zip(statements, sides):
        if len(parts) != 2:
            raise ValueError(f"statement {statement!r} needs exactly one "
                             f"' = ', found {len(parts) - 1}")
    return parse_all([f"({lhs}) - ({rhs})" for lhs, rhs in sides], dims)


def _per_variable(statements: Callable[[int], Sequence[str]]
                  ) -> Tuple[str, ...]:
    """The statements of variable 1, then those of variable 2."""
    return tuple(statement for i in (1, 2) for statement in statements(i))


def _sl12(h: str, up: str, down: str) -> Tuple[str, ...]:
    """The sl12-type relations of the ladder kinds (h, up, down) and the
    reflection of each variable."""
    return _per_variable(lambda i: (
        f"[{h}{i}, {up}{i}] = {up}{i}",
        f"[{h}{i}, {down}{i}] = -{down}{i}",
        f"{{{up}{i}, {down}{i}}} = 2*{h}{i}",
        f"{{{up}{i}, R{i}}} = 0",
        f"{{{down}{i}, R{i}}} = 0",
        f"[{h}{i}, R{i}] = 0",
    ))


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


def _susy_generic(samples: Sequence[Sequence[str]]) -> Tuple[str, ...]:
    """Q^2 for each sample (V, W, V', W'), then Q = Q1 for the first."""
    model = samples[0]
    return (
        *(_Q_SQUARED.format(V=v, W=w, dV=dv, dW=dw)
          for v, w, dv, dw in samples),
        f"{_Q.format(V=model[0], W=model[1])} = Q1",
    )


_TABLE: Tuple[Family, ...] = (
    Family("sl12", "ladder/reflection relations of the deformed oscillator",
           _sl12("A0", "A+", "A-")),
    Family("su11", "commutation relations of the quadratic ladder operators",
           _per_variable(lambda i: (
               f"[B-{i}, B+{i}] = A0{i}",
               f"[A0{i}, B+{i}] = 2*B+{i}",
               f"[A0{i}, B-{i}] = -2*B-{i}",
           ))),
    Family("osp12-grading", "reflection grading and mixed even/odd brackets",
           _per_variable(lambda i: (
               f"[B+{i}, R{i}] = 0",
               f"[B-{i}, R{i}] = 0",
               f"[B+{i}, A-{i}] = -A+{i}",
               f"[B-{i}, A+{i}] = A-{i}",
           ))),
    # sd2's broken residual is J+ itself, nonzero even with both
    # deformation parameters set to zero.
    Family("sd2", "defining relations of the two-parameter symmetry algebra", (
        "[J0, J+] = 2*J+",
        "[J0, J-] = -2*J-",
        *(f"{{{a}, {r}}} = 0" for a in ("J+", "J-") for r in ("R1", "R2")),
        "[J0, R1] = 0",
        "[J0, R2] = 0",
        "[J+, J-] = J0 + J0*(mu1*R1 + mu2*R2) - H*(mu1*R1 - mu2*R2)",
    ), control=("[J0, J+] = 2*J+", "[J0, J+] = 3*J+")),
    Family("sd2-conserved", "symmetry generators commute with the Hamiltonian",
           tuple(f"[H, {b}] = 0" for b in ("J+", "J-", "J0", "R1", "R2"))),
    Family("casimir-sd2", "Casimir value H^2 - 1; centrality of C and R1*R2", (
        "C = H^2 - 1",
        *(f"[{a}, {b}] = 0" for a in ("C", "P") for b in ("J+", "J-", "J0")),
        "[P, H] = 0",
    )),
    Family("gauge-sl12", "gauge-transformed ladder operators satisfy sl12",
           _sl12("Htilde", "Atilde+", "Atilde-")),
    Family("conformal",
           "translation/dilation/special generators and H = Hc + Kc",
           _per_variable(lambda i: (
               # Explicit displays of the five generators.
               f"Qc{i} = (1/sqrt2)*(d{i}*R{i} - mu{i}*x{i}^-1)",
               f"Sc{i} = (i/sqrt2)*x{i}*R{i}",
               f"Hc{i} = (1/2)*(-d{i}^2 + mu{i}^2*x{i}^-2"
               f" - mu{i}*x{i}^-2*R{i})",
               f"Kc{i} = (1/2)*x{i}^2",
               f"Dc{i} = (i/2)*(x{i}*d{i} + 1/2)",
               # so(2,1)-type closure of the conformal generators.
               f"[Hc{i}, Dc{i}] = i*Hc{i}",
               f"[Hc{i}, Kc{i}] = 2*i*Dc{i}",
               f"[Dc{i}, Kc{i}] = i*Kc{i}",
               # Reflection block.
               *(f"{{{k}{i}, R{i}}} = 0" for k in ("Qc", "Sc")),
               *(f"[{k}{i}, R{i}] = 0" for k in ("Hc", "Kc", "Dc")),
               # The gauged Hamiltonian splits into kinetic plus
               # confining parts.
               f"Htilde{i} = Hc{i} + Kc{i}",
           ))),
    Family("gauge-2d", "2D gauged Hamiltonian equals the sum of 1D ones",
           ("Htilde = Htilde1 + Htilde2",)),
    Family("k-reflection",
           "squared symmetry generators commute with reflections",
           tuple(f"[{k}, {r}] = 0" for k in ("K+", "K-") for r in ("R1", "R2"))),
    # gamma1 and gamma2 (the registry names) are central, since H is
    # (checked by sd2-conserved before these families run), so they are
    # honest structure "constants" over the center; omega is gamma/2.
    Family("cubic", "cubic closure of J0 with K+ = J+^2 and K- = J-^2", (
        "[J0, K+] = 4*K+",
        "[J0, K-] = -4*K-",
        "[K-, K+] = J0^3 + J0*(gamma1 + 2*mu1*R1 + 2*mu2*R2)"
        " + H*(gamma2 + 2*mu2*R2 - 2*mu1*R1)",
    )),
    Family("hahn", "Hahn-algebra presentation of the rescaled generators", (
        "[K0, K1] = K2",
        "[K1, K2] = {K0, K1} + (1/8)*K0*(gamma1 + 2*mu1*R1 + 2*mu2*R2)"
        " + (1/64)*H*(gamma2 + 2*mu2*R2 - 2*mu1*R1)",
        "[K2, K0] = K0^2 - 1/4*K1",
    ), control=("[K2, K0] = K0^2 - 1/4*K1", "[K2, K0] = K0^2 - 1/3*K1")),
    Family("super-odd", "anticommutators of the odd superalgebra generators", (
        "{F+, F+} = 8*E1 + 16*E2 - 32*E0^2",
        "{F-, F-} = 8*E1 - 16*E2 - 32*E0^2",
        "{F+, F-} = -32*E0^2 - mu1*R1 - mu2*R2 - 2*mu1*mu2*R1*R2 + delta",
    )),
    Family("super-evenodd", "mixed even/odd superalgebra relations", (
        "[E0, F+] = (1/4)*F+",
        "[E0, F-] = -(1/4)*F-",
        "[E1, F+] = {E0, F+} - {E0, F-} - (1/4)*F-*(mu1*R1 + mu2*R2)",
        # The anticommutator difference does not alternate between the
        # two branches; only the trailing F factor swaps.
        "[E1, F-] = {E0, F+} - {E0, F-} - (1/4)*F+*(mu1*R1 + mu2*R2)",
        "[E2, F+] = (1/2)*{E0, F-} + (1/8)*F-*(mu1*R1 + mu2*R2)",
        "[E2, F-] = (1/2)*{E0, F+} - (1/8)*F+*(mu1*R1 + mu2*R2)",
    )),
    Family("super-even", "even sector reproduces the Hahn presentation", (
        "[E0, E1] = E2",
        "[E1, E2] = {E0, E1} + (1/4)*E0*(omega1 + mu1*R1 + mu2*R2)"
        " + (1/32)*H*(omega2 + mu2*R2 - mu1*R1)",
        "[E2, E0] = E0^2 - (1/4)*E1",
        "E1 = K1",
        "E2 = K2",
    )),
    Family("super-casimir", "C is central for the superalgebra generators",
           tuple(f"[C, {b}] = 0" for b in ("E0", "E1", "E2", "F+", "F-"))),
    Family("susy-defining", "H = (1/2){Q, adjoint(Q)} with Q conserved", (
        "H_susy = (1/2)*{Q_susy, adjoint(Q_susy)}",
        "[Q_susy, H_susy] = 0",
        "[adjoint(Q_susy), H_susy] = 0",
    ), dims=1),
    Family("susy-1d", "1D factorization H = Q^2 with Q symmetric", (
        "H_susy1 = Q1^2",
        "adjoint(Q1) = Q1",
        "H_susy1 = Htilde1 - (1/2)*R1 - mu1",
    ), dims=1),
    Family("susy-generic", "factorization for sampled superpotentials (V, W)",
           _susy_generic(_SUPERPOTENTIALS), dims=1),
    Family("susy-nd",
           "n-dimensional supercharge squares to the Hamiltonian", (
               "n=1: Q_susy^2 = H_susy",
               "n=2: Q_susy^2 = H_susy",
               "n=2: Q_susy = Q1*R2 + Q2",
               "n=2: [Q_susy, H_susy] = 0",
               "n=3: Q_susy^2 = H_susy",
               "n=3: [Q_susy, H_susy] = 0",
           ), dims=None),
    # The squared symmetry generators conserved by the supersymmetric
    # Hamiltonian are the gauge-frame ones, Ktilde+- = Jtilde+-^2 from
    # gauged ladder products; the ungauged K+ and K- do not commute with it.
    Family("susy-k-invariance",
           "gauge-frame squared generators commute with "
           "the supersymmetric Hamiltonian", (
               "[Ktilde+, H_susy] = 0",
               "[Ktilde-, H_susy] = 0",
               "[Jtilde0^2, H_susy] = 0",
           )),
)

REGISTRY: Dict[str, Family] = {fam.id: fam for fam in _TABLE}
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
    accepted only for a family with a control, and states the control's
    broken text in place of its statement.
    """
    fam = REGISTRY.get(family)
    if fam is None:
        raise KeyError(f"unknown relation family: {family!r}")
    statements = fam.statements
    if perturb:
        if fam.control is None:
            raise ValueError(f"family {family!r} has no perturbed variant")
        statement, broken = fam.control
        statements = tuple(broken if text == statement else text
                           for text in statements)

    values: Optional[Tuple[BaseNumber, ...]] = None
    if mu_values is not None:
        if not mu_values:
            raise ValueError(
                "numeric mode needs at least one deformation value")
        values = tuple(BaseNumber(v) for v in mu_values)

    def resolve(name: str, dims: int) -> OperatorElement:
        # A name is one step of its group's program, so it is resolved
        # once per group.  Numeric mode substitutes before any product:
        # products of substituted operators equal substituted products.
        built = build(name, dims)
        if values is None:
            return built
        return built.substitute_params(
            [values[k % len(values)] for k in range(dims)])

    start = time.perf_counter()
    identities: List[IdentityResult] = []
    # The statements on one number of variables are evaluated together,
    # as one program, so a subexpression written in several of them is
    # evaluated once per check.
    for dims, group in groupby(
            statements,
            key=lambda text: fam.dims or int(text[2:text.index(":")])):
        texts = tuple(group)
        bodies = tuple(text.split(": ")[-1] for text in texts)
        identities += map(IdentityResult, texts,
                          run(_residuals(bodies, dims), dims, resolve))
    return RelationReport(
        family=family,
        mode="parametric" if values is None else "numeric",
        identities=tuple(identities),
        wall_time=time.perf_counter() - start,
    )

"""Exact function space of Gaussian-envelope states.

A state is p(x1..xn) * exp(-(x1^2 + ... + xn^2)/2) with p a polynomial
whose coefficients may depend on the deformation parameters; the state is
held as p, a LaurentPolynomial with no negative exponent.  Every
operator acts through OperatorElement.act on the polynomial part, after
gauge() has conjugated it by the envelope e^{-X}, X = (x1^2 + ... +
xn^2)/2, through Hadamard's series e^X A e^{-X} = sum_k ad_X^k(A)/k!: x
and R commute with X, and [X, d_j] = -x_j, so d_j(p * e) = ((d_j - x_j)
p) * e.  The registry operators the spectra use are gauged once per
process and only then substituted.
All computation stays in the Laurent ring; a state is only required to
be pole free at the boundaries: _check_pole_free checks every state that
fock, ground and apply return, each one the walk builds, and the state
apply is given.  Inverse powers inside an operator are fine as long as
they cancel by the end, which is exactly what the reflection terms of
the deformed Hamiltonians do.

Energies, degeneracies, parities and ladder-norm coefficients of the
model all come out of this module as exact scalars; no floating point,
no integrals.  Norms themselves live outside the exact field (they are
Gamma values), but norm ratios are polynomial in mu, so positivity of
the ladder coefficients is decidable exactly and decides admissibility
of a numeric deformation value.

One walk per variable, _walk, raises its axis states, lowers each to
its ladder coefficient and eigenchecks it against H's part in that
variable.  A spectrum table reads each level off these walks and builds
no state of two variables; ladder_norm_coefficients reads one walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterator, List, Optional, Sequence, Tuple

from ._kernel import poly_add
from .builders import build
from .opalg import LaurentPolynomial, OperatorElement, _products, commutator
from .scalars import BaseLike, BaseNumber, Scalar

# Highest level spectrum_table lists.  A two-variable table to this level
# at mu = (1/3, 1/2) takes 0.15-0.19 s per `dunklweyl spectrum` process
# (Python 3.11.7, 2-vCPU Xeon VM), nearly all start-up; warm, 21 ms, and
# about 3x per doubling: 2(3n + 1) actions on one-variable states.
MAX_LEVEL = 32


class PoleError(ArithmeticError):
    """A state ended up with a genuine inverse power of a coordinate."""


def _check_pole_free(p: LaurentPolynomial) -> LaurentPolynomial:
    if any(e < 0 for exps in p.exponents() for e in exps):
        first = min(exps for exps in p.exponents() if min(exps) < 0)
        raise PoleError(f"state has a pole: residual exponents {first}")
    return p


def gauge(A: OperatorElement) -> OperatorElement:
    """The envelope-conjugated operator e^{|x|^2/2} A e^{-|x|^2/2}.

    Hadamard's series sum_k ad_X^k(A)/k! with X = |x|^2/2, one commutator
    per term: each ad_X lowers the total d-degree, taking d_j to -x_j, so
    the series ends after A's top d-degree.  gauge(A).act(p) is the
    polynomial part of A acting on p * exp(-|x|^2/2).
    """
    n = A.nvars
    X = sum((OperatorElement.x(j, n, 2) for j in range(n)),
            OperatorElement.zero(n)) / 2
    out = term = A
    k = 0
    while not term.is_zero():
        k += 1
        term = commutator(X, term) / k
        out = out + term
    return out


@lru_cache(maxsize=None)
def _gauged(name: str, dims: int) -> OperatorElement:
    """gauge(build(name, dims)), still parametric: substituting values
    afterwards gives the same operator as gauging the substituted one."""
    return gauge(build(name, dims))


def _operator(
    name: str,
    dims: int,
    values: Optional[Sequence[BaseLike]],
) -> OperatorElement:
    """The gauged registry operator, substituted at values unless None;
    not cached, since values range over every deformation value."""
    op = _gauged(name, dims)
    return op if values is None else op.substitute_params(values)


def apply(A: OperatorElement, s: LaurentPolynomial) -> LaurentPolynomial:
    """Act with A on the state with polynomial part s, exactly.

    Raises PoleError if s or the accumulated result keeps a negative
    exponent; individual terms of A may produce intermediate poles as
    long as they cancel in the sum.
    """
    return _check_pole_free(gauge(A).act(_check_pole_free(s)))


def ground(nvars: int) -> LaurentPolynomial:
    """Lowest state: p = 1."""
    return fock((0,) * nvars)


def fock(
    ns: Sequence[int],
    mu_values: Optional[Sequence[BaseLike]] = None,
) -> LaurentPolynomial:
    """Unnormalized ladder state: raise the ground state n_j times in
    each variable.  Parametric unless mu_values is given."""
    ns = tuple(ns)
    if not ns:
        raise ValueError("need at least one occupation number")
    if any(n < 0 for n in ns):
        raise ValueError(f"occupation numbers must be nonnegative: {ns}")
    nvars = len(ns)
    state = LaurentPolynomial.monomial((0,) * nvars)
    for j, n in enumerate(ns):
        if not n:
            continue
        raiser = _operator(f"A+{j + 1}", nvars, mu_values)
        for _ in range(n):
            state = _check_pole_free(raiser.act(state))
    return state


def eigencheck(A: OperatorElement, s: LaurentPolynomial) -> Optional[Scalar]:
    """Exact eigenvalue of A on the state s, or None if s is not an
    eigenstate."""
    if s.is_zero():
        raise ValueError("eigencheck needs a nonzero state")
    return apply(A, s).ratio(s)


@dataclass(frozen=True)
class SpectrumRow:
    level: int
    energy: BaseNumber
    degeneracy: int


@dataclass(frozen=True)
class SpectrumTable:
    dims: int
    mu_values: Tuple[BaseNumber, ...]
    rows: Tuple[SpectrumRow, ...]
    admissible: bool


def _level_states(dims: int, level: int) -> Iterator[Tuple[int, ...]]:
    if dims == 1:
        yield (level,)
    else:
        for k in range(level, -1, -1):
            yield (k, level - k)


def _parts(hamiltonian: OperatorElement) -> List[OperatorElement]:
    """H's parts H_j in x_j alone (a constant in the lowest one's), from its
    normal form; ArithmeticError if a term couples variables or H is one
    product kept factored."""
    products = _products(hamiltonian)
    if products is None or any(len(p) > 1 for p in products):
        raise ArithmeticError("H does not separate into one-variable parts")
    n = hamiltonian.nvars
    parts = {j: data for p in products for j, data in p.items()}
    return [OperatorElement(parts.get(j, {}), n) for j in range(n)]


def _quotient(image: LaurentPolynomial, state: LaurentPolynomial,
              failure: str) -> Scalar:
    """c with image == c*state; else a pole of image, which has no ratio
    to a pole-free state, is reported before failure."""
    c = image.ratio(state)
    if c is None:
        _check_pole_free(image)
        raise ArithmeticError(failure)
    return c


def _walk(j: int, ground: LaurentPolynomial,
          values: Optional[Tuple[BaseNumber, ...]], max_level: int,
          part: Optional[OperatorElement] = None) -> Iterator[tuple]:
    """Variable j's walk up its axis from ground: (state, c_n, lam_n) for
    n = 0..max_level, state = fock(n e_j, values), one raise of the last,
    checked to lead with the axis exponent n e_j.  From n = 1, A-{j+1}
    lowers state to c_n (which depends on mu_j alone) times the last; c_0
    is None.  lam_n is part's eigenvalue on state, or None without a part.
    Parametric when values is None."""
    dims = ground.nvars
    raiser, lowerer = (_operator(f"A{s}{j + 1}", dims, values) for s in "+-")
    state, c = ground, None
    for n in range(max_level + 1):
        axis = (0,) * j + (n,) + (0,) * (dims - j - 1)
        if n:
            below, state = state, _check_pole_free(raiser.act(state))
            lead = max(state.exponents(), default=None)
            if lead != axis:
                raise ArithmeticError(f"axis state {axis} leads with {lead}")
            c = _quotient(lowerer.act(state), below,
                          f"lowering axis state {axis} left the ladder")
        lam = None if part is None else _quotient(
            part.act(state), state,
            f"axis state {axis} failed to be an eigenstate")
        yield state, c, lam


def spectrum_table(
    dims: int,
    mu_values: Sequence[BaseLike],
    max_level: int,
) -> SpectrumTable:
    """Exact (level, energy, degeneracy) rows for levels 0..max_level,
    with max_level at most MAX_LEVEL.

    fock(ns) is the product of the axis states f_j = fock(ns_j e_j), and
    _parts splits H into parts H_j in x_j alone.  Over a field, as at
    numeric mu, for nonzero f_j each in x_j alone, H * prod f_j = lam *
    prod f_j iff every H_j f_j = lam_j f_j with sum lam_j = lam.  So one
    eigencheck per axis state certifies each state of a level as one
    against H would: its energy, the sum of its axis states' eigenvalues,
    is verified equal across the level.  The walk checks that each f_j
    leads with its axis exponent ns_j e_j, so fock(ns), their product,
    leads with ns: the states of a level lead with distinct exponents,
    are independent, and their number is the degeneracy.
    admissible is False when some ladder coefficient c_k, k <= max_level,
    of some variable is not positive at the given deformation values.
    """
    if dims not in (1, 2):
        raise ValueError("spectrum_table supports one or two variables")
    if max_level < 0:
        raise ValueError("max_level must be nonnegative")
    if max_level > MAX_LEVEL:
        raise ValueError(f"max_level must be at most {MAX_LEVEL}")
    values = tuple(BaseNumber(v) for v in mu_values)
    parts = _parts(_operator("H", dims, values))
    start = ground(dims)
    walks = [list(_walk(j, start, values, max_level, part))
             for j, part in enumerate(parts)]
    admissible = all(c.evaluate(values).as_fraction() > 0
                     for walk in walks for _, c, _ in walk[1:])

    rows: List[SpectrumRow] = []
    for level in range(max_level + 1):
        axes = [[walk[k] for walk, k in zip(walks, ns)]
                for ns in _level_states(dims, level)]
        energy, *others = [
            Scalar(reduce(poly_add, (lam.kernel_poly for _, _, lam in a)),
                   dims) for a in axes]
        for value in others:
            if value != energy:
                raise ArithmeticError(
                    f"level {level} eigenvalues disagree: {value} != {energy}")
        rows.append(SpectrumRow(level, energy.evaluate(values), len(axes)))
    return SpectrumTable(dims, values, tuple(rows), admissible)


def ladder_norm_coefficients(
    max_n: int,
    mu: Optional[BaseLike] = None,
) -> List[Scalar]:
    """Exact c_k with lower(fock(k)) = c_k * fock(k-1), k = 1..max_n.

    Norm ratios: fock states are unnormalized, and |fock(k)|^2 =
    c_k * |fock(k-1)|^2, so positivity of every c_k up to max_n decides
    whether the deformation value gives an honest inner-product space.
    Parametric when mu is None.
    """
    if max_n < 1:
        raise ValueError("max_n must be at least 1")
    values = None if mu is None else (BaseNumber(mu),)
    return [c for _, c, _ in _walk(0, ground(1), values, max_n)][1:]

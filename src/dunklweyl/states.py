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

One walk up the Fock ladder, _ladder, builds the states of a spectrum
table and, by lowering its own axis states, each variable's ladder
coefficients; ladder_norm_coefficients reads the same walk in one
variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .builders import build
from .opalg import LaurentPolynomial, OperatorElement, commutator
from .scalars import ArityMismatchError, BaseLike, BaseNumber, Scalar

# Highest level spectrum_table lists.  A two-variable table to this level
# at mu = (1/3, 1/2) takes 0.6-1.1 s, median 0.7 s (one `dunklweyl
# spectrum` process, wall time with interpreter start, Python 3.11.7,
# 2-vCPU Xeon VM), and doubling the level costs about 6x: level n holds
# n + 1 states of about n^2/4 terms, each lifted once, raised and
# eigenchecked once, one lowering per variable.
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


def _ladder(
    dims: int,
    values: Optional[Tuple[BaseNumber, ...]],
    max_level: int,
) -> Iterator[Tuple[Dict[Tuple[int, ...], LaurentPolynomial], List[Scalar]]]:
    """The states of levels 0..max_level, one level at a time, keyed by
    occupation numbers in _level_states order, each with the ladder
    coefficients of that level.

    Each state is one raiser step from a state of the level below: the
    step undoes the last raise fock makes, in the last variable with a
    nonzero occupation number.  So every state is exactly fock(ns,
    values), while each raiser is built once and only the previous
    level is held.  From level n = 1 on, coefficients[j] is c_n of
    variable j, which depends on mu_j alone: A-{j+1} lowers the axis
    state n e_j to c_n times the axis state (n - 1) e_j.  Parametric
    when values is None.
    """
    raisers = [_operator(f"A+{j + 1}", dims, values) for j in range(dims)]
    lowerers = [_operator(f"A-{j + 1}", dims, values) for j in range(dims)]
    level = {(0,) * dims: ground(dims)}
    yield level, []
    for n in range(1, max_level + 1):
        below, level = level, {}
        for ns in _level_states(dims, n):
            j = max(i for i, k in enumerate(ns) if k)
            lowered = ns[:j] + (ns[j] - 1,) + ns[j + 1:]
            level[ns] = _check_pole_free(raisers[j].act(below[lowered]))
        coefficients = []
        for j, lower in enumerate(lowerers):
            top = (0,) * j + (n,) + (0,) * (dims - j - 1)
            image = lower.act(level[top])
            c = image.ratio(below[top[:j] + (n - 1,) + top[j + 1:]])
            if c is None:
                # The states have no pole, so an image with one has no
                # ratio: report the pole before the failed lowering.
                _check_pole_free(image)
                raise ArithmeticError(f"lowering state {top} left the ladder")
            coefficients.append(c)
        yield level, coefficients


def spectrum_table(
    dims: int,
    mu_values: Sequence[BaseLike],
    max_level: int,
) -> SpectrumTable:
    """Exact (level, energy, degeneracy) rows for levels 0..max_level,
    with max_level at most MAX_LEVEL.

    Every listed state is eigenchecked against the total Hamiltonian and
    the common eigenvalue is verified across the level; degeneracy is
    certified by pairwise distinct leading monomials.  admissible is
    False when some ladder-norm coefficient c_k, k <= max_level, of some
    variable is not positive at the given deformation values; the
    coefficients come from the same walk as the states.
    """
    if dims not in (1, 2):
        raise ValueError("spectrum_table supports one or two variables")
    if max_level < 0:
        raise ValueError("max_level must be nonnegative")
    if max_level > MAX_LEVEL:
        raise ValueError(f"max_level must be at most {MAX_LEVEL}")
    values = tuple(BaseNumber(v) for v in mu_values)
    if len(values) != dims:
        raise ArityMismatchError(
            f"need {dims} deformation values, got {len(values)}")
    hamiltonian = _operator("H", dims, values)

    rows: List[SpectrumRow] = []
    admissible = True
    for level, (states, coefficients) in enumerate(
            _ladder(dims, values, max_level)):
        if any(c.evaluate(values).as_fraction() <= 0 for c in coefficients):
            admissible = False
        energy: Optional[BaseNumber] = None
        leading: set = set()
        for ns, state in states.items():
            image = hamiltonian.act(state)
            lam = image.ratio(state)
            if lam is None:
                # As in _ladder: a pole, if any, is why there is no ratio.
                _check_pole_free(image)
                raise ArithmeticError(
                    f"state {ns} failed to be an eigenstate")
            value = lam.evaluate(values)
            if energy is None:
                energy = value
            elif value != energy:
                raise ArithmeticError(
                    f"level {level} eigenvalues disagree: {value} != {energy}")
            leading.add(max(state.exponents()))
        if len(leading) != len(states):
            raise ArithmeticError(
                f"level {level} states are not independent")
        assert energy is not None
        rows.append(SpectrumRow(level, energy, len(states)))
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
    return [c for _, coefficients in _ladder(1, values, max_n)
            for c in coefficients]

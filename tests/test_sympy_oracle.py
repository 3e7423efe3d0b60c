"""An oracle that shares none of the normal form's conventions.

Functions are rebuilt as explicit sympy expressions, and the Dunkl
operator D_j f = d_j f + mu_j * (f - f|_{x_j -> -x_j}) / x_j (Dunkl,
Trans. AMS 311, 1989) is applied with a genuine reflection by
substitution: no reordering rules, no envelope bookkeeping.

- The fock states psi = p(x) * exp(-|x|^2/2) must be eigenfunctions of
  H = sum_j (-D_j^2/2 + x_j^2/2) with E = n1 + ... + nd + d/2 + mu1 +
  ... + mud, for symbolic mu.
- On explicit Laurent test functions, OperatorElement.act of the
  registry's D_j and Q_susy must equal the sympy action, where
  Q_j f = (d_j (f|_{x_j -> -x_j}) + x_j f - mu_j f / x_j) / sqrt2 and
  Q_susy = sum_j Q_j R_{j+1} ... R_d.
"""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")

from dunklweyl.builders import build  # noqa: E402
from dunklweyl.opalg import LaurentPolynomial  # noqa: E402
from dunklweyl.scalars import I, SQRT2, Scalar  # noqa: E402
from dunklweyl.states import fock  # noqa: E402


def _number(c):
    """The kernel's ``(p, q, r, s, den)`` as a sympy number."""
    p, q, r, s, den = map(sympy.Integer, c)
    return (p + sympy.I * q + sympy.sqrt(2) * (r + sympy.I * s)) / den


def _function(f, xs, mus):
    out = 0
    for exps, poly in f.kernel_op.items():
        c = sum(_number(b) * sympy.Mul(*(m ** e for m, e in zip(mus, expo)))
                for expo, b in poly.items())
        out += c * sympy.Mul(*(x ** e for x, e in zip(xs, exps)))
    return out


def _wavefunction(ns, xs, mus):
    return (_function(fock(ns), xs, mus)
            * sympy.exp(-sum(x ** 2 for x in xs) / 2))


def _symbols(d):
    return (sympy.symbols(f"x1:{d + 1}", real=True),
            sympy.symbols(f"mu1:{d + 1}"))


def _reflect(f, x):
    return f.subs(x, -x, simultaneous=True)


def _dunkl(f, x, mu):
    return sympy.diff(f, x) + mu * (f - _reflect(f, x)) / x


def _hamiltonian(f, xs, mus):
    return sum(-_dunkl(_dunkl(f, x, mu), x, mu) / 2 + x ** 2 * f / 2
               for x, mu in zip(xs, mus))


def _supercharge(f, xs, mus, tails=True):
    total = 0
    for j, (x, mu) in enumerate(zip(xs, mus)):
        g = f
        for y in xs[j + 1:] if tails else ():
            g = _reflect(g, y)
        total += (sympy.diff(_reflect(g, x), x) + x * g - mu * g / x) \
            / sympy.sqrt(2)
    return total


def _assert_eigen(ns):
    xs, mus = _symbols(len(ns))
    psi = _wavefunction(ns, xs, mus)
    energy = sum(ns) + sympy.Rational(len(ns), 2) + sum(mus)
    assert sympy.simplify(_hamiltonian(psi, xs, mus) - energy * psi) == 0


@pytest.mark.parametrize("n", range(7))
def test_one_dim_tower(n):
    _assert_eigen((n,))


@pytest.mark.parametrize("ns", [(n1, n2) for n1 in range(4)
                                for n2 in range(4 - n1)])
def test_two_dim_levels(ns):
    _assert_eigen(ns)


def test_oracle_rejects_a_wrong_energy():
    x, mu = sympy.symbols("x1 mu1")
    psi = _wavefunction((2,), (x,), (mu,))
    wrong = 2 + sympy.Rational(1, 2)  # drops mu
    assert sympy.simplify(_hamiltonian(psi, (x,), (mu,)) - wrong * psi) != 0


def _test_functions(d):
    """Laurent polynomials with odd and even, negative and positive
    powers in every variable, and parametric, imaginary and surd
    coefficients."""
    def m(*exps):
        return LaurentPolynomial.monomial(exps)

    mu = [Scalar.parameter(j, d) for j in range(d)]
    if d == 1:
        return [m(3) - 2 * m(-1) + Fraction(1, 2),
                mu[0] * m(2) - 3 * m(-4) + I * (SQRT2 * m(1))]
    if d == 2:
        return [m(2, -1) + mu[1] * m(-3, 2) - I * m(1, 1),
                m(0, 5) + SQRT2 * (mu[0] * m(-2, -1)) + 7]
    return [m(1, -2, 3) - mu[2] * m(2, 1, -1) + I * m(-1, 0, 4) + 1]


_CASES = [(d, k) for d in (1, 2, 3) for k in range(len(_test_functions(d)))]


@pytest.mark.parametrize("d,k", _CASES)
def test_dunkl_operators_act(d, k):
    f = _test_functions(d)[k]
    xs, mus = _symbols(d)
    sf = _function(f, xs, mus)
    for j in range(d):
        got = _function(build(f"D{j + 1}", d).act(f), xs, mus)
        assert sympy.expand(got - _dunkl(sf, xs[j], mus[j])) == 0


@pytest.mark.parametrize("d,k", _CASES)
def test_supercharge_acts(d, k):
    f = _test_functions(d)[k]
    xs, mus = _symbols(d)
    got = _function(build("Q_susy", d).act(f), xs, mus)
    assert sympy.expand(got - _supercharge(_function(f, xs, mus), xs, mus)) \
        == 0


def test_oracle_needs_the_reflection_tails():
    f = _test_functions(2)[0]
    xs, mus = _symbols(2)
    got = _function(build("Q_susy", 2).act(f), xs, mus)
    wrong = _supercharge(_function(f, xs, mus), xs, mus, tails=False)
    assert sympy.expand(got - wrong) != 0

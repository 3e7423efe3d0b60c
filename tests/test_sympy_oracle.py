"""An oracle that shares none of the normal form's conventions.

The fock states are rebuilt as explicit sympy functions
psi = p(x) * exp(-|x|^2/2), and the Dunkl Hamiltonian
H = sum_j (-D_j^2/2 + x_j^2/2) is applied with the Dunkl operator
D_j f = d_j f + mu_j * (f - f|_{x_j -> -x_j}) / x_j (Dunkl, Trans. AMS
311, 1989): a genuine reflection by substitution, no reordering rules,
no envelope bookkeeping.  Every state must come out an eigenfunction
with E = n1 + ... + nd + d/2 + mu1 + ... + mud, for symbolic mu.
"""

import pytest

sympy = pytest.importorskip("sympy")

from dunklweyl.states import fock  # noqa: E402


def _number(b):
    p, q, r, s = (sympy.Rational(v) for v in (b.p, b.q, b.r, b.s))
    return p + sympy.I * q + sympy.sqrt(2) * (r + sympy.I * s)


def _wavefunction(ns, xs, mus):
    poly = 0
    for exps, coeff in fock(ns).polynomial.terms():
        c = sum(_number(b) * sympy.Mul(*(m ** e for m, e in zip(mus, expo)))
                for expo, b in coeff.terms())
        poly += c * sympy.Mul(*(x ** e for x, e in zip(xs, exps)))
    return poly * sympy.exp(-sum(x ** 2 for x in xs) / 2)


def _dunkl(f, x, mu):
    return sympy.diff(f, x) + mu * (f - f.subs(x, -x)) / x


def _hamiltonian(f, xs, mus):
    return sum(-_dunkl(_dunkl(f, x, mu), x, mu) / 2 + x ** 2 * f / 2
               for x, mu in zip(xs, mus))


def _assert_eigen(ns):
    d = len(ns)
    xs = sympy.symbols(f"x1:{d + 1}", real=True)
    mus = sympy.symbols(f"mu1:{d + 1}")
    psi = _wavefunction(ns, xs, mus)
    energy = sum(ns) + sympy.Rational(d, 2) + sum(mus)
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

"""Tests for the named-operator registry and its structural invariants."""

import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from dunklweyl import builders, dsl
from dunklweyl.builders import MAX_DIMS, build, names
from dunklweyl.opalg import OperatorElement, anticommutator, commutator
from dunklweyl.scalars import I, SQRT2

# str(build(name, dims)) for every registry name at dims 1-3, keyed
# "dims:name": how the registry composes an operator may change, its
# normal form may not.
REGISTRY_NF = Path(__file__).parent / "golden" / "registry_nf.json"


def x(i, n, p=1):
    return OperatorElement.x(i, n, p)


def d(i, n, p=1):
    return OperatorElement.d(i, n, p)


def r(i, n):
    return OperatorElement.r(i, n)


class TestRegistry:
    def test_names_listing(self):
        one = names(1)
        two = names(2)
        assert "D1" in one and "Q1" in one and "H" in one
        assert "J+" not in one
        for required in ("J+", "J-", "J0", "C", "P", "K0", "K1", "K2",
                         "E0", "E1", "E2", "F+", "F-", "Htilde"):
            assert required in two

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build("Z1", 1)
        with pytest.raises(KeyError):
            build("J+", 1)

    def test_index_out_of_range(self):
        # A variable past dims is an unknown name, as any other is.
        with pytest.raises(KeyError, match="'A\\+3'"):
            build("A+3", 2)

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            build("H", 0)

    def test_one_dims_bound(self):
        # A generator, a composite and the name table refuse the same
        # dims, with the message the expression language gives.
        for refused in (lambda: build("x1", MAX_DIMS + 1),
                        lambda: build("H", MAX_DIMS + 1),
                        lambda: names(MAX_DIMS + 1),
                        lambda: dsl.parse("x1", MAX_DIMS + 1)):
            with pytest.raises(ValueError,
                               match=f"^dims must be at most {MAX_DIMS}$"):
                refused()
        # At the bound itself a composite still builds.
        assert not build("H", MAX_DIMS).is_zero()

    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_pinned_normal_forms(self, dims):
        pinned = {key.split(":", 1)[1]: nf
                  for key, nf in json.loads(REGISTRY_NF.read_text()).items()
                  if key.startswith(f"{dims}:")}
        assert set(names(dims)) == set(pinned)
        for name, nf in pinned.items():
            assert str(build(name, dims)) == nf, name

    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_shapes(self, dims):
        # The shape each value is built in decides which rules of
        # opalg._RULES meet it: the two-variable products stay factored
        # on variables 1 and 2, and the squares record their base.
        factored = ({"J+", "J-", "F+", "F-", "P", "Jtilde+", "Jtilde-",
                     "Ktilde+", "Ktilde-", "K+", "K-"} if dims == 2 else set())
        powers = {f"{square}{i}": f"{base}{i}"
                  for i in range(1, dims + 1)
                  for square, base in (("Hc", "Qc"), ("Kc", "Sc"),
                                       ("H_susy", "Q"))}
        if dims == 1:
            powers["H_susy"] = "Q1"
        if dims == 2:
            powers.update({"K+": "J+", "K-": "J-"})
        for name in names(dims):
            value = build(name, dims)
            factors = value._parts()[1]
            keys = None if factors is None else set(factors)
            assert keys == ({0, 1} if name in factored else None), name
            record = value._power
            if name in powers:
                assert record is not None, name
                assert record[0] is build(powers[name], dims), name
                assert record[1] == 2, name
            else:
                assert record is None, name

    def test_build_is_cached(self):
        assert build("H", 2) is build("H", 2)

    def test_each_operator_built_once(self, monkeypatch):
        # Composite operators take their parts from the cache too, so a
        # cold build of every name constructs each (name, dims) once.
        counts = Counter()
        inner = builders._build

        def counting(name, dims):
            counts[name, dims] += 1
            return inner(name, dims)

        monkeypatch.setattr(builders, "_build", counting)
        build.cache_clear()
        try:
            for dims in (1, 2, 3):
                for name in names(dims):
                    build(name, dims)
        finally:
            build.cache_clear()
        assert counts["D1", 2] == 1
        assert set(counts.values()) == {1}


@pytest.mark.parametrize("dims", range(1, MAX_DIMS + 1))
def test_build_refuses_exactly_what_names_omits(dims):
    # The lexer hands build only the names it lists; a library caller may
    # pass any other, and build refuses it as unknown.
    listed = names(dims)
    for name in listed:
        build(name, dims)
    refused = ["x0", f"A+{dims + 1}", f"mu{dims + 1}", "J+1", "Z1"]
    if dims != 2:
        refused.append("J+")
    for name in refused:
        assert name not in listed
        with pytest.raises(KeyError, match="^\"unknown operator name: "):
            build(name, dims)


class TestDefinitions:
    def test_dunkl_operator_display(self):
        mu = build("mu1", 1)
        expected = d(0, 1) + mu * x(0, 1, -1) * (OperatorElement.identity(1) - r(0, 1))
        assert build("D1", 1) == expected

    def test_undeformed_limit(self):
        assert build("D1", 1).substitute_params([0]) == d(0, 1)
        aplus = build("A+1", 1).substitute_params([0])
        assert aplus == (x(0, 1) - d(0, 1)) / SQRT2

    def test_hamiltonian_from_dunkl(self):
        D = build("D1", 2)
        expected = -D * D / 2 + x(0, 2, 2) / 2
        assert build("H1", 2) == expected

    def test_a0_is_the_hamiltonian(self):
        assert build("A01", 2) == build("H1", 2)

    def test_quadratic_ladder(self):
        for sign in "+-":
            a = build(f"A{sign}1", 2)
            assert build(f"B{sign}1", 2) == a * a / 2

    def test_total_hamiltonian_splits(self):
        assert build("H", 2) == build("H1", 2) + build("H2", 2)
        assert build("H", 3) == build("H1", 3) + build("H2", 3) + build("H3", 3)

    def test_two_variable_generators(self):
        assert build("J+", 2) == build("A+1", 2) * build("A-2", 2)
        assert build("J-", 2) == build("A-1", 2) * build("A+2", 2)
        assert build("J0", 2) == build("H1", 2) - build("H2", 2)
        assert build("P", 2) == r(0, 2) * r(1, 2)

    def test_squared_and_rescaled_generators(self):
        jp, jm, j0 = build("J+", 2), build("J-", 2), build("J0", 2)
        assert build("K+", 2) == jp * jp
        assert build("K-", 2) == jm * jm
        assert build("K0", 2) == j0 / 8
        assert build("K1", 2) == (build("K+", 2) + build("K-", 2) + j0 * j0 / 2) / 8
        assert build("K2", 2) == commutator(build("K0", 2), build("K1", 2))

    def test_superalgebra_generators(self):
        jp, jm, j0 = build("J+", 2), build("J-", 2), build("J0", 2)
        assert build("E0", 2) == j0 / 8
        assert build("E1", 2) == (jp * jp + jm * jm + j0 * j0 / 2) / 8
        assert build("E2", 2) == (jp * jp - jm * jm) / 16
        assert build("F+", 2) == jp
        assert build("F-", 2) == jm

    def test_supercharge_display(self):
        mu = build("mu1", 1)
        expected = (d(0, 1) * r(0, 1) + x(0, 1) - mu * x(0, 1, -1)) / SQRT2
        assert build("Q1", 1) == expected

    def test_susy_hamiltonian_is_square(self):
        q = build("Q1", 1)
        assert build("H_susy1", 1) == q * q

    def test_casimir_display(self):
        mu1, mu2 = build("mu1", 2), build("mu2", 2)
        jp, jm, j0 = build("J+", 2), build("J-", 2), build("J0", 2)
        expected = (j0 * j0 + 2 * anticommutator(jp, jm)
                    + 2 * (mu1 * r(0, 2) + mu2 * r(1, 2))
                    + 4 * mu1 * mu2 * r(0, 2) * r(1, 2))
        assert build("C", 2) == expected

    def test_structure_constant_parts(self):
        h = build("H", 2)
        mu1, mu2 = build("mu1", 2), build("mu2", 2)
        gamma1 = 3 - h * h - 2 * mu1 * mu1 - 2 * mu2 * mu2
        gamma2 = 2 * mu1 * mu1 - 2 * mu2 * mu2
        assert build("gamma1", 2) == gamma1
        assert build("gamma2", 2) == gamma2
        assert build("omega1", 2) == gamma1 / 2
        assert build("omega2", 2) == gamma2 / 2
        assert build("delta", 2) == (h * h - 1) / 2

    def test_gauged_displays(self):
        mu = build("mu1", 1)
        half = Fraction(1, 2)
        xm1 = x(0, 1, -1)
        assert build("Htilde1", 1) == half * (
            -d(0, 1, 2) + x(0, 1, 2) + mu * mu * x(0, 1, -2)
            - mu * x(0, 1, -2) * r(0, 1))
        assert build("Atilde+1", 1) == (
            x(0, 1) - d(0, 1) + mu * xm1 * r(0, 1)) / SQRT2
        assert build("Atilde-1", 1) == (
            x(0, 1) + d(0, 1) - mu * xm1 * r(0, 1)) / SQRT2
        mu1, mu2 = build("mu1", 2), build("mu2", 2)
        assert build("Htilde", 2) == (
            -(d(0, 2, 2) + d(1, 2, 2)) / 2
            + (x(0, 2, 2) + x(1, 2, 2) + mu1 * mu1 * x(0, 2, -2)
               + mu2 * mu2 * x(1, 2, -2)) / 2
            - mu1 * x(0, 2, -2) * r(0, 2) / 2
            - mu2 * x(1, 2, -2) * r(1, 2) / 2)

    def test_gauge_frame_generators(self):
        qc = (build("Atilde-1", 1) - build("Atilde+1", 1)) * r(0, 1) / 2
        sc = r(0, 1) * (build("Atilde+1", 1) + build("Atilde-1", 1)) / 2 / I
        assert build("Qc1", 1) == qc
        assert build("Sc1", 1) == sc
        assert build("Hc1", 1) == qc * qc
        assert build("Kc1", 1) == sc * sc
        assert build("Dc1", 1) == -anticommutator(qc, sc) / 2
        jp = build("Atilde+1", 2) * build("Atilde-2", 2)
        jm = build("Atilde-1", 2) * build("Atilde+2", 2)
        assert build("Jtilde+", 2) == jp
        assert build("Jtilde-", 2) == jm
        assert build("Jtilde0", 2) == build("Htilde1", 2) - build("Htilde2", 2)
        assert build("Ktilde+", 2) == jp * jp
        assert build("Ktilde-", 2) == jm * jm

    def test_nd_supercharge_coproduct(self):
        q3 = build("Q_susy", 3)
        expected = (build("Q1", 3) * r(1, 3) * r(2, 3)
                    + build("Q2", 3) * r(2, 3)
                    + build("Q3", 3))
        assert q3 == expected
        assert build("Q_susy", 1) == build("Q1", 1)


class TestHermiticity:
    # Flat pairing: generators with no bare derivative outside a dR block
    # are symmetric as written.
    def test_flat_symmetric(self):
        for name in ("Q1", "Qc1", "Sc1", "Hc1", "Kc1", "Dc1", "Htilde1"):
            a = build(name, 1)
            assert a.adjoint() == a, name
        hsusy = build("H_susy", 2)
        assert hsusy.adjoint() == hsusy

    def test_flat_hamiltonian_defect(self):
        # Under the flat pairing the deformed Hamiltonian is NOT
        # symmetric; the defect is the weight's logarithmic derivative
        # acting through the first-order part.
        h1 = build("H1", 1)
        mu = build("mu1", 1)
        defect = 2 * mu * x(0, 1, -1) * d(0, 1) - mu * x(0, 1, -2)
        assert h1.adjoint() - h1 == defect


class TestParityGrading:
    def test_reflection_conjugation(self):
        # R A± R = -A±, R B± R = B±: the reflection grades the ladder.
        rr = r(0, 2)
        for name, sign in (("A+1", -1), ("A-1", -1), ("B+1", 1), ("B-1", 1)):
            a = build(name, 2)
            assert rr * a * rr == sign * a, name

    def test_j_operators_odd_under_both_reflections(self):
        for i in (0, 1):
            rr = r(i, 2)
            for name in ("J+", "J-"):
                a = build(name, 2)
                assert rr * a * rr == -a


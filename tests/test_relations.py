"""Tests for the verified identity registry."""

import contextlib
import dataclasses
import io
import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from dunklweyl import cli, opalg, relations, states
from dunklweyl.builders import build
from dunklweyl.dsl import parse_eval
from dunklweyl.opalg import OperatorElement, anticommutator, commutator
from dunklweyl.relations import FAMILIES, REGISTRY, check
from dunklweyl.scalars import Scalar

NUMERIC_POINTS = [
    (Fraction(0), Fraction(0)),
    (Fraction(1, 3), Fraction(1, 2)),
    (Fraction(-1, 4), Fraction(2, 7)),
    (Fraction(5), Fraction(-3)),
    (Fraction(-9, 5), Fraction(11, 2)),
]


class TestRegistry:
    def test_listing(self):
        assert FAMILIES == tuple(REGISTRY)
        assert len(FAMILIES) >= 15
        assert "hahn" in FAMILIES and "susy-nd" in FAMILIES
        for fid, fam in REGISTRY.items():
            assert fam.id == fid and fam.description
            assert fam.dims in (None, 1, 2)

    def test_identity_census(self):
        total = sum(len(check(f).identities) for f in FAMILIES)
        assert total >= 20

    def test_centrality_checked_before_consumers(self):
        # H enters cubic/hahn/super structure constants; its centrality
        # must be certified earlier in the reporting order.
        order = {f: k for k, f in enumerate(FAMILIES)}
        for consumer in ("cubic", "hahn", "super-even"):
            assert order["sd2-conserved"] < order[consumer]
            assert order["casimir-sd2"] < order[consumer]


class TestParametric:
    def test_all_families_pass(self):
        for report in map(check, FAMILIES):
            assert report.passed, report.family
            for ir in report.identities:
                assert ir.passed and ir.residual_terms == 0, ir.label
                assert ir.residual.is_zero()

    def test_report_plumbing(self):
        report = check("sd2")
        assert report.family == "sd2"
        assert report.mode == "parametric"
        assert report.wall_time >= 0.0
        assert report.passed == all(ir.passed for ir in report.identities)

    def test_casimir_value_identity_present(self):
        labels = [ir.label for ir in check("casimir-sd2").identities]
        assert "C = H^2 - 1" in labels


class TestNumeric:
    @pytest.mark.parametrize("point", NUMERIC_POINTS)
    def test_all_families_pass(self, point):
        for report in (check(fid, mu_values=point) for fid in FAMILIES):
            assert report.passed, (report.family, point)

    def test_single_value_is_cycled(self):
        report = check("susy-nd", mu_values=(Fraction(1, 3),))
        assert report.passed and report.mode == "numeric"

    def test_random_specializations(self):
        # Parametric pass must imply numeric pass at arbitrary rationals.
        rng = random.Random(303)
        for _ in range(4):
            point = (Fraction(rng.randint(-24, 24), rng.randint(1, 9)),
                     Fraction(rng.randint(-24, 24), rng.randint(1, 9)))
            for family in ("sl12", "sd2", "susy-1d"):
                assert check(family, mu_values=point).passed


class TestLabelsAreIdentities:
    """Every label is the identity it reports: read back through the
    expression language, its two sides give exactly the residual."""

    MU = (Fraction(4, 3), Fraction(5, 3))

    @staticmethod
    def label_residual(label, dims, mu):
        """lhs - rhs of a label read by parse_eval, on the dims of its
        n=k: prefix if it has one, at mu if given."""
        prefix, _, statement = label.rpartition(": ")
        if prefix:
            dims = int(prefix[2:])
        lhs, rhs = statement.split(" = ")
        residual = parse_eval(lhs, dims) - parse_eval(rhs, dims)
        if mu is not None:
            residual = residual.substitute_params(
                [mu[k % len(mu)] for k in range(dims)])
        return residual

    @pytest.mark.parametrize("mu", [None, MU], ids=["parametric", "numeric"])
    def test_every_label_gives_its_residual(self, mu):
        runs = [(fid, False) for fid in FAMILIES]
        runs += [(fid, True) for fid, fam in REGISTRY.items()
                 if fam.control is not None]
        for fid, perturb in runs:
            for ir in check(fid, mu_values=mu, perturb=perturb).identities:
                want = self.label_residual(ir.label, REGISTRY[fid].dims, mu)
                assert str(ir.residual) == str(want), (fid, ir.label)
                assert ir.residual == want, (fid, ir.label)


class TestPerturbedControls:
    def test_perturbable_listing(self):
        controlled = {fid for fid, fam in REGISTRY.items()
                      if fam.control is not None}
        assert controlled == {"sd2", "hahn"}

    def test_hahn_control_fails(self):
        report = check("hahn", perturb=True)
        assert not report.passed
        broken = [ir for ir in report.identities if not ir.passed]
        assert len(broken) == 1
        assert "1/3" in broken[0].label
        assert broken[0].residual_terms > 0

    # A control whose statement is not one of its family's would leave
    # every statement as it is, and the perturbed check would pass.
    @pytest.mark.parametrize("fid", [fid for fid, fam in REGISTRY.items()
                                     if fam.control is not None])
    @pytest.mark.parametrize("mu", [None, (Fraction(1, 3), Fraction(1, 2))],
                             ids=["parametric", "numeric"])
    def test_control_breaks_exactly_its_statement(self, fid, mu):
        statement, broken = REGISTRY[fid].control
        statements = REGISTRY[fid].statements
        assert statements.count(statement) == 1
        report = check(fid, mu_values=mu, perturb=True)
        assert [ir.label for ir in report.identities] == [
            broken if text == statement else text for text in statements]
        assert [ir.label for ir in report.identities if not ir.passed] == [
            broken]

    def test_sd2_control_fails_even_undeformed(self):
        assert not check("sd2", perturb=True).passed
        assert not check("sd2", mu_values=(0, 0), perturb=True).passed

    def test_perturb_rejected_elsewhere(self):
        with pytest.raises(ValueError):
            check("su11", perturb=True)


class TestTypedDerivatives:
    """susy-generic types each V' and W' beside its V and W.  A wrong
    derivative must fail its own statement, parametric and at numeric mu,
    and leave the others passing: no mu shift kills these identities, so
    this is how they show they can fail."""

    CASES = [(row, col) for row, sample
             in enumerate(relations._SUPERPOTENTIALS)
             for col in (2, 3) if sample[col] != "0"]

    @pytest.mark.parametrize("mu", [None, (Fraction(4, 3),)],
                             ids=["parametric", "numeric"])
    @pytest.mark.parametrize("row,col", CASES, ids=[
        f"{row}-{'dV' if col == 2 else 'dW'}" for row, col in CASES])
    def test_a_wrong_derivative_fails(self, monkeypatch, row, col, mu):
        samples = [list(sample) for sample in relations._SUPERPOTENTIALS]
        # One constant one higher: 2*x1 -> 3*x1, 1 -> 2.
        typed = samples[row][col]
        samples[row][col] = re.sub(
            r"\d", lambda m: str(int(m.group()) + 1), typed, count=1)
        assert samples[row][col] != typed
        monkeypatch.setitem(REGISTRY, "susy-generic", dataclasses.replace(
            REGISTRY["susy-generic"],
            statements=relations._susy_generic(samples)))
        report = check("susy-generic", mu_values=mu)
        assert [ir.passed for ir in report.identities] == [
            k != row for k in range(len(samples) + 1)]

    @pytest.mark.parametrize("mu", [None, (Fraction(4, 3),)],
                             ids=["parametric", "numeric"])
    def test_a_wrong_model_supercharge_fails(self, monkeypatch, mu):
        # Q = Q1 ties the templates to the registry's Q1.  One constant of
        # the model's W raised in that statement only must fail it alone.
        family = REGISTRY["susy-generic"]
        *squares, model = family.statements
        broken = model.replace("mu1*x1^-1", "2*mu1*x1^-1")
        assert broken.count("2*mu1*x1^-1") == 1
        monkeypatch.setitem(REGISTRY, "susy-generic", dataclasses.replace(
            family, statements=(*squares, broken)))
        report = check("susy-generic", mu_values=mu)
        assert [ir.passed for ir in report.identities] == [
            True] * len(squares) + [False]


class TestErrors:
    def test_unknown_family(self):
        with pytest.raises(KeyError):
            check("nope")

    def test_empty_values_rejected(self):
        with pytest.raises(ValueError):
            check("sl12", mu_values=())

    def test_floats_refused(self):
        # 0.3 is no exact number: read as a Fraction it would be the
        # binary fraction 5404319552844595/18014398509481984.
        with pytest.raises(TypeError, match="cannot interpret 0.3"):
            check("sd2", mu_values=[0.3, 0.5])

    def test_values_are_keyword_only(self):
        # A positional second argument is refused rather than read as
        # deformation values.
        with pytest.raises(TypeError):
            check("sl12", (1,))

    @pytest.mark.parametrize("statement, found", [
        ("[J0,J+]=2*J+", 0),
        ("J+ = J+ = J+", 2),
    ])
    def test_statement_needs_one_equals_sign(self, statement, found):
        # Named in the error, not the interpreter's unpacking message.
        with pytest.raises(ValueError, match=(
                rf"statement {re.escape(repr(statement))} needs exactly "
                rf"one ' = ', found {found}")):
            relations._residuals((statement,), 2)


class TestNegativeDemonstrations:
    # These pin down readings that look plausible but are false, so a
    # regression toward them cannot pass silently.

    def test_ungauged_squares_not_conserved_by_susy_hamiltonian(self):
        hs = build("H_susy", 2)
        assert not commutator(build("K+", 2), hs).is_zero()
        j0 = build("J0", 2)
        assert not commutator(j0 * j0, hs).is_zero()

    def test_mixed_evenodd_sign_does_not_alternate(self):
        e0, e1 = build("E0", 2), build("E1", 2)
        fp, fm = build("F+", 2), build("F-", 2)
        refl = (Scalar.parameter(0, 2) * OperatorElement.r(0, 2)
                + Scalar.parameter(1, 2) * OperatorElement.r(1, 2))
        alternating = (anticommutator(e0, fm) - anticommutator(e0, fp)
                       - Fraction(1, 4) * (fp * refl))
        assert not (commutator(e1, fm) - alternating).is_zero()

    def test_even_sector_recoupling_uses_e0_e1(self):
        e0, e1, e2 = build("E0", 2), build("E1", 2), build("E2", 2)
        h = build("H", 2)
        one = OperatorElement.identity(2)
        m1, m2 = build("mu1", 2), build("mu2", 2)
        r1, r2 = OperatorElement.r(0, 2), OperatorElement.r(1, 2)
        w1 = Fraction(3, 2) * one - h * h / 2 - (m1 * m1 + m2 * m2)
        w2 = m1 * m1 - m2 * m2
        tail = (Fraction(1, 4) * e0 * (w1 + m1 * r1 + m2 * r2)
                + Fraction(1, 32) * h * (w2 + m2 * r2 - m1 * r1))
        good = anticommutator(e0, e1) + tail
        bad = anticommutator(e0, e2) + tail
        assert (commutator(e1, e2) - good).is_zero()
        assert not (commutator(e1, e2) - bad).is_zero()


GOLDEN = Path(__file__).parent / "golden"


class TestShortcutFreeTwin:
    """With every row of ``opalg._RULES`` emptied, so that no shortcut of
    the factored path decides a product, sum or bracket, every identity
    gives the same residual, and every golden ``nf`` and registry normal
    form the same output.

    Each rule has property tests on random operators, and
    ``test_dsl.TestRuleTableTwin`` meets all of them on random trees; this
    twin checks their composition on the real families.  The registry
    caches are cleared on both sides of the run, so that no value built
    one way is read the other.

    What each entry of the table pays: one seed-1 cycle of the
    ``perfbench`` workload (23 ``scaling`` and 180 ``verify`` requests),
    each request's least warm time of five summed, in ms, the least of
    five processes, with that entry removed from its row (Python 3.11.7,
    2 vCPU; ``verify`` moves by up to 12% from process to process):

    | entry removed | ``scaling`` | ``verify`` |
    |---|---|---|
    | none | 40 | 483 |
    | ``*`` ``_constant_product`` | 40 | 489 |
    | ``*`` ``_factor_product`` | 164 | 509 |
    | ``+`` ``_combine`` | 41 | 489 |
    | ``-`` ``_combine`` | 58 | 485 |
    | ``[]`` ``_power_bracket`` | 81 | 476 |
    | ``[]`` ``_product_bracket`` | 125 | 524 |
    | ``{}`` ``_product_bracket`` | 41 | 491 |
    | every row emptied | 318 | 517 |
    """

    MU = (Fraction(1, 3), Fraction(1, 2))

    @staticmethod
    def residuals():
        runs = [(fid, mu, False) for mu in (None, TestShortcutFreeTwin.MU)
                for fid in FAMILIES]
        runs += [(fid, None, True) for fid, fam in REGISTRY.items()
                 if fam.control is not None]
        return {run: [(ir.label, str(ir.residual)) for ir in check(
            run[0], mu_values=run[1], perturb=run[2]).identities]
            for run in runs}

    @staticmethod
    def golden_nf():
        return [case for name in ("readme_cli.json", "bracket_nf.json")
                for case in json.loads((GOLDEN / name).read_text())
                if case["argv"][0] == "nf"]

    @staticmethod
    def clear_registry():
        build.cache_clear()
        states._gauged.cache_clear()

    @pytest.fixture
    def cold_registry_after(self):
        yield
        self.clear_registry()

    def test_rules_off_give_the_same_residuals(self, monkeypatch,
                                               cold_registry_after):
        want = self.residuals()
        self.clear_registry()

        monkeypatch.setattr(opalg, "_RULES", dict.fromkeys(opalg._RULES, ()))
        assert build("J+", 2)._factors is None
        assert self.residuals() == want
        for case in self.golden_nf():
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = cli.main(case["argv"])
            assert (code, stdout.getvalue()) == (case["exit"], case["stdout"])
        registry = json.loads((GOLDEN / "registry_nf.json").read_text())
        for key, nf in registry.items():
            dims, name = key.split(":", 1)
            assert str(build(name, int(dims))) == nf, key

"""Acceptance criteria: the headline guarantees of the package, end to end.

Each criterion prints one PASS/FAIL line on the terminal (bypassing
capture) so a full run leaves a human-readable scorecard.  Residual
tolerances are exact zero throughout; the only numeric bounds are the
wall-clock caps.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from helpers import random_operator, random_state, scalar

from dunklweyl import relations, states
from dunklweyl.builders import build
from dunklweyl.cli import main
from dunklweyl.dsl import parse_eval
from dunklweyl.opalg import commutator


@contextmanager
def scorecard(capsys, number: int, title: str):
    outcome = {"ok": False}
    start = time.perf_counter()
    try:
        yield outcome
        outcome["ok"] = True
    finally:
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            status = "PASS" if outcome["ok"] else "FAIL"
            print(f"acceptance {number}: {status} ({elapsed:.2f}s) {title}")


def test_criterion_1_full_parametric_verification(capsys):
    with scorecard(capsys, 1, "all identity families, parametric,"
                              " exactly-zero residuals"):
        start = time.perf_counter()
        reports = list(map(relations.check, relations.FAMILIES))
        total = time.perf_counter() - start
        assert [r.family for r in reports] == list(relations.FAMILIES)
        for report in reports:
            assert report.passed, report.family
            for ir in report.identities:
                assert ir.residual_terms == 0 and ir.residual.is_zero()
            assert report.wall_time < 60.0, report.family
        assert total < 300.0
        assert main(["verify", "all", "--parametric"]) == 0
        capsys.readouterr()


def test_criterion_2_spectrum_reproduction(capsys):
    with scorecard(capsys, 2, "exact spectra: 2D table and parametric"
                              " 1D tower"):
        start = time.perf_counter()
        table = states.spectrum_table(2, (Fraction(1, 3), Fraction(1, 2)), 6)
        for row in table.rows:
            assert row.energy.as_fraction() == row.level + Fraction(11, 6)
            assert row.degeneracy == row.level + 1
        h1 = build("H1", 1)
        for n in range(13):
            lam = states.eigencheck(h1, states.fock((n,)))
            assert lam == scalar(f"mu1 + {2 * n + 1}/2", 1)
        assert time.perf_counter() - start < 10.0


def test_criterion_3_admissibility_window(capsys):
    with scorecard(capsys, 3, "ladder-norm positivity inside the"
                              " admissible window"):
        for mu in (Fraction(-1, 4), Fraction(0), Fraction(1, 3)):
            cs = states.ladder_norm_coefficients(20, mu)
            assert len(cs) == 20
            assert all(c.evaluate((mu,)).as_fraction() > 0 for c in cs)
        c1 = states.ladder_norm_coefficients(1, Fraction(-3, 4))[0]
        value = c1.evaluate((Fraction(-3, 4),)).as_fraction()
        assert value == Fraction(-1, 2) and value < 0


def test_criterion_4_oracle_equivalence(capsys):
    with scorecard(capsys, 4, "product-action oracle and associativity,"
                              " 200 random cases each"):
        start = time.perf_counter()
        rng = random.Random(1009)
        for _ in range(200):
            n = rng.choice([1, 2])
            a = random_operator(rng, n)
            b = random_operator(rng, n)
            s = random_state(rng, n)
            assert states.apply(a * b, s) \
                == states.apply(a, states.apply(b, s))
        for _ in range(200):
            n = rng.choice([1, 2])
            a = random_operator(rng, n, max_terms=3)
            b = random_operator(rng, n, max_terms=3)
            c = random_operator(rng, n, max_terms=3)
            assert (a * b) * c == a * (b * c)
        assert time.perf_counter() - start < 60.0


def test_criterion_5_negative_controls(capsys):
    with scorecard(capsys, 5, "perturbed structure constants are caught"):
        hahn = relations.check("hahn", perturb=True)
        assert not hahn.passed
        assert any(ir.residual_terms > 0 for ir in hahn.identities)
        sd2 = relations.check("sd2", perturb=True)
        assert not sd2.passed
        sd2_zero = relations.check("sd2", mu_values=(0, 0), perturb=True)
        assert not sd2_zero.passed
        assert main(["verify", "hahn", "--perturb"]) == 1
        assert main(["verify", "sd2", "--perturb"]) == 1
        capsys.readouterr()


def test_criterion_6_susy_structure(capsys):
    with scorecard(capsys, 6, "supercharge symmetry, factorization, and"
                              " 3D cross-term cancellation"):
        start = time.perf_counter()
        q1 = build("Q1", 1)
        assert q1.adjoint() == q1
        assert build("H_susy1", 1) == q1 * q1
        q3 = build("Q_susy", 3)
        squares = sum(
            (build(f"Q{i}", 3) * build(f"Q{i}", 3) for i in (2, 3)),
            build("Q1", 3) * build("Q1", 3))
        assert (q3 * q3 - squares).is_zero()
        assert time.perf_counter() - start < 30.0


def test_criterion_7_undeformed_limit(capsys):
    with scorecard(capsys, 7, "deformation off: commutator closes"
                              " without reflection terms"):
        zeros = (0, 0)
        jp = build("J+", 2).substitute_params(zeros)
        jm = build("J-", 2).substitute_params(zeros)
        j0 = build("J0", 2).substitute_params(zeros)
        assert commutator(jp, jm) == j0
        assert relations.check("sd2", mu_values=zeros).passed


def test_criterion_8_cli_contract(capsys):
    with scorecard(capsys, 8, "expression round-trip, determinism, and"
                              " the exit-code contract"):
        rng = random.Random(1013)
        for _ in range(100):
            n = rng.choice([1, 2])
            a = random_operator(rng, n)
            assert parse_eval(str(a), n) == a

        def run(argv):
            code = main(argv)
            out = capsys.readouterr().out
            return code, out

        for argv in (["nf", "J+ * J- - comm(B+1, B-1)", "--dims", "2"],
                     ["verify", "casimir-sd2", "--format", "json"],
                     ["spectrum", "--dims", "2", "--mu", "1/3,1/2",
                      "--levels", "5", "--format", "json"]):
            code1, out1 = run(argv)
            code2, out2 = run(argv)
            assert code1 == code2 == 0
            assert out1 == out2

        code, out = run(["verify", "susy-nd", "--mu", "2/5"])
        assert code == 0 and "status: pass" in out
        code, _ = run(["verify", "hahn", "--perturb"])
        assert code == 1
        code, _ = run(["nf", "K1 +", "--dims", "2"])
        assert code == 2
        report = json.loads(run(["verify", "sd2", "--format", "json"])[1])
        assert sorted(report) == ["command", "dims", "mu_mode", "results",
                                  "status"]

"""Tests for the command-line interface: output, schema, exit codes."""

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import raising_off_axis, random_operator

import dunklweyl
from dunklweyl import builders, cli, dsl, opalg, states
from dunklweyl.cli import main

GOLDEN = Path(__file__).parent / "golden" / "readme_cli.json"
VERIFY_GOLDEN = Path(__file__).parent / "golden" / "verify_cli.json"
BRACKET_GOLDEN = Path(__file__).parent / "golden" / "bracket_nf.json"
SPECTRUM_GOLDEN = Path(__file__).parent / "golden" / "spectrum_cli.json"
EVALUATOR_GOLDEN = Path(__file__).parent / "golden" / "evaluator_cli.json"
NAMES_GOLDEN = Path(__file__).parent / "golden" / "names_cli.json"
HIGH_DIMS_GOLDEN = Path(__file__).parent / "golden" / "high_dims_nf.json"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNf:
    def test_weyl_commutator(self, capsys):
        code, out, _ = run(capsys, ["nf", "comm(d1, x1)", "--dims", "1"])
        assert code == 0 and out.strip() == "1"

    def test_parity_conjugation(self, capsys):
        code, out, _ = run(capsys, ["nf", "R1*x1*R1", "--dims", "1"])
        assert code == 0 and out.strip() == "-x1"

    def test_deformed_square(self, capsys):
        code, out, _ = run(capsys, ["nf", "D1^2", "--dims", "1"])
        assert code == 0
        assert "2*mu1*x1^-1*d1" in out and "d1^2" in out

    def test_substitution(self, capsys):
        code, out, _ = run(capsys, ["nf", "H1", "--dims", "1", "--mu", "1/3"])
        assert code == 0 and "mu1" not in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys,
                           ["nf", "x1*d1", "--dims", "1", "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert sorted(report) == ["command", "dims", "mu_mode", "results",
                                  "status"]
        assert report["command"] == "nf" and report["dims"] == 1
        assert report["results"][0]["normal_form"] == "x1*d1"

    def test_parse_error_exits_2(self, capsys):
        code, _, err = run(capsys, ["nf", "x1 +", "--dims", "1"])
        assert code == 2 and "error:" in err
        code, _, err = run(capsys, ["nf", "x9", "--dims", "2"])
        assert code == 2 and "position" in err

    @pytest.mark.parametrize("expr", ["x1^²", "x1*٣"])
    def test_digits_are_ascii(self, capsys, expr):
        # str.isdigit holds for both characters, but neither is a number
        # of the language: an unknown symbol, not a failed int() or 3*x1.
        code, out, err = run(capsys, ["nf", "--dims", "1", expr])
        assert (code, out) == (2, "")
        assert err == f"error: unknown symbol {expr[3]!r} (at position 3)\n"

    def test_mu_arity_error(self, capsys):
        code, _, err = run(capsys, ["nf", "H1", "--dims", "2", "--mu", "1/3"])
        assert code == 2


class TestVerify:
    def test_single_family_passes(self, capsys):
        code, out, _ = run(capsys, ["verify", "hahn", "--parametric"])
        assert code == 0
        assert out.splitlines()[-1] == "status: pass"

    def test_all_numeric(self, capsys):
        code, out, _ = run(capsys, ["verify", "all", "--mu", "1/3,1/2"])
        assert code == 0 and "status: pass" in out

    def test_perturbed_fails_with_exit_1(self, capsys):
        code, out, _ = run(capsys, ["verify", "hahn", "--perturb"])
        assert code == 1
        assert "FAIL" in out and "residual" in out
        code, out, _ = run(capsys,
                           ["verify", "sd2", "--perturb", "--mu", "0,0"])
        assert code == 1

    def test_unknown_family_exits_2(self, capsys):
        code, _, err = run(capsys, ["verify", "nope"])
        assert code == 2 and "unknown relation family" in err

    def test_perturb_requires_single_family(self, capsys):
        code, _, err = run(capsys, ["verify", "all", "--perturb"])
        assert code == 2
        code, _, err = run(capsys, ["verify", "su11", "--perturb"])
        assert code == 2

    def test_json_lists_identities(self, capsys):
        code, out, _ = run(capsys,
                           ["verify", "sl12", "--format", "json"])
        assert code == 0
        report = json.loads(out)
        family = report["results"][0]
        assert family["family"] == "sl12" and family["passed"]
        assert all(row["residual_terms"] == 0
                   for row in family["identities"])

    def test_modes_are_exclusive(self, capsys):
        code, _, _ = run(capsys,
                         ["verify", "sd2", "--parametric", "--mu", "0,0"])
        assert code == 2

    def test_mu_list_is_read_cyclically(self, capsys):
        # A family on n variables reads the first n values and cycles a
        # shorter list.  The perturbed control's residual depends on the
        # values, so equal reports mean equal values were read.
        def residuals(mu):
            code, out, err = run(capsys, ["verify", "sd2", "--perturb",
                                          "--format", "json", f"--mu={mu}"])
            assert code == 1 and err == ""
            return json.loads(out)["results"]

        assert residuals("1/3,1/2,2/5") == residuals("1/3,1/2")
        assert residuals("1/3") == residuals("1/3,1/3")
        assert residuals("1/3") != residuals("1/3,1/2")
        code, out, err = run(capsys, ["verify", "sd2", "--mu=1/3,1/2,2/5"])
        assert (code, out.splitlines()[-1], err) == (0, "status: pass", "")
        code, out, err = run(capsys, ["verify", "sd2", "--mu=1/3"])
        assert (code, out.splitlines()[-1], err) == (0, "status: pass", "")


class TestSpectrum:
    def test_two_dim_table(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--dims", "2",
                                    "--mu", "1/3,1/2", "--levels", "3"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split() == ["level", "energy", "degeneracy"]
        rows = [tuple(line.split()) for line in lines[1:]]
        assert rows == [("0", "11/6", "1"), ("1", "17/6", "2"),
                        ("2", "23/6", "3"), ("3", "29/6", "4")]

    def test_one_dim_undeformed(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--dims", "1", "--mu", "0",
                                    "--levels", "2"])
        assert code == 0
        assert [line.split()[1] for line in out.strip().splitlines()[1:]] \
            == ["1/2", "3/2", "5/2"]

    def test_admissibility_warning(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--dims", "1", "--mu=-3/4",
                                    "--levels", "2"])
        assert code == 0 and "warning" in out
        code, out, _ = run(capsys, ["spectrum", "--dims", "1", "--mu", "1/3",
                                    "--levels", "2"])
        assert "warning" not in out

    def test_json_carries_admissible_flag(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--dims", "1", "--mu=-3/4",
                                    "--levels", "1", "--format", "json"])
        report = json.loads(out)
        assert report["results"][0]["admissible"] is False
        assert report["results"][0]["rows"][0]["energy"] == "-1/4"

    @pytest.mark.parametrize("dims,mu,energy", [("1", "1/3", "5/6"),
                                                 ("2", "1/3,1/2", "11/6")])
    def test_ground_level_only(self, capsys, dims, mu, energy):
        code, out, _ = run(capsys, ["spectrum", "--dims", dims, "--mu", mu,
                                    "--levels", "0"])
        assert code == 0
        assert out.splitlines()[1:] == [f"0      {energy:<7} 1"]

    @pytest.mark.parametrize("change,message", [
        (lambda H, n: H + opalg.OperatorElement.x(0, n)
         * opalg.OperatorElement.x(1, n),
         "H does not separate into one-variable parts"),
        (lambda H, n: H + opalg.OperatorElement.x(0, n),
         "axis state (0, 0) failed to be an eigenstate"),
        (lambda H, n: opalg.OperatorElement.x(0, n, -2),
         "state has a pole: residual exponents (-2, 0)"),
    ], ids=("coupled", "not-diagonal", "pole"))
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_failed_certificate_exits_1(self, capsys, monkeypatch, change,
                                        message, fmt):
        # States that fail their certificate are a failed verification:
        # one error line, nothing on stdout, no traceback.
        operator = states._operator

        def changed(name, n, values):
            op = operator(name, n, values)
            return change(op, n) if name == "H" else op

        monkeypatch.setattr(states, "_operator", changed)
        code, out, err = run(capsys, ["spectrum", "--dims", "2",
                                      "--mu=1/3,1/2", "--levels", "3",
                                      "--format", fmt])
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_raise_off_its_axis_exits_1(self, capsys, monkeypatch, fmt):
        # A raise that leaves its axis fails the table's certificate.
        monkeypatch.setattr(states, "_operator",
                            raising_off_axis(states._operator))
        code, out, err = run(capsys, ["spectrum", "--dims", "2",
                                      "--mu=1/3,1/2", "--levels", "3",
                                      "--format", fmt])
        assert (code, out, err) == (
            1, "", "error: axis state (0, 1) leads with (1, 0)\n")

    def test_usage_errors(self, capsys):
        code, _, _ = run(capsys, ["spectrum", "--dims", "3", "--mu", "1,1,1"])
        assert code == 2
        code, _, _ = run(capsys, ["spectrum", "--dims", "1", "--mu", "x"])
        assert code == 2
        code, _, _ = run(capsys, ["spectrum", "--dims", "2", "--mu", "1/3"])
        assert code == 2


class TestListRelations:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, ["list-relations"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 21
        assert lines[0].startswith("sl12:")
        assert any(line.startswith("susy-nd:") for line in lines)

    def test_json(self, capsys):
        code, out, _ = run(capsys, ["list-relations", "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert report["command"] == "list-relations"
        assert len(report["results"]) == 21
        assert report["results"][0]["family"] == "sl12"


class TestZeroDenominator:
    @pytest.mark.parametrize("argv", [
        ["nf", "H1", "--dims", "1", "--mu", "1/0"],
        ["verify", "sd2", "--mu", "1/3,1/0"],
        ["spectrum", "--dims", "1", "--mu", "1/0"],
    ])
    def test_usage_error_not_traceback(self, capsys, argv):
        code, _, err = run(capsys, argv)
        assert code == 2
        assert "error:" in err and "Traceback" not in err


    @pytest.mark.parametrize("expr", ["x1/0", "x1/(x1 - x1)", "1/(0*H1)",
                                      "0^-1", "(x1-x1)^-1"])
    def test_division_by_zero(self, capsys, expr):
        code, out, err = run(capsys, ["nf", expr, "--dims", "1"])
        assert code == 2
        assert out == "" and err == "error: division by zero\n"


class TestConstantDivisor:
    @pytest.mark.parametrize("expr", ["x1/J+^2", "x1/mu1", "x1/(x1 + 1)"])
    def test_divisor_must_be_constant(self, capsys, monkeypatch, expr):
        # A product kept factored is refused as it stands, unflattened.
        def flatten(*args):
            raise AssertionError("flattened the divisor")

        monkeypatch.setattr(opalg, "_flatten", flatten)
        code, out, err = run(capsys, ["nf", expr, "--dims", "2"])
        assert code == 2
        assert out == ""
        assert err == "error: division needs a constant divisor\n"


def _refuse(*args, **kwargs):
    raise AssertionError("work started past an input limit")


class TestInputLimits:
    @pytest.mark.parametrize("argv,expected", [
        (["nf", "x1", "--dims", str(builders.MAX_DIMS)], "x1"),
        (["nf", f"x1^{dsl.MAX_EXPONENT}", "--dims", "1"],
         f"x1^{dsl.MAX_EXPONENT}"),
        (["nf", f"x1^-{dsl.MAX_EXPONENT}", "--dims", "1"],
         f"x1^-{dsl.MAX_EXPONENT}"),
        # comm(x1,x1) is six tokens, each "+x1" two more.
        (["nf", "comm(x1,x1)" + "+x1" * (dsl.MAX_TOKENS // 2 - 3),
          "--dims", "1"], f"{dsl.MAX_TOKENS // 2 - 3}*x1"),
        (["nf", "(" * dsl.MAX_NESTING + "x1" + ")" * dsl.MAX_NESTING,
          "--dims", "1"], "x1"),
        (["nf", "[" * dsl.MAX_NESTING + "x1" + ", x1]" * dsl.MAX_NESTING,
          "--dims", "1"], "0"),
    ])
    def test_at_the_limit(self, capsys, argv, expected):
        code, out, _ = run(capsys, argv)
        assert code == 0 and out == expected + "\n"

    def test_long_parenthesised_sum(self, capsys):
        # 2,000 terms are a left chain 2,000 steps long; nothing walks
        # or hashes it recursively, which would overflow the stack.
        text = "(" + "+".join(["x1"] * 2000) + ")*x1"
        code, out, err = run(capsys, ["nf", "--dims", "1", text])
        assert (code, out, err) == (0, "2000*x1^2\n", "")

    def test_levels_at_the_limit(self, capsys):
        code, out, _ = run(capsys, ["spectrum", "--dims", "1", "--mu", "0",
                                    "--levels", str(states.MAX_LEVEL)])
        assert code == 0 and len(out.splitlines()) == states.MAX_LEVEL + 2

    def test_dims_past_the_registry_bound(self, capsys):
        # The bound is the registry's; the expression language refuses a
        # larger dims with the registry's message.
        code, out, err = run(capsys, ["nf", "--dims",
                                      str(builders.MAX_DIMS + 1), "x1"])
        assert (code, out, err) == (
            2, "", f"error: dims must be at most {builders.MAX_DIMS}\n")

    # Each case poisons the first step of the work it asks for, so an
    # input past its limit must be refused before that step.
    @pytest.mark.parametrize("argv,owner,attr", [
        (["nf", "x1", "--dims", str(builders.MAX_DIMS + 1)],
         dsl, "_tokenize"),
        (["nf", f"x1^{dsl.MAX_EXPONENT + 1}", "--dims", "1"],
         dsl, "run"),
        (["nf", f"J+^-{dsl.MAX_EXPONENT + 1}", "--dims", "2"],
         dsl, "run"),
        (["spectrum", "--dims", "2", "--mu", "1/3,1/2",
          "--levels", str(states.MAX_LEVEL + 1)], states, "build"),
        # x1 then "+x1" repeated: one token more than the cap.
        (["nf", "x1" + "+x1" * (dsl.MAX_TOKENS // 2), "--dims", "1"],
         dsl, "_Parser"),
        (["nf", "(" * (dsl.MAX_NESTING + 1) + "x1"
          + ")" * (dsl.MAX_NESTING + 1), "--dims", "1"], dsl, "run"),
        (["nf", "--dims", "1", "--",
          "-" * (dsl.MAX_NESTING + 1) + "x1"], dsl, "run"),
        (["nf", "[" * (dsl.MAX_NESTING + 1) + "x1"
          + ", x1]" * (dsl.MAX_NESTING + 1), "--dims", "1"], dsl, "run"),
        (["nf", "{" * (dsl.MAX_NESTING + 1) + "x1"
          + ", x1}" * (dsl.MAX_NESTING + 1), "--dims", "1"], dsl, "run"),
    ])
    def test_past_the_limit(self, capsys, monkeypatch, argv, owner, attr):
        monkeypatch.setattr(owner, attr, _refuse)
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    # A --mu value at the limit, once as digits and once as an exponent,
    # with its normal form; past it, by one character and by far.
    _N = cli.MAX_MU_LENGTH
    _AT_MU = [("9" * _N, "9" * _N), (f"1e{_N - 1}", str(10 ** (_N - 1)))]
    _PAST_MU = ("9" * (_N + 1), f"1e{_N}", f"1e-{_N}", "1e5000",
                "1e1000000000000")

    @pytest.mark.parametrize("mu,value", _AT_MU, ids=("digits", "exponent"))
    def test_mu_at_the_limit(self, capsys, mu, value):
        code, out, err = run(capsys, ["nf", "mu1*x1", "--dims", "1",
                                      f"--mu={mu}"])
        assert (code, out, err) == (0, f"{value}*x1\n", "")
        code, out, _ = run(capsys, ["verify", "sd2", f"--mu={mu}"])
        assert code == 0 and "status: pass" in out
        code, out, _ = run(capsys, ["spectrum", "--dims", "1", f"--mu={mu}",
                                    "--levels", "2"])
        assert code == 0 and len(out.splitlines()) == 4

    # A coefficient of 4,097 digits prints; squared, it has more digits
    # than the interpreter writes for an int, and the fault is named.
    def test_coefficient_digits_at_the_limit(self, capsys):
        code, out, err = run(capsys, ["nf", "--dims", "1", "(10^64)^64"])
        assert (code, out, err) == (0, str(10 ** 4096) + "\n", "")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_coefficient_past_the_digit_limit(self, capsys, fmt):
        code, out, err = run(capsys, ["nf", "--dims", "1", "--format", fmt,
                                      "((10^64)^64)^2"])
        assert code == 2 and out == ""
        assert err == (f"error: a coefficient has more than "
                       f"{sys.get_int_max_str_digits()} digits, too large "
                       f"to print\n")
        assert "set_int_max_str_digits" not in err and "Traceback" not in err

    # A literal of as many digits as the interpreter reads into an int is
    # read, as a number or as an exponent (which is then out of range, and
    # named by a prefix and its digit count); one digit more is a parse
    # error at the literal.
    _DIGITS = sys.get_int_max_str_digits()

    @pytest.mark.parametrize("prefix,code,out,err", [
        ("", 0, "9" * _DIGITS + "\n", ""),
        ("x1^", 2, "", f"error: exponent 99999999... ({_DIGITS} digits) is "
                       f"outside -{dsl.MAX_EXPONENT}..{dsl.MAX_EXPONENT} "
                       f"(at position 3)\n"),
    ], ids=("number", "exponent"))
    def test_literal_digits_at_the_limit(self, capsys, prefix, code, out,
                                         err):
        assert run(capsys, ["nf", "--dims", "1", prefix + "9" * self._DIGITS]
                   ) == (code, out, err)
        assert len(err) < 100

    # An exponent out of range is echoed whole up to 20 digits, with its
    # sign; past that, by its sign, a prefix and its digit count.
    @pytest.mark.parametrize("exponent,echo", [
        ("9" * 20, "9" * 20),
        ("-" + "9" * 20, "-" + "9" * 20),
        ("1" + "0" * 20, "10000000... (21 digits)"),
        ("-" + "1" * 21, "-11111111... (21 digits)"),
    ], ids=("20-digits", "20-digits-negative", "21-digits",
            "21-digits-negative"))
    def test_exponent_echo(self, capsys, exponent, echo):
        code, out, err = run(capsys, ["nf", "--dims", "1", "x1^" + exponent])
        assert (code, out) == (2, "")
        assert err == (f"error: exponent {echo} is outside "
                       f"-{dsl.MAX_EXPONENT}..{dsl.MAX_EXPONENT} "
                       f"(at position {3 + exponent.startswith('-')})\n")

    @pytest.mark.parametrize("prefix", ["", "x1^"], ids=("number", "exponent"))
    def test_literal_past_the_digit_limit(self, capsys, prefix):
        code, out, err = run(capsys, ["nf", "--dims", "1",
                                      prefix + "9" * (self._DIGITS + 1)])
        assert (code, out) == (2, "")
        assert err == (f"error: number has more than {self._DIGITS} digits "
                       f"(at position {len(prefix)})\n")

    # Parsing a value past the limit is the work the limit guards, so
    # Fraction itself is poisoned.
    @pytest.mark.parametrize("mu", _PAST_MU, ids=(
        "digits", "exponent", "negative-exponent", "1e5000", "huge-exponent"))
    @pytest.mark.parametrize("argv", [
        ["nf", "mu1*x1", "--dims", "2"],
        ["verify", "sd2"],
        ["spectrum", "--dims", "2", "--levels", str(states.MAX_LEVEL)],
    ], ids=lambda argv: argv[0])
    def test_mu_past_the_limit(self, capsys, monkeypatch, argv, mu):
        monkeypatch.setattr(cli, "Fraction", _refuse)
        code, out, err = run(capsys, argv + [f"--mu=1/3,{mu}"])
        assert code == 2 and out == ""
        assert err.count("error:") == 1 and "Traceback" not in err
        assert err.endswith(f"longer than {self._N} characters "
                            "with its exponent written out\n")

    # A value that is not a rational number is named with its fault.
    @pytest.mark.parametrize("mu,message", [
        ("1/3,1/0", "zero denominator in deformation value '1/0'"),
        ("1/3,abc", "deformation value 'abc' is not a rational number"),
        ("1/3,", "empty deformation value in '1/3,'"),
        ("1/3,,1/2", "empty deformation value in '1/3,,1/2'"),
    ], ids=("zero-denominator", "unparsable", "trailing-comma", "empty-entry"))
    @pytest.mark.parametrize("argv", [
        ["nf", "mu1*x1", "--dims", "2"],
        ["verify", "sd2"],
        ["spectrum", "--dims", "2", "--levels", "2"],
    ], ids=lambda argv: argv[0])
    def test_mu_not_a_number(self, capsys, argv, mu, message):
        code, out, err = run(capsys, argv + [f"--mu={mu}"])
        assert code == 2 and out == ""
        assert err.count("error:") == 1 and "Traceback" not in err
        assert "_mu_values" not in err
        assert err.endswith(f"error: argument --mu: {message}\n")


class TestReadmeGolden:
    """Exit code and stdout of the README's examples, byte for byte."""

    @pytest.mark.parametrize("case", json.loads(GOLDEN.read_text()),
                             ids=lambda case: " ".join(case["argv"]))
    def test_stdout(self, capsys, case):
        code, out, _ = run(capsys, case["argv"])
        assert (code, out) == (case["exit"], case["stdout"])


class TestVerifyGolden:
    """Every family's labels, verdicts and residuals in the JSON report
    (parametric, numeric, and the sd2 negative control), byte for byte."""

    @pytest.mark.parametrize("case", json.loads(VERIFY_GOLDEN.read_text()),
                             ids=lambda case: " ".join(case["argv"]))
    def test_stdout(self, capsys, case):
        code, out, _ = run(capsys, case["argv"])
        assert (code, out) == (case["exit"], case["stdout"])


class TestBracketGolden:
    """Nonzero commutators and anticommutators at dims 1-3, parametric and
    at numeric mu, byte for byte: a wrong multiplier in a bracket that does
    not vanish changes this output."""

    @pytest.mark.parametrize("case", json.loads(BRACKET_GOLDEN.read_text()),
                             ids=lambda case: " ".join(case["argv"]))
    def test_stdout(self, capsys, case):
        code, out, _ = run(capsys, case["argv"])
        assert (code, out) == (case["exit"], case["stdout"])


class TestSpectrumGolden:
    """Spectra in one and two variables, text and JSON, byte for byte:
    admissible tables to levels 16 and 12, an inadmissible value, a zero
    energy (mu = -1/2, -1/2) and a zero ladder coefficient (mu = -1/2),
    the last two exiting 0 with the warning."""

    @pytest.mark.parametrize("case", json.loads(SPECTRUM_GOLDEN.read_text()),
                             ids=lambda case: " ".join(case["argv"]))
    def test_stdout(self, capsys, case):
        code, out, _ = run(capsys, case["argv"])
        assert (code, out) == (case["exit"], case["stdout"])


class TestEvaluatorGolden:
    """Numbers, quotients and powers, exit code, stdout and stderr byte for
    byte: sums and powers of numbers, a number past the digits a
    coefficient may print, every refused division and negative power, and
    negative powers that are one term, of a number, of a coordinate
    monomial and of a power that multiplies out to one."""

    @pytest.mark.parametrize("case", json.loads(EVALUATOR_GOLDEN.read_text()),
                             ids=lambda case: " ".join(case["argv"]))
    def test_output(self, capsys, case):
        assert run(capsys, case["argv"]) == (case["exit"], case["stdout"],
                                             case["stderr"])


class TestNamesGolden:
    """The edges of the name table, exit code, stdout and stderr byte for
    byte, at dims 1, 2, 3, 10 and 16: variable numbers 0, 1, dims and
    dims + 1, names that share a prefix with a longer one (A01, A010),
    names valid only in two variables, and the scalars."""

    @pytest.mark.parametrize("case", json.loads(NAMES_GOLDEN.read_text()),
                             ids=lambda case: " ".join(case["argv"]))
    def test_output(self, capsys, case):
        assert run(capsys, case["argv"]) == (case["exit"], case["stdout"],
                                             case["stderr"])


class TestHighDimsGolden:
    """Normal forms at dims 3, 4, 5, 8 and 16, exit code, stdout and
    stderr byte for byte: ladder brackets over several variables, products
    of factors on far-apart variables, flattened sums of them, adjoints,
    constants, ``0*(...)`` builds and one refused name."""

    @pytest.mark.parametrize("case", json.loads(HIGH_DIMS_GOLDEN.read_text()),
                             ids=lambda case: " ".join(case["argv"]))
    def test_output(self, capsys, case):
        assert run(capsys, case["argv"]) == (case["exit"], case["stdout"],
                                             case["stderr"])


class TestFactoredOutputDigests:
    """stdout of ladder products, pinned by its sha256 as the flat writer
    wrote it: the controls ``comm(J0, J+^k) - (2k+1)*J+^k``, ``K+^2``,
    ``mu1*J-^4`` and a product on three variables, kept factored and
    written factor by factor; ``mu2*J+^3``, whose mu2 joins the factor of
    variable 1 and so is flattened to be written; and ``0 - J+^k``, which
    is ``-J+^k`` kept factored."""

    @pytest.mark.parametrize("expr, dims, size, digest", [
        ("comm(J0, J+^3) - 7*J+^3", 2, 10652,
         "f3f23a304cb77d0cc3ebf820ba9163c6cb3e5592ade5162b9199fba52f817cab"),
        ("0 - J+^3", 2, 10637,
         "35f27880f60014b3d24f7414856ae6580f117a4bb3904960077ad4b898f003da"),
        ("comm(J0, J+^4) - 9*J+^4", 2, 20925,
         "fc517411fe72f641f2599a163a766c8c06a0d0e2f124e272ec0717987b379578"),
        ("0 - J+^4", 2, 20910,
         "426884e5143b82459c0e2b191d597e40d8a87296c6361a48f2faa1c4aa932176"),
        ("comm(J0, J+^5) - 11*J+^5", 2, 97539,
         "fb199554a67cc8a742e66159b04e6547ff9da8ea15510af62c97fe9cd893edc9"),
        ("0 - J+^5", 2, 97523,
         "fae7068f0b7155e9fa69d40a2b324e5e953028cd51f4b32bea3b1cf75bfcde05"),
        ("mu2*J+^3", 2, 11605,
         "c587f0141ee58493664e3d05352ff8d45858821af02a06a87a15272a3c1d8bb5"),
        ("K+^2", 2, 20882,
         "0dd4c22c57362f8b4056f8e231800197b39d50ff04aa5d9cd259beff8f22f393"),
        ("mu1*J-^4", 2, 23064,
         "fa8a53584e4f2552dd2b3a5b70d202d6374b5dc80cf3695220937da0ab0636c1"),
        ("A+1*A-2*A+3", 3, 2158,
         "d43cc69447866505e84afe96bebe9f13689ac61c40bbac447690d8a3a972d641"),
    ])
    def test_stdout(self, capsys, expr, dims, size, digest):
        # JSON on two variables, text on three.
        fmt = ["--format", "json"] if dims == 2 else []
        code, out, _ = run(capsys, ["nf", "--dims", str(dims), *fmt, expr])
        assert (code, len(out)) == (0, size)
        assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ["nf", "D1^2 + J+ * J-", "--dims", "2"],
        ["verify", "sd2", "--format", "json"],
        ["spectrum", "--dims", "2", "--mu", "1/3,1/2", "--levels", "4",
         "--format", "json"],
        ["list-relations"],
    ])
    def test_byte_identical_runs(self, capsys, argv):
        _, out1, _ = run(capsys, argv)
        _, out2, _ = run(capsys, argv)
        assert out1 == out2


class TestParserReuse:
    """main() builds its argparse parser once per process, so no call may
    leave state in it for the next."""

    @pytest.mark.parametrize("bad", [
        ["verify"],
        ["nf", "x1", "--dims", "two"],
        ["spectrum", "--dims", "3", "--mu", "1/3"],
        ["verify", "sd2", "--mu=1/3", "--parametric"],
    ])
    def test_usage_error_then_good_call(self, capsys, bad):
        good = ["verify", "sd2", "--format", "json"]
        fresh = []
        for argv in (bad, good):
            cli._build_parser.cache_clear()
            fresh.append(run(capsys, argv))
        cli._build_parser.cache_clear()
        assert [run(capsys, bad), run(capsys, good)] == fresh
        assert fresh[0][0] == 2 and fresh[1][0] == 0

    def test_mu_does_not_carry_over(self, capsys):
        assert run(capsys, ["verify", "sd2", "--mu=1/3"])[0] == 0
        code, out, _ = run(capsys, ["verify", "sd2", "--format", "json"])
        assert code == 0
        assert json.loads(out)["mu_mode"] == "parametric"


class TestRoundTripThroughCli:
    def test_random_expressions(self, capsys):
        from dunklweyl.dsl import parse_eval
        rng = random.Random(606)
        for _ in range(40):
            n = rng.choice([1, 2])
            a = random_operator(rng, n)
            code, out, _ = run(capsys, ["nf", str(a), "--dims", str(n)])
            assert code == 0
            assert parse_eval(out.strip(), n) == a


def _run_module(*argv, stdout=subprocess.PIPE):
    # The child imports the package from where this process found it,
    # whether that came from an install or from pytest's pythonpath.
    src = str(Path(dunklweyl.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    return subprocess.run([sys.executable, "-m", "dunklweyl.cli", *argv],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env=env)


class TestConsoleEntry:
    def test_module_invocation(self):
        proc = _run_module("nf", "comm(d1, x1)", "--dims", "1")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "1"

    def test_verify_exit_code_propagates(self):
        proc = _run_module("verify", "hahn", "--perturb")
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv,code", [
        (["list-relations"], 0),
        (["verify", "hahn", "--perturb"], 1),
    ])
    def test_closed_stdout(self, argv, code):
        # A reader that is gone before the child writes, as with `| head`.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = _run_module(*argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr
        assert proc.returncode == code

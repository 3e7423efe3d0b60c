"""Tests for the expression language: lexing, precedence, the program
the parser writes, evaluation."""

import contextlib
import io
import random
from collections import Counter
from itertools import groupby, repeat
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    random_operator, reference_bracket, reference_op_mul, reference_tokenize)

from dunklweyl import cli, dsl, opalg, relations
from dunklweyl._kernel import op_add, op_neg
from dunklweyl.builders import MAX_DIMS, build, names
from dunklweyl.dsl import ParseError, parse, parse_all, parse_eval, run
from dunklweyl.opalg import OperatorElement, commutator
from dunklweyl.scalars import SQRT2, I, Scalar


def x(i, n, p=1):
    return OperatorElement.x(i, n, p)


def _steps(text, dims):
    """The steps of text's program without their dead lists."""
    steps, _ = parse(text, dims)
    return [(op, value, args) for op, value, args, _ in steps]


class TestParsing:
    def test_ast_shape(self):
        assert parse("x1", 1) == ((("name", "x1", (), ()),), (0,))
        assert _steps("3", 1) == [("num", 3, ())]
        assert _steps("x1^2", 1) == [("name", "x1", ()), ("^", 2, (0,))]
        assert _steps("-x1", 1) == [("name", "x1", ()), ("neg", None, (0,))]
        assert _steps("comm(d1, x1)", 1) == [
            ("name", "d1", ()), ("name", "x1", ()), ("comm", None, (0, 1))]

    def test_precedence(self):
        # power binds tighter than *, which binds tighter than +; the
        # operands of a step come before it, left before right.
        assert _steps("x1 + d1*x1^2", 1) == [
            ("name", "x1", ()), ("name", "d1", ()), ("^", 2, (0,)),
            ("*", None, (1, 2)), ("+", None, (0, 3))]
        assert _steps("x1/2 - x1", 1) == [
            ("name", "x1", ()), ("num", 2, ()), ("/", None, (0, 1)),
            ("-", None, (2, 0))]

    def test_unary_minus_below_power(self):
        assert parse_eval("-x1^2", 1) == -(x(0, 1) ** 2)

    def test_whitespace(self):
        assert parse_eval("  comm( d1 ,  x1 )  ", 1) == OperatorElement.identity(1)

    def test_greedy_names(self):
        # A-1 is a single token, not a subtraction; same for J+ and
        # the tilde/underscore names with trailing indices.
        assert parse_eval("A-1*A+2", 2) == build("A-1", 2) * build("A+2", 2)
        assert parse_eval("J+ * J-", 2) == build("J+", 2) * build("J-", 2)
        assert parse_eval("Htilde1", 1) == build("Htilde1", 1)
        assert parse_eval("H_susy1", 1) == build("H_susy1", 1)
        assert parse_eval("J0^3+J0", 2) == build("J0", 2) ** 3 + build("J0", 2)

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as err:
            parse("x1 +", 1)
        assert err.value.position == 4
        with pytest.raises(ParseError) as err:
            parse("x1 x1", 1)
        assert err.value.position == 3

    def test_unknown_symbols(self):
        with pytest.raises(ParseError):
            parse("foo", 1)
        # Index beyond the working dimension is not a name at all.
        with pytest.raises(ParseError):
            parse("x3", 2)
        with pytest.raises(ParseError):
            parse("J+", 1)

    @pytest.mark.parametrize("text,dims,symbol,position", [
        ("mu3*x1", 2, "mu3", 0),
        ("x1+foo_bar*x1", 1, "foo_bar", 3),
        ("x1 + $x1", 1, "$", 5),
        ("x11", 10, "x11", 0),
        ("Htilde", 1, "Htilde", 0),
        ("comm(H, J+)", 1, "J+", 8),
        ("A+3*x1", 2, "A+3", 0),
        ("mu17", 16, "mu17", 0),
    ])
    def test_unknown_symbol_names_its_word(self, text, dims, symbol,
                                           position):
        # The whole word at the bad position (letters, digits and _, then
        # at most a sign and its digits), or the one character there; not
        # a fixed-width slice of the input nor the part past a name.
        with pytest.raises(ParseError) as err:
            parse(text, dims)
        assert err.value.position == position
        assert str(err.value) == (f"unknown symbol {symbol!r} "
                                  f"(at position {position})")

    def test_function_arity(self):
        with pytest.raises(ParseError):
            parse("comm(x1)", 1)
        with pytest.raises(ParseError):
            parse("adjoint(x1, d1)", 1)

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("", 1)
        with pytest.raises(ValueError):
            parse("x1", 0)


class TestBrackets:
    """[a, b] is comm(a, b) and {a, b} is acomm(a, b), as the paper and the
    identity labels write them."""

    @pytest.mark.parametrize("dims", [1, 2])
    def test_same_tree_as_the_function_form(self, dims):
        for a in names(dims):
            for b in names(dims):
                assert parse(f"[{a}, {b}]", dims) == parse(f"comm({a}, {b})",
                                                           dims)
                assert parse(f"{{{a}, {b}}}", dims) == parse(
                    f"acomm({a}, {b})", dims)

    @pytest.mark.parametrize("dims", [1, 2])
    def test_same_value_as_the_function_form(self, dims):
        # Each name with its neighbour in the name table.
        table = list(names(dims))
        for a, b in zip(table, table[1:] + table[:1]):
            assert parse_eval(f"[{a}, {b}]", dims) == parse_eval(
                f"comm({a}, {b})", dims), (a, b)
            assert parse_eval(f"{{{a}, {b}}}", dims) == parse_eval(
                f"acomm({a}, {b})", dims), (a, b)

    def test_nested_and_mixed(self):
        assert parse_eval("[[d1, x1], x1]", 1).is_zero()
        assert parse_eval("{A+1, A-1} - 2*A01", 2).is_zero()
        assert parse_eval("[J0, {J+, R1}] + comm(J0, acomm(J+, R1))",
                          2).is_zero()

    @pytest.mark.parametrize("text,message,position", [
        ("[J0, J+}", "expected ']'", 7),
        ("[J0]", "expected ','", 3),
        ("{J0, J+, H}", "expected '}'", 7),
        ("[J0, J+", "expected ']'", 7),
        ("J0]", "trailing input", 2),
    ])
    def test_malformed(self, text, message, position):
        with pytest.raises(ParseError) as err:
            parse(text, 2)
        assert err.value.position == position
        assert str(err.value) == f"{message} (at position {position})"


def _accepted(tokenize, text, dims):
    """The tokens of text if the parser accepts them, else None."""
    try:
        tokens = tokenize(text, dims)
        dsl._Parser().parse(tokens)
    except ParseError:
        return None
    return tokens


def _fragments(dims):
    """Pieces of input: every name, function and punctuation mark, digits,
    spaces, two characters that str.isdigit takes for digits but the
    language does not, and near misses of names (a zero index, an index
    past dims, a prefix of a name followed by a letter, a name followed
    by a digit as x11 and J+1, a name followed by a letter as H1x and
    commx, and Htilde, a name in two variables only)."""
    return (list(names(dims)) + ["adjoint", "acomm", "comm"]
            + list("+-*/^(),[]{}") + list("0123456789") + [" ", "  ", "\t"]
            + ["²", "٣"]
            + ["x0", f"mu{dims + 1}", "sqrtx", "Jx", f"A+{dims + 1}",
               "x11", "J+1", "H1x", "Htilde", "commx"])


class TestNameTable:
    """The registry is the one name table: the lexer looks each word up
    in ``names(dims)`` and the function names, and every name evaluates
    to its registry operator."""

    def test_one_name_table(self):
        functions = ["adjoint", "acomm", "comm"]
        for dims in range(1, MAX_DIMS + 1):
            for name in [*names(dims), *functions]:
                assert dsl._tokenize(name, dims) == [
                    ("name", name, 0), ("end", None, len(name))], name
        for dims in (1, 2, 3):
            for name in names(dims):
                assert parse_eval(name, dims) is build(name, dims), name

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_same_tokens_as_the_scan(self, data):
        # The scan takes the longest name that starts at each place; the
        # lexer takes the word there, its stem with the sign or its stem.
        # A name is never followed by a letter or digit in a text that
        # parses, so the two accept the same texts with the same tokens.
        # On a text both refuse, the lexer names the whole word where the
        # scan names what follows a name, so only the verdict is compared
        # there.
        dims = data.draw(st.integers(1, 4), label="dims")
        text = "".join(data.draw(
            st.lists(st.sampled_from(_fragments(dims)), max_size=12),
            label="pieces"))
        assert (_accepted(dsl._tokenize, text, dims)
                == _accepted(reference_tokenize, text, dims))


class TestEvaluation:
    def test_defining_commutator(self):
        assert parse_eval("comm(d1, x1)", 1) == OperatorElement.identity(1)

    def test_scalar_literals(self):
        one = OperatorElement.identity(1)
        assert parse_eval("i^2", 1) == -one
        assert parse_eval("sqrt2^2", 1) == 2 * one
        assert parse_eval("mu1*x1", 1) == Scalar.parameter(0, 1) * x(0, 1)
        assert parse_eval("1/2 + 1/3", 1) == Fraction(5, 6) * one

    def test_division_by_constants(self):
        assert parse_eval("x1/2", 1) == x(0, 1) / 2
        assert parse_eval("K1/4", 2) == build("K1", 2) / 4
        for bad in ("x1/d1", "x1/mu1", "x1/0", "x1/(x1 + 1)"):
            with pytest.raises(ValueError):
                parse_eval(bad, 1)

    def test_negative_powers(self):
        assert parse_eval("x1^-2", 1) == x(0, 1, -2)
        assert parse_eval("(x1*x2)^-1", 2) == x(0, 2, -1) * x(1, 2, -1)
        assert parse_eval("(2*x1)^-1", 1) == x(0, 1, -1) / 2
        # Single terms that are products kept factored.
        assert str(parse_eval("(x1*x2)^-1", 2)) == "x1^-1*x2^-1"
        assert str(parse_eval("(2*x1*x2^2)^-2", 2)) == "1/4*x1^-2*x2^-4"
        # Powers of powers: a power of a coordinate monomial is read from
        # its operand; a negative power of any other power multiplies that
        # power out first, and R1^2 and P^2 are 1.
        assert parse_eval("((2*x1)^2)^-1", 1) == x(0, 1, -2) / 4
        one = OperatorElement.identity(2)
        assert parse_eval("(R1^2)^-1", 2) == one
        assert parse_eval("(P^2)^-1", 2) == one
        assert parse_eval("(R1^2)^3", 2) == one
        for bad in ("d1^-1", "R1^-1", "(x1 + x2)^-1", "(mu1*x1)^-1",
                    "(x1*R2)^-1", "(x1*d2)^-1"):
            with pytest.raises(ValueError):
                parse_eval(bad, 2)

    def test_function_forms(self):
        assert parse_eval("comm(comm(d1, x1), x1)", 1).is_zero()
        q = build("Q1", 1)
        assert parse_eval("adjoint(Q1) - Q1", 1).is_zero()
        assert parse_eval("acomm(A+1, A-1) - 2*A01", 2).is_zero()
        assert (run(parse("adjoint(i*x1)", 1), 1, build)
                == [-parse_eval("i*x1", 1)])

    def test_registry_identity_expression(self):
        # One full structure relation straight through the parser.
        text = ("comm(K-, K+) - (J0^3"
                " + J0*(3 - H^2 - 2*mu1^2 - 2*mu2^2 + 2*mu1*R1 + 2*mu2*R2)"
                " + H*(2*mu1^2 - 2*mu2^2 + 2*mu2*R2 - 2*mu1*R1))")
        assert parse_eval(text, 2).is_zero()


class TestRoundTrip:
    def test_random_operators(self):
        rng = random.Random(505)
        for _ in range(60):
            n = rng.choice([1, 2, 3])
            a = random_operator(rng, n)
            assert parse_eval(str(a), n) == a

    def test_registry_operators(self):
        for dims in (1, 2):
            for name in names(dims):
                a = build(name, dims)
                assert parse_eval(str(a), dims) == a

    def test_zero_renders_and_parses(self):
        z = OperatorElement.zero(2)
        assert str(z) == "0"
        assert parse_eval("0", 2) == z


class TestSharing:
    """Equal subexpressions are one step, evaluated once per call."""

    @staticmethod
    def count_powers(monkeypatch):
        calls = []
        power = OperatorElement.__pow__

        def counting(self, n):
            calls.append(n)
            return power(self, n)

        monkeypatch.setattr(OperatorElement, "__pow__", counting)
        return calls

    def test_parser_interns_equal_subexpressions(self):
        assert _steps("comm(J0, J+^3) - 6*J+^3", 2) == [
            ("name", "J0", ()), ("name", "J+", ()), ("^", 3, (1,)),
            ("comm", None, (0, 2)), ("num", 6, ()), ("*", None, (4, 2)),
            ("-", None, (3, 5))]
        assert _steps("x1*x1 + x1*x1", 1) == [
            ("name", "x1", ()), ("*", None, (0, 0)), ("+", None, (1, 1))]
        # Across the texts of one parse_all, and each text's value kept.
        steps, kept = parse_all(["J+^3", "2*J+^3", "J+^3"], 2)
        assert steps == (("name", "J+", (), ()), ("^", 3, (0,), (0,)),
                         ("num", 2, (), ()), ("*", None, (2, 1), (2,)))
        assert kept == (1, 3, 1)

    def test_shared_power_evaluates_once(self, monkeypatch):
        calls = self.count_powers(monkeypatch)
        assert parse_eval("comm(J0, J+^3) - 6*J+^3", 2).is_zero()
        assert calls == [3]

    def test_distinct_powers_evaluate_apart(self, monkeypatch):
        calls = self.count_powers(monkeypatch)
        jp = build("J+", 2)
        assert parse_eval("J+^3 + J+^2", 2) == jp * jp * jp + jp * jp
        assert sorted(calls) == [2, 3]

    def test_shared_operands_of_one_node(self):
        # One step x1*x1 read by three steps, twice by one of them.
        text = "comm(x1*x1, x1*x1 + adjoint(x1*x1))"
        assert [op for op, *_ in _steps(text, 1)] == [
            "name", "*", "adjoint", "+", "comm"]
        assert parse_eval(text, 1).is_zero()
        assert parse_eval("acomm(x1*x1, x1*x1)", 1) == 2 * x(0, 1, 4)

    def test_parse_eval_goes_through_run(self, monkeypatch):
        seen = []
        monkeypatch.setattr(
            dsl, "run",
            lambda prog, dims, resolve: seen.append((prog, dims, resolve))
            or [7])
        assert dsl.parse_eval("x1", 1) == 7
        assert seen == [(parse("x1", 1), 1, build)]


class TestFactoredPath:
    """Powers of ``J+`` stay factored, and a bracket with a sum of
    one-variable terms never flattens them."""

    @staticmethod
    def count_brackets(monkeypatch):
        calls = []
        bracket = opalg.op_bracket

        def counting(A, B, nvars, sign):
            calls.append((len(A), len(B)))
            return bracket(A, B, nvars, sign)

        monkeypatch.setattr(opalg, "op_bracket", counting)
        return calls

    def test_leibniz_brackets_only_factors(self, monkeypatch):
        # J+^5 has 1,296 terms; each of its factors A+1^5 and A-2^5 has 36.
        assert len(parse_eval("J+^5", 2).kernel_op) == 1296
        assert len(parse_eval("A+1^5", 2).kernel_op) == 36
        calls = self.count_brackets(monkeypatch)
        assert parse_eval("comm(H, J+^5)", 2).is_zero()
        assert calls and max(max(sizes) for sizes in calls) <= 36

    def test_two_products_bracket_only_factors(self, monkeypatch):
        # J-^3 and J+^3 have 256 terms each; each of their factors has 16.
        assert len(parse_eval("A+1^3", 2).kernel_op) == 16
        want = parse_eval("J-^3*J+^3 - J+^3*J-^3", 2)
        calls = self.count_brackets(monkeypatch)
        assert parse_eval("comm(J-^3, J+^3)", 2) == want
        assert calls and max(max(sizes) for sizes in calls) <= 16

    @staticmethod
    def count_flattens(monkeypatch):
        calls = []
        flatten = opalg._flatten

        def counting(factors, nvars):
            calls.append(sorted(factors))
            return flatten(factors, nvars)

        monkeypatch.setattr(opalg, "_flatten", counting)
        return calls

    def test_ladder_bracket_never_flattens(self, monkeypatch):
        # Both Leibniz terms of [H, J+^5] are multiples of J+^5 that cancel.
        calls = self.count_flattens(monkeypatch)
        assert parse_eval("comm(H, J+^5)", 2).is_zero()
        assert calls == []

    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("mu", [[], ["--mu=1/3,1/2"]],
                             ids=["parametric", "numeric"])
    def test_control_never_flattens(self, monkeypatch, k, mu):
        # [J0, J+^k] is 2k*J+^k, so the control is -J+^k, kept factored
        # and rendered factor by factor: its factors' mu-supports are
        # disjoint and in variable order.
        def nf(expr):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(["nf", "--dims", "2", *mu, expr])
            return code, out.getvalue()

        want = nf(f"0 - J+^{k}")
        calls = self.count_flattens(monkeypatch)
        assert nf(f"comm(J0, J+^{k}) - {2 * k + 1}*J+^{k}") == want
        assert calls == []

    @pytest.mark.parametrize("expr", ["(J+^5)^-1", "P^-1"])
    def test_refused_inverse_never_flattens(self, capsys, monkeypatch, expr):
        # Neither is a coordinate monomial: J+^5 has 1,296 terms, and P =
        # R1*R2 does not commute with x1.
        calls = self.count_flattens(monkeypatch)
        code = cli.main(["nf", "--dims", "2", expr])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert err == ("error: negative powers need a coordinate monomial "
                       "with constant coefficient\n")
        assert calls == []

    def test_flat_bracket_where_no_rule_applies(self, monkeypatch):
        # The Casimir has terms on both variables at once, and a product
        # made by * records no base.
        casimir = build("C", 2)
        cube = parse_eval("J-*J-*J-", 2)
        calls = self.count_brackets(monkeypatch)
        assert parse_eval("comm(C, J-*J-*J-)", 2).is_zero()
        assert calls == [(len(casimir.kernel_op), len(cube.kernel_op))]

    def test_power_bracket_takes_the_base(self, monkeypatch):
        # [C, J-] = 0 decides [C, J-^3] with one bracket of J-, read flat
        # here first; the power itself is never flattened.
        sizes = (len(build("C", 2).kernel_op), len(build("J-", 2).kernel_op))
        calls = self.count_brackets(monkeypatch)
        flattens = self.count_flattens(monkeypatch)
        assert parse_eval("comm(C, J-^3)", 2).is_zero()
        assert calls == [sizes]
        assert flattens == []


# Differential grammar fuzzer -------------------------------------------------

# One variable: the raw generators, the scalar names and small integers.
# The degree in x1 and d1 is capped so that every tree stays cheap.
_NAMES = {"x1": 1, "d1": 1, "R1": 0, "mu1": 0, "i": 0, "sqrt2": 0}
_MAX_DEGREE = 6


# A test tree is a name (str), a number (int), ("^", base, exponent),
# ("adjoint", a), or (op, a, b) for op one of + - * comm acomm.  It is
# rendered to text, which is all the language reads.


@st.composite
def shared_trees(draw):
    """A small tree over one variable whose nodes reuse earlier subtrees.

    Each step combines nodes drawn from the pool of all nodes made so far,
    so subtrees recur on purpose (the same object, by several paths).  A
    step whose degree would pass the cap becomes a sum.
    """
    leaf = st.one_of(st.sampled_from(sorted(_NAMES)), st.integers(0, 4))
    pool = [(node, _NAMES.get(node, 0))
            for node in draw(st.lists(leaf, min_size=1, max_size=4))]
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(
            ["+", "-", "*", "^", "comm", "acomm", "adjoint"]))
        # One operand among the newest nodes, so that trees grow deep.
        a, da = pool[-1 - draw(st.integers(0, min(2, len(pool) - 1)))]
        b, db = pool[draw(st.integers(0, len(pool) - 1))]
        if kind == "^":
            n = draw(st.integers(0, 3))
            node, degree = ("^", a, n), da * n
        elif kind == "adjoint":
            node, degree = ("adjoint", a), da
        elif kind in ("comm", "acomm", "*"):
            node, degree = (kind, a, b), da + db
        else:
            node, degree = (kind, a, b), max(da, db)
        if degree > _MAX_DEGREE:
            node, degree = ("+", a, b), max(da, db)
        pool.append((node, degree))
    return pool[-1][0]


def _render(node, brackets=repeat(False)):
    """Fully parenthesised source text of a tree; each comm or acomm is
    written [a, b] or {a, b} where the next draw of brackets is true."""
    def text(node):
        if isinstance(node, (str, int)):
            return str(node)
        op, *args = node
        if op == "^":
            return f"({text(args[0])})^{args[1]}"
        if op in ("+", "-", "*"):
            return f"({text(args[0])} {op} {text(args[1])})"
        inner = ", ".join(map(text, args))
        if op != "adjoint" and next(brackets):
            return "[" + inner + "]" if op == "comm" else "{" + inner + "}"
        return f"{op}({inner})"
    return text(node)


def _reference(node):
    """Plain recursive evaluation: powers multiplied from the right and
    brackets as two products, one subtree at a time."""
    one = OperatorElement.identity(1)
    if isinstance(node, int):
        return node * one
    if isinstance(node, str):
        return {"x1": OperatorElement.x(0, 1), "d1": OperatorElement.d(0, 1),
                "R1": OperatorElement.r(0, 1),
                "mu1": Scalar.parameter(0, 1) * one,
                "i": I * one, "sqrt2": SQRT2 * one}[node]
    op, *args = node
    if op == "^":
        base, out = _reference(args[0]), one
        for _ in range(args[1]):
            out = out * base
        return out
    args = [_reference(arg) for arg in args]
    if op == "adjoint":
        return args[0].adjoint()
    a, b = args
    if op in ("+", "-"):
        return a + b if op == "+" else a - b
    if op == "*":
        return a * b
    return a * b - b * a if op == "comm" else a * b + b * a


class TestGrammarFuzz:
    @settings(max_examples=100, deadline=None)
    @given(shared_trees(), st.randoms(use_true_random=False))
    def test_text_tree_and_cli_agree(self, tree, rng):
        text = _render(tree, iter(lambda: rng.random() < 0.5, None))
        value = parse_eval(text, 1)
        assert value == _reference(tree)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["nf", "--dims", "1", text])
        assert (code, out.getvalue(), err.getvalue()) == (0, f"{value}\n", "")


def _check_program(prog):
    """What ``run`` relies on: each operand slot is below its step's, no
    two steps are equal, every slot but a text's own is dead exactly once,
    at its last reader, and a text's own slot is never dead."""
    steps, kept = prog
    assert len({step[:3] for step in steps}) == len(steps)
    dead_at = {}
    for k, (_, _, args, dead) in enumerate(steps):
        assert all(a < k for a in args), k
        for slot in dead:
            assert slot not in dead_at, slot
            dead_at[slot] = k
    for slot in range(len(steps)):
        readers = [k for k, step in enumerate(steps) if slot in step[2]]
        if slot in kept:
            assert slot not in dead_at, slot
        else:
            assert readers and dead_at.get(slot) == readers[-1], slot


class TestProgram:
    """The invariants of the program, on drawn texts and on every text
    the package parses: the family statements and the registry
    definitions."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(shared_trees(), min_size=1, max_size=3),
           st.randoms(use_true_random=False))
    def test_drawn_texts(self, trees, rng):
        # One more text is a subtree of the first, so that a text's own
        # value is read by a step of another text.
        node = trees[0]
        while isinstance(node, tuple) and rng.random() < 0.7:
            node = node[1] if node[0] == "^" else rng.choice(node[1:])
        brackets = iter(lambda: rng.random() < 0.5, None)
        _check_program(parse_all(
            [_render(t, brackets) for t in (*trees, node)], 1))

    def test_family_groups(self):
        for fam in relations._TABLE:
            for dims, group in groupby(
                    fam.statements,
                    key=lambda t: fam.dims or int(t[2:t.index(":")])):
                bodies = tuple(text.split(": ")[-1] for text in group)
                _check_program(relations._residuals(bodies, dims))

    @pytest.mark.parametrize("dims", [1, 2, 3])
    def test_registry_definitions(self, monkeypatch, dims):
        programs = []

        def parsing(text, dims):
            programs.append(parse(text, dims))
            return programs[-1]

        monkeypatch.setattr(dsl, "parse", parsing)
        build.cache_clear()
        for name in names(dims):
            build(name, dims)
        assert len(programs) > len(names(dims)) // 2
        for prog in programs:
            _check_program(prog)


# Rule table twin --------------------------------------------------------------

# A product or bracket whose operands' term counts multiply past this is
# drawn as a sum instead, for time only.
_RULE_PAIRS = 3000
# Products and brackets drawn twice as often: the bracket rules decide only
# where a product kept factored meets them.
_RULE_KINDS = ("+", "-", "*", "*", "^", "comm", "acomm", "comm", "acomm",
               "+*", "-*")


def _rule_trees(rng, dims):
    """Trees on dims variables whose nodes reuse earlier ones, as
    ``shared_trees`` draws them, over the registry names of at most 16
    terms and small integers; every node drawn is a root of its own.  A
    ``+*`` or ``-*`` node is ``a*b + a*c`` or ``a*b - a*c`` with one node
    ``a`` and fresh leaves ``b`` and ``c``, so that two products kept
    factored that differ in one factor meet on purpose."""
    leaves = [name for name in names(dims) if len(build(name, dims)) <= 16]

    def leaf():
        node = (rng.choice(leaves) if rng.random() < 0.8
                else rng.randint(0, 3))
        return node, parse_eval(_render(node), dims)

    pool = [leaf() for _ in range(rng.randint(1, 4))]
    first = len(pool)
    for _ in range(rng.randint(1, 8)):
        kind = rng.choice(_RULE_KINDS)
        a, va = pool[-1 - rng.randint(0, min(2, len(pool) - 1))]
        b, vb = rng.choice(pool)
        if kind == "^":
            k = rng.randint(0, 3)
            node, pairs = ("^", a, k), len(va) ** k
        elif kind in ("+*", "-*"):
            (b, vb), (c, vc) = leaf(), leaf()
            node = (kind[0], ("*", a, b), ("*", a, c))
            pairs = len(va) * (len(vb) + len(vc))
        elif kind in ("+", "-"):
            node, pairs = (kind, a, b), 0
        else:
            node, pairs = (kind, a, b), len(va) * len(vb)
        if pairs > _RULE_PAIRS:
            node = ("+", a, b)
        pool.append((node, parse_eval(_render(node), dims)))
    return [node for node, _ in pool[first:]]


def _flat_reference(roots, dims):
    """The kernel dict of each tree from ``reference_op_mul`` and
    ``reference_bracket`` on flat operands, each node once: no rule, no
    product kept factored, no recorded power."""
    memo = {}
    one = OperatorElement.identity(dims)

    def value(node):
        if id(node) in memo:
            return memo[id(node)]
        if isinstance(node, int):
            out = (node * one).kernel_op
        elif isinstance(node, str):
            out = build(node, dims).kernel_op
        elif node[0] == "^":
            base, out = value(node[1]), one.kernel_op
            for _ in range(node[2]):
                out = reference_op_mul(base, out, dims)
        else:
            op, a, b = node[0], value(node[1]), value(node[2])
            out = (op_add(a, b) if op == "+" else op_add(a, op_neg(b))
                   if op == "-" else reference_op_mul(a, b, dims)
                   if op == "*" else
                   reference_bracket(a, b, dims, -1 if op == "comm" else 1))
        memo[id(node)] = out
        return out

    return [value(root) for root in roots]


class TestRuleTableTwin:
    """Random trees in two and three variables, evaluated three ways: with
    the rules of ``opalg._RULES``, with every row of the table emptied, and
    by the flat reference.  ``TestGrammarFuzz`` draws one variable, where no
    product is ever kept factored; here every rule of the table meets
    random input."""

    @staticmethod
    def three_ways(roots, dims):
        prog = parse_all(list(map(_render, roots)), dims)

        def values():
            return [v.kernel_op for v in run(prog, dims, build)]

        on = values()
        with mock.patch.object(opalg, "_RULES",
                               dict.fromkeys(opalg._RULES, ())):
            off = values()
        return on, off, _flat_reference(roots, dims)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from((2, 3)), st.randoms(use_true_random=False))
    def test_rules_on_off_and_reference_agree(self, dims, rng):
        on, off, flat = self.three_ways(_rule_trees(rng, dims), dims)
        assert on == off == flat

    def test_every_rule_decides_a_tree(self):
        # Seeded: each entry of the table is wrapped to note the trees
        # where it decided, and every entry decides at least one.
        def noting(rule, how, seen):
            def wrapper(a, b, how_):
                out = rule(a, b, how_)
                if out is not None:
                    seen.add((how, rule.__name__))
                return out
            return wrapper

        rng, decided = random.Random(1), Counter()
        for k in range(300):
            dims, seen = 2 + k % 2, set()
            roots = _rule_trees(rng, dims)
            table = {how: tuple(noting(rule, how, seen) for rule in rules)
                     for how, rules in opalg._RULES.items()}
            with mock.patch.object(opalg, "_RULES", table):
                on, off, flat = self.three_ways(roots, dims)
            assert on == off == flat
            decided.update(seen)
        entries = {(how, rule.__name__)
                   for how, rules in opalg._RULES.items() for rule in rules}
        assert set(decided) == entries, decided

    # The drawn trees meet the power rule only where the bases' bracket is
    # zero.  Here it is a nonzero multiple of a base: [H1, A+1] = A+1,
    # [J0, J+] = 2*J+ and, mirrored, [A+1, H1] = -A+1; each template is
    # raised to seeded exponents.
    _POWER_TREES = {
        "comm(H1, A+1^{k})": lambda k: ("comm", "H1", ("^", "A+1", k)),
        "comm(J0, J+^{k})": lambda k: ("comm", "J0", ("^", "J+", k)),
        "comm(A+1^{k}, H1)": lambda k: ("comm", ("^", "A+1", k), "H1"),
    }

    @pytest.mark.parametrize("template", list(_POWER_TREES))
    def test_power_rule_from_a_nonzero_bracket(self, template):
        rng = random.Random(template)
        outcomes = []

        def noting(a, b, how):
            out = opalg._power_bracket(a, b, how)
            if out is not None:
                outcomes.append(out)
            return out

        table = {**opalg._RULES,
                 "[]": (noting, *opalg._RULES["[]"][1:])}
        assert opalg._RULES["[]"][0] is opalg._power_bracket
        for k in rng.sample(range(2, 5), 2):
            root = self._POWER_TREES[template](k)
            outcomes.clear()
            with mock.patch.object(opalg, "_RULES", table):
                on, off, flat = self.three_ways([root], 2)
            assert on == off == flat
            assert len(outcomes) == 1 and not outcomes[0].is_zero(), k

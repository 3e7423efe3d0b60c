"""Operator-expression language: tokenizer, parser and evaluator.

The surface consists of the registry names for the working dimension
(``builders.names(dims)``, which include the raw generators x1/d1/R1 and
the scalars i, sqrt2 and mu1..mun), non-negative integers, the binary
operators + - * /, integer powers with ^, the function forms comm(,),
acomm(,) and adjoint(), and the brackets [a, b] and {a, b}, which are
comm(a, b) and acomm(a, b) written as the paper writes them.  The lexer
looks each word up in that one table, so a word is a name exactly when
the registry lists it at the working dimension.  A name evaluates to the
operator its resolver gives; ``parse_eval`` resolves it to its registry
operator ``build(name, dims)``.
Precedence is power, then unary minus, then * and /, then + and -.
The registry's own composite operators are defined in this language too:
``build`` evaluates each definition with ``parse_eval``, so the two
modules call each other, and ``builders`` imports this one at its first
definition, which lets either be imported first.  The dims bound,
``MAX_DIMS``, is the registry's, checked by ``builders.check_dims``.

Every value is an operator: a number is the constant operator, its value
times the identity, and a product with a constant operator is a scalar
multiple, so ``2*J+`` is one.  Which divisions and powers stay inside
the algebra is ``OperatorElement``'s to decide (``/`` and ``**``).

The parser writes the evaluation program as it reads: each distinct
subexpression of one input, or of the several texts one ``parse_all``
reads, is one step ``(op, value, operand slots)``, listed after its
operands.  ``run`` evaluates the steps in order, each once per call,
releasing each value after its last use, so ``comm(J0, J+^5) -
11*J+^5`` raises J+ to the fifth power once.  No value outlives the
call; a program can be run again, with another resolver.

The inverse direction is ``str``: the canonical normal-form string of
an operator parses back to an equal operator (round trip at the value
level, not the token level).
"""

from __future__ import annotations

import re
import sys
from operator import add, methodcaller, mul, neg, sub, truediv
from typing import Callable, List, Optional, Sequence, Tuple

from .builders import build, check_dims, names
from .opalg import OperatorElement, anticommutator, commutator


class ParseError(ValueError):
    """Syntax or resolution failure, with the source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Bounds on the work one input can ask for, beside the registry's
# MAX_DIMS: a power is evaluated by repeated multiplication, and every
# binary operator in an expression is one more operation.  The token cap
# leaves room for the rendered normal forms the tests parse back (under
# 900 tokens).  The parser recurses once per parenthesis, function call
# and unary minus, so nesting has its own, smaller bound that keeps it
# well inside the interpreter's recursion limit; a bracket [a, b] or
# {a, b} nests like a function call.
MAX_EXPONENT = 64
MAX_TOKENS = 4096
MAX_NESTING = 64

_FUNCTIONS = ("adjoint", "acomm", "comm")
# The binary operators, one string per precedence level, loosest first.
_BINARY = ("+-", "*/")
_PUNCT = "+-*/^(),[]{}"
# Each opening bracket: the function it stands for and its closing mark.
_BRACKETS = {"[": ("comm", "]"), "{": ("acomm", "}")}
# A word: a stem of letters, digits and _, then at most one sign and its
# ASCII digits.
_WORD = re.compile(r"(\w+)(?:([+-])[0-9]*)?")
# An exponent out of range is echoed in full up to this many digits, and
# a longer one (a literal may have thousands) by a prefix and its count.
_ECHOED_DIGITS = 20


Token = Tuple[str, object, int]  # kind, value, position


def _tokenize(text: str, dims: int) -> List[Token]:
    table = names(dims)
    out: List[Token] = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if len(out) == MAX_TOKENS:
            raise ParseError(
                f"expression has more than {MAX_TOKENS} tokens", pos)
        if ch in _PUNCT:
            out.append(("punct", ch, pos))
            pos += 1
            continue
        # ASCII digits only: str.isdigit also holds for "²", which int()
        # refuses, and for "٣", which int() reads as 3.
        if "0" <= ch <= "9":
            end = pos
            while end < len(text) and "0" <= text[end] <= "9":
                end += 1
            # int() refuses more digits than the interpreter's limit
            # (0 when there is none).
            limit = sys.get_int_max_str_digits()
            if limit and end - pos > limit:
                raise ParseError(
                    f"number has more than {limit} digits", pos)
            out.append(("num", int(text[pos:end]), pos))
            pos = end
            continue
        # No name starts with punctuation or a digit.  The token is the
        # first of the whole word, its stem with the sign and its stem
        # that is a name or a function, so J+ and A-1 are one token each
        # and H+1 is H + 1; a word with none is refused whole.
        word = _WORD.match(text, pos)
        if word is None:
            raise ParseError(f"unknown symbol {ch!r}", pos)
        whole, stem, sign = word.group(0, 1, 2)
        for name in (whole, stem + (sign or ""), stem):
            if name in table or name in _FUNCTIONS:
                break
        else:
            raise ParseError(f"unknown symbol {whole!r}", pos)
        out.append(("name", name, pos))
        pos += len(name)
    out.append(("end", None, len(text)))
    return out


class _Parser:
    def __init__(self) -> None:
        # The steps of every text this parser reads, each distinct
        # (op, value, operand slots) once and after its operands, and the
        # slot of each step, keyed on the step itself.
        self.steps: List[Tuple[str, object, Tuple[int, ...]]] = []
        self.slots: dict = {}

    def node(self, op: str, value: object, *args: int) -> int:
        """The slot of the step (op, value, args), appended if new."""
        key = (op, value, *args)
        slot = self.slots.get(key)
        if slot is None:
            slot = self.slots[key] = len(self.steps)
            self.steps.append((op, value, args))
        return slot

    def peek(self) -> Token:
        return self.tokens[self.k]

    def advance(self) -> Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def nest(self, pos: int) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(
                f"expression nests deeper than {MAX_NESTING} levels", pos)

    def expect(self, value: str) -> Token:
        kind, val, pos = self.peek()
        if kind != "punct" or val != value:
            raise ParseError(f"expected {value!r}", pos)
        return self.advance()

    def parse(self, tokens: List[Token]) -> int:
        self.tokens, self.k, self.depth = tokens, 0, 0
        expr = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return expr

    def expr(self, level: int = 0) -> int:
        """A left-associative chain of the operators _BINARY[level] over
        operands of the next tighter level; past the last, a unary."""
        if level == len(_BINARY):
            return self.unary()
        node = self.expr(level + 1)
        while True:
            kind, val, _ = self.peek()
            if kind != "punct" or val not in _BINARY[level]:
                return node
            self.advance()
            node = self.node(val, None, node, self.expr(level + 1))

    def unary(self) -> int:
        kind, val, pos = self.peek()
        if kind == "punct" and val == "-":
            self.advance()
            self.nest(pos)
            node = self.node("neg", None, self.unary())
            self.depth -= 1
            return node
        return self.power()

    def power(self) -> int:
        node = self.atom()
        kind, val, _ = self.peek()
        if kind == "punct" and val == "^":
            self.advance()
            node = self.node("^", self.exponent(), node)
        return node

    def exponent(self) -> int:
        negative = False
        kind, val, pos = self.peek()
        if kind == "punct" and val == "-":
            self.advance()
            negative = True
            kind, val, pos = self.peek()
        if kind != "num":
            raise ParseError("expected an integer exponent", pos)
        self.advance()
        if val > MAX_EXPONENT:
            digits = str(val)
            if len(digits) > _ECHOED_DIGITS:
                digits = f"{digits[:8]}... ({len(digits)} digits)"
            raise ParseError(f"exponent {'-' if negative else ''}{digits} "
                             f"is outside -{MAX_EXPONENT}..{MAX_EXPONENT}",
                             pos)
        return -val if negative else val

    def atom(self) -> int:
        kind, val, pos = self.advance()
        if kind == "num":
            return self.node("num", val)
        if kind == "punct" and val == "(":
            self.nest(pos)
            inner = self.expr()
            self.expect(")")
            self.depth -= 1
            return inner
        if kind == "punct" and val in _BRACKETS:
            function, close = _BRACKETS[val]
            self.nest(pos)
            left = self.expr()
            self.expect(",")
            right = self.expr()
            self.expect(close)
            self.depth -= 1
            return self.node(function, None, left, right)
        if kind == "name":
            if val in _FUNCTIONS:
                self.nest(pos)
                self.expect("(")
                args = [self.expr()]
                while True:
                    k2, v2, _ = self.peek()
                    if k2 == "punct" and v2 == ",":
                        self.advance()
                        args.append(self.expr())
                    else:
                        break
                self.expect(")")
                self.depth -= 1
                arity = 1 if val == "adjoint" else 2
                if len(args) != arity:
                    raise ParseError(
                        f"{val} takes {arity} argument(s), got {len(args)}",
                        pos)
                return self.node(val, None, *args)
            return self.node("name", val)
        raise ParseError("expected an expression", pos)


# Each step (op, value, operand slots, slots whose last use it is), then
# the slot of each text.  op is + - * / or ^ (value the exponent), neg,
# comm, acomm, adjoint, name (value the name) or num (value the number).
Program = Tuple[Tuple[Tuple[str, object, Tuple[int, ...], Tuple[int, ...]],
                      ...],
                Tuple[int, ...]]


def parse(text: str, dims: int) -> Program:
    """Parse text into its program; dims fixes the name table."""
    return parse_all([text], dims)


def parse_all(texts: Sequence[str], dims: int) -> Program:
    """Parse several texts into one program with a value per text; a
    subexpression written in two texts is one step."""
    check_dims(dims)
    tokens = [_tokenize(text, dims) for text in texts]
    parser = _Parser()
    # A text's own value lives to the end.
    kept = tuple(parser.parse(t) for t in tokens)
    steps = parser.steps
    last = {slot: k for k, (_, _, args) in enumerate(steps) for slot in args}
    dead: List[list] = [[] for _ in steps]
    for slot, k in last.items():
        if slot not in kept:
            dead[k].append(slot)
    return tuple((op, value, args, tuple(d))
                 for (op, value, args), d in zip(steps, dead)), kept


# Evaluation ----------------------------------------------------------------

# The operator a name stands for, given the name and dims.
Resolver = Callable[[str, int], OperatorElement]
# The steps that are one operation on their operand operators.
_OPERATIONS = {"+": add, "-": sub, "*": mul, "/": truediv, "neg": neg,
               "comm": commutator, "acomm": anticommutator,
               "adjoint": methodcaller("adjoint")}


def _apply(op: str, value: object, args: List[OperatorElement], dims: int,
           resolve: Resolver) -> OperatorElement:
    """The value of one step, given the values of its operands."""
    if op == "name":
        return resolve(value, dims)
    if op == "num":
        return value * OperatorElement.identity(dims)
    if op == "^":
        return args[0] ** value
    return _OPERATIONS[op](*args)


def run(prog: Program, dims: int,
        resolve: Resolver) -> List[OperatorElement]:
    """Evaluate a program to one operator on dims variables per text,
    each step once, dropping each value after its last use; resolve gives
    the operator a name stands for."""
    steps, kept = prog
    values: List[Optional[OperatorElement]] = [None] * len(steps)
    for k, (op, value, args, dead) in enumerate(steps):
        values[k] = _apply(op, value, [values[a] for a in args], dims,
                           resolve)
        for a in dead:
            values[a] = None
    return [values[k] for k in kept]


def parse_eval(text: str, dims: int) -> OperatorElement:
    """Parse and evaluate in one step, each name to its registry
    operator."""
    return run(parse(text, dims), dims, build)[0]

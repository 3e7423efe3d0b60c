"""Shared random generators and reference implementations for tests."""

import random
import re
import sys
from fractions import Fraction
from math import gcd, lcm

from dunklweyl._kernel import (
    bn_add,
    bn_conj,
    bn_make,
    bn_mul,
    dx_rows,
    op_add,
    op_neg,
    poly_add,
    poly_div,
    poly_mul,
    poly_neg,
    poly_scale,
)
from dunklweyl import states
from dunklweyl.builders import names
from dunklweyl.dsl import MAX_TOKENS, ParseError, parse_eval
from dunklweyl.opalg import LaurentPolynomial, OperatorElement
from dunklweyl.scalars import (
    ArityMismatchError, BaseNumber, Scalar, _render_sum)


def number(p=0, q=0, r=0, s=0) -> BaseNumber:
    """``p + q*i + r*sqrt2 + s*i*sqrt2`` as a BaseNumber, each part an int
    or a Fraction."""
    parts = [Fraction(x) for x in (p, q, r, s)]
    den = lcm(*(f.denominator for f in parts))
    return BaseNumber._from_tuple(bn_make(
        *(f.numerator * (den // f.denominator) for f in parts), den))


def scalar(text: str, nvars: int) -> Scalar:
    """The Scalar that ``text``, an expression in numbers, i, sqrt2 and
    mu1..mun, evaluates to on ``nvars`` variables."""
    out = parse_eval(text, nvars).as_scalar()
    assert out is not None, f"{text!r} is not a scalar"
    return out


def random_base(rng: random.Random) -> BaseNumber:
    def frac() -> Fraction:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return number(frac(), frac(), frac(), frac())


def random_scalar(rng: random.Random, nvars: int, max_deg: int = 2,
                  max_terms: int = 3) -> Scalar:
    """A sum of up to ``max_terms`` terms ``c*mu^e``, each built with
    ``poly_add`` from a random coefficient and exponents up to
    ``max_deg``."""
    poly: dict = {}
    for _ in range(rng.randint(0, max_terms)):
        coef = random_base(rng)
        expo = tuple(rng.randint(0, max_deg) for _ in range(nvars))
        if coef:
            poly = poly_add(poly, {expo: coef._data})
    return Scalar(poly, nvars)


def random_operator(rng: random.Random, nvars: int, max_terms: int = 4,
                    max_pow: int = 3, parametric: bool = True,
                    scalar_terms: int = 3) -> OperatorElement:
    """A sum of up to ``max_terms`` random monomials, each variable's
    powers up to ``max_pow``, with coefficients that ``random_scalar``
    draws with up to ``scalar_terms`` terms or, if not ``parametric``,
    numbers."""
    out = OperatorElement.zero(nvars)
    for _ in range(rng.randint(1, max_terms)):
        if parametric:
            coeff = random_scalar(rng, nvars, max_terms=scalar_terms)
        else:
            c = random_base(rng)
            coeff = Scalar({(0,) * nvars: c._data} if c else {}, nvars)
        term = coeff * OperatorElement.identity(nvars)
        for i in range(nvars):
            a = rng.randint(-max_pow, max_pow)
            b = rng.randint(0, max_pow)
            if a:
                term = term * OperatorElement.x(i, nvars, a)
            if b:
                term = term * OperatorElement.d(i, nvars, b)
            if rng.random() < 0.5:
                term = term * OperatorElement.r(i, nvars)
        out = out + term
    return out


def random_laurent(rng: random.Random, nvars: int, max_terms: int = 4,
                   max_pow: int = 4, min_pow: int = -3) -> LaurentPolynomial:
    out = LaurentPolynomial.zero(nvars)
    for _ in range(rng.randint(1, max_terms)):
        exps = tuple(rng.randint(min_pow, max_pow) for _ in range(nvars))
        out = out + LaurentPolynomial.monomial(exps, random_scalar(rng, nvars))
    return out


def random_state(rng: random.Random, nvars: int, min_pow: int = 12,
                 max_pow: int = 20) -> LaurentPolynomial:
    # min_pow >= 12 keeps two successive applications of bounded random
    # operators (x-powers and derivative orders up to 3) pole free.
    return random_laurent(rng, nvars, max_terms=4, max_pow=max_pow,
                          min_pow=min_pow)


# The term-by-term op_mul that the common-denominator kernel replaced, kept
# verbatim as the oracle for the kernel's property tests.


def _mono_mul(m1, m2, nvars):
    """Normal-order the product of two flat monomials.

    Returns a list of ``(monomial, integer_coefficient)`` pairs.  Per
    variable: the reflection of the left factor moves past the right
    factor's x- and d-powers picking up a sign, reflections compose mod 2,
    and d-powers move past x-powers by the falling-factorial rule.
    """
    out = [((), 1)]
    j = 0
    for _ in range(nvars):
        a1 = m1[j]
        b1 = m1[j + 1]
        e1 = m1[j + 2]
        a2 = m2[j]
        b2 = m2[j + 1]
        e2 = m2[j + 2]
        j += 3
        sign = -1 if e1 and ((a2 + b2) & 1) else 1
        e = e1 ^ e2
        if b1 == 0:
            blk = (a1 + a2, b2, e)
            out = [(mo + blk, kc * sign) for mo, kc in out]
        else:
            var_terms = [
                ((a1 + a2 - k, b1 + b2 - k, e), sign * c)
                for k, c in dx_rows(b1, a2)
            ]
            out = [
                (mo + blk, kc * c)
                for mo, kc in out
                for blk, c in var_terms
            ]
    return out


def reference_op_mul(A, B, nvars):
    """Normal-ordered product of two operators on ``nvars`` variables."""
    if not A or not B:
        return {}
    acc = {}
    for m1, p1 in A.items():
        for m2, p2 in B.items():
            base = poly_mul(p1, p2)
            for mono, k in _mono_mul(m1, m2, nvars):
                tgt = acc.get(mono)
                if tgt is None:
                    acc[mono] = (dict(base) if k == 1
                                 else poly_scale(base, (k, 0, 0, 0, 1)))
                else:
                    for e, c in base.items():
                        if k != 1:
                            c = bn_mul(c, (k, 0, 0, 0, 1))
                        x = tgt.get(e)
                        if x is None:
                            tgt[e] = c
                        else:
                            v = bn_add(x, c)
                            if v[0] or v[1] or v[2] or v[3]:
                                tgt[e] = v
                            else:
                                del tgt[e]
    return {m: p for m, p in acc.items() if p}


def reference_bracket(A, B, nvars, sign):
    """``A*B + sign*B*A`` as two reference products and one linear step:
    the form the fused bracket kernel replaced."""
    BA = reference_op_mul(B, A, nvars)
    return op_add(reference_op_mul(A, B, nvars), op_neg(BA) if sign < 0 else BA)


# The state layer's own action loop and the Laurent product loop, from
# before every action went through OperatorElement.act, kept verbatim as
# oracles for the single action path.


def _reflect(f, index):
    """Substitute x_{index+1} -> -x_{index+1}."""
    out = {}
    for e, p in f._data.items():
        out[e] = poly_neg(p) if e[index] & 1 else p
    return LaurentPolynomial(out, f.nvars)


def _mul_xpow(f, index, power):
    """Multiply by x_{index+1}^power."""
    if power == 0:
        return f
    return LaurentPolynomial(
        {e[:index] + (e[index] + power,) + e[index + 1:]: p
         for e, p in f._data.items()}, f.nvars)


def reference_laurent_mul(f, g):
    """Product of two Laurent polynomials on the same variables."""
    out = {}
    for e1, p1 in f._data.items():
        for e2, p2 in g._data.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            piece = poly_mul(p1, p2)
            cur = out.get(e)
            if cur is None:
                out[e] = piece
            else:
                v = poly_add(cur, piece)
                if v:
                    out[e] = v
                else:
                    del out[e]
    return LaurentPolynomial(out, f.nvars)


def _diff(f, index):
    """Partial derivative in x_{index+1}, read off the exponent tuples:
    distinct exponents stay distinct after lowering one of them, so no two
    terms meet and nothing cancels."""
    return LaurentPolynomial(
        {e[:index] + (e[index] - 1,) + e[index + 1:]:
         poly_scale(p, (e[index], 0, 0, 0, 1))
         for e, p in f._data.items() if e[index]}, f.nvars)


def reference_apply(A, s):
    """A acting on a Gaussian-envelope state s, with the envelope's
    derivative rule d_j(p * e) = (d_j p - x_j p) * e written out; raises
    PoleError if s or the result has a negative exponent."""
    from dunklweyl.states import PoleError
    acc = {}
    for mono, coeff in A.kernel_op.items():
        f = s
        for j in range(s.nvars):
            a, b, e = mono[3 * j:3 * j + 3]
            if e:
                f = _reflect(f, j)
            for _ in range(b):
                f = _diff(f, j) - _mul_xpow(f, j, 1)
            if a:
                f = _mul_xpow(f, j, a)
        for exps, p in f._data.items():
            piece = poly_mul(coeff, p)
            cur = acc.get(exps)
            if cur is None:
                acc[exps] = piece
            else:
                v = poly_add(cur, piece)
                if v:
                    acc[exps] = v
                else:
                    del acc[exps]
    for exps in (*s._data, *acc):
        if min(exps) < 0:
            raise PoleError(f"pole at exponents {exps}")
    return LaurentPolynomial(acc, s.nvars)


# OperatorElement.act's own pair loop, from before action went through
# the kernel's op_act, kept verbatim as the oracle for it.


def reference_act(self, f):
    """Apply to a Laurent polynomial.

    Normal form acts right to left per variable: reflections first
    (x -> -x), then derivatives, then coordinate powers.
    """
    n = self._nvars
    out: dict = {}
    for mono, opoly in self.kernel_op.items():
        for fexp, fpoly in f._data.items():
            factor = 1
            new_exp = []
            for j in range(n):
                a, b, e = mono[3 * j], mono[3 * j + 1], mono[3 * j + 2]
                g = fexp[j]
                if e and (g & 1):
                    factor = -factor
                for t in range(b):
                    factor *= (g - t)
                if not factor:
                    break
                new_exp.append(g - b + a)
            if not factor:
                continue
            piece = poly_mul(opoly, fpoly)
            if factor != 1:
                piece = poly_scale(piece, (factor, 0, 0, 0, 1))
            key = tuple(new_exp)
            cur = out.get(key)
            if cur is None:
                out[key] = piece
            else:
                v = poly_add(cur, piece)
                if v:
                    out[key] = v
                else:
                    del out[key]
    return LaurentPolynomial(out, n)


# opalg._ratio from before it confirmed single-term quotients on base
# numbers, kept as the oracle for it; its division is the kernel's.


def reference_ratio(term, factor):
    """The polynomial ``c`` with ``term == c*factor``, or None if there is
    none: the quotient of one coefficient, confirmed on each in turn."""
    if not term:
        return {}
    mono = next(iter(term))
    if len(term) != len(factor) or mono not in factor:
        return None
    c = poly_div(term[mono], factor[mono])
    if c is None:
        return None
    for m, p in factor.items():
        if term.get(m) != poly_mul(p, c):
            return None
    return c


# The adjoint's own reordering loop and the Laurent polynomial's own term
# renderer, from before the adjoint went through op_mul and a Laurent
# polynomial rendered as its multiplication operator, kept verbatim as
# oracles for both.


def reference_adjoint(self):
    """Formal adjoint of the flat L^2 pairing.

    Reverses products, conjugates coefficients, and maps x -> x,
    d -> -d, R -> R.  Per variable the reversed monomial
    R^e d^b x^a re-normalizes through the same reordering rows as
    multiplication, with sign (-1)^b * (-1)^(e*(a+b)).
    """
    out: dict = {}
    n = self._nvars
    for mono, poly in self.kernel_op.items():
        conj = {e: bn_conj(c) for e, c in poly.items()}
        sign = 1
        rows = []
        for j in range(n):
            a, b, e = mono[3 * j], mono[3 * j + 1], mono[3 * j + 2]
            if b & 1:
                sign = -sign
            if e and ((a + b) & 1):
                sign = -sign
            rows.append([((a - k, b - k, e), c) for k, c in dx_rows(b, a)])
        stack = [((), 1)]
        for row in rows:
            stack = [(m + blk, kc * c) for m, kc in stack for blk, c in row]
        for m, kc in stack:
            piece = poly_scale(conj, (sign * kc, 0, 0, 0, 1))
            cur = out.get(m)
            if cur is None:
                out[m] = piece
            else:
                v = poly_add(cur, piece)
                if v:
                    out[m] = v
                else:
                    del out[m]
    return OperatorElement(out, n)


# The state layer's per-term gauge loop, from before gauge went by
# Hadamard's series of commutators, kept verbatim as the oracle for it.


def reference_gauge(A):
    """The envelope-conjugated operator e^{|x|^2/2} A e^{-|x|^2/2}.

    Each term coeff * x_j^a d_j^b R_j^e becomes coeff * x_j^a (d_j -
    x_j)^b R_j^e, so gauge(A).act(p) is the polynomial part of A acting
    on p * exp(-|x|^2/2).
    """
    n = A.nvars
    out = OperatorElement.zero(n)
    for flat, poly in A.kernel_op.items():
        piece = Scalar(poly, n) * OperatorElement.identity(n)
        for j in range(n):
            a, b, e = flat[3 * j:3 * j + 3]
            if a:
                piece = piece * OperatorElement.x(j, n, a)
            if b:
                piece = piece * (OperatorElement.d(j, n)
                                 - OperatorElement.x(j, n)) ** b
            if e:
                piece = piece * OperatorElement.r(j, n)
        out = out + piece
    return out


def reference_laurent_str(self):
    terms = []
    for exps in sorted(self._data):
        coeff = Scalar(self._data[exps], self.nvars)
        factors = [f"x{j + 1}" if g == 1 else f"x{j + 1}^{g}"
                   for j, g in enumerate(exps) if g]
        terms.append((str(coeff), "*".join(factors) or "1"))
    return _render_sum(terms)


# The renderer as it stood before an operator was written in one pass,
# kept verbatim (``_render_sum``, ``_quotient``, ``render_base``,
# ``poly_renderer``, ``_render_monomial``, ``_mono_sort_key`` and the
# ``__str__`` of each value type) as the oracle for the renderer's
# property tests.


def _reference_render_sum(terms):
    out = ""
    for cs, ms in terms:
        if ms == "1":
            body = cs
        elif cs == "1":
            body = ms
        elif cs == "-1":
            body = "-" + ms
        elif " " in cs:
            body = f"({cs})*{ms}"
        else:
            body = f"{cs}*{ms}"
        if not out:
            out = body
        elif body.startswith("-"):
            out += " - " + body[1:]
        else:
            out += " + " + body
    return out or "0"


def _reference_quotient(num, den):
    g = gcd(num, den)
    try:
        return str(num // g) if g == den else f"{num // g}/{den // g}"
    except ValueError:
        # str() of an int with more digits than the interpreter allows.
        raise ValueError(
            f"a coefficient has more than {sys.get_int_max_str_digits()} "
            f"digits, too large to print") from None


def _reference_render_base(data):
    den = data[4]
    return _reference_render_sum(
        (_reference_quotient(num, den), unit) for num, unit
        in zip(data, ("1", "i", "sqrt2", "i*sqrt2")) if num)


def _reference_poly_renderer():
    numbers = {}
    monomials = {}

    def render(poly):
        terms = []
        for expo in sorted(poly, reverse=True):
            coef = poly[expo]
            cs = numbers.get(coef)
            if cs is None:
                cs = numbers[coef] = _reference_render_base(coef)
            ms = monomials.get(expo)
            if ms is None:
                ms = monomials[expo] = "*".join(
                    f"mu{i + 1}" if e == 1 else f"mu{i + 1}^{e}"
                    for i, e in enumerate(expo) if e) or "1"
            terms.append((cs, ms))
        return _reference_render_sum(terms)

    return render


def _reference_render_monomial(flat, blocks):
    factors = []
    for j, texts in enumerate(blocks):
        block = flat[3 * j:3 * j + 3]
        text = texts.get(block)
        if text is None:
            a, b, e = block
            v = j + 1
            text = texts[block] = "*".join(part for part in (
                (f"x{v}" if a == 1 else f"x{v}^{a}") if a else "",
                (f"d{v}" if b == 1 else f"d{v}^{b}") if b else "",
                f"R{v}" if e else "") if part)
        if text:
            factors.append(text)
    return "*".join(factors) or "1"


def _reference_mono_sort_key(flat, nvars):
    # Reflection-free, low-order terms first; deterministic everywhere.
    return tuple((flat[3 * j + 2], flat[3 * j + 1], flat[3 * j])
                 for j in range(nvars))


def _reference_operator_str(n, data):
    flats = sorted(data, key=lambda m: _reference_mono_sort_key(m, n))
    coefficient, blocks = _reference_poly_renderer(), [{} for _ in range(n)]
    return _reference_render_sum(
        (coefficient(data[m]), _reference_render_monomial(m, blocks))
        for m in flats)


def reference_render(value):
    """Text of a ``BaseNumber``, ``Scalar``, ``OperatorElement`` or
    ``LaurentPolynomial``."""
    if isinstance(value, BaseNumber):
        return _reference_render_base(value._data)
    if isinstance(value, Scalar):
        return _reference_poly_renderer()(value.kernel_poly)
    data = value.kernel_op
    if isinstance(value, LaurentPolynomial):
        data = {sum(((g, 0, 0) for g in exps), ()): poly
                for exps, poly in data.items()}
    return _reference_operator_str(value.nvars, data)


# The expression lexer as a scan: every name tried with str.startswith at
# each token, longest first, over its own list of the raw generators,
# scalars and function names beside the registry names.  Duplicates in
# the list are harmless; only the first, longest match counts.  Numbers
# are ASCII digit runs: "²" and "٣" are digits to str.isdigit, but not
# to the language.
_REFERENCE_FUNCTIONS = ("adjoint", "acomm", "comm")
_REFERENCE_PUNCT = "+-*/^(),[]{}"
_REFERENCE_DIGITS = "0123456789"
_REFERENCE_WORD = re.compile(r"\w+")


def _reference_lexicon(dims):
    entries = list(names(dims)) + list(_REFERENCE_FUNCTIONS) + ["sqrt2", "i"]
    for k in range(1, dims + 1):
        entries += [f"x{k}", f"d{k}", f"R{k}", f"mu{k}"]
    entries.sort(key=lambda s: (-len(s), s))
    return entries


def reference_tokenize(text, dims):
    """The tokens of ``text`` as ``(kind, value, position)``, ending in an
    ``end`` token, or ``ParseError`` at the first symbol no entry fits."""
    lexicon = _reference_lexicon(dims)
    out = []
    pos = 0
    while pos < len(text):
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if len(out) == MAX_TOKENS:
            raise ParseError(
                f"expression has more than {MAX_TOKENS} tokens", pos)
        matched = None
        for entry in lexicon:
            if text.startswith(entry, pos):
                matched = entry
                break
        if matched is not None:
            out.append(("name", matched, pos))
            pos += len(matched)
            continue
        if ch in _REFERENCE_PUNCT:
            out.append(("punct", ch, pos))
            pos += 1
            continue
        if ch in _REFERENCE_DIGITS:
            end = pos
            while end < len(text) and text[end] in _REFERENCE_DIGITS:
                end += 1
            out.append(("num", int(text[pos:end]), pos))
            pos = end
            continue
        word = _REFERENCE_WORD.match(text, pos)
        symbol = word.group() if word else ch
        raise ParseError(f"unknown symbol {symbol!r}", pos)
    out.append(("end", None, len(text)))
    return out


# The planar walk up the Fock ladder and the eigencheck of every state of
# each level against the total Hamiltonian, from before spectra went by one
# walk per variable, kept verbatim as the oracle for spectrum_table.


def reference_ladder(dims, values, max_level):
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
    raisers = [states._operator(f"A+{j + 1}", dims, values)
               for j in range(dims)]
    lowerers = [states._operator(f"A-{j + 1}", dims, values)
                for j in range(dims)]
    level = {(0,) * dims: states.ground(dims)}
    yield level, []
    for n in range(1, max_level + 1):
        below, level = level, {}
        for ns in states._level_states(dims, n):
            j = max(i for i, k in enumerate(ns) if k)
            lowered = ns[:j] + (ns[j] - 1,) + ns[j + 1:]
            level[ns] = states._check_pole_free(raisers[j].act(below[lowered]))
        coefficients = []
        for j, lower in enumerate(lowerers):
            top = (0,) * j + (n,) + (0,) * (dims - j - 1)
            image = lower.act(level[top])
            c = image.ratio(below[top[:j] + (n - 1,) + top[j + 1:]])
            if c is None:
                # The states have no pole, so an image with one has no
                # ratio: report the pole before the failed lowering.
                states._check_pole_free(image)
                raise ArithmeticError(f"lowering state {top} left the ladder")
            coefficients.append(c)
        yield level, coefficients


def reference_spectrum_table(dims, mu_values, max_level):
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
    if max_level > states.MAX_LEVEL:
        raise ValueError(f"max_level must be at most {states.MAX_LEVEL}")
    values = tuple(BaseNumber(v) for v in mu_values)
    if len(values) != dims:
        raise ArityMismatchError(
            f"need {dims} deformation values, got {len(values)}")
    hamiltonian = states._operator("H", dims, values)

    rows = []
    admissible = True
    for level, (level_states, coefficients) in enumerate(
            reference_ladder(dims, values, max_level)):
        if any(c.evaluate(values).as_fraction() <= 0 for c in coefficients):
            admissible = False
        energy = None
        leading = set()
        for ns, state in level_states.items():
            image = hamiltonian.act(state)
            lam = image.ratio(state)
            if lam is None:
                # As in reference_ladder: a pole, if any, is why there is no
                # ratio.
                states._check_pole_free(image)
                raise ArithmeticError(
                    f"state {ns} failed to be an eigenstate")
            value = lam.evaluate(values)
            if energy is None:
                energy = value
            elif value != energy:
                raise ArithmeticError(
                    f"level {level} eigenvalues disagree: {value} != {energy}")
            leading.add(max(state.exponents()))
        if len(leading) != len(level_states):
            raise ArithmeticError(
                f"level {level} states are not independent")
        assert energy is not None
        rows.append(states.SpectrumRow(level, energy, len(level_states)))
    return states.SpectrumTable(dims, values, tuple(rows), admissible)


def raising_off_axis(operator):
    """``states._operator`` with variable 2's ladder read as variable 1's
    at dims 2, ``A+2`` as ``A+1`` and ``A-2`` as ``A-1``: variable 2's walk
    then raises along x1, off its own axis."""
    def changed(name, n, values):
        if n == 2 and name in ("A+2", "A-2"):
            name = name[:2] + "1"
        return operator(name, n, values)
    return changed

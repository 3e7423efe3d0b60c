"""Tests for the Gaussian-envelope state space: spectra, parity, ladders."""

import copy
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    raising_off_axis, random_operator, random_state, reference_apply,
    reference_gauge, reference_spectrum_table, scalar)

from dunklweyl import _kernel, states
from dunklweyl.builders import build, names
from dunklweyl.opalg import LaurentPolynomial, OperatorElement
from dunklweyl.scalars import ArityMismatchError, SQRT2
from dunklweyl.states import (
    PoleError,
    _gauged,
    _parts,
    _walk,
    apply,
    eigencheck,
    fock,
    gauge,
    ground,
    ladder_norm_coefficients,
    spectrum_table,
)


class TestStateBasics:
    def test_ground_is_constant(self):
        assert ground(1) == LaurentPolynomial.monomial((0,))
        assert fock((0, 0)) == ground(2)

    def test_fock_one_is_odd_degree_one(self):
        f1 = fock((1,))
        assert f1 == SQRT2 * LaurentPolynomial.monomial((1,))

    def test_construction_rejects_poles(self):
        # x1 would take the pole away, so only the check of the state
        # that apply and eigencheck are given can raise.
        x1, pole = OperatorElement.x(0, 1), LaurentPolynomial.monomial((-1,))
        with pytest.raises(PoleError):
            apply(x1, pole)
        with pytest.raises(PoleError):
            eigencheck(x1, pole)

    def test_eq_across_arities(self):
        # Values on different numbers of variables are unequal; only
        # arithmetic between them is an error.
        one1 = LaurentPolynomial.monomial((0,))
        one2 = LaurentPolynomial.monomial((0, 0))
        assert ground(1) != one2
        assert one1 != one2
        assert OperatorElement.x(0, 1) != OperatorElement.x(0, 2)
        assert not OperatorElement.identity(1) == OperatorElement.identity(2)
        with pytest.raises(ArityMismatchError):
            ground(1) + ground(2)
        with pytest.raises(ArityMismatchError):
            one1 - one2
        with pytest.raises(ArityMismatchError):
            OperatorElement.x(0, 1) - OperatorElement.x(0, 2)

    def test_occupation_validation(self):
        with pytest.raises(ValueError):
            fock((-1,))
        with pytest.raises(ValueError):
            fock(())

    def test_vector_space_ops(self):
        s, t = fock((1,)), fock((2,))
        assert s + t - s == t
        assert -s == -1 * s
        assert 2 * s == s + s
        assert (s + t) - t == s


class TestApply:
    def test_annihilates_ground(self):
        assert apply(build("A-1", 1), ground(1)).is_zero()

    def test_ground_energy(self):
        lam = eigencheck(build("H1", 1), ground(1))
        assert lam == scalar("mu1 + 1/2", 1)

    def test_linearity(self):
        rng = random.Random(401)
        for _ in range(20):
            A = random_operator(rng, 1)
            s = random_state(rng, 1)
            t = random_state(rng, 1)
            assert apply(A, s + t) == apply(A, s) + apply(A, t)
            assert apply(A, 3 * s) == 3 * apply(A, s)

    def test_product_oracle(self):
        # Operator multiplication was defined by reordering rules; the
        # action on states is computed independently, so composition is
        # an oracle for the product.
        rng = random.Random(402)
        for _ in range(60):
            n = rng.choice([1, 2])
            A = random_operator(rng, n)
            B = random_operator(rng, n)
            s = random_state(rng, n)
            assert apply(A * B, s) == apply(A, apply(B, s))

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatchError):
            apply(build("H1", 2), ground(1))

    def test_inputs_left_untouched(self):
        # Kernel sums share inner polynomial dicts with their inputs
        # (op_add passes unmatched terms through), so neither
        # gauge nor act may write into a dict it did not create.
        rng = random.Random(404)
        cases = [(build("A+1", 1), fock((3,))), (build("H", 2), fock((2, 1))),
                 (OperatorElement.x(0, 1, 2) * OperatorElement.r(0, 1)
                  + OperatorElement.r(0, 1), fock((2,)))]
        for _ in range(30):
            n = rng.choice([1, 2])
            cases.append((random_operator(rng, n), random_state(rng, n)))
        for A, s in cases:
            op_before = copy.deepcopy(A.kernel_op)
            state_before = copy.deepcopy(s.kernel_op)
            image = apply(A, s)
            assert A.kernel_op == op_before
            assert s.kernel_op == state_before
            assert apply(A, s) == image

    def test_pole_reported(self):
        # The supercharge carries a bare inverse power, so the ground
        # state is outside its domain.
        with pytest.raises(PoleError):
            apply(build("Q1", 1), ground(1))

    def test_hamiltonians_never_pole_on_fock_states(self):
        # The inverse powers inside the deformed Hamiltonians always
        # arrive paired with (1 - R) and cancel.
        for name in ("H", "H1", "H2", "J+", "J-", "J0", "K+", "K1",
                     "E1", "F+", "C", "P"):
            A = build(name, 2)
            for ns in ((0, 0), (1, 0), (2, 3), (4, 1)):
                apply(A, fock(ns))


def _outcome(action, A, s):
    try:
        return action(A, s)
    except PoleError:
        return PoleError


class TestGauge:
    def test_generators(self):
        for n in (1, 2):
            for j in range(n):
                x = OperatorElement.x(j, n)
                d = OperatorElement.d(j, n)
                r = OperatorElement.r(j, n)
                assert gauge(x) == x
                assert gauge(d) == d - x
                assert gauge(r) == r

    def test_multiplicative(self):
        rng = random.Random(405)
        for _ in range(40):
            n = rng.choice([1, 2])
            A = random_operator(rng, n)
            B = random_operator(rng, n)
            assert gauge(A * B) == gauge(A) * gauge(B)

    @settings(max_examples=100, deadline=None)
    @given(rng=st.randoms(use_true_random=False), n=st.sampled_from([1, 2, 3]))
    def test_series_matches_reference(self, rng, n):
        # Negative x-powers, reflections and parametric coefficients.
        A = random_operator(rng, n)
        assert gauge(A).kernel_op == reference_gauge(A).kernel_op

    def test_factored_product_matches_reference(self):
        jp2 = build("J+", 2) ** 2
        assert gauge(jp2).kernel_op == reference_gauge(jp2).kernel_op

    @pytest.mark.parametrize("dims", [1, 2])
    def test_cached_gauge_commutes_with_substitution(self, dims):
        for values in ((Fraction(2, 3), Fraction(-5, 4)), (0, SQRT2)):
            values = values[:dims]
            for name in names(dims):
                assert (_gauged(name, dims).substitute_params(values)
                        == gauge(build(name, dims).substitute_params(values)))

    @settings(max_examples=150, deadline=None)
    @given(rng=st.randoms(use_true_random=False), n=st.sampled_from([1, 2]),
           min_pow=st.integers(0, 12))
    def test_apply_matches_reference(self, rng, n, min_pow):
        # Low powers in the state let some images keep a pole; then both
        # sides must report it.
        A = random_operator(rng, n)
        s = random_state(rng, n, min_pow=min_pow, max_pow=min_pow + 8)
        assert _outcome(apply, A, s) == _outcome(reference_apply, A, s)


class TestEigencheck:
    def test_oscillator_tower(self):
        H = build("H1", 1)
        for n in range(9):
            assert eigencheck(H, fock((n,))) == scalar(
                f"mu1 + {2 * n + 1}/2", 1)

    def test_j0_eigenvalues(self):
        J0 = build("J0", 2)
        for n1, n2 in ((0, 0), (2, 1), (1, 4)):
            expected = scalar(f"(mu1 + {n1}) - (mu2 + {n2})", 2)
            assert eigencheck(J0, fock((n1, n2))) == expected

    def test_not_an_eigenstate(self):
        xd = OperatorElement.x(0, 1) * OperatorElement.d(0, 1)
        assert eigencheck(xd, fock((0,)) + fock((2,))) is None

    def test_zero_state_rejected(self):
        with pytest.raises(ValueError):
            eigencheck(build("H1", 1), LaurentPolynomial.zero(1))


class TestParity:
    def test_reflection_eigenvalues(self):
        for ns in ((0, 0), (1, 0), (2, 3), (1, 1)):
            s = fock(ns)
            for i in (0, 1):
                sign = -1 if ns[i] % 2 else 1
                assert apply(OperatorElement.r(i, 2), s) == sign * s


class TestSusyFactorization:
    def test_square_matches_composition(self):
        q, h = build("Q1", 1), build("H_susy1", 1)
        rng = random.Random(403)
        for _ in range(25):
            s = random_state(rng, 1, min_pow=2, max_pow=9)
            assert apply(h, s) == apply(q, apply(q, s))


class TestSpectrumTable:
    def test_two_dim_degeneracies(self):
        table = spectrum_table(2, (Fraction(1, 3), Fraction(1, 2)), 6)
        assert table.admissible
        for row in table.rows:
            assert row.degeneracy == row.level + 1
            assert row.energy.as_fraction() == row.level + Fraction(11, 6)

    def test_one_dim_undeformed(self):
        table = spectrum_table(1, (0,), 5)
        for row in table.rows:
            assert row.energy.as_fraction() == row.level + Fraction(1, 2)
            assert row.degeneracy == 1

    def test_inadmissible_value_flagged(self):
        assert not spectrum_table(1, (Fraction(-3, 4),), 2).admissible
        assert spectrum_table(1, (Fraction(-1, 4),), 6).admissible

    def test_one_dim_walks_its_ladder_once(self, monkeypatch):
        # 16 raises, 17 eigenchecks and 16 lowerings: the ladder norms
        # come from the table's own walk, not from raising fock(1..16)
        # a second time.
        calls = []
        act = OperatorElement.act

        def counting(self, f):
            calls.append(f)
            return act(self, f)

        monkeypatch.setattr(OperatorElement, "act", counting)
        assert spectrum_table(1, (Fraction(1, 3),), 16).admissible
        assert len(calls) == 49

    def test_two_dim_walks_its_ladder_once(self, monkeypatch):
        # Per variable, 8 raises, 9 eigenchecks of H's part in that
        # variable and 8 lowerings of its axis states: 2 * (3*8 + 1)
        # actions, against 105 for eigenchecking every planar state.  No
        # state of two variables is built or acted on.
        calls = []
        act = OperatorElement.act

        def counting(self, f):
            calls.append(f)
            return act(self, f)

        monkeypatch.setattr(OperatorElement, "act", counting)
        assert spectrum_table(2, (Fraction(1, 3), Fraction(1, 2)),
                              8).admissible
        assert len(calls) == 50
        for f in calls:
            assert sum(any(exps[j] for exps in f.exponents())
                       for j in range(2)) <= 1, f

    @pytest.mark.parametrize("mu", [Fraction(-3, 4), Fraction(-1, 2),
                                    Fraction(-1, 4), Fraction(1, 3)])
    def test_one_dim_admissible_matches_ladder_norms(self, mu):
        for level in (1, 2, 5):
            cs = ladder_norm_coefficients(level, mu)
            positive = all(c.evaluate((mu,)).as_fraction() > 0 for c in cs)
            assert spectrum_table(1, (mu,), level).admissible == positive

    @pytest.mark.parametrize("mu", [Fraction(-3, 4), Fraction(-1, 2),
                                    Fraction(-1, 4), Fraction(1, 3)])
    @pytest.mark.parametrize("other", [Fraction(0), Fraction(1, 2),
                                       Fraction(-3, 4)])
    def test_two_dim_admissible_matches_ladder_norms(self, mu, other):
        # Admissible means every one-variable ladder norm of every
        # variable is positive.
        for values in ((mu, other), (other, mu)):
            for level in (1, 2, 4):
                positive = all(
                    c.evaluate((v,)).as_fraction() > 0
                    for v in values
                    for c in ladder_norm_coefficients(level, v))
                table = spectrum_table(2, values, level)
                assert table.admissible == positive

    @pytest.mark.parametrize("name", ["H", "A-1"])
    @pytest.mark.parametrize("dims", [1, 2])
    def test_image_with_a_pole(self, monkeypatch, name, dims):
        # An image that keeps x1^-2 has no ratio to a pole-free state, and
        # the table reports the pole, not a failed eigencheck or lowering.
        operator = states._operator

        def with_pole(op_name, n, values):
            if op_name == name:
                return OperatorElement.x(0, n, -2)
            return operator(op_name, n, values)

        monkeypatch.setattr(states, "_operator", with_pole)
        with pytest.raises(PoleError):
            spectrum_table(dims, (Fraction(1, 3),) * dims, 2)

    def test_raise_off_its_axis(self, monkeypatch):
        # Variable 2's ladder replaced by variable 1's: its first raise
        # leads with x1, and the walk refuses it there, before any
        # eigenvalue is read.
        monkeypatch.setattr(states, "_operator",
                            raising_off_axis(states._operator))
        with pytest.raises(ArithmeticError) as info:
            spectrum_table(2, (Fraction(1, 3), Fraction(1, 2)), 3)
        assert not isinstance(info.value, PoleError)
        assert str(info.value) == "axis state (0, 1) leads with (1, 0)"

    @staticmethod
    def hamiltonian_as(monkeypatch, change):
        """Have the table read change(H, n) for H, counting every action."""
        operator, calls, act = states._operator, [], OperatorElement.act

        def changed(op_name, n, values):
            op = operator(op_name, n, values)
            return change(op, n) if op_name == "H" else op

        def counting(self, f):
            calls.append(f)
            return act(self, f)

        monkeypatch.setattr(states, "_operator", changed)
        monkeypatch.setattr(OperatorElement, "act", counting)
        return calls

    @pytest.mark.parametrize("change", [
        lambda H, n: H + OperatorElement.x(0, n) * OperatorElement.x(1, n),
        lambda H, n: OperatorElement.x(0, n) * OperatorElement.x(1, n),
    ], ids=("coupled", "factored"))
    def test_hamiltonian_that_does_not_separate(self, monkeypatch, change):
        # H plus a term in x1*x2 couples the variables, and x1*x2 alone is
        # a product kept factored: either is refused before any state is
        # acted on.
        calls = self.hamiltonian_as(monkeypatch, change)
        with pytest.raises(ArithmeticError,
                           match="^H does not separate into one-variable "
                                 "parts$"):
            spectrum_table(2, (Fraction(1, 3), Fraction(1, 2)), 4)
        assert calls == []

    @pytest.mark.parametrize("dims,term,axis", [
        (1, lambda n: OperatorElement.x(0, n), "(0,)"),
        (2, lambda n: OperatorElement.x(0, n), "(0, 0)"),
        (2, lambda n: OperatorElement.x(1, n) * OperatorElement.d(1, n),
         "(0, 2)"),
    ], ids=("x1-1d", "x1", "x2*d2"))
    def test_part_that_is_not_diagonal(self, monkeypatch, dims, term, axis):
        # x1 moves the ground state off itself; x2*d2 keeps each x2^k but
        # mixes the degrees of fock((0, 2)), so the second walk fails
        # there.  The error names the axis state.
        self.hamiltonian_as(monkeypatch, lambda H, n: H + term(n))
        with pytest.raises(ArithmeticError) as info:
            spectrum_table(dims, (Fraction(1, 3),) * dims, 4)
        assert not isinstance(info.value, PoleError)
        assert str(info.value) == (f"axis state {axis} failed to be an "
                                   "eigenstate")

    def test_input_validation(self):
        with pytest.raises(ValueError):
            spectrum_table(3, (1, 1, 1), 2)
        with pytest.raises(ArityMismatchError):
            spectrum_table(2, (Fraction(1, 3),), 2)
        with pytest.raises(ValueError):
            spectrum_table(1, (0,), -1)

    def test_floats_refused(self):
        # A float is no exact number: 0.3 would be read as the binary
        # fraction 5404319552844595/18014398509481984.
        with pytest.raises(TypeError, match="cannot interpret 0.3"):
            spectrum_table(1, [0.3], 2)
        with pytest.raises(TypeError, match="cannot interpret 0.5"):
            spectrum_table(2, [Fraction(1, 3), 0.5], 2)


class TestSpectrumOracle:
    """spectrum_table against the planar walk it replaced, which built and
    eigenchecked every state of each level against the whole H."""

    @pytest.mark.parametrize("mu", [
        (Fraction(1, 3), Fraction(1, 2)), (Fraction(0), Fraction(0)),
        (Fraction(-1, 2), Fraction(1, 3)), (Fraction(-3, 4), Fraction(7, 5)),
        (Fraction(4, 3), Fraction(-5, 4)),
    ], ids=str)
    @pytest.mark.parametrize("dims", [1, 2])
    def test_matches_planar_walk(self, dims, mu):
        values = mu[:dims]
        # Equal tables: every row (level, energy, degeneracy), the values
        # and admissible.
        for level in range(9):
            assert (spectrum_table(dims, values, level)
                    == reference_spectrum_table(dims, values, level))


def _axis(j, dims, n):
    return (0,) * j + (n,) + (0,) * (dims - j - 1)


class TestLadderWalk:
    @pytest.mark.parametrize("dims,values", [
        (1, None), (1, (Fraction(-4, 3),)),
        (2, None), (2, (Fraction(7, 5), Fraction(-5, 4))),
    ])
    def test_walk_equals_fock(self, dims, values):
        for j in range(dims):
            walk = list(_walk(j, ground(dims), values, 8))
            assert len(walk) == 9
            for n, (state, _, lam) in enumerate(walk):
                assert state == fock(_axis(j, dims, n), values)
                assert lam is None

    @pytest.mark.parametrize("dims,values", [
        (1, None), (1, (Fraction(-4, 3),)),
        (2, None), (2, (Fraction(7, 5), Fraction(-5, 4))),
    ])
    def test_axis_coefficients(self, dims, values):
        # c_k = k + mu_j (1 - (-1)^k) for variable j, from lowering the
        # walk's own axis states.
        for j in range(dims):
            for k, (_, c, _) in enumerate(_walk(j, ground(dims), values, 8)):
                twice = 1 - (-1) ** k
                assert c == (None if not k
                             else scalar(f"{k} + {twice}*mu{j + 1}", dims)
                             if values is None else k + values[j] * twice)

    @pytest.mark.parametrize("dims,values", [
        (1, None), (1, (Fraction(-4, 3),)),
        (2, None), (2, (Fraction(7, 5), Fraction(-5, 4))),
    ])
    def test_axis_eigenvalues(self, dims, values):
        # H_j climbs by one per raise, and the ground eigenvalues of the
        # parts add up to dims/2 + sum mu_j, whichever part holds H's
        # constant.
        parts = _parts(states._operator("H", dims, values))
        ground_sum = " + ".join(f"mu{j + 1}" for j in range(dims))
        bottom = []
        for j, part in enumerate(parts):
            lams = [lam for _, _, lam in _walk(j, ground(dims), values, 8,
                                               part)]
            bottom.append(lams[0])
            for n, lam in enumerate(lams):
                assert lam == scalar(f"({lams[0]}) + {n}", dims)
        total = scalar(" + ".join(f"({lam})" for lam in bottom), dims)
        want = scalar(f"{dims}/2 + {ground_sum}", dims)
        assert total == (want if values is None else want.evaluate(values))

    def test_parts_of_h(self):
        # One part per variable, each touching that variable alone.
        for dims in (1, 2):
            parts = _parts(states._operator("H", dims, None))
            assert len(parts) == dims
            assert sum(parts[1:], parts[0]) == states._operator(
                "H", dims, None)
            for j, part in enumerate(parts):
                assert all(not any(mono[3 * i:3 * i + 3])
                           for mono in part.kernel_op
                           for i in range(dims) if i != j)


class TestLadderNorms:
    def test_parametric_pattern(self):
        cs = ladder_norm_coefficients(6)
        assert cs[0] == scalar("1 + 2*mu1", 1)
        for k, c in enumerate(cs, start=1):
            assert c == scalar(f"{k} + 2*mu1" if k % 2 else str(k), 1)

    @pytest.mark.parametrize("mu", [None, 3])
    def test_closed_form_to_24(self, mu):
        cs = ladder_norm_coefficients(24, mu)
        assert len(cs) == 24
        for k, c in enumerate(cs, start=1):
            twice = 1 - (-1) ** k
            assert c == (scalar(f"{k} + {twice}*mu1", 1) if mu is None
                         else k + mu * twice)

    def test_positivity_window(self):
        for mu in (Fraction(-1, 4), Fraction(0), Fraction(1, 3)):
            cs = ladder_norm_coefficients(20, mu)
            assert all(c.evaluate((mu,)).as_fraction() > 0 for c in cs)

    def test_boundary_and_beyond(self):
        # At mu = -1/2 the first coefficient vanishes: the ladder
        # degenerates exactly at the boundary.  Below it, c_1 < 0.
        boundary = ladder_norm_coefficients(2, Fraction(-1, 2))
        assert boundary[0].evaluate((Fraction(-1, 2),)).as_fraction() == 0
        below = ladder_norm_coefficients(1, Fraction(-3, 4))
        assert below[0].evaluate((Fraction(-3, 4),)).as_fraction() == Fraction(-1, 2)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ladder_norm_coefficients(0)

    def test_floats_refused(self):
        with pytest.raises(TypeError, match="cannot interpret 0.3"):
            ladder_norm_coefficients(2, 0.3)


class TestLiftOnce:
    """A value keeps its lift: each operator of a spectrum table or of a
    ladder walk is lifted once, however many states it acts on, and each
    state once, however many operators act on it (its raise, its lowering
    and its eigencheck share exponent ranges and lines)."""

    @staticmethod
    def count_lifts(monkeypatch):
        """The dicts lifted from now on, by width: operators (three ints
        per variable) under 3, functions (one int) under 1."""
        calls = {3: [], 1: []}
        lift = _kernel._lift

        def counting(X, den, lo, weights, nvars, axis, width):
            calls[width].append(X)
            return lift(X, den, lo, weights, nvars, axis, width)

        monkeypatch.setattr(_kernel, "_lift", counting)
        return calls

    @staticmethod
    def assert_each_once(lifted, want):
        assert len(lifted) == len(want)
        assert [sum(X == w for X in lifted) for w in want] == [1] * len(want)

    def test_spectrum_table(self, monkeypatch):
        # H's parts and the ladders, once each; each axis state once,
        # the ground one for both walks.
        ladders = ("A+1", "A-1", "A+2", "A-2")
        mu = (Fraction(1, 3), Fraction(1, 2))
        for name in ("H",) + ladders:
            # Gauge outside the count: the brackets of gauge lift too.
            _gauged(name, 2)
        levels = 6
        axis_states = [fock(ns, mu).kernel_op for ns in [(0, 0)] + [
            _axis(j, 2, n) for j in range(2) for n in range(1, levels + 1)]]
        parts = _parts(_gauged("H", 2).substitute_params(mu))
        calls = self.count_lifts(monkeypatch)
        spectrum_table(2, mu, levels)
        want = [op.kernel_op for op in parts] + [
            _gauged(name, 2).substitute_params(mu).kernel_op
            for name in ladders]
        self.assert_each_once(calls[3], want)
        self.assert_each_once(calls[1], axis_states)

    def test_parametric_ladder_norms(self, monkeypatch):
        fock_states = [fock((k,)).kernel_op for k in range(9)]
        # The parametric operators are the process-wide gauged ones, so a
        # fresh gauge cache keeps earlier acts out of the count.
        monkeypatch.setattr(states, "_gauged",
                            lru_cache(maxsize=None)(_gauged.__wrapped__))
        operators = [states._gauged(name, 1) for name in ("A+1", "A-1")]
        calls = self.count_lifts(monkeypatch)
        ladder_norm_coefficients(8)
        assert len(calls[3]) == len(operators)
        assert [sum(X is op.kernel_op for X in calls[3])
                for op in operators] == [1] * len(operators)
        self.assert_each_once(calls[1], fock_states)

import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp, mpc

import centersolve as cs
from centersolve import (
    BinaryForm,
    CenterRankError,
    DegreeError,
    NoRadicalMethodError,
    RepeatedEigenvalueError,
    binary_center_system,
    binary_invariants,
    cardano,
    classify,
    complete_powers,
    depress_quartic,
    expand,
    shift_equation,
    solve_by_radicals,
    solve_quartic_by_two_squares,
)
from centersolve.scalars import (
    QuadExt,
    exact_sqrt,
    nth_root,
    rational_nth_root,
    to_mpc,
    unit_root,
)
from centersolve.solver import RadicalRoot, RootSet, max_scaled_residual
from conftest import (
    QUINTIC_PLAIN,
    near_one_plain,
    near_one_planted_roots,
    rand_fraction,
    rand_nonzero_fraction,
    read_prefix,
)


def reversed_equation(eq):
    """The coefficients reversed: roots map to their reciprocals."""
    return cs.from_plain_coeffs(tuple(reversed(eq.plain)))


def as_multiset(root_set):
    return sorted(
        (complex(v) for v in root_set.values_with_multiplicity()),
        key=lambda z: (z.real, z.imag),
    )


def multisets_close(a, b, tol=1e-9):
    if len(a) != len(b):
        return False
    remaining = list(b)
    for x in a:
        best = min(range(len(remaining)), key=lambda i: abs(x - remaining[i]))
        if abs(x - remaining[best]) > tol:
            return False
        remaining.pop(best)
    return True


def residual_ok(root_set, tol=1e-9):
    eq = root_set.equation
    scale = max(abs(complex(b)) for b in eq.plain)
    for r in root_set.roots:
        bound = tol * scale * max(1.0, abs(complex(r.value))) ** eq.degree
        if abs(complex(eq.evaluate(r.value))) > bound:
            return False
    return True


def hankel_rank(eq):
    return binary_invariants(eq.homogenize()).hankel_rank


class TestHankel:
    def test_quintic_rank_two(self, quintic):
        assert hankel_rank(quintic) == 2
        rows = binary_center_system(quintic.homogenize())
        assert rows[0] == [31, 47, -71]
        assert len(rows) == 4

    def test_binomial_power_rank_one(self):
        eq = cs.from_plain_coeffs([1, 4, 6, 4, 1])  # (x+1)^4
        assert hankel_rank(eq) == 1

    def test_generic_cubic_rank_two(self):
        rng = random.Random(11)
        for _ in range(20):
            norm = tuple(rand_nonzero_fraction(rng) for _ in range(4))
            d1 = norm[0] * norm[2] - norm[1] ** 2
            d2 = norm[0] * norm[3] - norm[1] * norm[2]
            d3 = norm[1] * norm[3] - norm[2] ** 2
            if d2 * d2 - 4 * d1 * d3 == 0:
                continue
            eq = cs.from_norm_coeffs(norm)
            assert hankel_rank(eq) == 2

    def test_degree_error(self):
        with pytest.raises(DegreeError):
            hankel_rank(cs.from_plain_coeffs([1, 2, 3]))


class TestClassify:
    def test_quintic(self, quintic):
        assert classify(quintic).tag == "SumOfTwoPowers"

    def test_degree7(self, degree7):
        cls = classify(degree7)
        assert cls.tag == "LinearTimesPowerD1"
        assert cls.witness["repeated_root"] == F(1, 2)
        assert cls.witness["simple_root"] == F(-1, 3)

    def test_pure_power(self):
        eq = cs.from_plain_coeffs([1, 0, 0, 0, 0])
        assert classify(eq).tag == "PerfectPower"

    def test_shifted_power(self):
        eq = cs.from_plain_coeffs([2, 6, 6, 2])
        assert classify(eq).tag == "PerfectPower"

    def test_power_plus_constant(self):
        eq = cs.from_plain_coeffs([1, 0, 0, 1])  # x^3 + 1
        cls = classify(eq)
        assert cls.tag == "PowerPlusConstant"
        dec = complete_powers(eq.homogenize())
        assert {l.coeffs: c for c, l in dec.summands}[(0, 1)] == 1

    def test_constant_plus_power(self):
        # 2x^3 + (x+1)^3 = 3x^3 + 3x^2 + 3x + 1
        eq = cs.from_plain_coeffs([3, 3, 3, 1])
        cls = classify(eq)
        assert cls.tag == "ConstantTimesPowerPlusPower"
        dec = complete_powers(eq.homogenize())
        assert {l.coeffs: c for c, l in dec.summands}[(1, 0)] == 2

    def test_linear_times_square_with_zero_tail(self):
        # x^2 (5x + 3): the tail cross products vanish but a_d = 0,
        # so this is the repeated-factor class, not a power plus x^d
        eq = cs.from_norm_coeffs([F(5), F(1), F(0), F(0)])
        assert classify(eq).tag == "LinearTimesPowerD1"

    def test_trivial_center(self):
        eq = cs.from_plain_coeffs([1, 0, 0, 0, 1, 1])  # x^5 + x + 1
        cls = classify(eq)
        assert cls.tag == "NoNontrivialCenter"
        assert cls.hankel_rank == 3

    def test_reversal_invariance(self):
        rng = random.Random(17)
        for _ in range(20):
            norm = tuple(rand_nonzero_fraction(rng) for _ in range(5))
            eq = cs.from_norm_coeffs(norm)
            rev = reversed_equation(eq)
            assert classify(eq).tag == classify(rev).tag


class TestCompleteCube:
    def test_two_symmetric_cubes(self):
        dec = complete_powers(BinaryForm((2, 0, 2, 0)))
        got = {(str(c), tuple(map(str, l.coeffs))) for c, l in dec.summands}
        assert got == {("1", ("1", "1")), ("1", ("1", "-1"))}

    def test_cube_plus_shifted_cube(self):
        dec = complete_powers(BinaryForm((2, 1, 1, 1)))
        got = {(str(c), tuple(map(str, l.coeffs))) for c, l in dec.summands}
        assert got == {("1", ("1", "1")), ("1", ("1", "0"))}

    @pytest.mark.parametrize("p,q", [(F(2), F(3)), (F(-5), F(1)), (F(1, 2), F(7))])
    def test_depressed_cubic_eigenvalues(self, p, q):
        form = BinaryForm((1, 0, p / 3, q))
        dec = complete_powers(form)
        # the summand shifts are lambda_i / D1 with the classical spectrum
        root = exact_sqrt(q * q / 4 + p**3 / 27)
        lam1 = q / 2 + root
        lam2 = q / 2 - root
        shifts = {l.coeffs[1] for _, l in dec.summands}
        assert shifts == {lam1 / (p / 3), lam2 / (p / 3)}

    def test_expand_back(self):
        rng = random.Random(23)
        for _ in range(30):
            norm = tuple(rand_fraction(rng) for _ in range(4))
            form = BinaryForm(norm)
            try:
                dec = complete_powers(form)
            except (RepeatedEigenvalueError, DegreeError, CenterRankError):
                continue
            assert expand(dec, 2) == form.to_nary()

    def test_sum_of_cubes_splits_as_diagonal(self):
        # x^3 + y^3 has D1 = 0 and t = a1/a0 = 0: a0*x^3 + a3*y^3 as it stands
        dec = complete_powers(BinaryForm((1, 0, 0, 1)))
        got = {(str(c), tuple(map(str, l.coeffs))) for c, l in dec.summands}
        assert got == {("1", ("1", "0")), ("1", ("0", "1"))}

    def test_repeated_eigenvalue(self):
        # x(x+1)^2 homogenized: discriminant vanishes
        eq = cs.from_plain_coeffs([1, 2, 1, 0])
        with pytest.raises(RepeatedEigenvalueError):
            complete_powers(eq.homogenize())


class TestCompletePowers:
    def test_quintic_summands(self, quintic):
        dec = complete_powers(quintic.homogenize())
        got = {(str(c), tuple(map(str, l.coeffs))) for c, l in dec.summands}
        assert got == {("-1", ("1", "1")), ("32", ("1", "3/2"))}
        assert expand(dec, 2) == quintic.homogenize().to_nary()

    def test_planted_quartic_recovery(self):
        # (x + 2y)^4 + (x - y)^4
        dec_true = cs.PowerSumDecomposition(
            (
                (F(1), cs.LinearForm((F(1), F(2)))),
                (F(1), cs.LinearForm((F(1), F(-1)))),
            ),
            4,
        )
        form = expand(dec_true, 2)
        norm = tuple(
            form.coefficient((4 - i, i)) / [1, 4, 6, 4, 1][i] for i in range(5)
        )
        dec = complete_powers(BinaryForm(norm))
        assert dec.canonical() == dec_true.canonical()

    def test_rank_error(self):
        eq = cs.from_plain_coeffs([1, 0, 0, 0, 1, 1])
        with pytest.raises(CenterRankError):
            complete_powers(eq.homogenize())

    def test_pivot_restoration_by_swap(self):
        # (x+y)^3 + 4y^3 has D1 = 0: a0*(x + t*y)^3 + gamma*y^3, t = a1/a0
        form = BinaryForm((1, 1, 1, 5))
        dec = complete_powers(form)
        assert expand(dec, 2) == form.to_nary()
        (a1, b1), (a2, b2) = (form.coeffs for _, form in dec.summands)
        assert a1 * b2 != b1 * a2  # not proportional

    def test_diagonal_split(self):
        form = BinaryForm((2, 0, 0, 0, 3))
        dec = complete_powers(form)
        got = {(str(c), tuple(map(str, l.coeffs))) for c, l in dec.summands}
        assert got == {("2", ("1", "0")), ("3", ("0", "1"))}


class TestSolveByRadicals:
    def test_quintic_known_roots(self, quintic):
        rs = solve_by_radicals(quintic)
        assert rs.method == "two-power-sum"
        exact = [r.exact for r in rs.roots if r.exact is not None]
        assert exact == [F(-2)]
        assert residual_ok(rs, tol=1e-12)
        # the printed closed form: x_i = (3 - z^i) / (z^i - 2), z = e^(2 pi i/5)
        from mpmath import mp

        expected = []
        for i in range(5):
            z = mp.expjpi(mp.mpf(2 * i) / 5)
            expected.append(complex((3 - z) / (z - 2)))
        assert multisets_close(
            as_multiset(rs), sorted(expected, key=lambda z: (z.real, z.imag))
        )

    def test_degree7_known_roots(self, degree7):
        rs = solve_by_radicals(degree7)
        assert rs.method == "repeated-linear-factor"
        got = sorted((r.exact, r.multiplicity) for r in rs.roots)
        assert got == [(F(-1, 3), 1), (F(1, 2), 6)]

    def test_cardano_degenerate_family(self):
        # p = -3, q = 2 has a double root at 1 and a simple root at -2
        eq = cs.from_plain_coeffs([1, 0, -3, 2])
        rs = solve_by_radicals(eq)
        got = sorted((r.exact, r.multiplicity) for r in rs.roots)
        assert got == [(F(-2), 1), (F(1), 2)]

    def test_perfect_power(self):
        eq = cs.from_plain_coeffs([2, 6, 6, 2])
        rs = solve_by_radicals(eq)
        assert rs.roots[0].exact == -1
        assert rs.roots[0].multiplicity == 3

    def test_power_plus_constant(self):
        eq = cs.from_plain_coeffs([1, 0, 0, -8])  # x^3 = 8
        rs = solve_by_radicals(eq)
        exact = [r.exact for r in rs.roots if r.exact is not None]
        assert exact == [F(2)]
        assert residual_ok(rs)
        # the y^3 summand comes first, so w^3 = 8 and x = w
        assert all("root(8,3)" in r.expr for r in rs.roots)

    def test_constant_plus_power_via_reversal(self):
        eq = cs.from_plain_coeffs([3, 3, 3, 1])  # 2x^3 + (x+1)^3
        rs = solve_by_radicals(eq)
        assert residual_ok(rs)
        # real root: 2x^3 = -(x+1)^3 -> x = -1/(1 + 2^(1/3)) ... check residual
        oracle = cs.numeric_roots(eq)
        assert cs.compare_root_sets(rs, oracle, tol=1e-9).passed

    def test_zero_roots_factored(self):
        # x^4 (x+1)^3 style: x * (x+1)^3
        eq = cs.from_plain_coeffs([1, 3, 3, 1, 0])
        rs = solve_by_radicals(eq)
        values = as_multiset(rs)
        assert multisets_close(values, [-1, -1, -1, 0])

    def test_no_radical_method(self):
        eq = cs.from_plain_coeffs([1, 0, 0, 0, 1, 1])
        with pytest.raises(NoRadicalMethodError):
            solve_by_radicals(eq)

    def test_trivial_center_quartic_takes_two_squares(self):
        eq = cs.from_plain_coeffs([1, 1, 1, 1, 5])
        assert classify(eq).tag == "NoNontrivialCenter"
        rs = solve_by_radicals(eq)
        assert rs.method == "quartic-two-squares"
        assert rs == solve_quartic_by_two_squares(eq).root_set
        # x times that quartic: the x-free part takes the same route
        times_x = solve_by_radicals(cs.from_plain_coeffs([1, 1, 1, 1, 5, 0]))
        assert times_x.method == "quartic-two-squares"
        assert times_x.roots == rs.roots + (times_x.roots[-1],)
        assert times_x.roots[-1].exact == 0
        # a trivial center of degree 5 has no method
        with pytest.raises(NoRadicalMethodError):
            solve_by_radicals(cs.from_plain_coeffs([1, 0, 0, 0, 1, 1]))

    @pytest.mark.parametrize(
        "plain, zeros",
        [([1, 0, 0, 1, 1, 0], 1), ([1, 0, 0, 1, 1, 0, 0], 2)],  # x^5+x^2+x, x^6+x^3+x^2
    )
    def test_x_power_times_trivial_center_quartic(self, plain, zeros):
        eq = cs.from_plain_coeffs(plain)
        rs = solve_by_radicals(eq)
        assert rs.method == "quartic-two-squares"
        assert rs.pre_transform == (
            f"factored out x^{zeros}",
            "depressed with x = y - 0",
        )
        assert rs.equation == eq
        assert (rs.roots[-1].exact, rs.roots[-1].multiplicity) == (0, zeros)
        assert max_scaled_residual(rs, 128) <= 1e-10
        oracle = cs.numeric_roots(eq)
        assert cs.compare_root_sets(rs, oracle, tol=1e-9).passed

    def test_quadratic_convenience(self):
        rs = solve_by_radicals(cs.from_plain_coeffs([1, -3, 2]))
        assert sorted(r.exact for r in rs.roots) == [1, 2]
        rs2 = solve_by_radicals(cs.from_plain_coeffs([1, -2, 1]))
        assert rs2.roots[0].multiplicity == 2

    def test_linear_convenience(self):
        rs = solve_by_radicals(cs.from_plain_coeffs([2, -5]))
        assert rs.roots[0].exact == F(5, 2)

    def test_branch_invariance(self, quintic):
        base = as_multiset(solve_by_radicals(quintic))
        for k in range(1, 5):
            rotated = as_multiset(solve_by_radicals(quintic, branch=k))
            assert multisets_close(base, rotated)

    def test_vieta(self, quintic, degree7):
        for eq in (quintic, degree7, cs.from_plain_coeffs([1, 0, -3, 2])):
            rs = solve_by_radicals(eq)
            values = [complex(v) for v in rs.values_with_multiplicity()]
            b = [complex(x) for x in eq.plain]
            total = sum(values)
            prod = 1
            for v in values:
                prod *= v
            want_sum = -b[1] / b[0]
            want_prod = (-1) ** eq.degree * b[-1] / b[0]
            assert abs(total - want_sum) <= 1e-9 * max(1.0, abs(want_sum))
            assert abs(prod - want_prod) <= 1e-9 * max(1.0, abs(want_prod))


class TestTwoCubesCriterion:
    def test_success_iff_nonzero_discriminant(self):
        rng = random.Random(31337)
        checked = 0
        for _ in range(200):
            norm = tuple(rand_fraction(rng, -5, 5, 3) for _ in range(4))
            form = BinaryForm(norm)
            if all(c == 0 for c in norm):
                continue
            d1 = norm[0] * norm[2] - norm[1] ** 2
            d2 = norm[0] * norm[3] - norm[1] * norm[2]
            d3 = norm[1] * norm[3] - norm[2] ** 2
            disc = d2 * d2 - 4 * d1 * d3
            try:
                dec = complete_powers(form)
                success = True
            except (RepeatedEigenvalueError, CenterRankError):
                success = False
            if success:
                assert expand(dec, 2) == form.to_nary()
                (a1, b1), (a2, b2) = (form.coeffs for _, form in dec.summands)
                assert a1 * b2 != b1 * a2  # not proportional
            assert success == (disc != 0), (norm, disc)
            checked += 1
        assert checked >= 150


class TestCardano:
    def test_factorized_cubic(self):
        rs = cardano(F(-3), F(2))
        assert multisets_close(as_multiset(rs), [-2, 1, 1])

    def test_pure_cube_roots(self):
        rs = cardano(F(0), F(-8))
        values = as_multiset(rs)
        from mpmath import mp

        omega = complex(mp.expjpi(mp.mpf(2) / 3))
        expected = sorted(
            [2 + 0j, 2 * omega, 2 * omega.conjugate()], key=lambda z: (z.real, z.imag)
        )
        assert multisets_close(values, expected)

    def test_real_root_two(self):
        rs = cardano(F(6), F(-20))
        assert any(abs(complex(r.value) - 2) < 1e-12 for r in rs.roots)
        assert residual_ok(rs)

    def test_q_zero(self):
        rs = cardano(F(-4), F(0))
        assert multisets_close(as_multiset(rs), [-2, 0, 2])

    def test_triple_root_at_zero(self):
        rs = cardano(F(0), F(0))
        assert [(r.exact, r.multiplicity) for r in rs.roots] == [(0, 3)]

    def test_matches_center_pipeline(self):
        rng = random.Random(5150)
        for _ in range(40):
            p = rand_nonzero_fraction(rng)
            q = rand_nonzero_fraction(rng)
            if q * q / 4 + p**3 / 27 == 0:
                continue
            eq = cs.from_plain_coeffs([1, 0, p, q])
            a = as_multiset(cardano(p, q))
            b = as_multiset(solve_by_radicals(eq))
            assert multisets_close(a, b), (p, q)


class TestQuartics:
    def test_perfect_fourth_power_depresses_to_zero(self):
        dq = depress_quartic(cs.from_plain_coeffs([1, 4, 6, 4, 1]))
        assert (dq.p, dq.q, dq.r) == (0, 0, 0)
        assert dq.shift == 1

    def test_already_depressed(self):
        dq = depress_quartic(cs.from_plain_coeffs([1, 0, -1, -2, -1]))
        assert (dq.p, dq.q, dq.r, dq.shift) == (-1, -2, -1, 0)

    def test_shift_two(self):
        dq = depress_quartic(cs.from_plain_coeffs([1, 8, 24, 32, 15]))
        assert dq.shift == 2
        assert (dq.p, dq.q, dq.r) == (0, 0, -1)

    def test_depression_substitution_identity(self):
        rng = random.Random(77)
        for _ in range(20):
            b = [F(1)] + [rand_fraction(rng) for _ in range(4)]
            eq = cs.from_plain_coeffs(b)
            dq = depress_quartic(eq)
            g = cs.from_plain_coeffs([1, 0, dq.p, dq.q, dq.r])
            # substituting y = x + shift into g reproduces the monic input
            back = shift_equation(g, dq.shift)
            monic = cs.from_plain_coeffs([c / b[0] for c in eq.plain])
            assert back == monic

    def test_worked_example_factors(self):
        sol = solve_quartic_by_two_squares(cs.from_plain_coeffs([1, 0, -1, -2, -1]))
        assert sol.resolvent.alpha == 0
        factors = {tuple(map(str, f)) for f in sol.factors}
        assert factors == {("1", "1", "1"), ("1", "-1", "-1")}
        golden = (1 + 5**0.5) / 2
        assert any(abs(complex(r.value) - golden) < 1e-12 for r in sol.root_set.roots)

    def test_y4_minus_1(self):
        sol = solve_quartic_by_two_squares(cs.from_plain_coeffs([1, 0, 0, 0, -1]))
        assert sol.resolvent.alpha == 0
        assert multisets_close(as_multiset(sol.root_set), [-1, -1j, 1j, 1])

    def test_planted_rational_roots(self):
        # (x-1)(x-2)(x-3)(x-4) = x^4 - 10x^3 + 35x^2 - 50x + 24
        sol = solve_quartic_by_two_squares(
            cs.from_plain_coeffs([1, -10, 35, -50, 24])
        )
        assert multisets_close(as_multiset(sol.root_set), [1, 2, 3, 4])

    def test_random_quartics_match_oracle(self):
        rng = random.Random(90210)
        for _ in range(25):
            b = [F(1)] + [rand_fraction(rng) for _ in range(4)]
            eq = cs.from_plain_coeffs(b)
            sol = solve_quartic_by_two_squares(eq)
            oracle = cs.numeric_roots(eq)
            report = cs.compare_root_sets(sol.root_set, oracle, tol=1e-9)
            assert report.passed, (b, report.max_distance)

    def test_resolvent_invariant(self):
        rng = random.Random(333)
        for _ in range(10):
            b = [F(1)] + [rand_fraction(rng) for _ in range(4)]
            sol = solve_quartic_by_two_squares(cs.from_plain_coeffs(b))
            p, q, r = sol.depressed.p, sol.depressed.q, sol.depressed.r
            alpha = sol.resolvent.alpha
            if isinstance(alpha, F):
                assert q * q - 4 * (p - 2 * alpha) * (r - alpha * alpha) == 0
            beta, gamma = sol.resolvent.beta, sol.resolvent.gamma
            assert abs(beta * beta - complex(p - 2 * alpha)) < 1e-12
            assert abs(gamma * gamma - complex(r - alpha * alpha)) < 1e-12
            assert abs(2 * beta * gamma - complex(q)) < 1e-12


def test_every_cubic_is_radical_solvable():
    # the 2-row coefficient system can never have rank 3, so a cubic always
    # lands in a solvable class
    rng = random.Random(4242)
    for _ in range(60):
        b = [rand_nonzero_fraction(rng)] + [rand_fraction(rng) for _ in range(3)]
        eq = cs.from_plain_coeffs(b)
        rs = solve_by_radicals(eq)
        assert rs.degree == 3
        assert residual_ok(rs, tol=1e-9), b


def test_high_degree_power_plus_constant():
    # x^9 = 512 via the ratio class; exact principal root, 9 roots on a circle
    eq = cs.from_plain_coeffs([1] + [0] * 8 + [-512])
    rs = solve_by_radicals(eq)
    assert rs.method == "two-power-sum"
    exact = [r.exact for r in rs.roots if r.exact is not None]
    assert exact == [F(2)]
    assert all(abs(abs(complex(r.value)) - 2) < 1e-12 for r in rs.roots)
    oracle = cs.numeric_roots(eq)
    assert cs.compare_root_sets(rs, oracle, tol=1e-9).passed


def test_classification_precedence_on_overlaps():
    # x^d + c is both a power-plus-constant and a sum of two powers; the
    # ratio class wins and both readings give the same root set
    eq = cs.from_plain_coeffs([1, 0, 0, 0, -7])
    assert classify(eq).tag == "PowerPlusConstant"
    rs = solve_by_radicals(eq)
    oracle = cs.numeric_roots(eq)
    assert cs.compare_root_sets(rs, oracle, tol=1e-9).passed


# a SumOfTwoPowers cubic of the solve_exact corpus whose residual misses the
# contract at 128 bits and meets it at 192 bits
_FORCED_ESCALATION = [
    F(75287398628364, 12547899771385),
    F(-54, 5),
    F(62979915469134666545104276, 5),
    F(-12595983093817898821185458, 5),
]


def test_near_degenerate_coefficients_escalate_precision():
    # the solver must raise its working precision until the residual
    # contract holds, and the oracle must agree with the roots it returns
    eq = cs.from_plain_coeffs(_FORCED_ESCALATION)
    assert classify(eq).tag == "SumOfTwoPowers"
    rs = solve_by_radicals(eq)
    from centersolve.solver import max_scaled_residual

    assert max_scaled_residual(rs, 256) < 1e-10
    oracle = cs.numeric_roots(eq)
    assert cs.compare_root_sets(rs, oracle, tol=1e-9).passed


def test_shift_equation_round_trip():
    rng = random.Random(8)
    for _ in range(10):
        b = [rand_nonzero_fraction(rng)] + [rand_fraction(rng) for _ in range(4)]
        eq = cs.from_plain_coeffs(b)
        c = rand_fraction(rng)
        assert shift_equation(shift_equation(eq, c), -c) == eq


# ---------------------------------------------------------------------------
# one analysis per input
# ---------------------------------------------------------------------------

_small = st.fractions(min_value=-6, max_value=6, max_denominator=5)
_RATIO_CLASSES = {"PerfectPower", "PowerPlusConstant", "ConstantTimesPowerPlusPower"}


def _conjugate(x):
    return x.conjugate() if isinstance(x, QuadExt) else x


@st.composite
def _two_power_sums(draw):
    """a_i = c1*b1^i + c2*b2^i: c1*(x+b1)^d + c2*(x+b2)^d, over Q or Q(sqrt D)."""
    d = draw(st.integers(3, 12))
    p, q, r, s = (draw(_small) for _ in range(4))
    disc = draw(st.sampled_from([None, 2, 3, 5, -1, -3]))
    if disc is None:
        c1, c2, b1, b2 = p, r, q, s
    else:  # conjugate data, so the coefficients are rational
        c1, b1 = QuadExt(p, r, disc), QuadExt(q, s, disc)
        c2, b2 = _conjugate(c1), _conjugate(b1)
    return d, [c1 * b1**i + c2 * b2**i for i in range(d + 1)]


@st.composite
def _linear_times_powers(draw):
    """(x+b)^(d-1) * (g*x + e), homogenized coefficients by convolution."""
    d = draw(st.integers(3, 12))
    b, g, e = (draw(_small) for _ in range(3))
    plain = [F(1)]
    for _ in range(d - 1):
        plain = [x + b * y for x, y in zip(plain + [F(0)], [F(0)] + plain)]
    plain = [g * x + e * y for x, y in zip(plain + [F(0)], [F(0)] + plain)]
    return d, plain


@settings(max_examples=150, deadline=None)
@given(data=_two_power_sums())
def test_pivot_nonzero_for_planted_two_power_sums(data):
    # the fact that lets classify and the root formulas skip any D1 = 0
    # restoration: a0 != 0, rank <= 2, no ratio class => D1 != 0
    d, norm = data
    assume(norm[0] != 0)
    cls = classify(cs.from_norm_coeffs(norm))
    assume(cls.tag not in _RATIO_CLASSES)
    assert cls.hankel_rank <= 2
    assert cls.invariants.D1 != 0


@settings(max_examples=150, deadline=None)
@given(data=_linear_times_powers())
def test_pivot_nonzero_for_planted_linear_times_powers(data):
    d, plain = data
    assume(plain[0] != 0)
    cls = classify(cs.from_plain_coeffs(plain))
    assume(cls.tag not in _RATIO_CLASSES)
    assert cls.hankel_rank <= 2
    assert cls.invariants.D1 != 0


def _count_classify(monkeypatch):
    import centersolve.cli as cli
    import centersolve.solver as solver

    calls = []
    original = solver.classify

    def counting(eq):
        calls.append(eq)
        return original(eq)

    monkeypatch.setattr(solver, "classify", counting)
    monkeypatch.setattr(cli, "classify", counting)
    return calls


def test_solve_by_radicals_classifies_once_across_escalation(monkeypatch):
    import centersolve.solver as solver

    calls = _count_classify(monkeypatch)
    rounds = []
    original = solver.max_scaled_residual

    def counting(root_set, prec):
        rounds.append(prec)
        return original(root_set, prec)

    monkeypatch.setattr(solver, "max_scaled_residual", counting)
    rs = solve_by_radicals(cs.from_plain_coeffs(_FORCED_ESCALATION))
    assert rs.method == "two-power-sum"
    assert len(rounds) >= 2
    assert len(calls) == 1


def test_cli_solve_classifies_once(monkeypatch):
    import io

    from centersolve.cli import run_command

    calls = _count_classify(monkeypatch)
    text = " ".join(str(c) for c in _FORCED_ESCALATION)
    out = io.StringIO()
    code = run_command(["solve", "--input", "coeffs", text, "--no-verify"], stdout=out)
    assert code == 0
    assert "class: SumOfTwoPowers" in out.getvalue()
    assert len(calls) == 1


def test_reversal_path_matches_solving_the_reversed_equation():
    # 2x^3 + (x+1)^3: the reversed equation is a power plus constant
    eq = cs.from_plain_coeffs([3, 3, 3, 1])
    rs = solve_by_radicals(eq)
    assert rs.method == "two-power-sum"
    reversed_roots = solve_by_radicals(reversed_equation(eq)).roots
    inverted = [complex(1 / r.value) for r in reversed_roots]
    assert multisets_close(as_multiset(rs), inverted)


def test_radicand_within_1e_30_of_one():
    # at 64 bits 1 - w rounds to 0 for the w nearest 1, which raised
    # ZeroDivisionError; that denominator is now (1 - ratio) / sum w^j
    rs = solve_by_radicals(cs.from_plain_coeffs(near_one_plain()))
    assert rs.method == "two-power-sum"
    got = [complex(r.value) for r in rs.roots]
    for want in near_one_planted_roots():
        assert min(abs(g - want) for g in got) <= 1e-12 * max(1, abs(want))


def test_irreducible_resolvent_is_completed_into_two_cubes(monkeypatch):
    # the resolvent of x^4 + x + 1 is 8a^3 - 8a - 1, with no rational root;
    # its root comes from completing the cube, not from the classical formula
    import centersolve.solver as solver

    def refuse(*args):
        raise AssertionError("the resolvent cubic went to _cardano")

    monkeypatch.setattr(solver, "_cardano", refuse)
    assert cs.rational_roots([8, 0, -8, -1]) == []
    eq = cs.from_plain_coeffs([1, 0, 0, 1, 1])
    rs = solve_by_radicals(eq)
    assert rs.method == "quartic-two-squares"
    assert cs.compare_root_sets(rs, cs.numeric_roots(eq), tol=1e-9).passed


# ---------------------------------------------------------------------------
# one Moebius route against the three routines it replaced
# ---------------------------------------------------------------------------


def _ref_power_plus_constant(scale, t, gamma, d, prec):
    """(value, exact) roots w - t of scale*(x + t)^d + gamma, w^d = -gamma/scale."""
    radicand = -gamma / scale
    base_exact = rational_nth_root(radicand, d)
    base = nth_root(radicand, d, prec)
    roots = []
    for k in range(d):
        if base_exact is not None and k == 0:
            exact = -t + base_exact
            roots.append((to_mpc(exact, prec), exact))
        else:
            roots.append((base * unit_root(d, k, prec) - to_mpc(t, prec), None))
    return roots


def _ref_reversed(eq, prec):
    """c*x^d + power: invert the roots of the reversed power plus constant."""
    a, d = eq.norm, eq.degree
    u = a[d - 1] / a[d]
    roots = _ref_power_plus_constant(a[d], u, a[0] - a[d] * u**d, d, prec)
    return [
        (to_mpc(1 / e, prec), 1 / e) if e is not None else (1 / v, None)
        for v, e in roots
    ]


def _ref_two_powers(eq, inv, prec):
    """(w*l1 - l2) / (D1*(1 - w)) over the d-th roots w of the eigenvalue ratio."""
    d = eq.degree
    a0, a1 = eq.norm[0], eq.norm[1]
    ratio = (inv.lambda2 * a0 - inv.D1 * a1) / (inv.lambda1 * a0 - inv.D1 * a1)
    delta_exact = rational_nth_root(ratio, d) if isinstance(ratio, F) else None
    delta = nth_root(ratio, d, prec)
    l1, l2, d1 = (to_mpc(x, prec) for x in (inv.lambda1, inv.lambda2, inv.D1))
    ws = [delta * unit_root(d, i, prec) for i in range(d)]
    near = min(range(d), key=lambda i: abs(1 - ws[i]))
    roots = []
    for i, w in enumerate(ws):
        if delta_exact is not None and i == 0:
            exact = (delta_exact * inv.lambda1 - inv.lambda2) / (
                inv.D1 * (1 - delta_exact)
            )
            roots.append((to_mpc(exact, prec), exact))
            continue
        one_minus_w = (
            to_mpc(1 - ratio, prec) / sum(w**j for j in range(d))
            if i == near
            else 1 - w
        )
        roots.append(((w * l1 - l2) / (d1 * one_minus_w), None))
    return roots


def _reference_solve(eq):
    """The replaced routines under the same precision escalation: doubled
    from 64 bits, at most six rounds, until the scaled residual at 64 bits
    more is 1e-10 or less."""
    cls = classify(eq)
    a, d = eq.norm, eq.degree

    def evaluate(prec):
        if cls.tag == "PowerPlusConstant":
            t = a[1] / a[0]
            pairs = _ref_power_plus_constant(a[0], t, a[d] - a[0] * t**d, d, prec)
        elif cls.tag == "ConstantTimesPowerPlusPower":
            pairs = _ref_reversed(eq, prec)
        else:
            pairs = _ref_two_powers(eq, cls.invariants, prec)
        roots = tuple(RadicalRoot(mpc(v), 1, e, "") for v, e in pairs)
        return RootSet(roots, "reference", (), eq)

    working = 64
    for _ in range(6):
        with mp.workprec(working):
            root_set = evaluate(working)
        if max_scaled_residual(root_set, working + 64) <= 1e-10:
            break
        working *= 2
    return root_set


def _relatively_close(a, b, tol=1e-9):
    """A pairing of a with b in which each z is within tol*max(1, |z|)."""
    remaining = list(b)
    for x in a:
        best = min(range(len(remaining)), key=lambda i: abs(x - remaining[i]))
        if abs(x - remaining[best]) > tol * max(1.0, abs(x)):
            return False
        remaining.pop(best)
    return not remaining


def _assert_same_roots_as_the_replaced_routines(eq):
    new, old = solve_by_radicals(eq), _reference_solve(eq)
    assert new.method == "two-power-sum"
    assert _relatively_close(as_multiset(new), as_multiset(old)), eq.plain
    exact = [{r.exact for r in rs.roots if r.exact is not None} for rs in (new, old)]
    # at even d both real d-th roots +-w of a rational ratio give rational
    # roots; the completion flags both, the replaced routines only one
    assert exact[1] <= exact[0], eq.plain
    assert all(eq.evaluate_exact(x) == 0 for x in exact[0]), eq.plain
    for rs in (new, old):
        assert max_scaled_residual(rs, 256) <= 1e-10, eq.plain


_nonzero = _small.filter(bool)


@st.composite
def _powers_plus_constants(draw):
    """a*(x + t)^d + gamma."""
    d = draw(st.integers(3, 12))
    a, t, gamma = draw(_nonzero), draw(_small), draw(_nonzero)
    plain = [math.comb(d, i) * a * t**i for i in range(d + 1)]
    plain[-1] += gamma
    return plain


@st.composite
def _constants_times_powers_plus_powers(draw):
    """c*x^d + lam*(x + beta)^d."""
    d = draw(st.integers(3, 12))
    c, lam, beta = draw(_nonzero), draw(_nonzero), draw(_nonzero)
    plain = [math.comb(d, i) * lam * beta**i for i in range(d + 1)]
    plain[0] += c
    return plain


def _two_power_class(plain, tag):
    assume(plain[0] != 0 and plain[-1] != 0)  # no x factored out
    eq = cs.from_plain_coeffs(plain)
    assume(classify(eq).tag == tag)
    return eq


@settings(max_examples=80, deadline=None)
@given(plain=_powers_plus_constants())
def test_power_plus_constant_matches_the_replaced_routine(plain):
    eq = _two_power_class(plain, "PowerPlusConstant")
    _assert_same_roots_as_the_replaced_routines(eq)


@settings(max_examples=80, deadline=None)
@given(plain=_constants_times_powers_plus_powers())
def test_constant_times_power_plus_power_matches_the_reversal(plain):
    eq = _two_power_class(plain, "ConstantTimesPowerPlusPower")
    _assert_same_roots_as_the_replaced_routines(eq)


@settings(max_examples=80, deadline=None)
@given(data=_two_power_sums())
def test_sum_of_two_powers_matches_the_replaced_routine(data):
    d, norm = data
    assume(norm[0] != 0)
    plain = list(cs.from_norm_coeffs(norm).plain)
    eq = _two_power_class(plain, "SumOfTwoPowers")
    _assert_same_roots_as_the_replaced_routines(eq)


def _planted(d, scale, t, gamma, tag):
    """scale*(x + t)^d + gamma, or gamma*x^d + scale*(t*x + 1)^d."""
    if tag == "PowerPlusConstant":
        plain = [math.comb(d, i) * scale * t**i for i in range(d + 1)]
        plain[-1] += gamma
    else:
        plain = [math.comb(d, i) * scale * t ** (d - i) for i in range(d + 1)]
        plain[0] += gamma
    return plain


# a SumOfTwoPowers cubic whose replaced formula missed the contract at 64
# bits (residual 2.1e-8) and which the Moebius form meets there (1.2e-12)
_ONE_ROUND_CUBIC = [
    F(-13207158443774, 6603579221899),
    F(-9),
    F(-130821775619450877991510239, 32),
    F(-130821775619688606843498603, 64),
]


@pytest.mark.parametrize(
    "plain",
    [
        _planted(25, F(-7), F(-38, 9), F(4), "PowerPlusConstant"),
        _planted(4, F(1), F(-1), F(-16), "PowerPlusConstant"),
        _planted(7, F(3), F(5, 4), -(9 * 10**399 + 7), "PowerPlusConstant"),
        _planted(40, F(5), F(37, 8), F(-3), "ConstantTimesPowerPlusPower"),
        _planted(4, F(1), F(-1), F(-16), "ConstantTimesPowerPlusPower"),
        near_one_plain(),
        _ONE_ROUND_CUBIC,
    ],
    ids=[
        "ppc-d25",
        "ppc-d4-negative-shift",
        "ppc-d7-gamma400",
        "ctppp-d40",
        "ctppp-d4-two-rational-roots",
        "near-one",
        "one-round-cubic",
    ],
)
def test_corpus_extremes_match_the_replaced_routines(plain):
    _assert_same_roots_as_the_replaced_routines(cs.from_plain_coeffs(plain))


@pytest.mark.parametrize(
    "plain, rational",
    [
        ([-15, -4, 6, -4, 1], {F(-1), F(1, 3)}),  # -16x^4 + (x - 1)^4
        ([1, -4, 6, -4, -15], {F(3), F(-1)}),  # (x - 1)^4 - 16
        ([1, 0, 0, 0, 0, 0, -64], {F(2), F(-2)}),  # x^6 - 64
    ],
    ids=["ctppp-d4", "ppc-d4", "ppc-d6"],
)
def test_even_degree_flags_both_rational_roots(plain, rational):
    rs = solve_by_radicals(cs.from_plain_coeffs(plain))
    assert rs.method == "two-power-sum"
    assert {r.exact for r in rs.roots if r.exact is not None} == rational
    assert {r for r, _ in cs.rational_roots(plain)} == rational


def test_two_power_cubic_meets_the_contract_at_64_bits(monkeypatch):
    import centersolve.solver as solver

    rounds = []
    original = solver.max_scaled_residual

    def counting(root_set, prec):
        rounds.append(original(root_set, prec))
        return rounds[-1]

    monkeypatch.setattr(solver, "max_scaled_residual", counting)
    rs = solve_by_radicals(cs.from_plain_coeffs(_ONE_ROUND_CUBIC))
    assert rs.method == "two-power-sum"
    assert len(rounds) == 1 and rounds[0] <= 1e-10, rounds


# ---------------------------------------------------------------------------
# the printed expr is the evaluated root
# ---------------------------------------------------------------------------

_RADICAL_EXPR = re.compile(r"[a-z0-9(),/-]+")
_TINY_QUARTIC = [F(1, 10**30), 1, 0, 1, 1]  # 10^-30 x^4 + x^3 + x + 1


def _printed_root_sets():
    for plain in (
        QUINTIC_PLAIN,
        [1, 0, 0, 1, 1],  # x^4 + x + 1: the resolvent is completed into two cubes
        [1, 0, 0, 1, 1, 0],  # x^5 + x^2 + x
        _TINY_QUARTIC,
        near_one_plain(),
    ):
        yield solve_by_radicals(cs.from_plain_coeffs(plain))
    for p, q in ((1, 1), (6, -20), (0, -8), (-4, 0)):
        yield cardano(p, q)
    rng = random.Random(90210)  # the quartics of test_random_quartics_match_oracle
    for _ in range(25):
        b = [F(1)] + [rand_fraction(rng) for _ in range(4)]
        yield solve_quartic_by_two_squares(cs.from_plain_coeffs(b)).root_set


def test_printed_roots_are_the_evaluated_radical_expressions():
    # no float or complex literal, no 'where' clause: each expr is read back
    # at 256 bits by a reader that shares no code with the solver
    for rs in _printed_root_sets():
        for r in rs.roots:
            assert _RADICAL_EXPR.fullmatch(r.expr), r.expr
            got = read_prefix(r.expr)
            assert abs(got - r.value) <= 1e-9 * abs(r.value), (rs.equation.plain, r.expr)


def test_a_tree_is_rendered_when_first_printed():
    # the resolvent roots that are not chosen are built but never printed
    from centersolve.solver import _Node

    class Unprintable:
        def __str__(self):
            raise AssertionError("rendered")

    node = _Node("neg", _Node("sqrt", Unprintable()))
    with pytest.raises(AssertionError, match="rendered"):
        str(node)
    assert str(_Node("add", _Node("sqrt", F(2)), F(-1, 3))) == "add(sqrt(2),-1/3)"


def test_the_quartic_is_analysed_once_across_escalation_rounds(monkeypatch):
    import centersolve.solver as solver

    calls, rounds = [], []
    rational, residual = solver.rational_roots, solver.max_scaled_residual
    monkeypatch.setattr(solver, "rational_roots", lambda c: calls.append(c) or rational(c))
    monkeypatch.setattr(
        solver,
        "max_scaled_residual",
        lambda rs, prec: rounds.append(prec) or residual(rs, prec),
    )
    rs = solve_by_radicals(cs.from_plain_coeffs(_TINY_QUARTIC))
    assert rs.method == "quartic-two-squares"
    assert rounds == [128, 192, 320]
    assert len(calls) == 1

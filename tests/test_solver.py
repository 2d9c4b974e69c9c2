import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mpc

import centersolve as cs
from centersolve import (
    BinaryForm,
    CenterRankError,
    DegreeError,
    NoRadicalMethodError,
    PivotError,
    RepeatedEigenvalueError,
    cardano,
    classify,
    complete_cube,
    complete_powers,
    depress_quartic,
    expand,
    hankel,
    reversal_transform,
    shift_equation,
    solve_by_radicals,
    solve_quartic_by_two_squares,
)
from centersolve.scalars import QuadExt, exact_sqrt
from conftest import (
    near_one_plain,
    near_one_planted_roots,
    rand_fraction,
    rand_nonzero_fraction,
)


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


class TestHankel:
    def test_quintic_rank_two(self, quintic):
        hk = hankel(quintic)
        assert hk.rank == 2
        assert hk.rows[0] == (31, 47, 71)
        assert len(hk.rows) == 4

    def test_binomial_power_rank_one(self):
        eq = cs.from_plain_coeffs([1, 4, 6, 4, 1])  # (x+1)^4
        assert hankel(eq).rank == 1

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
            assert hankel(eq).rank == 2

    def test_degree_error(self):
        with pytest.raises(DegreeError):
            hankel(cs.from_plain_coeffs([1, 2, 3]))


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
        assert cls.witness["constant"] == 1

    def test_constant_plus_power(self):
        # 2x^3 + (x+1)^3 = 3x^3 + 3x^2 + 3x + 1
        eq = cs.from_plain_coeffs([3, 3, 3, 1])
        cls = classify(eq)
        assert cls.tag == "ConstantTimesPowerPlusPower"
        assert cls.witness["constant"] == 2

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
            rev = reversal_transform(eq)
            assert classify(eq).tag == classify(rev).tag


class TestCompleteCube:
    def test_two_symmetric_cubes(self):
        dec = complete_cube(BinaryForm((2, 0, 2, 0)))
        got = {(str(c), tuple(map(str, l.coeffs))) for c, l in dec.summands}
        assert got == {("1", ("1", "1")), ("1", ("1", "-1"))}

    def test_cube_plus_shifted_cube(self):
        dec = complete_cube(BinaryForm((2, 1, 1, 1)))
        got = {(str(c), tuple(map(str, l.coeffs))) for c, l in dec.summands}
        assert got == {("1", ("1", "1")), ("1", ("1", "0"))}

    @pytest.mark.parametrize("p,q", [(F(2), F(3)), (F(-5), F(1)), (F(1, 2), F(7))])
    def test_depressed_cubic_eigenvalues(self, p, q):
        form = BinaryForm((1, 0, p / 3, q))
        dec = complete_cube(form)
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
                dec = complete_cube(form)
            except (PivotError, RepeatedEigenvalueError, DegreeError):
                continue
            assert expand(dec, 2) == form.to_nary()

    def test_pivot_error(self):
        with pytest.raises(PivotError):
            complete_cube(BinaryForm((1, 0, 0, 1)))

    def test_repeated_eigenvalue(self):
        # x(x+1)^2 homogenized: discriminant vanishes
        eq = cs.from_plain_coeffs([1, 2, 1, 0])
        with pytest.raises(RepeatedEigenvalueError):
            complete_cube(eq.homogenize())


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

    def test_cubic_delegates_to_complete_cube(self):
        form = BinaryForm((2, 1, 1, 1))
        assert complete_powers(form) == complete_cube(form)

    def test_rank_error(self):
        eq = cs.from_plain_coeffs([1, 0, 0, 0, 1, 1])
        with pytest.raises(CenterRankError):
            complete_powers(eq.homogenize())

    def test_pivot_restoration_by_swap(self):
        # (x+y)^3 + 4y^3 has D1 = 0 but the swapped form is pivoted
        form = BinaryForm((1, 1, 1, 5))
        dec = complete_powers(form)
        assert expand(dec, 2) == form.to_nary()
        (c1, l1), (c2, l2) = dec.summands
        assert not l1.proportional_to(l2)

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

    def test_constant_plus_power_via_reversal(self):
        eq = cs.from_plain_coeffs([3, 3, 3, 1])  # 2x^3 + (x+1)^3
        rs = solve_by_radicals(eq)
        assert "reversal" in " ".join(rs.pre_transform)
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

    def test_quartic_hint_in_message(self):
        eq = cs.from_plain_coeffs([1, 1, 1, 1, 5])
        assert classify(eq).tag == "NoNontrivialCenter"
        with pytest.raises(NoRadicalMethodError) as exc:
            solve_by_radicals(eq)
        assert "quartic" in str(exc.value)

    def test_quadratic_convenience(self):
        rs = solve_by_radicals(cs.from_plain_coeffs([1, -3, 2]))
        assert sorted(r.exact for r in rs.roots) == [1, 2]
        rs2 = solve_by_radicals(cs.from_plain_coeffs([1, -2, 1]))
        assert rs2.roots[0].multiplicity == 2

    def test_linear_convenience(self):
        rs = solve_by_radicals(cs.from_plain_coeffs([2, -5]))
        assert rs.roots[0].exact == F(5, 2)

    def test_structured_root_parameters(self, quintic):
        rs = solve_by_radicals(quintic)
        for r in rs.roots:
            p = r.params
            assert p["radicand"] == F(1, 32)
            assert p["degree"] == 5
            assert (p["lambda1"], p["lambda2"], p["D1"]) == (-8, -12, -8)
        assert sorted(r.params["index"] for r in rs.roots) == [0, 1, 2, 3, 4]

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
            except (PivotError, RepeatedEigenvalueError, CenterRankError):
                success = False
            if success:
                assert expand(dec, 2) == form.to_nary()
                (c1, l1), (c2, l2) = dec.summands
                assert not l1.proportional_to(l2)
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


class TestReversal:
    def test_reverse_of_reverse_is_identity(self, quintic):
        assert reversal_transform(reversal_transform(quintic)) == quintic

    def test_cube_reversal(self):
        eq = cs.from_plain_coeffs([1, 6, 12, 8])  # (x+2)^3
        rev = reversal_transform(eq)
        assert rev.plain == (8, 12, 6, 1)  # (2x+1)^3
        assert classify(rev).tag == "PerfectPower"

    def test_zero_constant_term(self):
        with pytest.raises(PivotError):
            reversal_transform(cs.from_plain_coeffs([1, 1, 0]))


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
    assert rs.method == "power-plus-constant"
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


def test_near_degenerate_coefficients_escalate_precision():
    # delta is numerically indistinguishable from 1 at 64 bits; the solver
    # must raise its working precision until the residual contract holds
    eq = cs.from_plain_coeffs(
        [10**40 + 1, 3 * 10**30, 3 * (10**20 + 7), 999999999999]
    )
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


_FORCED_ESCALATION = [10**40 + 1, 3 * 10**30, 3 * (10**20 + 7), 999999999999]


def test_solve_by_radicals_classifies_once_across_escalation(monkeypatch):
    calls = _count_classify(monkeypatch)
    rs = solve_by_radicals(cs.from_plain_coeffs(_FORCED_ESCALATION))
    assert rs.method == "two-power-sum"
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
    assert rs.method == "reversed-power-plus-constant"
    reversed_roots = solve_by_radicals(reversal_transform(eq)).roots
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

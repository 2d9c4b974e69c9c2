import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpc, mpf

import centersolve as cs
from centersolve import (
    NonConvergenceError,
    check_decomposition,
    compare_root_sets,
    numeric_roots,
    rational_roots,
)
from conftest import TERNARY_CUBIC_DEC, rand_fraction


class TestNumericRoots:
    def test_quintic_contains_minus_two(self, quintic):
        result = numeric_roots(quintic)
        assert result.converged
        assert any(abs(r.value - (-2)) < 1e-12 for r in result.roots)
        assert sum(r.multiplicity for r in result.roots) == 5

    def test_pure_cube(self):
        result = numeric_roots(cs.from_plain_coeffs([1, 0, 0, 0]))
        assert len(result.roots) == 1
        assert result.roots[0].multiplicity == 3
        assert abs(result.roots[0].value) < 1e-6

    def test_planted_integers(self):
        # (x-1)(x-2)(x-3) = x^3 - 6x^2 + 11x - 6
        result = numeric_roots(cs.from_plain_coeffs([1, -6, 11, -6]))
        values = sorted(float(r.value.real) for r in result.roots)
        assert all(abs(v - k) < 1e-10 for v, k in zip(values, (1, 2, 3)))

    def test_multiplicity_cluster(self, degree7):
        result = numeric_roots(degree7)
        mults = sorted(r.multiplicity for r in result.roots)
        assert mults == [1, 6]
        six = next(r for r in result.roots if r.multiplicity == 6)
        assert abs(six.value - mpc(0.5)) < 1e-6

    def test_high_degree_wilkinson_slice(self):
        # (x-1)...(x-8), coefficients via exact expansion
        coeffs = [F(1)]
        for k in range(1, 9):
            coeffs = [c for c in coeffs] + [F(0)]
            for i in range(len(coeffs) - 1, 0, -1):
                coeffs[i] = coeffs[i] - k * coeffs[i - 1]
        result = numeric_roots(cs.from_plain_coeffs(coeffs))
        values = sorted(float(r.value.real) for r in result.roots)
        assert all(abs(v - k) < 1e-9 for v, k in zip(values, range(1, 9)))

    def test_determinism(self, quintic):
        a = numeric_roots(quintic)
        b = numeric_roots(quintic)
        assert [(str(r.value), r.multiplicity) for r in a.roots] == [
            (str(r.value), r.multiplicity) for r in b.roots
        ]

    def test_self_consistency_against_coefficients(self):
        rng = random.Random(1234)
        for _ in range(15):
            d = rng.randint(2, 12)
            b = [F(rng.randint(-999, 1000)) for _ in range(d + 1)]
            if b[0] == 0:
                b[0] = F(1)
            eq = cs.from_plain_coeffs(b)
            result = numeric_roots(eq)
            roots = result.values_with_multiplicity()
            with mp.workprec(160):
                coeffs = [mpc(1)]
                for r in roots:
                    out = [mpc(0)] * (len(coeffs) + 1)
                    for i, c in enumerate(coeffs):
                        out[i] += c
                        out[i + 1] -= c * r
                    coeffs = out
                scale = max(abs(x) for x in b)
                from centersolve.scalars import to_mpc

                for got, want in zip(coeffs, [x / b[0] for x in b]):
                    assert abs(got - to_mpc(want, 160)) <= 1e-7 * max(
                        1, float(scale)
                    )

    def test_planted_two_power_sum_of_degree_40(self):
        # (x+2)^40 + 3(x-1)^40: the roots are the Moebius images
        # (w+2)/(w-1) of the 40 roots w of w^40 = -3
        d = 40
        coeffs = [
            math.comb(d, i) * (2**i + 3 * (-1) ** i) for i in range(d + 1)
        ]
        result = numeric_roots(cs.from_plain_coeffs(coeffs))
        assert result.converged
        assert result.max_residual < 2.0**-512
        with mp.workprec(256):
            roots_of_minus_3 = [mp.root(-3, d, k) for k in range(d)]
            planted = [(w + 2) / (w - 1) for w in roots_of_minus_3]
        assert compare_root_sets(planted, result, tol=1e-9).passed

    def test_power_plus_constant_above_the_double_range(self):
        # x^5 + 10^400: roots 10^80 * exp(i*pi*(2k+1)/5)
        result = numeric_roots(cs.from_plain_coeffs([1, 0, 0, 0, 0, 10**400]))
        assert result.converged
        with mp.workprec(128):
            planted = [mp.expjpi(mpf(2 * k + 1) / 5) for k in range(5)]
            scaled = [r.value / mpf(10) ** 80 for r in result.roots]
        assert compare_root_sets(planted, scaled, tol=1e-12).passed

    def test_degree_7_with_a_330_digit_constant(self):
        c = 7 * 10**329 + 1
        result = numeric_roots(cs.from_plain_coeffs([1, 0, 0, 0, 0, 3, -2, c]))
        assert result.converged
        roots = result.values_with_multiplicity()
        assert len(roots) == 7
        with mp.workprec(256):
            # Vieta: the roots sum to 0 and multiply to -c
            assert abs(mp.fsum(roots)) < 1e-30 * abs(roots[0])
            assert abs(mp.fprod(roots) / c + 1) < 1e-30

    def test_nonconvergence_message_prints_a_short_residual(self):
        # (x+2)^20 + 3(x-1)^20 cannot settle in one multiprecision round
        d = 20
        eq = cs.from_plain_coeffs(
            [math.comb(d, i) * (2**i + 3 * (-1) ** i) for i in range(d + 1)]
        )
        with pytest.raises(NonConvergenceError) as info:
            numeric_roots(eq, max_iter=1)
        message = str(info.value)
        match = re.fullmatch(
            r"no convergence after 1 iterations \(residual (\S+)\)", message
        )
        assert match is not None, message
        residual = match.group(1)
        assert residual == f"{float(residual):.3g}"


class TestCompareRootSets:
    def test_identical(self):
        values = [mpc(1), mpc(2), mpc(0, 1)]
        report = compare_root_sets(values, values, tol=1e-12)
        assert report.passed
        assert report.max_distance == 0

    def test_radical_vs_oracle(self, quintic):
        rs = cs.solve_by_radicals(quintic)
        oracle = numeric_roots(quintic)
        report = compare_root_sets(rs, oracle, tol=1e-9)
        assert report.passed

    def test_perturbed_root_located(self):
        a = [mpc(1), mpc(2), mpc(3)]
        b = [mpc(1), mpc(2) + mpc(1e-5), mpc(3)]
        report = compare_root_sets(a, b, tol=1e-9)
        assert not report.passed
        assert report.structural_ok
        worst_value = a[report.worst_index]
        assert abs(worst_value - 2) < 1e-9

    def test_cardinality_mismatch_is_structural(self):
        report = compare_root_sets([mpc(1)], [mpc(1), mpc(2)], tol=1e-9)
        assert not report.passed
        assert not report.structural_ok

    def test_conjugate_tie_matching(self):
        a = [mpc(1, 1), mpc(1, -1)]
        b = [mpc(1, -1), mpc(1, 1)]
        assert compare_root_sets(a, b, tol=1e-12).passed


class TestCheckDecomposition:
    def test_exact(self, ternary_cubic):
        assert check_decomposition(ternary_cubic, TERNARY_CUBIC_DEC)

    def test_exact_failure(self, ternary_cubic):
        bad = cs.PowerSumDecomposition(
            ((F(1), cs.LinearForm((F(1), F(1), F(1)))),), 3
        )
        assert not check_decomposition(ternary_cubic, bad)

    def test_numeric_tolerance(self, ternary_cubic):
        from centersolve.scalars import to_mpc

        noisy = cs.PowerSumDecomposition(
            tuple(
                (
                    to_mpc(c) * (1 + mpc(1e-13)),
                    cs.LinearForm(tuple(to_mpc(x) for x in l.coeffs)),
                )
                for c, l in TERNARY_CUBIC_DEC.summands
            ),
            3,
        )
        assert check_decomposition(ternary_cubic, noisy, tol=1e-9)
        assert not check_decomposition(ternary_cubic, noisy, tol=1e-16)

    def test_shape_mismatch(self, ternary_cubic):
        dec = cs.PowerSumDecomposition(((F(1), cs.LinearForm((F(1), F(0)))),), 3)
        assert not check_decomposition(ternary_cubic, dec)


class TestRationalRoots:
    def test_mixed_rational_irrational(self):
        # (x - 1/2)(x + 3)(x^2 - 2)
        # = x^4 + (5/2)x^3 - (7/2)x^2 - 5x + 3
        coeffs = [F(1), F(5, 2), F(-7, 2), F(-5), F(3)]
        assert rational_roots(coeffs) == [(F(-3), 1), (F(1, 2), 1)]

    def test_multiplicities(self):
        # (x-2)^3 (x+1) = x^4 - 5x^3 + 6x^2 + 4x - 8
        coeffs = [F(1), F(-5), F(6), F(4), F(-8)]
        assert rational_roots(coeffs) == [(F(-1), 1), (F(2), 3)]

    def test_no_rational_roots(self):
        assert rational_roots([F(1), F(0), F(-2)]) == []

    def test_linear(self):
        assert rational_roots([F(3), F(-2)]) == [(F(2, 3), 1)]

    def test_one_numeric_seed_per_call(self, monkeypatch):
        import centersolve.oracle as oracle

        degrees = []
        original = oracle._aberth

        def counting(coeffs, *args, **kwargs):
            degrees.append(len(coeffs) - 1)
            return original(coeffs, *args, **kwargs)

        monkeypatch.setattr(oracle, "_aberth", counting)
        coeffs = [F(1)]
        for k in range(1, 7):  # multiply by (x - k)
            coeffs = [a - k * b for a, b in zip(coeffs + [F(0)], [F(0)] + coeffs)]
        assert rational_roots(coeffs) == [(F(k), 1) for k in range(1, 7)]
        assert degrees == [6]

    def test_distinct_roots_closer_than_the_cluster_tolerance(self):
        # (x - 1)(x - 1 - 1e-7)(x^2 - 2): the oracle merges the two rational
        # roots into one cluster, whose mean is neither of them
        r = 1 + F(1, 10**7)
        coeffs = [F(1), -1 - r, r - 2, 2 + 2 * r, -2 * r]
        assert rational_roots(coeffs) == [(F(1), 1), (r, 1)]

    def test_linear_remainder_after_deflation(self):
        # (x - 1)^2 (q x - 1): no denominator up to 1e9 reconstructs 1/q, but
        # once (x - 1)^2 is deflated the linear remainder gives it exactly
        q = 10**10 + 19
        coeffs = [F(q), F(-2 * q - 1), F(q + 2), F(-1)]
        assert rational_roots(coeffs) == [(F(1, q), 1), (F(1), 2)]


def _poly_mul(p, q):
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _planted(linear, quadratic=None):
    """Coefficients of prod (v x - u)^m over [(u/v, m)], times a quadratic."""
    coeffs = [F(1)] if quadratic is None else list(quadratic)
    for r, m in linear:
        for _ in range(m):
            coeffs = _poly_mul(coeffs, [F(r.denominator), F(-r.numerator)])
    return coeffs


_heights = st.integers(1, 10**30)
_rationals = st.builds(
    lambda s, u, v: F(s * u, v), st.sampled_from((-1, 1)), _heights, _heights
)


class TestSquareFreeSplit:
    @settings(max_examples=40, deadline=None)
    @given(
        roots=st.lists(_rationals, min_size=1, max_size=3, unique=True),
        mults=st.lists(st.integers(1, 6), min_size=3, max_size=3),
        quadratic=st.one_of(
            st.none(),
            st.builds(lambda c: (F(1), F(0), c), st.fractions(F(1, 10**6), 10**6)),
        ),
    )
    def test_planted_linear_factors(self, roots, mults, quadratic):
        # heights to 1e30, multiplicities to 6; x^2 + c (c > 0) has no
        # rational root
        planted = sorted(zip(roots, mults))
        coeffs = _planted(planted, quadratic)
        assert rational_roots(coeffs) == planted
        result = numeric_roots(cs.from_plain_coeffs(coeffs))
        assert result.converged
        for root, m in planted:
            want = mpc(root.numerator) / root.denominator
            assert any(
                r.multiplicity == m and abs(r.value - want) <= 1e-9 * (1 + abs(want))
                for r in result.roots
            ), (root, m, result.roots)
        assert sum(r.multiplicity for r in result.roots) == len(coeffs) - 1

    def test_square_of_a_linear_factor_with_a_large_denominator(self):
        # (q x - 1)^2: the 1/1e3/1e6/1e9 denominator ladder never reached 1/q
        q = 10**10 + 19
        assert rational_roots([F(q * q), F(-2 * q), F(1)]) == [(F(1, q), 2)]

    @pytest.mark.parametrize(
        "coeffs, mults",
        [
            ([1, -10, 40, -80, 80, -32], [5]),  # PerfectPower (x - 2)^5
            (_planted([(F(3, 2), 5)]), [5]),
            (_planted([(F(1), 4), (F(-2, 3), 1)]), [1, 4]),  # LinearTimesPowerD1
        ],
    )
    def test_repeated_root_quintics_take_at_most_three_rounds(self, coeffs, mults):
        result = numeric_roots(cs.from_plain_coeffs(coeffs))
        assert result.iterations <= 3
        assert sorted(r.multiplicity for r in result.roots) == mults

    def test_yun_factors_match_sympy(self):
        sympy = pytest.importorskip("sympy")
        from centersolve.oracle import _squarefree

        x = sympy.symbols("x")
        rng = random.Random(77)
        pieces = [x - 3, 2 * x + 5, x**2 - 2, x**2 + x + 1, 3 * x**3 - x - 1, x]
        for _ in range(25):
            expr = rng.randint(-9, 9) or 1
            for piece in rng.sample(pieces, rng.randint(1, 4)):
                expr *= piece ** rng.randint(1, 5)
            poly = sympy.Poly(expr, x)
            coeffs = [int(c) for c in poly.all_coeffs()]
            want = {}
            for factor, m in sympy.sqf_list(poly)[1]:
                f = [int(c) for c in factor.all_coeffs()]
                f = [-c for c in f] if f[0] < 0 else f
                want.setdefault(m, []).append(sympy.Poly(f, x))
            want = {m: sympy.prod(fs).all_coeffs() for m, fs in want.items()}
            got = {m: [int(c) for c in g] for g, m in _squarefree(coeffs)}
            assert got == {m: [int(c) for c in f] for m, f in want.items()}, expr


def _reference_compare(a, b, tol=1e-9):
    """The matching as it was before the distance matrix: abs() per lookup."""
    from centersolve.oracle import MatchReport, _expanded_values

    va, vb = _expanded_values(a), _expanded_values(b)
    if len(va) != len(vb):
        return MatchReport(False, False, float("inf"), None, [])
    n = len(va)
    used = [False] * n
    match = [0] * n
    for i in range(n):
        best, best_d = None, None
        for j in range(n):
            if used[j]:
                continue
            dist = abs(va[i] - vb[j])
            if best_d is None or dist < best_d:
                best, best_d = j, dist
        match[i] = best
        used[best] = True
    improved = True
    while improved:
        improved = False
        for i in range(n):
            for j in range(i + 1, n):
                cur = max(abs(va[i] - vb[match[i]]), abs(va[j] - vb[match[j]]))
                alt = max(abs(va[i] - vb[match[j]]), abs(va[j] - vb[match[i]]))
                if alt < cur:
                    match[i], match[j] = match[j], match[i]
                    improved = True
    pairs = [(va[i], vb[match[i]], float(abs(va[i] - vb[match[i]]))) for i in range(n)]
    max_distance = max((p[2] for p in pairs), default=0.0)
    worst_index = max(range(n), key=lambda i: pairs[i][2]) if n else None
    return MatchReport(max_distance <= tol, True, max_distance, worst_index, pairs)


@pytest.mark.parametrize("seed", range(12))
def test_compare_root_sets_matches_the_reference(seed):
    rng = random.Random(seed)
    n = rng.randint(0, 12)
    grid = [mpc(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(n)]
    a = [z + mpc(rng.gauss(0, 1e-3), rng.gauss(0, 1e-3)) * rng.randint(0, 1) for z in grid]
    b = [z + mpc(rng.gauss(0, 1e-3), rng.gauss(0, 1e-3)) * rng.randint(0, 1) for z in grid]
    rng.shuffle(b)
    if seed % 4 == 3 and n:
        b = b + [mpc(0)]  # cardinality mismatch
    tol = rng.choice((1e-9, 1e-2))
    assert compare_root_sets(a, b, tol) == _reference_compare(a, b, tol)

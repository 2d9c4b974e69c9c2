import math
import random
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st
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
        # the residual bound is requested through tol: certified radii below
        # 2^-514 end the factor at the 432-digit level, not at 48 digits
        result = numeric_roots(cs.from_plain_coeffs(coeffs), tol=2.0**-512)
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
        # (x+2)^64 + 3(x-1)^64: no level certifies after one round
        d = 64
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


    def test_the_residual_is_measured_when_first_read(self, monkeypatch):
        # numeric_roots does not measure it; the first read measures it once,
        # against the input at the final precision
        from centersolve import oracle
        from centersolve.scalars import to_mpc

        reads = []
        original = oracle._scaled_residual

        def counting(*args):
            reads.append(args)
            return original(*args)

        monkeypatch.setattr(oracle, "_scaled_residual", counting)
        d = 12
        eq = cs.from_plain_coeffs(
            [math.comb(d, i) * (2**i + 3 * (-1) ** i) for i in range(d + 1)]
        )
        result = numeric_roots(eq)
        assert reads == []
        wprec = result.prec
        assert wprec == math.ceil(max(result.digits) * math.log2(10))
        with mp.workprec(wprec):
            b = [to_mpc(c, wprec) for c in eq.plain]
            worst = mpf(0)
            for r in result.roots:
                acc = mpc(0)
                for c in b:
                    acc = acc * r.value + c
                bound = max(abs(c) for c in b) * max(mpf(1), abs(r.value)) ** d
                worst = max(worst, abs(acc) / bound)
        assert result.max_residual == float(worst)
        assert result.max_residual == float(worst)
        assert len(reads) == 1


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
        # no numeric seed at all: the roots are lifted p-adically
        import centersolve.oracle as oracle

        def no_aberth(*args, **kwargs):
            raise AssertionError("rational_roots ran the numeric root finder")

        monkeypatch.setattr(oracle, "_aberth", no_aberth)
        coeffs = _planted([(F(k), 1) for k in range(1, 7)])
        assert rational_roots(coeffs) == [(F(k), 1) for k in range(1, 7)]

    def test_prime_search_skips_primes_with_a_repeated_root(self):
        # x(x - 1)...(x - 6) has double roots mod 3 and mod 5, none mod 7
        from centersolve.oracle import _lifting_prime

        coeffs = _planted([(F(k), 1) for k in range(7)])
        assert _lifting_prime(coeffs) == (7, list(range(7)))
        assert rational_roots(coeffs) == [(F(k), 1) for k in range(7)]

    def test_cluster_of_twelve_roots_within_1e_11(self):
        # prod (10^12 x - 10^12 - k): the roots 1 + k/10^12 are 1e-12 apart
        planted = [(1 + F(k, 10**12), 1) for k in range(1, 13)]
        assert rational_roots(_planted(planted)) == planted

    def test_roots_with_forty_digit_heights(self):
        planted = sorted((F(10**40 + k, 10**39 + 3 * k), 1) for k in range(1, 7))
        assert rational_roots(_planted(planted)) == planted

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


def _rationals_to(height):
    heights = st.integers(1, height)
    return st.builds(
        lambda s, u, v: F(s * u, v), st.sampled_from((-1, 1)), heights, heights
    )


_rationals = _rationals_to(10**30)

# irreducible over Q: no real root (b^2 < 4ac), or the real pair +-k sqrt(2)
_irreducible_quadratics = st.one_of(
    st.builds(
        lambda a, b, e: (a, b, b * b // (4 * a) + e),
        st.integers(1, 10**20),
        st.integers(-(10**20), 10**20),
        st.integers(2, 10**20),
    ),
    st.builds(lambda k: (1, 0, -2 * k * k), st.integers(1, 10**20)),
)


@st.composite
def _planted_linear_factors(draw):
    """[(root, multiplicity)] with at most 12 linear factors in all."""
    roots = draw(st.lists(_rationals_to(10**40), min_size=1, max_size=12, unique=True))
    mults = []
    for _ in roots:
        if sum(mults) == 12:
            break
        mults.append(draw(st.integers(1, 12 - sum(mults))))
    return sorted(zip(roots, mults))


@settings(max_examples=60, deadline=None)
@given(
    planted=_planted_linear_factors(),
    quadratic=st.one_of(st.none(), _irreducible_quadratics),
)
def test_rational_roots_are_the_planted_multiset(planted, quadratic):
    # prod (v x - u)^m, heights to 1e40, times an irreducible quadratic
    assert rational_roots(_planted(planted, quadratic)) == planted


def _monic_with_integer_roots(roots, quadratic=(1,)):
    h = list(quadratic)
    for y in roots:
        h = _poly_mul(h, [1, -y])
    return h


@settings(max_examples=100, deadline=None)
@given(
    roots=st.lists(st.integers(-(10**40), 10**40), min_size=1, max_size=12),
    quadratic=st.one_of(
        st.just((1,)),
        st.tuples(st.just(1), st.integers(-(10**30), 10**30), st.integers(-(10**30), 10**30)),
    ),
)
def test_root_bound_is_above_every_planted_root(roots, quadratic):
    from centersolve.oracle import _root_bound

    h = _monic_with_integer_roots(roots, quadratic)
    assert _root_bound(h) >= max(map(abs, roots))


def test_root_bound_of_the_cluster_is_near_its_roots():
    # h = L^11 g(y/L) for g = prod (10^12 x - 10^12 - k) has the integer
    # roots L (1 + k/10^12), L the product of the reduced denominators (464
    # bits); twice Cauchy's 1 + max |h_i| has 5,566 bits
    from centersolve.oracle import _root_bound

    cluster = [1 + F(k, 10**12) for k in range(1, 13)]
    lead = math.prod(r.denominator for r in cluster)
    h = _monic_with_integer_roots([int(lead * r) for r in cluster])
    assert max(abs(int(lead * r)) for r in cluster) <= _root_bound(h) < 2**480


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

    va = [value for value, _ in _expanded_values(a)]
    vb = [value for value, _ in _expanded_values(b)]
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


# ---------------------------------------------------------------------------
# certified decimal ladder: the same roots and verdicts as mpc rounds at the
# parent's working precision
# ---------------------------------------------------------------------------


def _working_prec(degree, tol, prec):
    """The parent's fixed working precision: 24 d + 64 bits or more."""
    bits_for_tol = int(-math.log2(tol)) + 48 if tol > 0 else 128
    return max(prec, 24 * degree + 64, bits_for_tol)


def _parent_aberth(coeffs, tol, prec, max_iter):
    """The oracle before the decimal ladder and its certificate (test-only
    copy): the float phase, then every round at the working precision,
    until a relative step is below 256 eps.

    It gets 2 * max_iter rounds: a degree-24 integer polynomial with two
    coefficients near 10^34 took 662 rounds."""
    from centersolve.oracle import _float_aberth, _horner, _start_circle
    from centersolve.scalars import to_mpc

    d = len(coeffs) - 1
    wprec = _working_prec(d, tol, prec)
    with mp.workprec(wprec):
        b = [to_mpc(c, wprec) for c in coeffs]
        if d == 1:
            return [-b[1] / b[0]], 0, True
        db = [(d - i) * b[i] for i in range(d)]
        abs_b = [abs(c) for c in b]
        circle = _start_circle(coeffs)
        seeds = _float_aberth(
            [complex(c / b[0]) for c in b], [complex(zk) for zk in circle]
        )
        z = circle if seeds is None else [mpc(zk) for zk in seeds]
        eps = mpf(2) ** (-wprec)
        iterations = 0
        converged = False
        for iterations in range(1, 2 * max_iter + 1):
            max_step = mpf(0)
            all_quiet = True
            for k in range(d):
                p = _horner(b, z[k])
                if abs(p) <= 8 * d * eps * _horner(abs_b, abs(z[k])):
                    continue
                all_quiet = False
                dp = _horner(db, z[k])
                w = p / dp if dp != 0 else p
                s = mpc(0)
                for j in range(d):
                    if j == k:
                        continue
                    diff = z[k] - z[j]
                    if diff == 0:
                        diff = mpc(eps)
                    s += 1 / diff
                denom = 1 - w * s
                step = w / denom if denom != 0 else w
                z[k] = z[k] - step
                rel = abs(step) / (1 + abs(z[k]))
                if rel > max_step:
                    max_step = rel
            if all_quiet or max_step < eps * 256:
                converged = True
                break
    return z, iterations, converged


def _match_radius(g, x, wprec):
    """2^-(wprec - 16) max(1, |x|, H(|x|) / |g'(x)|), H the Horner sum of |g_i|.

    The last term widens the radius around an ill-conditioned root: |g(z)|
    reaches the rounding floor 8 d eps H(|z|) anywhere within about
    8 d eps H / |g'| of the root, so runs from different seeds stop up to
    that far apart (2^39.5 eps for two roots 1e-12 apart at degree 6).
    """
    from centersolve.oracle import _horner

    d = len(g) - 1
    with mp.workprec(wprec):
        dg = [(d - i) * c for i, c in enumerate(g[:-1])]
        r = abs(x)
        spread = _horner([abs(c) for c in g], r) / abs(_horner(dg, x))
        return mpf(2) ** (16 - wprec) * max(1, r, spread)


def _product(factors):
    out = [1]
    for f in factors:
        out = _poly_mul(out, list(f))
    return out


@st.composite
def _random_integer_polys(draw, max_degree=24):
    d = draw(st.integers(2, max_degree))
    h = 10 ** draw(st.integers(0, 35))
    coeffs = draw(st.lists(st.integers(-h, h), min_size=d + 1, max_size=d + 1))
    return [coeffs[0] or h] + coeffs[1:]


_planted_factors = st.one_of(
    # a conjugate pair: a x^2 + b x + c with b^2 < 4 a c
    st.builds(
        lambda a, b, e: (a, b, b * b // (4 * a) + e),
        st.integers(1, 10**6),
        st.integers(-(10**6), 10**6),
        st.integers(1, 10**6),
    ),
    # a negative real root -u/v
    st.builds(lambda u, v: (v, u), st.integers(1, 10**6), st.integers(1, 10**6)),
    # a root s 10^e, |e| <= 20
    st.builds(
        lambda s, e: (10**-e, -s) if e < 0 else (1, -s * 10**e),
        st.sampled_from((-7, -3, -1, 1, 2, 9)),
        st.integers(-20, 20),
    ),
)

# roots 1 + k/10^12 for distinct k: a cluster within 1e-12 of each other
_clusters = st.lists(st.integers(1, 9), min_size=2, max_size=4, unique=True).map(
    lambda ks: [(10**12, -(10**12) - k) for k in ks]
)


@st.composite
def _planted_integer_polys(draw):
    factors = draw(st.lists(_planted_factors, min_size=1, max_size=6))
    factors += draw(st.one_of(st.just([]), _clusters))
    factors += draw(st.one_of(st.just([]), _random_integer_polys(6).map(lambda c: [c])))
    coeffs = _product(factors)
    return coeffs if len(coeffs) <= 25 else _product(factors[:2])


def _certified(g, tol=1e-12, max_iter=500):
    """(mpc values, radii, rounds, digits) of ``oracle._aberth`` on g."""
    from centersolve.oracle import _aberth, _to_mpf

    zr, zi, radii, rounds, digits = _aberth(g, tol, max_iter)
    with mp.workprec(math.ceil(digits * math.log2(10))):
        values = [mpc(_to_mpf(x), _to_mpf(y)) for x, y in zip(zr, zi)]
    return values, radii, rounds, digits


def _assert_same_as_parent(coeffs):
    """Each square-free factor: the same verdict, each root within its
    certified radius plus ``_match_radius`` of a root of the parent, and at
    most 2 rounds more than the parent plus a stall's worth per level
    handed on.

    A first level that certifies took no more rounds than the parent at
    degree >= 2 over 4,000 drawn factors (2 against 0 at degree 1); a level
    can stall on a cluster it cannot resolve and hand on (37 against 31
    rounds at degree 4).  Seeds whose real parts lose their sign take up
    to 16 rounds against 2 at 48 digits.
    """
    from centersolve.oracle import _LADDER_START, _STALL, _squarefree

    for g, _ in _squarefree(coeffs):
        old, old_rounds, old_ok = _parent_aberth(g, 1e-12, 64, 500)
        new, radii, rounds, digits = _certified(g)
        assert (radii is not None) == old_ok
        levels = 1 + math.ceil(math.log(digits / _LADDER_START, 3) - 1e-9)
        assert rounds <= old_rounds + 2 + _STALL * (levels - 1), g
        wprec = _working_prec(len(g) - 1, 1e-12, 64)
        with mp.workprec(wprec):
            for x in old:
                assert min(
                    abs(x - y) - r for y, r in zip(new, radii)
                ) <= _match_radius(g, x, wprec), g
            for y, r in zip(new, radii):
                assert min(abs(x - y) for x in old) <= r + _match_radius(g, y, wprec), g


@settings(max_examples=30, deadline=None)
@given(coeffs=st.one_of(_random_integer_polys(), _planted_integer_polys()))
@example(coeffs=[1, 700001, 700001, 700001, 700000])
def test_aberth_matches_the_parent_without_the_ladder(coeffs):
    # degrees 2-24, heights to 1e35, conjugate pairs, negative roots, roots
    # from 1e-20 to 1e20 and clusters within 1e-12; (x + 700000)(x^3 + x^2
    # + x + 1) is not seeded about its centroid (-175000.25), in whose
    # frame it took 5 rounds against the parent's 2
    _assert_same_as_parent(coeffs)


@pytest.mark.parametrize(
    "coeffs",
    [
        [1, 0, 0, 0, 0, 10**400],  # x^5 + 10^400
        [1, 0, 0, 0, 0, 3, -2, 7 * 10**329 + 1],
        _product([(1, 0, 10**320), (1, 1, 1), (2, 3)]),  # (x^2 + 10^320)(x^2 + x + 1)(2x + 3)
    ],
)
def test_ladder_seeded_by_the_circle_matches_the_parent(coeffs, monkeypatch):
    # a monic coefficient beyond 1e308: its quotient overflows (the parent's
    # float phase returns None), and the ladder starts from the circle
    import centersolve.oracle as oracle

    float_phase, to_decimal = oracle._float_aberth, oracle._to_decimal
    returned, seeded = [], []
    monkeypatch.setattr(
        oracle,
        "_float_aberth",
        lambda *args: returned.append(float_phase(*args)) or returned[-1],
    )
    monkeypatch.setattr(
        oracle, "_to_decimal", lambda x: seeded.append(x) or to_decimal(x)
    )
    _assert_same_as_parent(coeffs)
    assert seeded and all(seeds is None for seeds in returned)


@pytest.mark.parametrize("sign", (1, -1))
@pytest.mark.parametrize("exp", (-(10**4), -60, 0, 7, 10**4))
def test_mpf_decimal_round_trip(sign, exp):
    from decimal import Decimal, localcontext

    from centersolve.oracle import _to_decimal, _to_mpf

    with mp.workprec(200):
        x = sign * mp.ldexp(mp.pi, exp)
        with localcontext() as ctx:
            ctx.prec, ctx.Emax, ctx.Emin = 8000, 10**6, -(10**6)
            exact = _to_decimal(x)  # 200 bits * 5^10^4 has < 7,100 digits
            n, q = sign * x.man * 2 ** max(x.exp, 0), 2 ** max(-x.exp, 0)
            assert exact == Decimal(n) / q
            assert _to_mpf(exact) == x
            ctx.prec = 30  # one rounding, to nearest
            assert _to_decimal(x) == Decimal(n) / q
            assert (_to_decimal(x) < 0) == (sign < 0)
        # Decimal -> mpf rounds once, as mpmath's own string conversion does
        text = f"{'-' if sign < 0 else ''}7.123456789012345678901234567891E{exp}"
        assert _to_mpf(Decimal(text)) == mpf(text)
    with localcontext() as ctx:
        ctx.prec = 30
        assert _to_decimal(mpf(0)) == 0
    assert _to_mpf(Decimal(0)) == 0 and _to_mpf(Decimal("-0")) == 0


def test_the_multiprecision_rounds_decide(monkeypatch):
    # every factor ends at its first level whose iterates certify, and the
    # certificate's verdict is the oracle's: a certificate that refuses
    # everything makes the oracle raise
    import centersolve.oracle as oracle

    certify = oracle._inclusion_radii
    verdicts = []

    def spy(lead, b, abs_b, zr, zi, eps, tol):
        radii = certify(lead, b, abs_b, zr, zi, eps, tol)
        verdicts.append((len(b) - 1, 1 - eps.adjusted(), radii is not None))
        return radii

    monkeypatch.setattr(oracle, "_inclusion_radii", spy)
    # (x - 3)^2 (x^2 + 1)^3 (x^7 - 2) (2x - 1): square-free factors of
    # degrees 2, 8 and 1, each proved at the 48-digit level
    coeffs = _product([(1, -3)] * 2 + [(1, 0, 1)] * 3 + [(1, 0, 0, 0, 0, 0, 0, -2), (2, -1)])
    eq = cs.from_plain_coeffs(coeffs)
    result = numeric_roots(eq)
    assert sorted(verdicts) == [(1, 48, True), (2, 48, True), (8, 48, True)]
    assert result.digits == [48, 48, 48]
    assert all(0 < r.radius <= 2.5e-13 for r in result.roots)

    # refused, a factor climbs to its last level and no further, well
    # inside the default max_iter: (x+2)^20 + 3(x-1)^20 stops at 568 digits
    monkeypatch.setattr(oracle, "_inclusion_radii", lambda *args: None)
    g = [math.comb(20, i) * (2**i + 3 * (-1) ** i) for i in range(21)]
    _, _, radii, rounds, digits = oracle._aberth(g, 1e-12, 500)
    assert radii is None and rounds < 50
    assert digits == oracle._digit_limit(g, 1e-12) == 568
    with pytest.raises(NonConvergenceError):
        numeric_roots(eq)


def test_wilkinson_20_roots_to_1e_140():
    # prod (x - k), k = 1..20: the worst root has condition ~1e13; tol =
    # 1e-140 asks for radii of at most 2.5e-141, which the 48- and
    # 144-digit levels cannot prove, so the factor ends at 432 digits
    coeffs = _product([(1, -k) for k in range(1, 21)])
    result = numeric_roots(cs.from_plain_coeffs(coeffs), tol=1e-140)
    assert result.converged
    assert result.digits == [432]
    with mp.workprec(600):
        for r in result.roots:
            assert abs(r.value - round(float(r.value.real))) < mpf(10) ** -140
    assert sorted(round(float(r.value.real)) for r in result.roots) == list(range(1, 21))


@pytest.mark.parametrize(
    "a, b, d, rounds, digits",
    [
        pytest.param(-2, 1, 20, 1, 48, id="(x+2)^20+3(x-1)^20"),
        pytest.param(-2, 1, 40, 1, 48, id="(x+2)^40+3(x-1)^40"),
        pytest.param(-2, 1, 64, 7, 48, id="(x+2)^64+3(x-1)^64"),
        pytest.param(20, 22, 16, 1, 48, id="(x-20)^16+3(x-22)^16"),
        pytest.param(1000, 1001, 16, 2, 144, id="(x-1000)^16+3(x-1001)^16"),
    ],
)
def test_round_counts_of_the_two_power_sums(a, b, d, rounds, digits):
    # (x - a)^d + 3(x - b)^d: each factor ends at the first round whose
    # iterates certify; the last two have their roots on a small circle far
    # from 0, and their float phase runs about its centre
    coeffs = [math.comb(d, i) * ((-a) ** i + 3 * (-b) ** i) for i in range(d + 1)]
    result = numeric_roots(cs.from_plain_coeffs(coeffs))
    assert result.digits == [digits]
    assert result.iterations == rounds


def test_a_level_that_cannot_prove_hands_its_iterates_on(monkeypatch):
    # (x+2)^100 + 3(x-1)^100 with the first level cut to the tolerance's
    # 27 digits (88 bits), where a residual stop once accepted roots 0.018
    # off: those iterates must not certify, the factor ends higher up, and
    # the roots still match the radical ones
    import centersolve.oracle as oracle

    certify = oracle._inclusion_radii
    levels = []

    def spy(lead, b, abs_b, zr, zi, eps, tol):
        radii = certify(lead, b, abs_b, zr, zi, eps, tol)
        levels.append((1 - eps.adjusted(), radii is not None))
        return radii

    monkeypatch.setattr(oracle, "_LADDER_START", 27)
    monkeypatch.setattr(oracle, "_inclusion_radii", spy)
    d = 100
    eq = cs.from_plain_coeffs(
        [math.comb(d, i) * (2**i + 3 * (-1) ** i) for i in range(d + 1)]
    )
    result = numeric_roots(eq)
    assert levels[0] == (27, False)
    assert levels[-1][1] and levels[-1][0] > 27
    assert result.digits == [levels[-1][0]]
    assert result.iterations < 100  # no level spent the budget
    assert compare_root_sets(cs.solve_by_radicals(eq), result, tol=1e-9).passed


def test_newton_polygon_seeds_roots_across_forty_decades():
    # (10^20 x - 1)(x - 10^20)(x + 3)(10^10 x + 1): one seed on each circle
    # of the Newton polygon, where a circle on Fujiwara's bound took 61 rounds
    from centersolve.oracle import _start_circle

    coeffs = _product([(10**20, -1), (1, -(10**20)), (1, 3), (10**10, 1)])
    moduli = sorted(float(abs(z)) for z in _start_circle(coeffs))
    for modulus, root in zip(moduli, (1e-20, 1e-10, 3, 1e20)):
        assert root / 2 < modulus < 2 * root
    result = numeric_roots(cs.from_plain_coeffs(coeffs))
    assert result.iterations <= 5
    assert sorted(float(r.value.real) for r in result.roots) == [-3, -1e-10, 1e-20, 1e20]
    # x (x^4 + x + 1): the zero root still gets a seed
    assert len(_start_circle([1, 0, 0, 1, 1, 0])) == 5


@settings(max_examples=40, deadline=None)
@given(coeffs=_planted_integer_polys())
def test_every_root_lies_in_its_certified_disk(coeffs):
    # radii of at most tol/4, disjoint disks within each square-free factor
    # (one multiplicity), and each rational root inside exactly one disk
    result = numeric_roots(cs.from_plain_coeffs(coeffs))
    roots = result.roots
    assert all(0 < r.radius <= 2.5e-13 for r in roots)
    with mp.workprec(result.prec + 64):
        for i, a in enumerate(roots):
            for b in roots[i + 1 :]:
                if a.multiplicity == b.multiplicity:
                    assert abs(a.value - b.value) > a.radius + b.radius
        for root, _ in rational_roots(coeffs):
            x = mpf(root.numerator) / root.denominator
            assert sum(abs(r.value - x) <= r.radius for r in roots) == 1, root


def test_a_pair_passes_only_with_its_radius():
    # distance 0.6 passes tol = 1 alone, not with an inclusion radius of 0.5
    from centersolve.oracle import OracleRoot

    near = cs.OracleRootSet([OracleRoot(mpc(1), 1, 0.5)], 0, True, None, [48], 160)
    assert compare_root_sets([mpc(1.6)], near, tol=1).max_distance == pytest.approx(0.6)
    assert not compare_root_sets([mpc(1.6)], near, tol=1).passed
    assert compare_root_sets(near, [mpc(1.4)], tol=1).passed
    assert compare_root_sets([mpc(1.6)], [mpc(1)], tol=1).passed


def test_roots_beyond_the_double_range_are_matched():
    # 10^400 overflows a double; beside it, 1 and 2 fall below 2^-1074 of
    # the largest modulus and read 0 in the scaled doubles, so the failed
    # match is made again on the measured distances
    big = mpf(10) ** 400
    a, b = [mpc(big), mpc(1), mpc(2)], [mpc(2) + 1e-12, mpc(1), mpc(big)]
    report = compare_root_sets(a, b)
    assert report.passed
    assert [(p[0], p[1]) for p in report.pairs] == [(big, big), (1, 1), (2, 2 + 1e-12)]
    assert report.max_distance == pytest.approx(1e-12)


def test_a_pair_passes_within_the_rounding_of_its_doubles():
    # at modulus 2e13 a distance of 1e-3 is below 2^-52 (|x| + |y|) ~ 9e-3,
    # what rounding both values to doubles can hide; 0.2 is not
    with mp.workprec(64):
        x = mpc(mpf(2) * 10**13 + mpf(1) / 3)
        near, far = x + mpf("1e-3"), x * (1 + mpf("1e-14"))
    report = compare_root_sets([x], [near], tol=1e-9)
    assert report.passed and report.max_distance == pytest.approx(1e-3, rel=1e-2)
    assert not compare_root_sets([x], [far], tol=1e-9).passed
    assert not compare_root_sets([mpc(1)], [mpc(1 + 2e-9)], tol=1e-9).passed

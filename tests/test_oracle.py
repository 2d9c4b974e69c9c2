import random
from fractions import Fraction as F

import pytest
from mpmath import mp, mpc

import centersolve as cs
from centersolve import (
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
        original = oracle.numeric_roots

        def counting(eq, *args, **kwargs):
            degrees.append(eq.degree)
            return original(eq, *args, **kwargs)

        monkeypatch.setattr(oracle, "numeric_roots", counting)
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

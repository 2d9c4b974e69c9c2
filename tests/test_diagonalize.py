import random
from fractions import Fraction as F

import pytest

import centersolve as cs
from centersolve import (
    IrrationalSpectrumError,
    NAryForm,
    NotDiagonalizableError,
    compute_center,
    diagonalize_form,
    expand,
    hessian,
    profile,
)
from centersolve.linalg import identity, inverse, mat_mul
from conftest import TERNARY_CUBIC_DEC, planted_diagonalizable, rand_nonzero_fraction


def two_var_form(terms, d):
    return NAryForm(2, d, {k: F(v) for k, v in terms.items()})


def planted_conjugate_pairs(rng, n, d):
    """f = sum of d-th powers of n independent forms, n // 2 conjugate pairs
    over Q(sqrt(D)) among them; small integer entries, zeros included.

    The forms a + b sqrt(D) and a - b sqrt(D) span the same space as a and
    b, so they are independent when the rational matrix of the a's, b's
    and the remaining forms is invertible.  Each pair expands to rational
    coefficients, so f is rational while its center does not split over Q.
    """
    while True:
        rows = [[F(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if any(x == 0 for row in rows for x in row):
            try:
                inverse(rows)
                break
            except ValueError:
                pass
    summands = []
    for k in range(n // 2):
        disc = rng.choice([-3, -1, 2, 3, 5, 6, 7])
        a, b = rows[2 * k], rows[2 * k + 1]
        c = cs.QuadExt(rand_nonzero_fraction(rng), rand_nonzero_fraction(rng), disc)
        for sign in (1, -1):
            form = tuple(cs.QuadExt(x, sign * y, disc) for x, y in zip(a, b))
            summands.append((c if sign == 1 else c.conjugate(), cs.LinearForm(form)))
    if n % 2:
        summands.append((rand_nonzero_fraction(rng), cs.LinearForm(tuple(rows[-1]))))
    return expand(cs.PowerSumDecomposition(tuple(summands), d), n)


class TestProfile:
    def test_ternary_cubic(self, ternary_cubic):
        prof = profile(ternary_cubic)
        assert prof.dim == 3
        assert prof.commutative
        assert prof.spectrum_kind == "distinct-rational"

    def test_perfect_cube_not_commutative(self):
        f = two_var_form({(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}, 3)
        prof = profile(f)
        assert prof.dim == 3
        assert not prof.commutative
        assert prof.spectrum_kind == "non-commutative"

    def test_diagonal_sum(self):
        f = two_var_form({(3, 0): 1, (0, 3): 1}, 3)
        prof = profile(f)
        assert prof.dim == 2
        assert prof.commutative
        assert prof.spectrum_kind == "distinct-rational"

    def test_irrational_spectrum(self):
        # binary cubic with non-square center discriminant
        f = cs.BinaryForm((1, 0, 1, 1)).to_nary()
        prof = profile(f)
        assert prof.commutative
        assert prof.spectrum_kind == "irrational"

    def test_char_poly_is_of_generic_element(self, ternary_cubic):
        from centersolve.linalg import char_poly

        prof = profile(ternary_cubic)
        assert list(prof.char_poly) == char_poly(
            [list(row) for row in prof.generic_element]
        )


class TestDiagonalizeExact:
    def test_ternary_cubic_recovers_the_known_decomposition(self, ternary_cubic):
        result = diagonalize_form(ternary_cubic)
        assert result.exact
        assert result.as_power_sum.canonical() == TERNARY_CUBIC_DEC.canonical()
        assert expand(result.as_power_sum, 3) == ternary_cubic

    def test_diagonal_input_stays_diagonal(self):
        f = two_var_form({(3, 0): 1, (0, 3): 1}, 3)
        result = diagonalize_form(f)
        assert sorted(result.diagonal) == [1, 1]
        # P is a permutation of the identity
        flat = sorted(abs(x) for row in result.p for x in row)
        assert flat == [0, 0, 1, 1]

    def test_binary_two_cubes(self):
        f = two_var_form({(3, 0): 2, (1, 2): 6}, 3)  # (x+y)^3 + (x-y)^3
        result = diagonalize_form(f)
        expected = cs.PowerSumDecomposition(
            (
                (F(1), cs.LinearForm((F(1), F(1)))),
                (F(1), cs.LinearForm((F(1), F(-1)))),
            ),
            3,
        )
        assert result.as_power_sum.canonical() == expected.canonical()

    def test_idempotent_relations(self, ternary_cubic):
        result = diagonalize_form(ternary_cubic)
        n = 3
        idem = [[list(row) for row in e] for e in result.idempotents]
        total = [[F(0)] * n for _ in range(n)]
        for i, e in enumerate(idem):
            assert mat_mul(e, e) == e
            for j, e2 in enumerate(idem):
                if i != j:
                    assert all(x == 0 for row in mat_mul(e, e2) for x in row)
            total = [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(total, e)]
        assert total == identity(n)
        # P^-1 e_i P = E_ii
        p = [list(row) for row in result.p]
        p_inv = inverse(p)
        for i, e in enumerate(idem):
            conj = mat_mul(mat_mul(p_inv, e), p)
            expected = [[F(r == i and c == i) for c in range(n)] for r in range(n)]
            assert conj == expected

    def test_hessian_diagonal_after_substitution(self, ternary_cubic):
        result = diagonalize_form(ternary_cubic)
        g = ternary_cubic.substitute_linear([list(row) for row in result.p])
        h = hessian(g)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert h[i][j].terms == {}

    def test_planted_round_trip(self):
        rng = random.Random(424242)
        done = 0
        while done < 100:
            n = rng.choice([2, 3])
            d = rng.choice([3, 4])
            f, _ = planted_diagonalizable(rng, n, d)
            try:
                result = diagonalize_form(f)
            except NotDiagonalizableError:
                # a degenerate draw (dependent after expansion); skip it
                continue
            assert result.exact
            assert expand(result.as_power_sum, n) == f
            assert len(result.as_power_sum.summands) == n
            done += 1

    def test_not_diagonalizable_perfect_cube(self):
        f = two_var_form({(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}, 3)
        with pytest.raises(NotDiagonalizableError):
            diagonalize_form(f)

    def test_irrational_spectrum_raises_in_exact_mode(self):
        f = cs.BinaryForm((1, 0, 1, 1)).to_nary()
        with pytest.raises(IrrationalSpectrumError):
            diagonalize_form(f)


class TestDiagonalizeNumeric:
    def test_numeric_mode_on_irrational_spectrum(self):
        f = cs.BinaryForm((1, 0, 1, 1)).to_nary()
        result = diagonalize_form(f, mode="numeric")
        assert not result.exact
        assert cs.check_decomposition(f, result.as_power_sum, tol=1e-9)

    def test_numeric_matches_exact_when_both_apply(self, ternary_cubic):
        exact = diagonalize_form(ternary_cubic)
        numeric = diagonalize_form(ternary_cubic, mode="numeric")
        assert cs.check_decomposition(ternary_cubic, numeric.as_power_sum, tol=1e-9)
        assert len(numeric.as_power_sum.summands) == len(exact.as_power_sum.summands)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("d", [3, 4])
    def test_planted_conjugate_pairs(self, n, d):
        f = planted_conjugate_pairs(random.Random(1000 * n + d), n, d)
        assert all(isinstance(c, F) for c in f.terms.values())
        with pytest.raises(IrrationalSpectrumError):
            diagonalize_form(f)
        result = diagonalize_form(f, mode="numeric")
        assert not result.exact
        assert len(result.as_power_sum.summands) == n
        assert cs.check_decomposition(f, result.as_power_sum, tol=1e-9)

    def test_repeated_rational_next_to_irrational_pair(self):
        # the primes draw gives (x - 7)^2 (x^2 - 4x + 25/4); profile must
        # retry it instead of handing a repeated eigenvalue to numeric mode
        f = cs.parse_polynomial(
            "7*x1^3 - 15*x1^2*x2 - 12*x1^2*x3 - 12*x1^2*x4 + 15*x1*x2^2"
            " + 24*x1*x3^2 + 48*x1*x3*x4 - 6*x1*x4^2 - 5*x2^3 - 19*x3^3"
            " - 57*x3^2*x4 + 3*x3*x4^2 + x4^3"
        ).form
        prof = profile(f)
        assert prof.spectrum_kind == "irrational"
        assert all(m == 1 for _, m in cs.rational_roots(prof.char_poly))
        result = diagonalize_form(f, mode="numeric")
        assert len(result.as_power_sum.summands) == 4
        assert cs.check_decomposition(f, result.as_power_sum, tol=1e-9)

    def test_numeric_rejects_repeated_spectrum(self):
        f = two_var_form({(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}, 3)
        with pytest.raises(NotDiagonalizableError):
            diagonalize_form(f, mode="numeric")


def test_center_dim_mismatch_raises():
    # x1^3 + x2^3 viewed in three variables is degenerate: dim Z > 3
    f = NAryForm(3, 3, {(3, 0, 0): F(1), (0, 3, 0): F(1)})
    with pytest.raises(NotDiagonalizableError):
        diagonalize_form(f)

import random
from fractions import Fraction as F
from operator import mul

import pytest
from mpmath import mp, mpf

import centersolve as cs
from centersolve import (
    NAryForm,
    NotDiagonalizableError,
    compute_center,
    diagonalize_form,
    expand,
    hessian,
    profile,
)
from centersolve.forms import from_plain_coeffs
from centersolve.linalg import rank
from centersolve.scalars import to_mpc
from conftest import (
    TERNARY_CUBIC_DEC,
    fraction_inverse,
    identity,
    naive_mat_mul,
    planted_diagonalizable,
    rand_nonzero_fraction,
)


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
        if any(x == 0 for row in rows for x in row) and rank(rows) == n:
            break
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

    def test_p_diagonalizes_the_generic_element(self, ternary_cubic):
        # column i of P is an eigenvector for the i-th smallest eigenvalue
        result = diagonalize_form(ternary_cubic)
        prof = profile(ternary_cubic)
        g = [list(row) for row in prof.generic_element]
        p = [list(row) for row in result.p]
        lams = sorted(value for value, _ in prof.eigenvalues)
        expected = [[lams[r] if r == c else F(0) for c in range(3)] for r in range(3)]
        assert naive_mat_mul(naive_mat_mul(fraction_inverse(p), g), p) == expected

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

    def test_one_variable_is_exact(self):
        f = NAryForm(1, 3, {(3,): F(5)})
        result = diagonalize_form(f)
        assert result.exact
        assert len(result.as_power_sum.summands) == 1
        assert expand(result.as_power_sum, 1) == f


def idempotent_matrix_p(prof, eigenvalues, scalar, is_zero):
    """P built from the idempotent matrices, as diagonalize_form first did.

    Every e_i = prod_{j != i} (g - l_j I) / (l_i - l_j) is formed as an n x n
    matrix by a triple-loop product in the working scalars, and column i of
    P is its first nonzero column.
    """
    n = len(prof.generic_element)
    g = [[scalar(x) for x in row] for row in prof.generic_element]
    ident = [[scalar(int(r == c)) for c in range(n)] for r in range(n)]

    def product(a, b):
        return [
            [sum((a[r][t] * b[t][c] for t in range(n)), scalar(0)) for c in range(n)]
            for r in range(n)
        ]

    cols = []
    for li in eigenvalues:
        e = ident
        for lj in eigenvalues:
            if lj != li:
                shifted = [[x - lj * y for x, y in zip(rg, ri)] for rg, ri in zip(g, ident)]
                e = [[x / (li - lj) for x in row] for row in product(e, shifted)]
        cols.append(
            next(col for col in zip(*e) if any(not is_zero(x) for x in col))
        )
    return tuple(tuple(col[r] for col in cols) for r in range(n))


def fraction_split(f):
    """P, diagonal and power sum as the exact split first computed them from
    eigen-columns: every step of e_i applied to a unit vector in Fractions,
    and diagonal[i] = f(column i) summed in Fractions."""
    prof = profile(f)
    eigenvalues = sorted(value for value, _ in prof.eigenvalues)
    g = prof.generic_element
    n = len(g)
    cols = []
    for i, li in enumerate(eigenvalues):
        for k in range(n):
            v = [F(int(r == k)) for r in range(n)]
            for j, lj in enumerate(eigenvalues):
                if j != i:
                    c = 1 / (li - lj)
                    v = [c * (sum(map(mul, row, v)) - lj * x) for row, x in zip(g, v)]
            if any(v):
                break
        cols.append(v)
    diagonal = []
    for col in cols:
        acc = F(0)
        for mono, c in f.terms.items():
            for x, e in zip(col, mono):
                c = c * x**e
            acc = acc + c
        diagonal.append(acc)
    p = tuple(tuple(col[r] for col in cols) for r in range(n))
    summands = tuple(
        (c, cs.LinearForm(tuple(row))) for c, row in zip(diagonal, fraction_inverse(p)) if c
    )
    return p, tuple(diagonal), cs.PowerSumDecomposition(summands, f.degree)


class TestEigenColumns:
    @pytest.mark.parametrize("n", range(3, 9))
    @pytest.mark.parametrize("d", [3, 4])
    def test_integer_split_equals_the_fraction_split(self, n, d):
        f, _ = planted_diagonalizable(random.Random(100 * n + d), n, d)
        with_fractions = F(1, 10007) * f
        assert any(c.denominator > 1 for c in with_fractions.terms.values())
        for form in (f.cleared()[0], with_fractions):
            result = diagonalize_form(form)
            assert result.exact
            assert (result.p, result.diagonal, result.as_power_sum) == fraction_split(form)

    def test_exact_p_equals_the_idempotent_matrix_columns(self):
        rng = random.Random(515)
        done = 0
        while done < 50:
            n = 2 + done % 5
            d = rng.choice([3, 4])
            f, _ = planted_diagonalizable(rng, n, d)
            try:
                result = diagonalize_form(f)
            except NotDiagonalizableError:
                continue  # a degenerate draw
            prof = profile(f)
            eigenvalues = sorted(value for value, _ in prof.eigenvalues)
            expected = idempotent_matrix_p(prof, eigenvalues, F, lambda x: x == 0)
            assert result.p == expected
            done += 1

    @pytest.mark.parametrize("seed", range(12))
    def test_numeric_p_agrees_with_the_idempotent_matrix_columns(self, seed):
        rng = random.Random(seed)
        n, d = rng.choice([3, 4]), rng.choice([3, 4])
        f = planted_conjugate_pairs(rng, n, d)
        result = diagonalize_form(f, prec=128)
        assert not result.exact
        prof = profile(f)
        cp = from_plain_coeffs(prof.char_poly)
        eigenvalues = cs.numeric_roots(cp, tol=1e-20, prec=128).values_with_multiplicity()
        with mp.workprec(128):
            eps = mp.mpf(2) ** -64
            expected = idempotent_matrix_p(
                prof, eigenvalues, lambda x: to_mpc(x, 128), lambda x: abs(x) < eps
            )
        for c in range(n):
            scale = max(abs(row[c]) for row in expected)
            assert all(abs(a[c] - b[c]) <= 1e-20 * scale for a, b in zip(result.p, expected))


class TestInverseRows:
    """Row i of P^-1 is read off the idempotent that gives column i of P."""

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("d", [3, 4])
    def test_exact_rows_are_the_inverse_of_p(self, n, d):
        f, _ = planted_diagonalizable(random.Random(100 * n + d), n, d)
        result = diagonalize_form(f)
        assert result.exact
        rows = [list(form.coeffs) for _, form in result.as_power_sum.summands]
        assert all(type(x) is F for row in rows for x in row)
        assert rows == fraction_inverse(result.p)
        assert naive_mat_mul(rows, result.p) == identity(n)

    @pytest.mark.parametrize("n", range(3, 7))
    @pytest.mark.parametrize("d", [3, 4])
    def test_numeric_rows_invert_p_at_the_working_precision(self, n, d):
        f = planted_conjugate_pairs(random.Random(1000 * n + d), n, d)
        result = diagonalize_form(f)
        assert not result.exact
        wprec = 96  # max(prec, 96) at the default precision
        rows = [form.coeffs for _, form in result.as_power_sum.summands]
        assert len(rows) == n
        with mp.workprec(wprec):
            worst = max(
                abs(sum(a * b for a, b in zip(row, col)) - (i == j))
                for i, row in enumerate(rows)
                for j, col in enumerate(zip(*result.p))
            )
            assert worst < mp.mpf(2) ** (-wprec // 2)


class TestDiagonalizeNumeric:
    def test_numeric_mode_on_irrational_spectrum(self):
        # the spectrum, not the caller, picks the numeric split
        f = cs.BinaryForm((1, 0, 1, 1)).to_nary()
        result = diagonalize_form(f)
        assert not result.exact
        assert cs.check_decomposition(f, result.as_power_sum, tol=1e-9)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("d", [3, 4])
    def test_planted_conjugate_pairs(self, n, d):
        f = planted_conjugate_pairs(random.Random(1000 * n + d), n, d)
        assert all(isinstance(c, F) for c in f.terms.values())
        result = diagonalize_form(f)
        assert not result.exact
        assert len(result.as_power_sum.summands) == n
        assert cs.check_decomposition(f, result.as_power_sum, tol=1e-9)

    @pytest.mark.parametrize("prec", [512, 1200])
    def test_a_fine_precision_reaches_the_spectrum(self, prec):
        # the eigenvalues are certified to 2^-prec, not to the 48-digit
        # level a fixed tol would stop at, so P^-1 P = I and the power sum
        # expands back to f far below 1e-47; 2^-1200 is below the floats
        f = planted_conjugate_pairs(random.Random(4003), 4, 3)
        result = diagonalize_form(f, prec=prec)
        assert not result.exact
        rows = [form.coeffs for _, form in result.as_power_sum.summands]
        with mp.workprec(prec):
            worst = max(
                abs(sum(a * b for a, b in zip(row, col)) - (i == j))
                for i, row in enumerate(rows)
                for j, col in enumerate(zip(*result.p))
            )
            assert worst < mp.mpf(2) ** (-prec // 2)
            assert cs.check_decomposition(f, result.as_power_sum, tol=1e-140)

    def test_repeated_rational_next_to_irrational_pair(self):
        # the primes draw gives (x - 7)^2 (x^2 - 4x + 25/4); profile must
        # retry it instead of handing a repeated eigenvalue to the numeric split
        f = cs.parse_polynomial(
            "7*x1^3 - 15*x1^2*x2 - 12*x1^2*x3 - 12*x1^2*x4 + 15*x1*x2^2"
            " + 24*x1*x3^2 + 48*x1*x3*x4 - 6*x1*x4^2 - 5*x2^3 - 19*x3^3"
            " - 57*x3^2*x4 + 3*x3*x4^2 + x4^3"
        ).form
        prof = profile(f)
        assert prof.spectrum_kind == "irrational"
        assert all(m == 1 for _, m in cs.rational_roots(prof.char_poly))
        result = diagonalize_form(f)
        assert len(result.as_power_sum.summands) == 4
        assert cs.check_decomposition(f, result.as_power_sum, tol=1e-9)

    def test_conjugate_summand_order_does_not_depend_on_precision(self):
        # the real parts of a conjugate pair of eigenvalues differ only by
        # rounding noise; an order by (re, im) swapped the pair's summands
        # between precisions on 11 of these 60 forms
        flipped = []
        for seed in range(60):
            rng = random.Random(seed)
            d = rng.choice([3, 4])
            n = rng.choice([3, 4])
            f = planted_conjugate_pairs(rng, n, d)
            runs = [
                [
                    complex(x)
                    for c, linear in diagonalize_form(f, prec=prec).as_power_sum.summands
                    for x in (c, *linear.coeffs)
                ]
                for prec in (96, 128, 160, 256)
            ]
            if any(
                abs(a - b) > 1e-6 * max(1, abs(b))
                for run in runs[1:]
                for a, b in zip(run, runs[0])
            ):
                flipped.append(seed)
        assert flipped == []


def test_repeated_spectrum_raises():
    # every weight draw gives the generic element of x1^2*x2 a repeated eigenvalue
    f = cs.parse_polynomial("x1^2*x2").form
    assert profile(f).spectrum_kind == "repeated"
    with pytest.raises(NotDiagonalizableError, match="repeated spectrum"):
        diagonalize_form(f)


def test_repeated_irrational_spectrum_raises():
    # the trace over Q(sqrt 2) of (x1 + sqrt2 x3)^2 (x2 + sqrt2 x4): its
    # center Q(sqrt 2)[e]/(e^2) is commutative of dimension 4, but every
    # generic element has a repeated irrational pair of eigenvalues, which
    # the rational re-draw in profile does not see
    f = cs.parse_polynomial("2*x1^2*x2 + 4*x2*x3^2 + 8*x1*x3*x4").form
    prof = profile(f)
    assert (prof.dim, prof.commutative, prof.spectrum_kind) == (4, True, "irrational")
    assert prof.char_poly == (1, -8, -76, 368, 2116)  # (t^2 - 4t - 46)^2
    with pytest.raises(NotDiagonalizableError, match="repeated spectrum"):
        diagonalize_form(f)


def test_center_dim_mismatch_raises():
    # x1^3 + x2^3 viewed in three variables is degenerate: dim Z > 3
    f = NAryForm(3, 3, {(3, 0, 0): F(1), (0, 3, 0): F(1)})
    with pytest.raises(NotDiagonalizableError):
        diagonalize_form(f)


@pytest.mark.parametrize("coefficient", [cs.QuadExt(0, 1, 2), mpf("1.5")], ids=["QuadExt", "mpf"])
def test_non_rational_coefficient_is_a_typed_error(coefficient):
    # used to escape as a bare TypeError from the nullspace of the center system
    f = NAryForm(2, 3, {(3, 0): coefficient, (0, 3): F(1)})
    with pytest.raises(cs.NonRationalCoefficientError, match="not rational"):
        diagonalize_form(f)

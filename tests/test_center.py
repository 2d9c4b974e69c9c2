import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import centersolve as cs
from centersolve import (
    DegreeError,
    NAryForm,
    binary_center_system,
    binary_invariants,
    compute_center,
    hessian,
)
from centersolve.center import CenterBasis
from centersolve.diagonalize import _generic_element
from centersolve.linalg import rank
from conftest import (
    TERNARY_CENTER_BASIS,
    fraction_inverse,
    identity,
    naive_mat_mul,
    planted_diagonalizable,
    rand_invertible_matrix,
    rand_nonzero_fraction,
    span_equal,
)


def sum_of_powers(n, d):
    return NAryForm(n, d, {tuple(d if i == j else 0 for i in range(n)): F(1) for j in range(n)})


def in_span(basis, matrix):
    vectors = [[x for row in b for x in row] for b in basis.basis]
    flat = [x for row in matrix for x in row]
    return rank(vectors) == rank(vectors + [flat])


def satisfies_center_condition(f, x):
    """Exact re-expansion check that H*X is a symmetric polynomial matrix."""
    n = f.nvars
    h = hessian(f)
    for i in range(n):
        for j in range(i + 1, n):
            lhs = h[i][0].__class__(n, f.degree - 2, {})
            rhs = h[i][0].__class__(n, f.degree - 2, {})
            for k in range(n):
                lhs = lhs + x[k][j] * h[i][k]
                rhs = rhs + x[k][i] * h[j][k]
            if lhs != rhs:
                return False
    return True


class TestComputeCenter:
    @pytest.mark.parametrize("n,d", [(2, 3), (3, 3), (4, 4), (2, 5)])
    def test_sum_of_powers_center_is_diagonal(self, n, d):
        basis = compute_center(sum_of_powers(n, d))
        assert basis.dim == n
        units = [
            [[F(i == t and j == t) for j in range(n)] for i in range(n)]
            for t in range(n)
        ]
        assert span_equal(
            [[x for row in b for x in row] for b in basis.basis],
            [[x for row in u for x in row] for u in units],
        )

    def test_ternary_cubic_matches_general_solution(self, ternary_cubic):
        basis = compute_center(ternary_cubic)
        assert basis.dim == 3
        assert span_equal(
            [[x for row in b for x in row] for b in basis.basis],
            [[x for row in b for x in row] for b in TERNARY_CENTER_BASIS],
        )

    def test_perfect_cube_has_three_dimensional_center(self):
        f = NAryForm(2, 3, {(3, 0): F(1), (2, 1): F(3), (1, 2): F(3), (0, 3): F(1)})
        basis = compute_center(f)  # (x+y)^3
        assert basis.dim == 3
        assert not basis.is_commutative()

    def test_degree_error(self):
        with pytest.raises(DegreeError):
            compute_center(NAryForm(2, 2, {(2, 0): F(1), (0, 2): F(1)}))

    def test_membership_and_identity(self, ternary_cubic):
        basis = compute_center(ternary_cubic)
        assert in_span(basis, identity(3))
        for x in basis.basis:
            assert satisfies_center_condition(ternary_cubic, x)

    def test_commutativity_for_nondegenerate_randoms(self):
        # n powers of independent linear forms: nondegenerate by construction
        rng = random.Random(101)
        for _ in range(10):
            n = rng.randint(2, 3)
            f, _ = planted_diagonalizable(rng, n, 3)
            assert compute_center(f).is_commutative()

    def test_conjugation_covariance(self):
        rng = random.Random(202)
        for _ in range(5):
            n = rng.randint(2, 3)
            f, _ = planted_diagonalizable(rng, n, 3)
            basis = compute_center(f)
            p = rand_invertible_matrix(rng, n)
            p_inv = fraction_inverse(p)
            g = f.substitute_linear(p)
            conjugated = [
                naive_mat_mul(naive_mat_mul(p_inv, b), p) for b in basis.basis
            ]
            basis_g = compute_center(g)
            assert span_equal(
                [[x for row in b for x in row] for b in basis_g.basis],
                [[x for row in b for x in row] for b in conjugated],
            )


class TestBinaryCenterSystem:
    def test_cubic_rows(self):
        form = cs.BinaryForm((F(1), F(2), F(3), F(4)))
        assert binary_center_system(form) == [
            [F(1), F(2), F(-3)],
            [F(2), F(3), F(-4)],
        ]

    def test_quintic_rank_two(self, quintic):
        system = binary_center_system(quintic.homogenize())
        assert len(system) == 4
        assert rank(system) == 2

    def test_constant_rows_rank_one(self):
        form = cs.BinaryForm((F(2), F(2), F(2), F(2), F(2)))
        assert rank(binary_center_system(form)) == 1


class TestCenterGenerator:
    def test_quintic_invariants(self, quintic):
        inv = binary_invariants(quintic.homogenize())
        assert (inv.D1, inv.D2, inv.D3) == (-8, -20, -12)
        assert inv.discriminant == 16
        assert (inv.lambda1, inv.lambda2) == (-8, -12)

    def test_degree7_invariants(self, degree7):
        inv = binary_invariants(degree7.homogenize())
        assert inv.D1 == F(-25, 1764)
        assert inv.D2 == F(25, 1764)
        assert inv.D3 == F(-25, 7056)
        assert inv.discriminant == 0
        assert inv.lambda1 == inv.lambda2 == F(25, 3528)

    @pytest.mark.parametrize("p,q", [(F(2), F(5)), (F(-3), F(2)), (F(1, 2), F(-1, 3))])
    def test_depressed_cubic_invariants(self, p, q):
        eq = cs.from_plain_coeffs([1, 0, p, q])
        inv = binary_invariants(eq.homogenize())
        assert inv.D1 == p / 3
        assert inv.D2 == q
        assert inv.D3 == -p * p / 9

    def test_eigenvalue_identities(self):
        rng = random.Random(303)
        for _ in range(25):
            norm = tuple(rand_nonzero_fraction(rng) for _ in range(4))
            inv = binary_invariants(cs.BinaryForm(norm))
            if inv.hankel_rank != 2 or inv.D1 == 0:
                continue
            assert inv.lambda1 + inv.lambda2 == inv.D2
            assert inv.lambda1 * inv.lambda2 == inv.D1 * inv.D3

    def test_binary_consistency_with_general_center(self, quintic):
        form = quintic.homogenize()
        inv = binary_invariants(form)
        basis = compute_center(form.to_nary())
        assert basis.dim == 2
        lam = [[F(0), -inv.D3], [inv.D1, inv.D2]]
        assert span_equal(
            [[x for row in b for x in row] for b in basis.basis],
            [[x for row in m for x in row] for m in (identity(2), lam)],
        )


# ---------------------------------------------------------------------------
# references: the Fraction matrix arithmetic the integer center checks replace
# ---------------------------------------------------------------------------


def fraction_product(a, b):
    return [
        [sum((F(x) * F(y) for x, y in zip(row, col)), F(0)) for col in zip(*b)]
        for row in a
    ]


def fraction_commutative(basis):
    return all(
        fraction_product(a, b) == fraction_product(b, a)
        for i, a in enumerate(basis)
        for b in basis[i + 1 :]
    )


@st.composite
def center_like_bases(draw):
    """Matrices each over its own denominator: polynomials in one integer
    matrix (they commute), or arbitrary integer matrices (often they do not)."""
    n = draw(st.integers(1, 4))
    entries = st.one_of(st.just(0), st.integers(-5, 5))
    square = st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    a = draw(square)
    a2 = fraction_product(a, a)
    basis = []
    for _ in range(draw(st.integers(1, 4))):
        den = draw(st.integers(1, 10**4))
        if draw(st.booleans()):
            c0, c1, c2 = (draw(st.integers(-4, 4)) for _ in range(3))
            m = [
                [c0 * (i == j) + c1 * a[i][j] + c2 * a2[i][j] for j in range(n)]
                for i in range(n)
            ]
        else:
            m = draw(square)
        basis.append(tuple(tuple(F(x, den) for x in row) for row in m))
    return CenterBasis(n=n, basis=tuple(basis))


@settings(max_examples=100, deadline=None)
@given(center_like_bases())
def test_is_commutative_matches_fraction_products(basis):
    assert basis.is_commutative() == fraction_commutative(basis.basis)


@settings(max_examples=60, deadline=None)
@given(center_like_bases(), st.lists(st.integers(1, 10**6), min_size=4, max_size=4))
def test_generic_element_matches_fraction_sum(basis, weights):
    expected = [[F(0)] * basis.n for _ in range(basis.n)]
    for w, b in zip(weights, basis.basis):
        expected = [[x + w * y for x, y in zip(re, rb)] for re, rb in zip(expected, b)]
    g = _generic_element(basis, weights)
    assert g == expected
    assert all(type(x) is F for row in g for x in row)


def test_non_commutative_basis_over_different_denominators():
    a = ((F(1, 2), F(0)), (F(0), F(0)))
    b = ((F(0), F(1, 3)), (F(0), F(0)))
    five_a = tuple(tuple(5 * x for x in row) for row in a)
    assert not CenterBasis(n=2, basis=(a, b)).is_commutative()
    assert CenterBasis(n=2, basis=(a, five_a)).is_commutative()

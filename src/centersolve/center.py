"""Center algebras of homogeneous forms.

The center of a form f with Hessian matrix H is the space of matrices X for
which H*X is symmetric.  Matching coefficients of every monomial in the
entries of H*X - (H*X)^T gives a homogeneous linear system in the n^2
unknown entries of X; its exact nullspace is the center basis.

For binary forms the system collapses to d-1 equations in the three
quantities (c12, c22 - c11, c21), with rows (a_i, a_{i+1}, -a_{i+2}).  When
that system has rank 2 and the pivot minor D1 = a0*a2 - a1^2 is nonzero, the
center is spanned by the identity together with the distinguished generator

    Lambda = [[0, -D3], [D1, D2]],

whose eigenvalues (D2 +- sqrt(D2^2 - 4*D1*D3)) / 2 drive the radical
solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CenterRankError, DegreeError, PivotError
from .forms import BinaryForm, NAryForm, hessian
from .linalg import mat_mul, mat_eq, nullspace, rank
from .scalars import exact_sqrt


@dataclass(frozen=True)
class CenterBasis:
    """Exact basis of the center, reshaped to n x n matrices."""

    n: int
    basis: tuple  # of n x n Fraction matrices

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_commutative(self) -> bool:
        for i, a in enumerate(self.basis):
            for b in self.basis[i + 1 :]:
                if not mat_eq(mat_mul(a, b), mat_mul(b, a)):
                    return False
        return True


@dataclass(frozen=True)
class CenterGenerator:
    """Distinguished generator of a rank-2 binary center with its spectrum."""

    D1: Fraction
    D2: Fraction
    D3: Fraction
    matrix: tuple  # Lambda = ((0, -D3), (D1, D2))
    discriminant: Fraction  # D2^2 - 4*D1*D3
    lambda1: object  # (D2 + sqrt(disc)) / 2, exact
    lambda2: object  # (D2 - sqrt(disc)) / 2, exact


def center_system(f: NAryForm):
    """Linear system rows for H*X symmetric, unknowns X flattened row-major.

    One row per (entry pair, monomial); deterministic ordering.
    """
    n = f.nvars
    h = hessian(f)
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            # (HX)_ij - (HX)_ji = sum_k H[i][k] c_kj - H[j][k] c_ki = 0
            monomials = set()
            for k in range(n):
                monomials |= set(h[i][k].terms) | set(h[j][k].terms)
            for mono in sorted(monomials, reverse=True):
                row = [Fraction(0)] * (n * n)
                for k in range(n):
                    row[k * n + j] += h[i][k].coefficient(mono)
                    row[k * n + i] -= h[j][k].coefficient(mono)
                if any(row):
                    rows.append(row)
    return rows


def compute_center(f: NAryForm) -> CenterBasis:
    """Exact basis of the center of a degree >= 3 form."""
    if f.degree < 3:
        raise DegreeError("center computation needs degree >= 3")
    if f.nvars < 1:
        raise DegreeError("form must have at least one variable")
    n = f.nvars
    vectors = nullspace(center_system(f), n_cols=n * n)
    basis = tuple(
        tuple(tuple(v[i * n + j] for j in range(n)) for i in range(n))
        for v in vectors
    )
    return CenterBasis(n=n, basis=basis)


def binary_center_system(form: BinaryForm):
    """(d-1) x 3 coefficient matrix in the unknowns (c12, c22 - c11, c21).

    Up to the sign of its last column this is the Hankel matrix with rows
    (a_i, a_{i+1}, a_{i+2}), so both have the same rank.
    """
    a = form.norm
    d = form.degree
    return [[a[i], a[i + 1], -a[i + 2]] for i in range(d - 1)]


def d_invariants(form: BinaryForm):
    """The three 2x2 Hankel minors D1, D2, D3 of a binary form."""
    a = form.norm
    d1 = a[0] * a[2] - a[1] * a[1]
    d2 = a[0] * a[3] - a[1] * a[2]
    d3 = a[1] * a[3] - a[2] * a[2]
    return d1, d2, d3


@dataclass(frozen=True)
class BinaryInvariants:
    """Everything the classification and the two-power completion read.

    The eigenvalues are set only when the Hankel rank is 2, the one case in
    which the center is spanned by I and Lambda; otherwise they are None.
    """

    hankel_rank: int
    D1: Fraction
    D2: Fraction
    D3: Fraction
    discriminant: Fraction  # D2^2 - 4*D1*D3
    lambda1: object = None  # (D2 + sqrt(disc)) / 2, exact
    lambda2: object = None  # (D2 - sqrt(disc)) / 2, exact


def binary_invariants(form: BinaryForm) -> BinaryInvariants:
    """Hankel rank, pivot minors, discriminant and (rank 2) the spectrum."""
    if form.degree < 3:
        raise DegreeError("center invariants need degree >= 3")
    system_rank = rank(binary_center_system(form))
    d1, d2, d3 = d_invariants(form)
    disc = d2 * d2 - 4 * d1 * d3
    if system_rank != 2:
        return BinaryInvariants(system_rank, d1, d2, d3, disc)
    root = exact_sqrt(disc)
    lam1, lam2 = (d2 + root) / 2, (d2 - root) / 2
    return BinaryInvariants(system_rank, d1, d2, d3, disc, lam1, lam2)


def center_generator(form: BinaryForm) -> CenterGenerator:
    """Distinguished generator Lambda with exact eigenvalues.

    Requires the binary center system to have rank exactly 2 (so the center
    is spanned by I and Lambda) and the pivot D1 to be nonzero.
    """
    if form.degree < 3:
        raise DegreeError("center generator needs degree >= 3")
    inv = binary_invariants(form)
    if inv.hankel_rank != 2:
        raise CenterRankError(inv.hankel_rank)
    if inv.D1 == 0:
        raise PivotError("D1 = 0: Lambda is not defined; swapping x and y may help")
    return CenterGenerator(
        D1=inv.D1,
        D2=inv.D2,
        D3=inv.D3,
        matrix=((Fraction(0), -inv.D3), (inv.D1, inv.D2)),
        discriminant=inv.discriminant,
        lambda1=inv.lambda1,
        lambda2=inv.lambda2,
    )


def is_nondegenerate(f: NAryForm) -> bool:
    """No variable is removable: the first partials are independent."""
    partials = [f.derivative(i) for i in range(f.nvars)]
    monomials = sorted(set().union(*(set(p.terms) for p in partials)) or set())
    matrix = [[p.coefficient(m) for m in monomials] for p in partials]
    return rank(matrix) == f.nvars

"""Center algebras of homogeneous forms.

The center of a form f with Hessian matrix H is the space of matrices X for
which H*X is symmetric.  Matching coefficients of every monomial in the
entries of H*X - (H*X)^T gives a homogeneous linear system in the n^2
unknown entries of X; its exact nullspace is the center basis.  The system
is built in integers from f with its denominators cleared, which has the
same center.  Commutativity of the center is checked on the basis matrices
cleared to integers, each once.

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
from functools import cached_property
from operator import mul

from .errors import DegreeError, NonRationalCoefficientError
from .forms import BinaryForm, NAryForm, hessian
from .linalg import _cleared, nullspace, rank
from .scalars import exact_sqrt


@dataclass(frozen=True)
class CenterBasis:
    """Exact basis of the center, reshaped to n x n matrices."""

    n: int
    basis: tuple  # of n x n Fraction matrices

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def integer_basis(self) -> tuple:
        """Each basis matrix in integers, as ``(ints, den)`` with B = ints / den."""
        return tuple(_cleared(b) for b in self.basis)

    def is_commutative(self) -> bool:
        """AB == BA for every pair, compared in integers: with A = IA / da and
        B = IB / db both products are over da * db, so IA IB == IB IA."""
        mats = [(m, list(zip(*m))) for m, _ in self.integer_basis]
        return all(
            sum(map(mul, ra, cb)) == sum(map(mul, rb, ca))
            for i, (a, a_cols) in enumerate(mats)
            for b, b_cols in mats[i + 1 :]
            for ra, rb in zip(a, b)
            for ca, cb in zip(a_cols, b_cols)
        )


def center_system(f: NAryForm):
    """Integer rows of the system H*X symmetric, unknowns X flattened row-major.

    The rows come from F = den * f, whose coefficients are integers; the
    Hessian of F is den times that of f, so the system has the same solutions.
    One row per (entry pair, monomial); deterministic ordering.
    """
    n = f.nvars
    h = hessian(f.cleared()[0])
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            # (HX)_ij - (HX)_ji = sum_k H[i][k] c_kj - H[j][k] c_ki = 0
            by_mono = {}
            for k in range(n):
                for mono, c in h[i][k].terms.items():
                    by_mono.setdefault(mono, [0] * (n * n))[k * n + j] += c
                for mono, c in h[j][k].terms.items():
                    by_mono.setdefault(mono, [0] * (n * n))[k * n + i] -= c
            for _, row in sorted(by_mono.items(), reverse=True):
                if any(row):
                    rows.append(row)
    return rows


def compute_center(f: NAryForm) -> CenterBasis:
    """Exact basis of the center of a degree >= 3 form."""
    if f.degree < 3:
        raise DegreeError("center computation needs degree >= 3")
    if f.nvars < 1:
        raise DegreeError("form must have at least one variable")
    for c in f.terms.values():
        if not isinstance(c, (int, Fraction)):
            raise NonRationalCoefficientError(
                f"the center is computed over Q; coefficient {c} is not rational"
            )
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
    """Hankel rank, the 2x2 minors D1-D3, discriminant and (rank 2) the spectrum."""
    if form.degree < 3:
        raise DegreeError("center invariants need degree >= 3")
    system_rank = rank(binary_center_system(form))
    a = form.norm
    d1 = a[0] * a[2] - a[1] * a[1]
    d2 = a[0] * a[3] - a[1] * a[2]
    d3 = a[1] * a[3] - a[2] * a[2]
    disc = d2 * d2 - 4 * d1 * d3
    if system_rank != 2:
        return BinaryInvariants(system_rank, d1, d2, d3, disc)
    root = exact_sqrt(disc)
    lam1, lam2 = (d2 + root) / 2, (d2 - root) / 2
    return BinaryInvariants(system_rank, d1, d2, d3, disc, lam1, lam2)


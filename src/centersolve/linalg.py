"""Exact linear algebra over the rationals, and the one matrix inverse.

Matrices are plain lists of lists of ``Fraction``.  The exact kernels are
fraction-free: they clear denominators (``scalars.clear_denominators``),
work in integers and build one ``Fraction`` per output entry.  Elimination
is one-step Bareiss with a fixed column order and row swaps only, so ranks,
nullspaces and the bases built from them are fully deterministic;
nullspace back-substitution and Faddeev-LeVerrier also run in integers.
``mat_mul`` is rational-only, like the other exact kernels; ``inverse`` is
Gauss-Jordan with largest-entry pivoting over Fractions or ``mpc``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd
from operator import mul

from mpmath import mpc

from .scalars import as_fraction, clear_denominators

Matrix = "list[list[Fraction]]"


def identity(n: int):
    return [[Fraction(i == j) for j in range(n)] for i in range(n)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def _cleared(a):
    """``(integer matrix, den)`` with ``a == ints / den``, or None if not rational."""
    flat = clear_denominators([x for row in a for x in row])
    if flat is None:
        return None
    nums = iter(flat[0])
    return [list(islice(nums, len(row))) for row in a], flat[1]


def _rational_matrix(a):
    """``_cleared`` for kernels that work over Q only: str entries are read as
    rationals, any other non-rational entry raises TypeError."""
    return _cleared(a) or _cleared([[as_fraction(x) for x in row] for row in a])


def mat_mul(a, b):
    """Exact matrix product over Q, in integers over one denominator."""
    (ia, da), (ib, db) = _rational_matrix(a), _rational_matrix(b)
    den = da * db
    cols = list(zip(*ib))
    return [[Fraction(sum(map(mul, row, col)), den) for col in cols] for row in ia]


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def row_echelon(rows):
    """Bareiss row echelon of a rational matrix.

    Returns ``(echelon, pivot_cols)`` where ``echelon`` is an integer matrix
    row-equivalent to the input and ``pivot_cols`` lists the pivot column of
    each nonzero row in order.
    """
    # each row cleared by its own denominator lcm; the row space is unchanged
    m = [_rational_matrix([row])[0][0] for row in rows]
    if not m:
        return [], []
    n_rows, n_cols = len(m), len(m[0])
    pivots = []
    prev = 1
    r = 0
    for c in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if m[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
        p = m[r][c]
        for i in range(r + 1, n_rows):
            mic = m[i][c]
            for j in range(c, n_cols):
                num = m[i][j] * p - mic * m[r][j]
                q, rem = divmod(num, prev)
                if rem:  # Bareiss divisions are exact; guard regressions
                    raise ArithmeticError("inexact fraction-free division")
                m[i][j] = q
        prev = p
        pivots.append(c)
        r += 1
        if r == n_rows:
            break
    return m, pivots


def rank(rows) -> int:
    _, pivots = row_echelon(rows)
    return len(pivots)


def nullspace(rows, n_cols: int | None = None):
    """Exact basis of the right nullspace.

    Free columns are assigned the value 1 in reverse column order, one basis
    vector per free column, so the basis is canonical for a given row order.
    """
    if not rows:
        if not n_cols:
            return []
        return [
            [Fraction(i == j) for i in range(n_cols)]
            for j in reversed(range(n_cols))
        ]
    n_cols = n_cols or len(rows[0])
    ech, pivots = row_echelon(rows)
    pivot_set = set(pivots)
    free_cols = [c for c in range(n_cols) if c not in pivot_set]
    basis = []
    for f in reversed(free_cols):
        # integer back-substitution: v / v[f] is the basis vector; v is scaled
        # up whenever a pivot does not divide, so v[f] ends as the denominator
        v = [0] * n_cols
        v[f] = 1
        for r in reversed(range(len(pivots))):
            c = pivots[r]
            row = ech[r]
            num = -sum(map(mul, row[c + 1 :], v[c + 1 :]))
            p = row[c]
            if num % p:
                s = abs(p) // gcd(num, p)
                v = [x * s for x in v]
                num *= s
            v[c] = num // p
        basis.append([Fraction(x, v[f]) for x in v])
    return basis


def inverse(a):
    """Gauss-Jordan inverse, pivoting on the largest entry; ValueError if singular.

    Exact entries (int, str, Fraction) give the exact inverse over Q; mpc
    entries are eliminated at the caller's working precision.
    """
    n = len(a)
    aug = [
        [x if isinstance(x, mpc) else as_fraction(x) for x in row]
        + [Fraction(i == j) for j in range(n)]
        for i, row in enumerate(a)
    ]
    for c in range(n):
        pivot_row = max(range(c, n), key=lambda i: abs(aug[i][c]))
        if aug[pivot_row][c] == 0:
            raise ValueError("matrix is singular")
        aug[c], aug[pivot_row] = aug[pivot_row], aug[c]
        p = aug[c][c]
        aug[c] = [x / p for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def char_poly(a):
    """Characteristic polynomial det(xI - A), monic, descending coefficients.

    Faddeev-LeVerrier recurrence on the integer matrix B = den * A, whose
    characteristic polynomial has integer coefficients c_k, so every division
    by k is exact; the coefficients of A are c_k / den^k.
    """
    b, den = _rational_matrix(a)
    n = len(b)
    coeffs = [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        cols = list(zip(*m))
        bm = [[sum(map(mul, row, col)) for col in cols] for row in b]
        ck, rem = divmod(-sum(bm[i][i] for i in range(n)), k)
        if rem:  # c_k is an integer coefficient of B's char poly; guard regressions
            raise ArithmeticError("inexact Faddeev-LeVerrier division")
        coeffs.append(ck)
        for i in range(n):
            bm[i][i] += ck
        m = bm
    return [Fraction(c, den**k) for k, c in enumerate(coeffs)]


def span_equal(vectors_a, vectors_b) -> bool:
    """Do two lists of rational vectors span the same subspace?"""
    ra = rank(vectors_a)
    rb = rank(vectors_b)
    return ra == rb == rank(vectors_a + vectors_b)

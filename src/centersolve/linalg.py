"""Exact linear algebra over the rationals, and the one matrix inverse.

Matrices are plain lists of lists of ``Fraction``.  Elimination is
fraction-free (one-step Bareiss) on a denominator-cleared integer copy, with
a fixed column order and row swaps only, so ranks, nullspaces and the bases
built from them are fully deterministic.  ``inverse`` is Gauss-Jordan with
largest-entry pivoting and also accepts ``mpc`` matrices, which numeric
diagonalization passes in.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from mpmath import mpc

from .scalars import as_fraction

Matrix = "list[list[Fraction]]"


def identity(n: int):
    return [[Fraction(i == j) for j in range(n)] for i in range(n)]


def mat_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(c, a):
    return [[c * x for x in row] for row in a]


def mat_mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        for t in range(k):
            c = ai[t]
            if c == 0:
                continue
            bt = b[t]
            row = out[i]
            for j in range(m):
                row[j] += c * bt[j]
    return out


def trace(a):
    return sum((a[i][i] for i in range(len(a))), Fraction(0))


def mat_eq(a, b) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def _to_integer_rows(rows):
    """Scale each row by its denominator lcm; nullspace is unchanged."""
    out = []
    for row in rows:
        row = [as_fraction(x) for x in row]
        m = lcm(*(x.denominator for x in row)) if row else 1
        out.append([int(x * m) for x in row])
    return out


def row_echelon(rows):
    """Bareiss row echelon of a rational matrix.

    Returns ``(echelon, pivot_cols)`` where ``echelon`` is an integer matrix
    row-equivalent to the input and ``pivot_cols`` lists the pivot column of
    each nonzero row in order.
    """
    m = _to_integer_rows(rows)
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
        v = [Fraction(0)] * n_cols
        v[f] = Fraction(1)
        for r in reversed(range(len(pivots))):
            c = pivots[r]
            s = sum(
                (Fraction(ech[r][j]) * v[j] for j in range(c + 1, n_cols)),
                Fraction(0),
            )
            v[c] = -s / ech[r][c]
        basis.append(v)
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

    Faddeev-LeVerrier recurrence; exact over the rationals.
    """
    n = len(a)
    coeffs = [Fraction(1)]
    m = identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        ck = -trace(am) / k
        coeffs.append(ck)
        m = mat_add(am, mat_scale(ck, identity(n)))
    return coeffs


def span_equal(vectors_a, vectors_b) -> bool:
    """Do two lists of rational vectors span the same subspace?"""
    ra = rank(vectors_a)
    rb = rank(vectors_b)
    return ra == rb == rank(vectors_a + vectors_b)

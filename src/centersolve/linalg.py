"""Exact linear algebra over the rationals.

Matrices are plain lists of lists of ``Fraction``.  The exact kernels are
fraction-free: they clear denominators (``scalars.clear_denominators``),
work in integers and build one ``Fraction`` per output entry.
``row_echelon`` and ``nullspace`` take a row of ints as it is (the center
system is built in integers) and clear any other row by its own
denominators.  Elimination is one-step Bareiss with a fixed column order
and row swaps only, so ranks, nullspaces and the bases built from them are
fully deterministic; Faddeev-LeVerrier also runs in integers.
``nullspace`` eliminates the rows once, mod the Mersenne prime 2^127 - 1
(one sparse pass that keeps the pivot rows in reduced echelon form), reads
the basis mod p off those pivot rows and lifts it to Q by rational
reconstruction.  Every lifted vector is checked exactly against every row;
if a lift or a check fails, Bareiss over Z computes the basis instead, so
no modular step decides the answer.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, isqrt
from operator import mul

from .scalars import as_fraction, clear_denominators

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


def _integer_rows(rows):
    """Each row in integers: a row of ints as it is, any other row cleared
    by its own denominator lcm.  The row space is unchanged."""
    return [
        row if all(isinstance(x, int) for x in row) else _rational_matrix([row])[0][0]
        for row in rows
    ]


def row_echelon(rows):
    """Bareiss row echelon of a rational matrix, on copies of its rows.

    Returns ``(echelon, pivot_cols)`` where ``echelon`` is an integer matrix
    row-equivalent to the input and ``pivot_cols`` lists the pivot column of
    each nonzero row in order.
    """
    return _echelon(_integer_rows(rows))


def _echelon(rows):
    """``row_echelon`` of integer rows, on copies of them."""
    m = [list(row) for row in rows]
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


_PRIME = 2**127 - 1
_BOUND = isqrt((_PRIME - 1) // 2)  # Wang's bound on |numerator| and denominator


def _independent_rows(rows, n_cols: int):
    """``(keep, pivot_rows)``: the indices of the rows independent mod p of
    all rows before them (the row rank profile mod p, in one sparse pass),
    and the reduced echelon form mod p of those rows.

    ``pivot_rows`` maps each pivot column c to its row without the pivot
    entry 1, as {column: entry mod p}; every entry lies right of c and in
    no other pivot column.  So a new row is reduced by one subtraction per
    pivot column it meets, with no fill-in in another pivot column.  Rows
    independent mod p are independent over Q.
    """
    pivot_rows = {}
    keep = []
    for index, row in enumerate(rows):
        r = {c: x % _PRIME for c, x in enumerate(row) if x % _PRIME}
        for c in [c for c in r if c in pivot_rows]:
            _subtract_mod_p(r, r.pop(c), pivot_rows[c])
        if not r:
            continue
        c = min(r)
        inv = pow(r.pop(c), -1, _PRIME)
        new = {k: x * inv % _PRIME for k, x in r.items()}
        for b in pivot_rows.values():
            if c in b:
                _subtract_mod_p(b, b.pop(c), new)
        pivot_rows[c] = new
        keep.append(index)
        if len(keep) == n_cols:
            break
    return keep, pivot_rows


def _subtract_mod_p(r, t, b):
    """r -= t * b mod p on sparse rows, dropping the entries that vanish."""
    for k, x in b.items():
        y = (r.get(k, 0) - t * x) % _PRIME
        if y:
            r[k] = y
        else:
            del r[k]


def _reconstruct(a):
    """``(n, d)`` with n = a * d mod p, |n| <= _BOUND, 0 < d <= _BOUND and
    gcd(n, d) = 1, or None if there is none; it is unique when it exists
    (Wang's rational reconstruction by the extended Euclidean algorithm)."""
    r0, r1, t0, t1 = _PRIME, a, 0, 1
    while r1 > _BOUND:  # invariant: r_i = t_i * a mod p
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > _BOUND or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _lifted_nullspace(pivot_rows, n_cols: int):
    """``_integer_nullspace`` read off the reduced pivot rows mod p, or None
    if an entry has no rational reconstruction.

    The basis vector of free column f is 1 at f and -pivot_rows[c][f] at
    each pivot column c.  Its entries are lifted one by one over a running
    common denominator ``den``: x * den mod p is reconstructed as n / d, the
    vector so far is scaled by d, and v[f] ends as ``den``.
    """
    basis = []
    for f in reversed(range(n_cols)):
        if f in pivot_rows:
            continue
        v = [0] * n_cols
        den = 1
        for c, row in pivot_rows.items():
            if f in row:
                lifted = _reconstruct(-row[f] * den % _PRIME)
                if lifted is None:
                    return None
                n, d = lifted
                if d != 1:
                    v = [x * d for x in v]
                    den *= d
                v[c] = n
        v[f] = den
        basis.append((v, f))
    return basis


def _integer_nullspace(rows, n_cols: int):
    """Integer vectors v with v / v[f] the canonical basis vector of free
    column f, in reverse column order (see ``nullspace``)."""
    ech, pivots = _echelon(rows)
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
        basis.append((v, f))
    return basis


def nullspace(rows, n_cols: int | None = None):
    """Exact basis of the right nullspace.

    Free columns are assigned the value 1 in reverse column order, one basis
    vector per free column.  This basis depends only on the row space.  It
    is lifted from the reduced echelon form mod 2^127 - 1 of the rows
    independent mod p (``_lifted_nullspace``) and accepted only if every
    vector is exactly orthogonal to every row.  Otherwise (an entry beyond
    the reconstruction bound, or a larger rank over Q than mod p) Bareiss
    computes it from the rows independent mod p and, if that basis fails
    the same check, from all rows.
    """
    if not rows and not n_cols:
        return []
    n_cols = n_cols or len(rows[0])
    ints = _integer_rows(rows)
    keep, pivot_rows = _independent_rows(ints, n_cols)
    basis = _lifted_nullspace(pivot_rows, n_cols)
    if basis is None or not _is_kernel(basis, ints):
        basis = _integer_nullspace([ints[i] for i in keep], n_cols)
        if not _is_kernel(basis, ints):
            basis = _integer_nullspace(ints, n_cols)
    return [[Fraction(x, v[f]) for x in v] for v, f in basis]


def _is_kernel(basis, rows) -> bool:
    """Every basis vector is exactly orthogonal to every row."""
    return not any(sum(map(mul, row, v)) for v, _ in basis for row in rows)


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


"""Shared fixtures: worked examples and seeded random generators."""

import math
import operator
import re
from fractions import Fraction as F

import pytest
from mpmath import mp, mpf

import centersolve as cs
from centersolve.linalg import rank

QUINTIC_PLAIN = (31, 235, 710, 1070, 805, 242)
QUINTIC_NORM = (31, 47, 71, 107, 161, 242)

DEGREE7_PLAIN = (
    F(1),
    F(-8, 3),
    F(11, 4),
    F(-5, 4),
    F(5, 48),
    F(1, 8),
    F(-3, 64),
    F(1, 192),
)

# the ternary cubic worked example, as literal monomial data
TERNARY_CUBIC_TERMS = {
    (3, 0, 0): F(1),
    (2, 1, 0): F(3),
    (2, 0, 1): F(3),
    (1, 2, 0): F(3),
    (1, 0, 2): F(3),
    (1, 1, 1): F(6),
    (0, 3, 0): F(-1),
    (0, 0, 3): F(20),
    (0, 1, 2): F(-21),
    (0, 2, 1): F(15),
}

TERNARY_CUBIC_DEC = cs.PowerSumDecomposition(
    (
        (F(1), cs.LinearForm((F(1), F(1), F(1)))),
        (F(-2), cs.LinearForm((F(0), F(1), F(-2)))),
        (F(3), cs.LinearForm((F(0), F(0), F(1)))),
    ),
    3,
)

# the general solution of the ternary cubic's center system
TERNARY_CENTER_BASIS = (
    ((F(1), F(1), F(1)), (F(0), F(0), F(0)), (F(0), F(0), F(0))),
    ((F(0), F(-1), F(2)), (F(0), F(1), F(-2)), (F(0), F(0), F(0))),
    ((F(0), F(0), F(-3)), (F(0), F(0), F(2)), (F(0), F(0), F(1))),
)

# lambda1*(x + beta1)^4 + lambda2*(x + beta2)^4 with -lambda2/lambda1 = 1 + 10^-30
NEAR_ONE = (F(-2), F(2) * (1 + F(1, 10**30)), F(11, 6), F(2))


def near_one_plain():
    l1, l2, b1, b2 = NEAR_ONE
    return [math.comb(4, i) * (l1 * b1**i + l2 * b2**i) for i in range(5)]


def near_one_planted_roots():
    """(s*beta2 - beta1) / (1 - s) over the fourth roots s of the radicand."""
    with mp.workprec(320):
        l1, l2, b1, b2 = (mpf(x.numerator) / x.denominator for x in NEAR_ONE)
        base = mp.root(-l2 / l1, 4)
        s = [base * mp.expjpi(mpf(k) / 2) for k in range(4)]
        return [complex((t * b2 - b1) / (1 - t)) for t in s]


@pytest.fixture
def quintic():
    return cs.from_plain_coeffs(QUINTIC_PLAIN)


@pytest.fixture
def degree7():
    return cs.from_plain_coeffs(DEGREE7_PLAIN)


@pytest.fixture
def ternary_cubic():
    return cs.NAryForm(3, 3, TERNARY_CUBIC_TERMS)


def rand_fraction(rng, lo=-9, hi=9, max_den=4):
    return F(rng.randint(lo, hi), rng.randint(1, max_den))


def rand_nonzero_fraction(rng, lo=-9, hi=9, max_den=4):
    while True:
        x = rand_fraction(rng, lo, hi, max_den)
        if x != 0:
            return x


def rand_invertible_matrix(rng, n, lo=-5, hi=5):
    while True:
        m = [[F(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]
        if rank(m) == n:
            return m


def planted_diagonalizable(rng, n, d):
    """f = sum of n d-th powers of independent rational linear forms."""
    p = rand_invertible_matrix(rng, n)
    lams = [rand_nonzero_fraction(rng) for _ in range(n)]
    dec = cs.PowerSumDecomposition(
        tuple((lam, cs.LinearForm(tuple(row))) for lam, row in zip(lams, p)),
        d,
    )
    return cs.expand(dec, n), dec


# ---------------------------------------------------------------------------
# plain Fraction references for matrix checks
# ---------------------------------------------------------------------------


def identity(n):
    return [[F(i == j) for j in range(n)] for i in range(n)]


def naive_mat_mul(a, b):
    return [
        [sum((F(a[i][t]) * F(b[t][j]) for t in range(len(b))), F(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def fraction_inverse(a):
    """Gauss-Jordan in Fractions, pivoting on the largest entry."""
    n = len(a)
    aug = [[F(x) for x in row] + [F(i == j) for j in range(n)] for i, row in enumerate(a)]
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


def span_equal(vectors_a, vectors_b) -> bool:
    """Do two lists of rational vectors span the same subspace?"""
    return rank(vectors_a) == rank(vectors_b) == rank(vectors_a + vectors_b)


# ---------------------------------------------------------------------------
# an independent reader of the printed root expressions
# ---------------------------------------------------------------------------

_PREFIX_TOKEN = re.compile(r"([a-z]+)\(|(-?\d+(?:/\d+)?)")


def _real_branch_root(x, d):
    if mp.im(x) == 0 and mp.re(x) < 0 and d % 2:
        return -mp.root(-x, d)
    return mp.root(x, d)


_PREFIX_OPS = {
    "add": operator.add, "sub": operator.sub, "mul": operator.mul,
    "div": operator.truediv, "neg": operator.neg, "sqrt": mp.sqrt,
    "root": lambda x, d: _real_branch_root(x, int(d)),
    "zeta": lambda d, k: mp.expjpi(2 * k / d),
    "geom": lambda x, y, d: sum(x ** (int(d) - 1 - j) * y**j for j in range(int(d))),
}


def read_prefix(expr, prec=256):
    """Value of a root's printed ``expr`` at prec bits, read on its own.

    The language: integer and p/q literals, add, sub, mul, div, neg, sqrt,
    root(x, d) (the real branch for x < 0 at odd d), zeta(d, k) =
    exp(2 pi i k/d) and geom(x, y, d) = sum_{j<d} x^(d-1-j) y^j.  Anything
    else raises ValueError.
    """
    pos = 0

    def read():
        nonlocal pos
        token = _PREFIX_TOKEN.match(expr, pos)
        if token is None or token[1] not in (None, *_PREFIX_OPS):
            raise ValueError(f"no literal or op at {pos} of {expr!r}")
        pos = token.end()
        if token[1] is None:
            return mp.mpmathify(F(token[2]))
        args = [read()]
        while expr.startswith(",", pos):
            pos += 1
            args.append(read())
        if not expr.startswith(")", pos):
            raise ValueError(f"no ')' at {pos} of {expr!r}")
        pos += 1
        return _PREFIX_OPS[token[1]](*args)

    with mp.workprec(prec):
        value = read()
    if pos != len(expr):
        raise ValueError(f"trailing text at {pos} of {expr!r}")
    return value

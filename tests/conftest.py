"""Shared fixtures: worked examples and seeded random generators."""

import math
from fractions import Fraction as F

import pytest
from mpmath import mp, mpf

import centersolve as cs

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
    from centersolve.linalg import inverse

    while True:
        m = [[F(rng.randint(lo, hi)) for _ in range(n)] for _ in range(n)]
        try:
            inverse([row[:] for row in m])
        except ValueError:
            continue
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

from fractions import Fraction as F

import pytest
from mpmath import mp, mpc

from centersolve.linalg import (
    char_poly,
    identity,
    inverse,
    mat_mul,
    nullspace,
    rank,
    row_echelon,
    span_equal,
)


def test_rank_basic():
    assert rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert rank([[F(0), F(0)]]) == 0


def test_rank_with_fractions():
    m = [[F(1, 3), F(1, 6)], [F(2), F(1)]]
    assert rank(m) == 1


def test_nullspace_is_exact_kernel():
    m = [[F(1), F(2), F(3)], [F(2), F(4), F(6)]]
    basis = nullspace(m)
    assert len(basis) == 2
    for v in basis:
        for row in m:
            assert sum(c * x for c, x in zip(row, v)) == 0


def test_nullspace_deterministic_free_order():
    # x + y + z = 0: free columns are z then y (reverse order), each set to 1
    basis = nullspace([[F(1), F(1), F(1)]])
    assert basis == [[F(-1), F(0), F(1)], [F(-1), F(1), F(0)]]


def test_nullspace_full_rank_is_empty():
    assert nullspace([[F(1), F(0)], [F(0), F(1)]]) == []


def test_row_echelon_pivots():
    _, pivots = row_echelon([[F(0), F(1)], [F(1), F(0)]])
    assert pivots == [0, 1]


def test_inverse():
    m = [[F(1), F(2)], [F(3), F(4)]]
    inv = inverse(m)
    assert mat_mul(m, inv) == identity(2)
    with pytest.raises(ValueError):
        inverse([[F(1), F(2)], [F(2), F(4)]])


def test_inverse_of_mpc_matrix_at_working_precision():
    with mp.workprec(128):
        tiny = mp.mpf(2) ** -70  # a small leading entry needs the largest pivot
        m = [
            [mpc(tiny, tiny / 3), mpc(1, -2), mpc(0)],
            [mpc(3, 1) / 7, mpc(0), mpc(-5, 2)],
            [mpc(0, 1), mpc(2, 0) / 3, mpc(1, 1)],
        ]
        product = mat_mul(m, inverse(m))
        worst = max(abs(product[i][j] - (i == j)) for i in range(3) for j in range(3))
        assert worst < mp.mpf(2) ** -100
        with pytest.raises(ValueError):
            inverse([[mpc(1, 1), mpc(2, 2)], [mpc(1), mpc(2)]])


def test_char_poly_companion():
    # [[0, -6], [1, 5]] has characteristic polynomial x^2 - 5x + 6
    m = [[F(0), F(-6)], [F(1), F(5)]]
    assert char_poly(m) == [F(1), F(-5), F(6)]


def test_char_poly_diagonal():
    m = [[F(2), F(0), F(0)], [F(0), F(3), F(0)], [F(0), F(0), F(5)]]
    # (x-2)(x-3)(x-5) = x^3 - 10x^2 + 31x - 30
    assert char_poly(m) == [F(1), F(-10), F(31), F(-30)]


def test_span_equal():
    a = [[F(1), F(0)], [F(0), F(1)]]
    b = [[F(1), F(1)], [F(1), F(-1)]]
    assert span_equal(a, b)
    assert not span_equal(a, [[F(1), F(0)]])

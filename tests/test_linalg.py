from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
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

# ---------------------------------------------------------------------------
# references: the plain Fraction algorithms the fraction-free kernels replace
# ---------------------------------------------------------------------------


def naive_mat_mul(a, b):
    return [
        [sum((F(a[i][t]) * F(b[t][j]) for t in range(len(b))), F(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def fraction_nullspace(rows, n_cols):
    """Back-substitution in Fractions on the echelon form, one vector per
    free column (free entry 1, reverse column order)."""
    ech, pivots = row_echelon(rows)
    free_cols = [c for c in range(n_cols) if c not in set(pivots)]
    basis = []
    for f in reversed(free_cols):
        v = [F(0)] * n_cols
        v[f] = F(1)
        for r in reversed(range(len(pivots))):
            c = pivots[r]
            s = sum((F(ech[r][j]) * v[j] for j in range(c + 1, n_cols)), F(0))
            v[c] = -s / ech[r][c]
        basis.append(v)
    return basis


def fraction_char_poly(a):
    """Faddeev-LeVerrier in Fractions."""
    n = len(a)
    coeffs = [F(1)]
    m = identity(n)
    for k in range(1, n + 1):
        am = naive_mat_mul(a, m)
        ck = -sum(am[i][i] for i in range(n)) / k
        coeffs.append(ck)
        m = [[x + (ck if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(am)]
    return coeffs


# ints and Fractions of both signs, zero often
entries = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.just(0),
)


def matrices(rows, cols, zero_rows=True):
    row = st.lists(entries, min_size=cols, max_size=cols)
    if zero_rows:
        row = st.one_of(row, st.just([0] * cols))
    return st.lists(row, min_size=rows, max_size=rows)


@st.composite
def product_pairs(draw):
    n, k, m = (draw(st.integers(1, 5)) for _ in range(3))
    return draw(matrices(n, k)), draw(matrices(k, m))


@settings(max_examples=60, deadline=None)
@given(product_pairs())
def test_mat_mul_matches_fraction_triple_loop(pair):
    a, b = pair
    product = mat_mul(a, b)
    assert product == naive_mat_mul(a, b)
    assert all(type(x) is F for row in product for x in row)


@st.composite
def rank_deficient(draw):
    """Rows that are rational combinations of a few random rows."""
    cols = draw(st.integers(1, 7))
    base = draw(matrices(draw(st.integers(1, cols)), cols, zero_rows=False))
    combos = draw(matrices(draw(st.integers(1, 6)), len(base)))
    return [
        [sum((F(c) * F(r[j]) for c, r in zip(combo, base)), F(0)) for j in range(cols)]
        for combo in combos
    ] + base[: draw(st.integers(0, len(base)))], cols


@settings(max_examples=60, deadline=None)
@given(rank_deficient())
def test_nullspace_matches_fraction_back_substitution(case):
    rows, cols = case
    basis = nullspace(rows, n_cols=cols)
    assert basis == fraction_nullspace(rows, cols)
    assert len(basis) == cols - rank(rows)
    for v in basis:
        assert all(type(x) is F for x in v)
        for row in rows:
            assert sum(F(c) * x for c, x in zip(row, v)) == 0


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: matrices(n, n)))
def test_char_poly_matches_fraction_faddeev_leverrier(a):
    assert char_poly(a) == fraction_char_poly(a)


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
        inv = inverse(m)
        product = [
            [sum((m[i][t] * inv[t][j] for t in range(3)), mpc(0)) for j in range(3)]
            for i in range(3)
        ]
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

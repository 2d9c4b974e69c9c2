import random
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from centersolve import linalg
from centersolve.center import center_system
from centersolve.linalg import char_poly, nullspace, rank, row_echelon
from conftest import identity, naive_mat_mul, planted_diagonalizable

# ---------------------------------------------------------------------------
# references: the plain Fraction algorithms the fraction-free kernels replace
# ---------------------------------------------------------------------------


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
def rank_deficient(draw):
    """Rows that are rational combinations of a few random rows; tall draws
    have many more rows than their rank, like the center systems."""
    cols = draw(st.integers(1, 7))
    tall = draw(st.booleans())
    rank_cap = min(cols, 3) if tall else cols
    base = draw(matrices(draw(st.integers(1, rank_cap)), cols, zero_rows=False))
    n_combos = draw(st.integers(8, 30) if tall else st.integers(1, 6))
    combos = draw(matrices(n_combos, len(base)))
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


@st.composite
def integer_rows_and_denominators(draw):
    """Integer combinations of a few integer rows, often many more rows than
    their rank like the center systems, and one nonzero divisor per row."""
    def ints(size, values=st.integers(-9, 9)):
        return st.lists(values, min_size=size, max_size=size)

    cols = draw(st.integers(1, 7))
    base = draw(st.lists(ints(cols), min_size=1, max_size=3))
    combos = draw(st.lists(ints(len(base)), min_size=1, max_size=24))
    rows = [
        [sum(c * r[j] for c, r in zip(combo, base)) for j in range(cols)]
        for combo in combos
    ]
    divisor = st.integers(1, 10**6) | st.integers(-(10**6), -1)
    return rows, draw(ints(len(rows), divisor)), cols


@settings(max_examples=60, deadline=None)
@given(integer_rows_and_denominators())
def test_integer_rows_taken_as_given_match_their_rational_multiples(case):
    # integer rows skip the clearing; a row over its own denominator is
    # cleared back to an integer multiple of itself: same row space
    rows, dens, cols = case
    divided = [[F(x, d) for x in row] for row, d in zip(rows, dens)]
    given_rows = [list(row) for row in rows]
    assert nullspace(rows, n_cols=cols) == nullspace(divided, n_cols=cols)
    assert row_echelon(rows)[1] == row_echelon(divided)[1]
    assert rows == given_rows  # elimination works on copies


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: matrices(n, n)))
def test_char_poly_matches_fraction_faddeev_leverrier(a):
    assert char_poly(a) == fraction_char_poly(a)


_P = linalg._PRIME


def _rank_mod_p(rows):
    """Dense Gaussian elimination mod p."""
    m = [[x % _P for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = pow(m[r][c], -1, _P)
        for i in range(r + 1, len(m)):
            f = m[i][c] * inv % _P
            m[i] = [(x - f * y) % _P for x, y in zip(m[i], m[r])]
        r += 1
    return r


def dense_independent_rows(rows):
    """Row i is kept iff it raises the rank mod p of the rows before it."""
    return [
        i for i in range(len(rows)) if _rank_mod_p(rows[: i + 1]) > _rank_mod_p(rows[:i])
    ]


@st.composite
def center_like_rows(draw):
    """Tall, sparse integer rows of low rank, like the center systems: integer
    combinations of a few base rows, rows that vanish mod p, and rows equal
    mod p to a combination but not over Q."""
    cols = draw(st.integers(1, 10))
    sparse = st.one_of(st.just(0), st.integers(-9, 9))
    base = draw(
        st.lists(st.lists(sparse, min_size=cols, max_size=cols), min_size=1, max_size=6)
    )
    rows = []
    for _ in range(draw(st.integers(4, 30))):
        combo = draw(st.lists(st.integers(-3, 3), min_size=len(base), max_size=len(base)))
        row = [sum(c * b[j] for c, b in zip(combo, base)) for j in range(cols)]
        kind = draw(st.sampled_from(("combination", "vanishing", "shifted")))
        shift = draw(st.lists(sparse, min_size=cols, max_size=cols))
        if kind == "vanishing":
            row = [_P * x for x in shift]
        elif kind == "shifted":
            row = [x + _P * y for x, y in zip(row, shift)]
        rows.append(row)
    return rows, cols


@settings(max_examples=100, deadline=None)
@given(center_like_rows())
def test_independent_rows_are_the_rank_profile_mod_p(case):
    rows, cols = case
    keep, pivot_rows = linalg._independent_rows(rows, cols)
    assert keep == dense_independent_rows(rows)
    assert rank([rows[i] for i in keep]) == len(keep)  # independent over Q too
    # reduced echelon form: the pivot rows span the kept rows mod p, and each
    # entry lies right of its pivot and in no other pivot column
    assert len(pivot_rows) == len(keep)
    for c, row in pivot_rows.items():
        assert all(k > c and k not in pivot_rows and 0 < x < _P for k, x in row.items())
    assert _rank_mod_p(
        [rows[i] for i in keep] + [_dense_pivot_row(c, row, cols) for c, row in pivot_rows.items()]
    ) == len(keep)


def _dense_pivot_row(c, row, cols):
    return [1 if k == c else row.get(k, 0) for k in range(cols)]


_B = linalg._BOUND


@settings(max_examples=200, deadline=None)
@given(st.integers(-_B, _B), st.integers(1, _B))
def test_reconstruct_round_trips_within_the_bound(n, d):
    g = gcd(n, d)
    n, d = n // g, d // g
    assert linalg._reconstruct(n * pow(d, -1, _P) % _P) == (n, d)


beyond = st.integers(_B + 1, 2**100)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.tuples(beyond, st.integers(1, 2**100)),
    st.tuples(st.integers(-(2**100), 2**100), beyond),
    st.tuples(beyond.map(lambda x: -x), st.integers(1, 2**100)),
))
def test_reconstruct_beyond_the_bound_is_rejected(case):
    # no reconstruction, or a wrong one that the exact check rejects: the
    # nullspace of the row (d, -n) is still n/d
    n, d = case
    g = gcd(n, d)
    n, d = n // g, d // g
    assume(max(abs(n), d) > _B)
    assert linalg._reconstruct(n * pow(d, -1, _P) % _P) != (n, d)
    assert nullspace([[d, -n]]) == [[F(n, d), F(1)]]


@pytest.mark.parametrize(
    "rows, lifted",
    [
        # x0 = 10^20 x1: the lift reconstructs a wrong fraction within the
        # bound, and the exact check rejects it
        ([[1, -(10**20)]], True),
        # an entry with no reconstruction at all
        ([[1, 2**64 + 1, 0, 3**50], [0, 3, 10**20 + 7, 1], [1, 2**64 + 4, 10**20 + 7, 3**50 + 1]], False),
    ],
)
def test_nullspace_falls_back_to_bareiss_beyond_the_bound(rows, lifted, monkeypatch):
    # basis entries above 2^63, beyond the reconstruction bound mod 2^127 - 1
    n_cols = len(rows[0])
    _, pivot_rows = linalg._independent_rows(rows, n_cols)
    assert (linalg._lifted_nullspace(pivot_rows, n_cols) is not None) == lifted
    calls = _count_integer_nullspace(monkeypatch)
    assert nullspace(rows, n_cols=n_cols) == fraction_nullspace(rows, n_cols)
    assert len(calls) >= 1


def _count_integer_nullspace(monkeypatch):
    """Record the row count of every ``_integer_nullspace`` call."""
    calls = []
    original = linalg._integer_nullspace

    def counting(rows, n_cols):
        calls.append(len(rows))
        return original(rows, n_cols)

    monkeypatch.setattr(linalg, "_integer_nullspace", counting)
    return calls


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("n", range(3, 9))
def test_planted_centers_are_lifted_within_the_bound(n, d, monkeypatch):
    # up to n = 6 (the benchmark's forms) every center basis entry fits the
    # bound and no Bareiss runs; at n = 7 and 8 the entries reach 50-120 bits
    # and the lift may fail, but never changes the basis
    f, _ = planted_diagonalizable(random.Random(1000 * n + d), n, d)
    rows = center_system(f)
    calls = _count_integer_nullspace(monkeypatch)
    basis = nullspace(rows, n_cols=n * n)
    assert len(basis) == n
    if n <= 6:
        assert calls == []
    else:
        assert basis == fraction_nullspace(rows, n * n)


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


@pytest.mark.parametrize(
    "rows, eliminations",
    [
        # the second row is the first one mod p, but independent over Q: the
        # lifted basis and the one from the rows independent mod p both fail
        # the exact check
        ([[1, 0, 0], [1, _P, 0]], 2),
        # a row that vanishes mod p leaves no row to eliminate
        ([[0, _P, 0], [0, 0, 0]], 2),
        # a dependent row over Q is dependent mod p: the lifted basis passes
        ([[1, 0, 0], [2, 0, 0], [0, 1, 1]], 0),
    ],
)
def test_nullspace_reruns_on_all_rows_when_the_mod_p_rank_drops(
    rows, eliminations, monkeypatch
):
    calls = _count_integer_nullspace(monkeypatch)
    assert nullspace(rows, n_cols=3) == fraction_nullspace(rows, 3)
    assert len(calls) == eliminations
    if eliminations == 2:
        assert calls[-1] == len(rows)


def test_nullspace_full_rank_is_empty():
    assert nullspace([[F(1), F(0)], [F(0), F(1)]]) == []


def test_row_echelon_pivots():
    _, pivots = row_echelon([[F(0), F(1)], [F(1), F(0)]])
    assert pivots == [0, 1]


def test_char_poly_companion():
    # [[0, -6], [1, 5]] has characteristic polynomial x^2 - 5x + 6
    m = [[F(0), F(-6)], [F(1), F(5)]]
    assert char_poly(m) == [F(1), F(-5), F(6)]


def test_char_poly_diagonal():
    m = [[F(2), F(0), F(0)], [F(0), F(3), F(0)], [F(0), F(0), F(5)]]
    # (x-2)(x-3)(x-5) = x^3 - 10x^2 + 31x - 30
    assert char_poly(m) == [F(1), F(-10), F(31), F(-30)]


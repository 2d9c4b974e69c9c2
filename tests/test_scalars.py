from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf

from centersolve.scalars import (
    QuadExt,
    exact_sqrt,
    is_square,
    nth_root,
    rational_nth_root,
    rational_sqrt,
    scalar_str,
    to_mpc,
    unit_root,
)

fractions = st.fractions(min_value=-20, max_value=20, max_denominator=12)


def test_is_square():
    assert is_square(F(4, 9))
    assert is_square(F(0))
    assert not is_square(F(2))
    assert not is_square(F(-4))
    assert rational_sqrt(F(49, 4)) == F(7, 2)


def test_exact_sqrt_square_collapses_to_fraction():
    assert exact_sqrt(F(9, 16)) == F(3, 4)
    assert isinstance(exact_sqrt(F(9, 16)), F)


def test_exact_sqrt_nonsquare():
    r = exact_sqrt(F(2))
    assert isinstance(r, QuadExt)
    assert r * r == 2


def test_quadext_b_zero_collapses():
    x = QuadExt(F(3), F(0), F(2))
    assert isinstance(x, F)
    assert x == 3


def test_quadext_square_disc_collapses():
    x = QuadExt(F(1), F(2), F(9))
    assert x == 7  # 1 + 2*3


def test_radicand_normalization():
    # sqrt(8) == 2*sqrt(2)
    a = QuadExt(0, 1, F(8))
    b = QuadExt(0, 2, F(2))
    assert a == b
    # sqrt(3/4) == sqrt(3)/2
    c = QuadExt(0, 1, F(3, 4))
    assert c == QuadExt(0, F(1, 2), F(3))


def test_mixed_disc_is_type_error():
    a = QuadExt(0, 1, F(2))
    b = QuadExt(0, 1, F(3))
    with pytest.raises(TypeError):
        a + b
    with pytest.raises(TypeError):
        a * b


def test_quadext_inverse_and_division():
    x = QuadExt(F(3), F(1), F(5))
    assert x * x.inverse() == 1
    assert (1 / x) * x == 1
    assert (x / x) == 1


def test_quadext_mixes_with_fractions():
    x = QuadExt(F(1), F(1), F(2))  # 1 + sqrt(2)
    assert x + F(1, 2) == QuadExt(F(3, 2), F(1), F(2))
    assert F(2) * x == QuadExt(F(2), F(2), F(2))
    assert x - 1 == QuadExt(F(0), F(1), F(2))
    # (1 + sqrt2)(1 - sqrt2) = -1, irrational parts cancel to a Fraction
    prod = x * x.conjugate()
    assert isinstance(prod, F) and prod == -1


@given(a=fractions, b=fractions, c=fractions, d=fractions)
def test_quadext_field_axioms_over_sqrt5(a, b, c, d):
    x = QuadExt(a, b, F(5)) if b else a
    y = QuadExt(c, d, F(5)) if d else c
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) * x == x * x + y * x


@given(a=fractions, b=fractions)
def test_quadext_inverse_roundtrip(a, b):
    x = QuadExt(a, b, F(7))
    if isinstance(x, F):
        return
    assert x * x.inverse() == 1


def test_rational_nth_root():
    assert rational_nth_root(F(1, 32), 5) == F(1, 2)
    assert rational_nth_root(F(-8), 3) == -2
    assert rational_nth_root(F(-4), 2) is None
    assert rational_nth_root(F(5), 3) is None
    assert rational_nth_root(F(0), 4) == 0


def test_nth_root_branches():
    assert abs(nth_root(F(-8), 3) - (-2)) < 1e-15
    assert abs(nth_root(F(8), 3) - 2) < 1e-15
    r = nth_root(F(-16), 4)  # principal branch for even roots
    assert r.imag > 0


def test_to_mpc_negative_disc_is_imaginary():
    z = to_mpc(QuadExt(0, 1, F(-4)))
    assert abs(z - 2j) < 1e-15


def test_unit_root():
    z = unit_root(5, 1)
    assert abs(z**5 - 1) < 1e-15
    assert abs(unit_root(5, 0) - 1) == 0
    assert abs(unit_root(3, 1) - (-0.5 + 3**0.5 / 2 * 1j)) < 1e-15


def test_scalar_str():
    assert scalar_str(F(-25, 1764)) == "-25/1764"
    assert scalar_str(QuadExt(F(1, 2), F(-3), F(2))) == "1/2 - 3*sqrt(2)"


def test_exact_nth_root_of_large_integers():
    # a float first guess lost these: None far below 1e308, OverflowError above
    from centersolve.scalars import _int_nth_root

    assert _int_nth_root((10**20 + 7) ** 3, 3) == 10**20 + 7
    assert _int_nth_root((10**20 + 7) ** 3 + 1, 3) is None
    assert _int_nth_root(10**400, 4) == 10**100
    assert _int_nth_root(10**400, 3) is None
    assert rational_nth_root(F(-(3**700), 2**35), 5) == F(-(3**140), 2**7)


# 100003 and 1000003 are primes above the trial-division cap of _square_part
@pytest.mark.parametrize(
    "n, s",
    [(2, 100003), (-2, 100003), (3, 1000003 * 100003), (10**40 + 1, 7), (5, 2 * 10**25 + 3)],
)
def test_radicands_with_large_square_factors(n, s):
    big = QuadExt(F(1, 3), 1, n * s * s)
    small = QuadExt(F(1, 3), s, n)
    assert big == small and small == big
    assert hash(big) == hash(small)
    assert big + small == QuadExt(F(2, 3), 2 * s, n)
    assert big - small == 0
    assert big * small == small * small
    assert big / small == 1
    assert big != QuadExt(F(1, 3), -s, n)


def test_huge_radicands_of_different_fields_do_not_mix():
    p = 1000003
    a, b = QuadExt(0, 1, 2 * p * p), QuadExt(0, 1, 3 * p * p)
    assert a != b
    with pytest.raises(TypeError, match="cannot mix"):
        a + b


@given(
    st.integers(2, 10**6),
    st.integers(1, 10**30),
    st.fractions(max_denominator=50),
    st.fractions(max_denominator=50).filter(bool),
)
def test_rescaled_radicand_is_the_same_element(n, s, a, b):
    x, y = QuadExt(a, b, n * s * s), QuadExt(a, b * s, n)
    assert x == y and hash(x) == hash(y)
    assert x - y == 0
    assert abs(to_mpc(x, 128) - to_mpc(y, 128)) <= 1e-30 * (1 + abs(to_mpc(y, 128)))


def test_cancelling_parts_keep_their_relative_accuracy():
    # a + b*sqrt(2) with a/b the 30th convergent of -sqrt(2): |x| ~ 1e-23
    p, q = 1, 1
    for _ in range(30):
        p, q = p + 2 * q, p + q
    x = QuadExt(p, -q, 2)
    with mp.workprec(256):
        want = mpf(p) - mpf(q) * mp.sqrt(2)
    assert abs(to_mpc(x) - want) <= 1e-15 * abs(want)


def test_arithmetic_keeps_the_reduced_radicand(monkeypatch):
    import centersolve.scalars as scalars

    x = QuadExt(F(1, 3), 2, 1000000007 * 998244353)
    y = QuadExt(5, F(-1, 7), 1000000007 * 998244353)
    calls = []
    original = scalars._square_part

    def counting(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(scalars, "_square_part", counting)
    total = (x + y) * x / y
    assert calls == []
    assert total.disc == x.disc
    assert total * y == (x + y) * x
    assert x - x == 0 and isinstance(x - x, F)

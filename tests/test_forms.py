import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpc

import centersolve as cs
from centersolve import (
    DegreeError,
    LinearForm,
    NAryForm,
    PowerSumDecomposition,
    QuadExt,
    expand,
    from_plain_coeffs,
    hessian,
)
from centersolve.forms import poly_add, poly_pow, poly_scale
from conftest import TERNARY_CUBIC_DEC, TERNARY_CUBIC_TERMS, rand_fraction


class TestFromPlainCoeffs:
    def test_quintic(self):
        eq = from_plain_coeffs([31, 235, 710, 1070, 805, 242])
        assert eq.degree == 5
        assert eq.norm == (31, 47, 71, 107, 161, 242)

    def test_zero_padding(self):
        eq = from_plain_coeffs([1, 0, 0])
        assert eq.degree == 2
        assert eq.norm == (1, 0, 0)

    def test_cube_of_binomial(self):
        eq = from_plain_coeffs([2, 6, 6, 2])  # 2(x+1)^3
        assert eq.norm == (2, 2, 2, 2)

    def test_leading_zero_rejected(self):
        with pytest.raises(DegreeError):
            from_plain_coeffs([0, 1, 2])

    def test_empty_rejected(self):
        with pytest.raises(DegreeError):
            from_plain_coeffs([])


coeff_lists = st.lists(
    st.fractions(min_value=-9, max_value=9, max_denominator=6),
    min_size=2,
    max_size=10,
).filter(lambda c: c[0] != 0)


@given(coeffs=coeff_lists)
def test_convention_round_trip(coeffs):
    eq = from_plain_coeffs(coeffs)
    assert list(eq.plain) == coeffs
    assert cs.from_norm_coeffs(eq.norm).plain == eq.plain


class TestExpand:
    def test_ternary_cubic(self):
        f = expand(TERNARY_CUBIC_DEC, 3)
        assert f.terms == TERNARY_CUBIC_TERMS

    def test_single_power(self):
        dec = PowerSumDecomposition(((F(1), LinearForm((F(1), F(0)))),), 4)
        f = expand(dec, 2)
        assert f.terms == {(4, 0): F(1)}

    def test_two_cubes(self):
        dec = PowerSumDecomposition(
            (
                (F(1), LinearForm((F(1), F(1)))),
                (F(1), LinearForm((F(1), F(-1)))),
            ),
            3,
        )
        f = expand(dec, 2)
        assert f.terms == {(3, 0): F(2), (1, 2): F(6)}

    def test_wrong_variable_count(self):
        with pytest.raises(ValueError):
            expand(TERNARY_CUBIC_DEC, 2)


def convolution_expand(dec, n):
    """Reference: each (l.x)^d by repeated squaring of the sparse linear form."""
    total = {}
    for c, form in dec.summands:
        lin = {
            tuple(int(t == j) for t in range(n)): x
            for j, x in enumerate(form.coeffs)
            if x != 0
        }
        total = poly_add(total, poly_scale(c, poly_pow(lin, dec.degree, n)))
    return NAryForm(n, dec.degree, total)


rationals = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-6, max_value=6, max_denominator=7)
)


def quad_ext(disc):
    return st.builds(lambda a, b: QuadExt(a, b, disc), rationals, rationals)


complexes = st.builds(
    mpc, st.floats(-4, 4, allow_nan=False), st.floats(-4, 4, allow_nan=False)
)


@st.composite
def decompositions(draw, scalars):
    n = draw(st.integers(1, 5))
    d = draw(st.integers(1, 5))
    entry = st.one_of(scalars, st.just(0))
    forms = st.lists(entry, min_size=n, max_size=n).filter(
        lambda xs: any(x != 0 for x in xs)
    )
    summands = draw(
        st.lists(st.tuples(scalars, forms.map(LinearForm)), min_size=1, max_size=4)
    )
    return PowerSumDecomposition(tuple(summands), d), n


class TestExpandAgainstConvolution:
    @settings(max_examples=60, deadline=None)
    @given(decompositions(rationals))
    def test_rational_summands(self, case):
        dec, n = case
        f = expand(dec, n)
        assert f == convolution_expand(dec, n)
        assert all(type(c) is F for c in f.terms.values())

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([-3, -1, 2, 5]).flatmap(
        lambda disc: decompositions(st.one_of(rationals, quad_ext(disc)))
    ))
    def test_quadratic_extension_summands(self, case):
        dec, n = case
        assert expand(dec, n) == convolution_expand(dec, n)

    @settings(max_examples=40, deadline=None)
    @given(decompositions(st.one_of(complexes, rationals)))
    def test_mpc_summands(self, case):
        dec, n = case
        f, g = expand(dec, n), convolution_expand(dec, n)
        scale = max([1.0] + [abs(complex(c)) for c in g.terms.values()])
        for mono in set(f.terms) | set(g.terms):
            diff = complex(f.coefficient(mono)) - complex(g.coefficient(mono))
            assert abs(diff) <= 1e-12 * scale


class TestEvaluate:
    def test_quintic_at_minus_two(self, quintic):
        value = quintic.evaluate(-2)
        scale = max(abs(b) for b in quintic.plain)
        assert abs(value) / scale < 1e-12

    def test_cube_at_zero(self):
        eq = from_plain_coeffs([1, 0, 0, 0])
        assert abs(eq.evaluate(0)) == 0

    def test_sum_of_cubes_at_minus_half(self):
        # 2x^3+3x^2+3x+1 = x^3 + (x+1)^3 vanishes at -1/2
        eq = from_plain_coeffs([2, 3, 3, 1])
        assert abs(eq.evaluate(F(-1, 2))) < 1e-18
        assert eq.evaluate_exact(F(-1, 2)) == 0

    def test_agrees_with_naive_power_sum(self):
        rng = random.Random(20260809)
        for _ in range(50):
            coeffs = [rand_fraction(rng) for _ in range(rng.randint(2, 9))]
            if coeffs[0] == 0:
                coeffs[0] = F(1)
            eq = from_plain_coeffs(coeffs)
            x = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            naive = sum(
                complex(b) * x ** (eq.degree - i) for i, b in enumerate(coeffs)
            )
            got = complex(eq.evaluate(x))
            assert abs(got - naive) <= 1e-12 * max(1.0, abs(naive))


class TestHessian:
    def test_sum_of_powers_is_diagonal(self):
        f = NAryForm(2, 3, {(3, 0): F(1), (0, 3): F(1)})
        h = hessian(f)
        assert h[0][0].terms == {(1, 0): F(6)}
        assert h[1][1].terms == {(0, 1): F(6)}
        assert h[0][1].terms == {}

    def test_quadratic_cross(self):
        f = NAryForm(2, 2, {(1, 1): F(1)})
        h = hessian(f)
        assert h[0][0].terms == {}
        assert h[0][1].terms == {(0, 0): F(1)}
        assert h[1][0].terms == {(0, 0): F(1)}

    def test_binary_cubic(self):
        # x^3 + 3x^2 y
        f = NAryForm(2, 3, {(3, 0): F(1), (2, 1): F(3)})
        h = hessian(f)
        assert h[0][0].terms == {(1, 0): F(6), (0, 1): F(6)}
        assert h[0][1].terms == {(1, 0): F(6)}
        assert h[1][1].terms == {}

    def test_degree_error(self):
        with pytest.raises(DegreeError):
            hessian(NAryForm(2, 1, {(1, 0): F(1)}))

    def test_symmetry_and_degree(self):
        rng = random.Random(7)
        for _ in range(20):
            n = rng.randint(2, 4)
            d = rng.randint(3, 5)
            terms = {}
            for _ in range(rng.randint(1, 8)):
                mono = [0] * n
                for _ in range(d):
                    mono[rng.randrange(n)] += 1
                terms[tuple(mono)] = rand_fraction(rng)
            f = NAryForm(n, d, terms)
            h = hessian(f)
            for i in range(n):
                for j in range(n):
                    assert h[i][j] == h[j][i]
                    assert h[i][j].degree == d - 2


class TestNAryForm:
    def test_rejects_inhomogeneous(self):
        with pytest.raises(ValueError):
            NAryForm(2, 3, {(3, 0): F(1), (1, 0): F(1)})

    def test_drops_zero_coefficients(self):
        f = NAryForm(2, 3, {(3, 0): F(1), (0, 3): F(0)})
        assert (0, 3) not in f.terms

    def test_substitute_linear_identity(self, ternary_cubic):
        p = [[F(i == j) for j in range(3)] for i in range(3)]
        assert ternary_cubic.substitute_linear(p) == ternary_cubic


class TestHomogenization:
    def test_round_trip(self, quintic):
        assert quintic.homogenize().dehomogenize() == quintic



def test_poly_pow_squares_only_up_to_its_last_bit(monkeypatch):
    # k = 100 has 7 bits, 3 of them set: 6 squarings and 3 multiplications
    # into the result; the 7th squaring (base^128) would never be used
    import centersolve.forms as forms

    calls = []
    original = forms.poly_mul

    def counting(p, q):
        calls.append((len(p), len(q)))
        return original(p, q)

    monkeypatch.setattr(forms, "poly_mul", counting)
    got = poly_pow({(1, 0): 1, (0, 1): 2}, 100, 2)
    assert len(calls) == 9
    assert got == {(100 - j, j): math.comb(100, j) * 2**j for j in range(101)}
    assert poly_pow({(1, 0): 1}, 0, 2) == {(0, 0): 1}

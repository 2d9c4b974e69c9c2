"""Polynomials, forms and power-sum decompositions.

Coefficient conventions
-----------------------

A degree-d univariate equation is kept in two synchronized conventions:

  * plain coefficients ``b0..bd`` with f(x) = b0*x^d + b1*x^(d-1) + ... + bd,
  * binomial-scaled coefficients ``a0..ad`` with bi = C(d, i) * ai.

The binomial-scaled convention is canonical internally: the center
invariants D1, D2, D3 and the Hankel matrix are all defined in terms of the
``ai``.  Plain coefficients are accepted at the boundary and converted
exactly.

Multivariate forms are sparse maps from exponent tuples to exact scalars;
the zero polynomial is the empty map.  Coefficients may be Fraction, QuadExt
or mpmath numbers -- the arithmetic helpers below are generic in the scalar.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from mpmath import mp, mpc

from .errors import DegreeError
from .scalars import DEFAULT_PREC, as_fraction, is_exact, to_mpc

# ---------------------------------------------------------------------------
# sparse polynomial helpers (exponent tuple -> coefficient)
# ---------------------------------------------------------------------------


def poly_add(p, q):
    out = dict(p)
    for mono, c in q.items():
        s = out.get(mono, 0) + c
        if s == 0:
            out.pop(mono, None)
        else:
            out[mono] = s
    return out


def poly_scale(c, p):
    if c == 0:
        return {}
    return {mono: c * v for mono, v in p.items()}


def poly_mul(p, q):
    out = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            s = out.get(mono, 0) + ca * cb
            if s == 0:
                out.pop(mono, None)
            else:
                out[mono] = s
    return out


def poly_pow(p, k: int, nvars: int):
    result = {(0,) * nvars: Fraction(1)}
    base = p
    while k:
        if k & 1:
            result = poly_mul(result, base)
        base = poly_mul(base, base)
        k >>= 1
    return result


# ---------------------------------------------------------------------------
# univariate equations and binary forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UnivariateEquation:
    """Degree-d polynomial f(x), both coefficient conventions populated."""

    plain: tuple  # b0..bd, b0 != 0
    norm: tuple  # a0..ad with bi = C(d,i)*ai

    @property
    def degree(self) -> int:
        return len(self.plain) - 1

    def evaluate(self, x, prec: int = DEFAULT_PREC) -> mpc:
        return evaluate(self, x, prec)

    def evaluate_exact(self, x):
        """Horner evaluation at an exact scalar."""
        acc = 0
        for b in self.plain:
            acc = acc * x + b
        return acc

    def homogenize(self) -> "BinaryForm":
        return BinaryForm(self.norm)

    def __str__(self):
        d = self.degree
        parts = []
        for i, b in enumerate(self.plain):
            if b == 0:
                continue
            power = d - i
            if power == 0:
                parts.append(f"{b}")
            elif power == 1:
                parts.append(f"{b}*x")
            else:
                parts.append(f"{b}*x^{power}")
        return " + ".join(parts) if parts else "0"


def from_plain_coeffs(coeffs) -> UnivariateEquation:
    """Build an equation from b0..bd; a-coefficients are derived exactly."""
    b = tuple(as_fraction(c) for c in coeffs)
    if not b or len(b) < 2:
        raise DegreeError("need at least degree 1")
    if b[0] == 0:
        raise DegreeError("leading coefficient must be nonzero")
    d = len(b) - 1
    a = tuple(bi / comb(d, i) for i, bi in enumerate(b))
    return UnivariateEquation(plain=b, norm=a)


def from_norm_coeffs(coeffs) -> UnivariateEquation:
    """Build an equation from a0..ad (binomial-scaled convention)."""
    a = tuple(as_fraction(c) for c in coeffs)
    if not a or len(a) < 2:
        raise DegreeError("need at least degree 1")
    if a[0] == 0:
        raise DegreeError("leading coefficient must be nonzero")
    d = len(a) - 1
    b = tuple(comb(d, i) * ai for i, ai in enumerate(a))
    return UnivariateEquation(plain=b, norm=a)


def evaluate(eq: UnivariateEquation, x, prec: int = DEFAULT_PREC) -> mpc:
    """Horner evaluation of the plain coefficients at a numeric point."""
    with mp.workprec(prec):
        z = to_mpc(x, prec) if is_exact(x) else mpc(x)
        acc = mpc(0)
        for b in eq.plain:
            acc = acc * z + to_mpc(b, prec)
        return acc


@dataclass(frozen=True)
class BinaryForm:
    """Homogeneous F(x, y) = sum C(d,i) * a_i * x^(d-i) * y^i."""

    norm: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "norm", tuple(as_fraction(c) for c in self.norm)
        )
        if len(self.norm) < 2:
            raise DegreeError("binary form needs degree >= 1")

    @property
    def degree(self) -> int:
        return len(self.norm) - 1

    def dehomogenize(self) -> UnivariateEquation:
        if self.norm[0] == 0:
            raise DegreeError("a0 = 0: dehomogenization would drop degree")
        return from_norm_coeffs(self.norm)

    @classmethod
    def from_nary(cls, f: "NAryForm") -> "BinaryForm":
        """The inverse of to_nary, for a form in two variables."""
        d = f.degree
        return cls(tuple(f.coefficient((d - i, i)) / comb(d, i) for i in range(d + 1)))

    def to_nary(self) -> "NAryForm":
        d = self.degree
        terms = {}
        for i, a in enumerate(self.norm):
            if a != 0:
                terms[(d - i, i)] = comb(d, i) * a
        return NAryForm(2, d, terms)

    def reversed(self) -> "BinaryForm":
        """Swap the roles of x and y (coefficient reversal)."""
        return BinaryForm(tuple(reversed(self.norm)))


# ---------------------------------------------------------------------------
# n-ary forms
# ---------------------------------------------------------------------------


class NAryForm:
    """Homogeneous polynomial in n variables as a sparse monomial map."""

    __slots__ = ("nvars", "degree", "terms")

    def __init__(self, nvars: int, degree: int, terms):
        clean = {}
        for mono, c in terms.items():
            if c == 0:
                continue
            if len(mono) != nvars or sum(mono) != degree:
                raise ValueError(f"monomial {mono} not homogeneous of degree {degree}")
            clean[tuple(mono)] = c
        self.nvars = nvars
        self.degree = degree
        self.terms = clean

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), Fraction(0))

    def is_exact(self) -> bool:
        return all(is_exact(c) for c in self.terms.values())

    def derivative(self, i: int) -> "NAryForm":
        if self.degree < 1:
            raise DegreeError("cannot differentiate a constant form")
        terms = {}
        for mono, c in self.terms.items():
            e = mono[i]
            if e == 0:
                continue
            new = list(mono)
            new[i] = e - 1
            terms[tuple(new)] = e * c
        return NAryForm(self.nvars, self.degree - 1, terms)

    def evaluate_exact(self, point):
        acc = Fraction(0)
        for mono, c in self.terms.items():
            t = c
            for x, e in zip(point, mono):
                t = t * x**e
            acc = acc + t
        return acc

    def substitute_linear(self, p) -> "NAryForm":
        """Compose with the change of variables x_i = sum_j p[i][j] * y_j."""
        n = self.nvars
        images = [
            {
                tuple(1 if t == j else 0 for t in range(n)): p[i][j]
                for j in range(n)
                if p[i][j] != 0
            }
            for i in range(n)
        ]
        out = {}
        for mono, c in self.terms.items():
            term = {(0,) * n: Fraction(1)}
            for i, e in enumerate(mono):
                if e:
                    term = poly_mul(term, poly_pow(images[i], e, n))
            out = poly_add(out, poly_scale(c, term))
        return NAryForm(n, self.degree, out)

    def __add__(self, other):
        if self.nvars != other.nvars or self.degree != other.degree:
            raise ValueError("form mismatch")
        return NAryForm(self.nvars, self.degree, poly_add(self.terms, other.terms))

    def __sub__(self, other):
        return self + (-1) * other

    def __rmul__(self, c):
        return NAryForm(self.nvars, self.degree, poly_scale(c, self.terms))

    def __eq__(self, other):
        if not isinstance(other, NAryForm):
            return NotImplemented
        return (
            self.nvars == other.nvars
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, self.degree, frozenset(self.terms.items())))

    def __repr__(self):
        return f"NAryForm({self.nvars}, {self.degree}, {self.terms!r})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for mono in sorted(self.terms, reverse=True):
            c = self.terms[mono]
            factors = []
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            body = "*".join(factors)
            parts.append(f"{c}*{body}" if body else f"{c}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# linear forms and power sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearForm:
    """coeffs[0]*x1 + coeffs[1]*x2 + ..."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    def __len__(self):
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def proportional_to(self, other: "LinearForm") -> bool:
        """Exact cross-product test for proportionality."""
        n = len(self.coeffs)
        return all(
            self.coeffs[i] * other.coeffs[j] == self.coeffs[j] * other.coeffs[i]
            for i in range(n)
            for j in range(i + 1, n)
        )


@dataclass(frozen=True)
class PowerSumDecomposition:
    """f = sum of coefficient * (linear form)^degree."""

    summands: tuple  # of (coefficient, LinearForm)
    degree: int

    def __post_init__(self):
        object.__setattr__(self, "summands", tuple(self.summands))
        for _, form in self.summands:
            if form.is_zero():
                raise ValueError("decomposition contains a zero linear form")

    def nvars(self) -> int:
        return len(self.summands[0][1]) if self.summands else 0

    def is_exact(self) -> bool:
        return all(
            is_exact(c) and all(is_exact(x) for x in form.coeffs)
            for c, form in self.summands
        )

    def canonical(self) -> "PowerSumDecomposition":
        """Normalize each linear form's first nonzero entry to 1.

        The scale factor is absorbed into the summand coefficient (u^d), and
        summands are sorted, so decompositions that differ only by the
        scaling/permutation symmetry compare equal.  Exact data only.
        """
        normalized = []
        for c, form in self.summands:
            u = next(x for x in form.coeffs if x != 0)
            scaled = tuple(x / u for x in form.coeffs)
            normalized.append((c * u**self.degree, LinearForm(scaled)))
        key = lambda item: (
            [(repr(type(x)), str(x)) for x in item[1].coeffs],
            str(item[0]),
        )
        return PowerSumDecomposition(tuple(sorted(normalized, key=key)), self.degree)


def expand(dec: PowerSumDecomposition, n: int) -> NAryForm:
    """Multinomial expansion of a power-sum decomposition into a form."""
    for _, form in dec.summands:
        if len(form) != n:
            raise ValueError(f"linear form {form} does not have {n} coefficients")
    total = {}
    for c, form in dec.summands:
        lin = {
            tuple(1 if t == j else 0 for t in range(n)): x
            for j, x in enumerate(form.coeffs)
            if x != 0
        }
        total = poly_add(total, poly_scale(c, poly_pow(lin, dec.degree, n)))
    return NAryForm(n, dec.degree, total)


def hessian(f: NAryForm):
    """Symmetric matrix of second partials; entries have degree d - 2."""
    if f.degree < 2:
        raise DegreeError("hessian needs degree >= 2")
    n = f.nvars
    firsts = [f.derivative(i) for i in range(n)]
    h = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            entry = firsts[i].derivative(j)
            h[i][j] = entry
            h[j][i] = entry
    return h

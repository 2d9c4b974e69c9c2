"""Exact scalars and their numeric images.

Two exact scalar kinds flow through the library:

  * plain rationals, represented by ``fractions.Fraction`` (always stored in
    lowest terms with positive denominator by the stdlib itself), and
  * elements ``a + b*sqrt(disc)`` of a quadratic extension of Q, represented
    by :class:`QuadExt` with rational ``a``, ``b`` and a rational non-square
    ``disc``.

Arithmetic mixes the two freely; a :class:`QuadExt` whose irrational part
cancels collapses back to a plain ``Fraction``, so downstream code can test
rationality with ``isinstance(x, Fraction)``.  Mixing two *different*
extensions in one expression is a ``TypeError``: a single computation only
ever needs one square root.

Numeric images live in mpmath.  The default working precision is 64 mantissa
bits; every function that produces approximate values accepts a ``prec``
argument to raise it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath import mp, mpc, mpf

#: Default binary precision for numeric evaluation.
DEFAULT_PREC = 64

Exact = "Fraction | QuadExt"  # documentation alias, not a runtime type


def as_fraction(x) -> Fraction:
    """Coerce an int/Fraction/str to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


def clear_denominators(values):
    """Integers over one common denominator, or None for non-rational entries.

    Returns ``(nums, den)`` with ``values[k] == nums[k] / den`` and ``den``
    the lcm of the denominators, when every entry is an int or a Fraction.
    Any other entry (QuadExt, mpc, mpf) gives None, so the caller keeps its
    generic scalar path.
    """
    den = 1
    for x in values:
        if isinstance(x, Fraction):
            q = x.denominator
            if den % q:
                den = math.lcm(den, q)
        elif not isinstance(x, int):
            return None
    return [
        x.numerator * (den // x.denominator) if isinstance(x, Fraction) else x * den
        for x in values
    ], den


def _square_part(n: int) -> int:
    """Largest s with s*s dividing n (trial division, n > 0)."""
    s = 1
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            s *= d
        while n % d == 0:
            # single factor left, move on
            n //= d
            break
        d += 1 if d == 2 else 2
        if d > 100_000:  # give up reducing huge radicands; exactness unharmed
            break
    return s


def _radicand_scale(n: int, m: int) -> Fraction | None:
    """t with sqrt(n) == t * sqrt(m) (principal branches), or None.

    sqrt(n) and sqrt(m) generate the same field iff n*m is a square s^2, and
    then sqrt(n) = (s/|m|) * sqrt(m).  No factoring: radicands the trial
    division of _square_part gave up on still match.
    """
    if n == m:
        return Fraction(1)
    s = math.isqrt(n * m) if n * m > 0 else 0
    return Fraction(s, abs(m)) if s and s * s == n * m else None


def _normalize_radicand(disc: Fraction) -> tuple[int, Fraction]:
    """Rewrite sqrt(p/q) as (scale) * sqrt(n) with n a square-reduced integer.

    Returns ``(n, scale)`` so that sqrt(disc) == scale * sqrt(n).
    """
    if disc == 0:
        raise ValueError("radicand must be nonzero")
    p, q = disc.numerator, disc.denominator
    n = abs(p) * q  # sqrt(p/q) = sqrt(p*q)/q
    s = _square_part(n)
    n //= s * s
    if p < 0:
        n = -n
    return n, Fraction(s, q)


def is_square(x: Fraction) -> bool:
    """True iff the rational x is the square of a rational."""
    x = as_fraction(x)
    if x < 0:
        return False
    return (
        math.isqrt(x.numerator) ** 2 == x.numerator
        and math.isqrt(x.denominator) ** 2 == x.denominator
    )


def rational_sqrt(x: Fraction) -> Fraction:
    """Exact square root of a square rational (caller checks is_square)."""
    x = as_fraction(x)
    return Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))


def exact_sqrt(x):
    """Square root of a rational: a Fraction when possible, else a QuadExt."""
    x = as_fraction(x)
    if x == 0:
        return Fraction(0)
    if is_square(x):
        return rational_sqrt(x)
    return QuadExt(0, 1, x)


def _int_nth_root(n: int, k: int) -> int | None:
    """Exact k-th root of a nonnegative integer, or None.

    Integer Newton iteration from an upper bound; it descends to the floor
    of the real root, so no float ever decides the answer.
    """
    if n < 2:
        return n
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > n^(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x if x**k == n else None
        x = y


def rational_nth_root(x: Fraction, k: int) -> Fraction | None:
    """Exact k-th root of a rational, honoring the real branch for odd k."""
    x = as_fraction(x)
    if x < 0:
        if k % 2 == 0:
            return None
        r = rational_nth_root(-x, k)
        return None if r is None else -r
    pn = _int_nth_root(x.numerator, k)
    pd = _int_nth_root(x.denominator, k)
    if pn is None or pd is None:
        return None
    return Fraction(pn, pd)


class QuadExt:
    """Exact element a + b*sqrt(disc) with a, b rational, disc a non-square.

    The radicand is normalized to a square-reduced integer on construction,
    so values built from different but equivalent radicands (8 vs 2) compare
    equal.  Arithmetic keeps that reduced radicand and collapses to a plain
    Fraction whenever b becomes 0.
    """

    __slots__ = ("a", "b", "disc")

    def __new__(cls, a, b, disc):
        a = as_fraction(a)
        b = as_fraction(b)
        disc = as_fraction(disc)
        if b == 0:
            return a
        if is_square(disc):
            return a + b * rational_sqrt(disc)
        n, scale = _normalize_radicand(disc)
        self = object.__new__(cls)
        self.a = a
        self.b = b * scale
        self.disc = Fraction(n)
        return self

    def _with(self, a: Fraction, b: Fraction):
        """a + b*sqrt(self.disc), without reducing the radicand again."""
        if b == 0:
            return a
        out = object.__new__(QuadExt)
        out.a, out.b, out.disc = a, b, self.disc
        return out

    # -- field arithmetic ------------------------------------------------

    def _match(self, other):
        """Split other into (a, b) parts over this value's radicand."""
        if isinstance(other, QuadExt):
            t = _radicand_scale(other.disc.numerator, self.disc.numerator)
            if t is None:
                raise TypeError(
                    f"cannot mix sqrt({self.disc}) with sqrt({other.disc})"
                )
            return other.a, other.b * t
        if isinstance(other, (int, Fraction)):
            return as_fraction(other), Fraction(0)
        return None

    def __add__(self, other):
        parts = self._match(other)
        if parts is None:
            return NotImplemented
        oa, ob = parts
        return self._with(self.a + oa, self.b + ob)

    __radd__ = __add__

    def __neg__(self):
        return self._with(-self.a, -self.b)

    def __sub__(self, other):
        parts = self._match(other)
        if parts is None:
            return NotImplemented
        oa, ob = parts
        return self._with(self.a - oa, self.b - ob)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        parts = self._match(other)
        if parts is None:
            return NotImplemented
        oa, ob = parts
        return self._with(
            self.a * oa + self.b * ob * self.disc, self.a * ob + self.b * oa
        )

    __rmul__ = __mul__

    def inverse(self):
        norm = self.a * self.a - self.b * self.b * self.disc
        # norm == 0 would force sqrt(disc) rational, excluded by construction
        return self._with(self.a / norm, -self.b / norm)

    def __truediv__(self, other):
        if isinstance(other, QuadExt):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            o = as_fraction(other)
            return self._with(self.a / o, self.b / o)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.inverse() * as_fraction(other)
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise TypeError("exponent must be a nonnegative integer")
        result = Fraction(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def conjugate(self):
        return self._with(self.a, -self.b)

    # -- comparisons and hashing ------------------------------------------

    def __eq__(self, other):
        if isinstance(other, QuadExt):
            t = _radicand_scale(other.disc.numerator, self.disc.numerator)
            return t is not None and self.a == other.a and self.b == other.b * t
        if isinstance(other, (int, Fraction)):
            return False  # b != 0 by construction
        return NotImplemented

    def __hash__(self):
        # b^2 * disc is the same for every radicand of one field
        return hash((self.a, self.b * self.b * self.disc))

    def __repr__(self):
        return f"QuadExt({self.a!r}, {self.b!r}, {self.disc!r})"

    def __str__(self):
        b = self.b
        sign = "-" if b < 0 else "+"
        mag = -b if b < 0 else b
        coeff = "" if mag == 1 else f"{mag}*"
        return f"{self.a} {sign} {coeff}sqrt({self.disc})"


def scalar_str(x) -> str:
    """Render an exact scalar for output (p/q, or a + b*sqrt(d))."""
    if isinstance(x, QuadExt):
        return str(x)
    return str(as_fraction(x))


def is_exact(x) -> bool:
    return isinstance(x, (int, Fraction, QuadExt))


def to_mpc(x, prec: int = DEFAULT_PREC) -> mpc:
    """Numeric image of an exact scalar (or passthrough of a numeric one).

    sqrt uses the principal branch, so negative radicands land on the
    positive imaginary axis.  When a and b*sqrt(disc) have opposite signs
    and would cancel, a + b*sqrt(disc) is taken as its exact norm over its
    conjugate, which does not cancel.
    """
    with mp.workprec(prec):
        if isinstance(x, QuadExt):
            if x.disc > 0 and x.a * x.b < 0:
                conj = x.conjugate()
                return to_mpc(x * conj, prec) / to_mpc(conj, prec)
            root = mp.sqrt(_frac_to_mpf(x.disc))
            return mpc(_frac_to_mpf(x.a)) + _frac_to_mpf(x.b) * root
        if isinstance(x, (int, Fraction)):
            x = as_fraction(x)
            return mpc(mpf(x.numerator) / mpf(x.denominator))
        return mpc(x)


def _frac_to_mpf(x: Fraction) -> mpf:
    return mpf(x.numerator) / mpf(x.denominator)


def nth_root(z, k: int, prec: int = DEFAULT_PREC) -> mpc:
    """Principal k-th root, except the real branch for negative reals, odd k.

    The principal branch keeps the argument in (-pi/k, pi/k]; the real
    branch tweak makes roots of negative rationals come out real, so e.g.
    the cube root of -8 is -2 rather than 1 + sqrt(3)i.
    """
    with mp.workprec(prec):
        z = to_mpc(z, prec)
        if z == 0:
            return mpc(0)
        if z.imag == 0 and z.real < 0 and k % 2 == 1:
            return mpc(-mp.root(-z.real, k))
        return mpc(mp.root(z, k))


def unit_root(d: int, i: int, prec: int = DEFAULT_PREC) -> mpc:
    """exp(2*pi*i*I/d)."""
    with mp.workprec(prec):
        if i % d == 0:
            return mpc(1)
        return mp.expjpi(mpf(2 * (i % d)) / d)

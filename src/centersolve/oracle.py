"""Independent numeric verification: root finding without radicals.

An exact square-free split, then a simultaneous Aberth-Ehrlich iteration in
two phases on each factor, ended by a proof.  It reads only the
coefficients, never the radical formulas it is used to check.

0. Square-free split.  The rational coefficients are cleared to a primitive
   integer polynomial f, and Yun's algorithm (SYMSAC 1976), on gcds from a
   primitive pseudo-remainder sequence, writes f = c * prod g_m^m with the
   g_m square-free and coprime.  A root of g_m is simple there, so Aberth
   converges quadratically, and its multiplicity in f is exactly m.
1. Float phase.  Seeds on the circles of the Newton polygon of the integer
   coefficients are iterated in hardware ``complex`` on the monic
   coefficients, each root until |p(z)| is under the double-precision
   rounding floor, the phase until every root is there or the steps stall.
   When a monic coefficient or an iterate is not a finite double (inputs
   beyond ~1e308) or two results coincide, the seeds themselves go on.
   Roots on a small circle far from 0 are found in the frame of their
   centroid (the exact Taylor shift that depresses the polynomial), since
   Horner in doubles on the plain coefficients cancels their accuracy away.
2. Decimal ladder.  The same update in stdlib ``decimal`` (libmpdec), on
   pairs of Decimals, on the factor itself, at 48, 144, 432, ... digits.
   Iterates whose largest relative step s has s^3 < tol are offered to an
   inclusion certificate (Braess and Hadeler, Numer. Math. 21, 1973): a
   disk about each iterate, of radius at most tol/4, the disks pairwise
   disjoint, so each holds exactly one root.  The first round that
   certifies ends the factor.  A level's rounds end once every root is at
   the level's rounding floor, s is below eps^(1/3), or the steps stall;
   a level that does not certify hands its iterates to the next (Bini and
   Fiorentino, Numer. Algorithms 23, 2000: pay for digits only where the
   proof needs them), up to a last level worked out from
   root-separation bounds, where a factor that does not certify has not
   converged.  Decimal contexts are per-thread, so mpmath's precision is
   left alone.  Factors whose disks are not proved disjoint from each
   other's climb again with a tolerance below their gap.  Only the values
   returned are built as mpmath numbers.

Rational roots (``rational_roots``) share the square-free split and have no
numeric phase: the rational roots of each factor are the integer roots of a
monic integer polynomial over its leading coefficient, found mod a small
prime and lifted p-adically by Newton steps until the modulus exceeds
twice Fujiwara's root bound (Loos, SIAM J. Comput. 12, 1983; von zur Gathen
and Gerhard, Modern Computer Algebra, ch. 15).  Each is kept only if it is
an exact root, so no float, precision or tolerance decides the answer.

Two root multisets are compared (``compare_root_sets``) on the exact
squared distances of their values, all aligned at one binary exponent.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from decimal import (
    MAX_EMAX,
    MIN_EMIN,
    ROUND_DOWN,
    ROUND_UP,
    Context,
    Decimal,
    localcontext,
)
from fractions import Fraction
from functools import cached_property
from itertools import combinations, zip_longest
from typing import NamedTuple

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_man_exp, from_rational, round_nearest

from .errors import NonConvergenceError
from .forms import (
    NAryForm,
    PowerSumDecomposition,
    UnivariateEquation,
    expand,
)
from .scalars import DEFAULT_PREC, as_fraction, clear_denominators, is_exact, to_mpc

#: Fixed irrational angular offset for the seed circles (radians).
_ANGLE_OFFSET = 0.7071067811865476

#: Rounds without progress that end the float phase and a decimal level.
_STALL = 8

#: Digits of the first decimal level; each level has three times as many.
_LADDER_START = 48

#: Aberth rounds a factor may take over all its decimal levels.
_MAX_ROUNDS = 500

_LOG2_10 = math.log2(10)


class OracleRoot(NamedTuple):
    value: mpc
    multiplicity: int
    radius: float  # the disk of this radius about value holds exactly this root


@dataclass
class OracleRootSet:
    roots: list  # of OracleRoot, multiplicities summing to the degree
    iterations: int  # Aberth rounds at every decimal level, over all factors
    converged: bool
    equation: UnivariateEquation  # the input
    digits: list  # the certifying decimal level of each square-free factor
    prec: int  # bits of the values: the final precision

    @cached_property
    def max_residual(self) -> float:
        """Scaled residual max |f(z)| / sum |b_i| |z|^(d-i) against the
        input at ``prec``, computed on first read (``_scaled_residual``)."""
        return _scaled_residual(self.equation.plain, self.roots, self.prec)

    def values_with_multiplicity(self):
        out = []
        for r in self.roots:
            out.extend([r.value] * r.multiplicity)
        return out


def _horner(coeffs, z):
    """p(z); stays in mpf for real coefficients at a real point."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * z + c
    return acc


def _scaled_residual(plain, roots, prec) -> float:
    """max |f(z)| / H(|z|) over the roots z, H the Horner bound
    sum |b_i| |z|^(d-i); 0 where H is 0, since f(z) is then exactly 0."""
    with mp.workprec(prec):
        b = [to_mpc(c, prec) for c in plain]
        abs_b = [abs(c) for c in b]
        worst = mpf(0)
        for r in roots:
            bound = _horner(abs_b, abs(r.value))
            if bound:
                worst = max(worst, abs(_horner(b, r.value)) / bound)
        return float(worst)


def _start_circle(coeffs) -> list:
    """Seeds on the circles of the Newton polygon (Bini, Numer. Algorithms
    13, 1996), as pairs (u, e) for the seed u * 2^e: u a complex float, e
    an int, so their exponents have no bound.

    Each edge (k1, k2) of the upper convex hull of the points
    (k, log2 |a_k|), a_k the integer coefficient of x^k, gets m = k2 - k1
    seeds on the circle of radius (|a_k1| / |a_k2|)^(1/m), about where m
    roots lie.  A zero root (a_0 = 0) gets its seed inside the smallest
    circle.  The logs are floats (math.log2 takes any int).
    """
    n = len(coeffs) - 1
    hull = []
    for k, c in enumerate(reversed(coeffs)):
        if c:
            point = (k, math.log2(abs(c)))
            while len(hull) > 1 and _turn(hull[-2], hull[-1], point) >= 0:
                hull.pop()
            hull.append(point)
    circles = [
        (k2 - k1, (y1 - y2) / (k2 - k1)) for (k1, y1), (k2, y2) in zip(hull, hull[1:])
    ]
    zero_seeds = hull[0][0]
    if zero_seeds:
        circles.insert(0, (zero_seeds, min((y for _, y in circles), default=0.0) - 1))
    seeds = []
    for m, log_radius in circles:
        e = math.floor(log_radius)
        radius = 2.0 ** (log_radius - e)
        for j in range(m):
            bump = 1 + len(seeds) / (997 * n)
            u = radius * cmath.rect(bump, 2 * math.pi * j / m + _ANGLE_OFFSET)
            seeds.append((u, e))
    return seeds


def _turn(a, b, c) -> float:
    """Cross product of b - a and c - a: positive for a left turn."""
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _float_aberth(coeffs, z):
    """Aberth-Ehrlich in hardware complex from the guesses z, or None.

    ``coeffs`` are the monic coefficients.  A root stops moving once |p(z)|
    is under the double-precision rounding floor.  The phase ends when every
    root has, or when the steps stall: _STALL rounds in a row without
    the summed log2 of |p(z)| / floor over the moving roots falling by a
    bit.  None when a coefficient or an iterate is not a finite double, or
    two results coincide.
    """
    d = len(coeffs) - 1
    if not all(cmath.isfinite(c) for c in coeffs + z):
        return None
    abs_c = [abs(c) for c in coeffs]
    floor_scale = 8 * d * 2.0**-53
    active = list(range(d))
    best, stalled = math.inf, 0
    while active and stalled < _STALL:
        moving = []
        excess = 0.0
        for k in active:
            zk = z[k]
            p = dp = 0j
            for c in coeffs:
                dp = dp * zk + p
                p = p * zk + c
            r = abs(zk)
            floor = 0.0
            for c in abs_c:
                floor = floor * r + c
            floor *= floor_scale
            if abs(p) <= floor:
                continue
            moving.append(k)
            try:
                excess += math.log2(abs(p) / floor)
                w = p / dp
                s = sum(1 / (zk - zj) for j, zj in enumerate(z) if j != k)
                z[k] = zk - w / (1 - w * s)
            except ZeroDivisionError:
                return None
            if not cmath.isfinite(z[k]):
                return None
        active = moving
        if excess < best - 1:
            best, stalled = excess, 0
        else:
            stalled += 1
    if len(set(z)) < d:
        return None
    return z


def numeric_roots(
    eq: UnivariateEquation,
    tol: float = 1e-12,
    prec: int = DEFAULT_PREC,
) -> OracleRootSet:
    """All complex roots of a rational equation by Aberth-Ehrlich iteration,
    each proved to lie within its ``radius`` <= tol/4 of its value, the
    disks of all roots pairwise disjoint.

    Each square-free factor climbs the decimal ladder until its iterates
    certify, in at most ``_MAX_ROUNDS`` rounds and up to the digits where
    converged iterates must certify; ``iterations`` sums the rounds.  A
    factor whose disks are not proved disjoint from another factor's runs
    again (``_separate``).  The values carry at least ``prec`` bits, more
    when a last level has more digits; ``max_residual`` is measured against
    the input at that precision when it is first read.  ``tol`` is a float
    or a Decimal, for a tolerance below the float range.

    The roots are ordered by their real parts to 9 digits of the largest
    modulus, then by the imaginary part where its sign is proved (the disk
    misses the real axis; 0 where it may be real), then by the real part,
    so rounding noise in a part that may be zero never decides the order,
    and the order is the same at every precision.
    """
    d = eq.degree
    if d < 1:
        raise NonConvergenceError("degree must be >= 1")
    if not tol > 0:
        raise ValueError("tol must be positive")
    factors = _squarefree(clear_denominators(eq.plain)[0])
    runs = [_aberth(g, tol) for g, _ in factors]
    iterations = _separate(factors, runs, tol)
    digits = [run[4] for run in runs]
    bits = max(prec, *(math.ceil(level * _LOG2_10) for level in digits))
    found = [
        (x, y, radius, m)
        for (zr, zi, radii, _, _), (_, m) in zip(runs, factors)
        for x, y, radius in zip(zr, zi, radii or [math.inf] * len(zr))
    ]
    found.sort(key=_root_order(found))
    with mp.workprec(bits):
        roots = [
            OracleRoot(mp.make_mpc((_to_mpf(x)._mpf_, _to_mpf(y)._mpf_)), m, radius)
            for x, y, radius, m in found
        ]
    iterations += sum(run[3] for run in runs)
    converged = all(run[2] is not None for run in runs)
    if not converged:
        raise NonConvergenceError(
            f"no convergence after {iterations} iterations"
            f" (residual {_scaled_residual(eq.plain, roots, bits):.3g})"
        )
    return OracleRootSet(roots, iterations, converged, eq, digits, bits)


def _root_order(found):
    """The sort key of ``numeric_roots`` on (x, y, radius, m), z = x + i y
    a pair of Decimals, computed in 16 digits."""
    ctx = Context(16, Emax=MAX_EMAX, Emin=MIN_EMIN)
    top = max([Decimal(1)] + [ctx.sqrt(ctx.fma(x, x, ctx.multiply(y, y))) for x, y, _, _ in found])

    def key(root):
        x, y, radius, _ = root
        return round(float(ctx.divide(x, top)), 9), y if abs(y) > radius else 0, x

    return key


def _separate(factors, runs, tol) -> int:
    """Run again every factor with a disk not proved disjoint from a disk of
    another factor, until no such disk is left; the rounds of the runs
    replaced.

    Disks of radius <= t/4 about distinct roots d apart overlap only when
    d <= t (each holds its root), and two such disks that overlap are at
    most t/2 apart.  So the factor with the larger tolerance of an
    overlapping pair, and the other one when that lowers its own, runs
    again with a tolerance below the measured gap, at most a quarter of the
    larger one; the loop ends once the tolerances are below the distances
    between the roots of different factors, which are distinct.  Nothing
    is checked once a factor has not certified: the oracle has not
    converged.
    """
    tols = [tol] * len(runs)
    spent = 0
    while all(run[2] is not None for run in runs):
        lower = {}
        for i, j in combinations(range(len(runs)), 2):
            t = _overlap_tol(runs[i], runs[j])
            for k in (i, j) if t is not None else ():
                if t < tols[k]:
                    lower[k] = min(t, lower.get(k, t))
        if not lower:
            break
        for k, t in lower.items():
            tols[k] = t
            spent += runs[k][3]
            runs[k] = _aberth(factors[k][0], t)
    return spent


def _overlap_tol(a, b):
    """A tolerance that separates the certified disks of two factors' runs
    a and b, or None when every disk of a is proved disjoint from every disk
    of b: for the closest overlapping pair, half the distance of its
    centres, or a quarter of the sum of its radii where the centres agree to
    every digit.  Differences are rounded toward zero, the radii's sum up.
    """
    up = Context(16, rounding=ROUND_UP, Emax=MAX_EMAX, Emin=MIN_EMIN)
    down = Context(16, rounding=ROUND_DOWN, Emax=MAX_EMAX, Emin=MIN_EMIN)
    found = None
    for xr, xi, r in zip(*a[:3]):
        for yr, yi, s in zip(*b[:3]):
            reach = up.add(Decimal(r), Decimal(s))
            dr, di = down.subtract(xr, yr), down.subtract(xi, yi)
            if abs(dr) > reach or abs(di) > reach:
                continue
            gap = down.fma(dr, dr, down.multiply(di, di))
            if gap > up.multiply(reach, reach):
                continue
            t = down.divide(gap.sqrt(down), 2) if gap else down.divide(reach, 4)
            found = t if found is None else min(found, t)
    return found


def _aberth(coeffs, tol):
    """(zr, zi, radii, rounds, digits) of one integer polynomial: its
    iterates as pairs of Decimals, their inclusion radii as floats (None
    without a certificate), the Aberth rounds and the digits of the last
    decimal level.

    The float phase runs in the frame of ``_frame``, on the monic
    coefficients, each the quotient of two integers rounded once; its
    results, or the frame's circle when a quotient or a seed overflows or
    the phase returns None, plus the frame's shift seed the decimal ladder,
    which runs on the polynomial itself.
    """
    shift, frame = _frame(coeffs)
    circle = _start_circle(frame)
    try:
        monic = [c / frame[0] for c in frame]
        z = [complex(math.ldexp(u.real, e), math.ldexp(u.imag, e)) for u, e in circle]
    except OverflowError:
        seeds = None
    else:
        seeds = _float_aberth(monic, z)
    with localcontext(Context(_LADDER_START, Emax=MAX_EMAX, Emin=MIN_EMIN)):
        offset = Decimal(shift.numerator) / shift.denominator
        if seeds is None:
            zr = [_to_decimal(u.real, e) + offset for u, e in circle]
            zi = [_to_decimal(u.imag, e) for u, e in circle]
        else:
            zr = [Decimal(zk.real) + offset for zk in seeds]
            zi = [+Decimal(zk.imag) for zk in seeds]
        return _decimal_ladder(coeffs, zr, zi, tol)


def _frame(g):
    """(c, k): the frame of the float phase for the integer polynomial g.

    Horner in doubles on g cancels away the accuracy of roots that lie on a
    small circle far from 0 (a sum of two powers of nearby linear forms),
    so such roots are found about their centroid c = -g_1 / (n g_0), as
    those of the exact Taylor shift k(y) = q^n g(y + c), c = p/q in lowest
    terms, an integer polynomial.  That frame is taken when the roots'
    geometric-mean distance from c, |k_n / k_0|^(1/n), is below |c|/2, in
    integers: 2^n |k_n| < |g_0| |p|^n.  Otherwise (0, g).
    """
    if not g[1]:
        return Fraction(0), g
    n = len(g) - 1
    c = Fraction(-g[1], n * g[0])
    p, q = c.numerator, c.denominator
    k, qi = [g[0]], 1
    for gi in g[1:]:
        k = [q * a + p * b for a, b in zip(k + [0], [0] + k)]  # k * (q y + p)
        qi *= q
        k[-1] += gi * qi
    if 2**n * abs(k[-1]) < abs(g[0] * p**n):
        return c, k
    return Fraction(0), g


# ---------------------------------------------------------------------------
# decimal ladder (stdlib decimal, complex numbers as pairs of Decimals)
# ---------------------------------------------------------------------------


def _to_decimal(x: float, e: int) -> Decimal:
    """x * 2^e, rounded once to the current decimal context.

    x is n / 2^k, so x * 2^e is (n * 5^(k-e)) * 10^(e-k) for e < k, and
    scaleb rounds the exact product once.
    """
    n, q = x.as_integer_ratio()
    e -= q.bit_length() - 1
    if e < 0:
        n *= 5**-e
    else:
        n, e = n << e, 0
    return Decimal(n).scaleb(e)


def _to_mpf(x: Decimal):
    """A Decimal, rounded once to mpmath's current precision."""
    return mp.make_mpf(from_rational(*x.as_integer_ratio(), mp.prec, round_nearest))


def _decimal_ladder(coeffs, zr, zi, tol):
    """(zr, zi, radii, rounds, digits): Aberth-Ehrlich on the decimal ladder
    from z = zr + i zi until the iterates certify.

    After every round whose largest relative step s has s^3 < tol (iterates
    that may already be within tol), ``_inclusion_radii`` judges the
    iterates, and the first verdict that certifies ends the factor.  A
    level's rounds stop once every root is quiet or s^3 < eps (the level's
    rounding would cut off the next step's cubic convergence), or after
    _STALL rounds in a row without the summed excess of |p(z)| over the
    floor falling by a decade; iterates not judged yet are judged then.
    A level that does not certify hands them to one with three times the
    digits, up to ``_digit_limit``; that last level has no stall rule, and
    its verdict is final.  The levels share ``_MAX_ROUNDS`` rounds.
    """
    rounds, digits = 0, _LADDER_START
    limit = _digit_limit(coeffs, tol)
    with localcontext(Context(digits, Emax=MAX_EMAX, Emin=MIN_EMIN)) as ctx:
        while True:
            ctx.prec = digits
            b = [+Decimal(c) for c in coeffs]
            abs_b = [abs(c) for c in b]
            eps = Decimal(1).scaleb(1 - digits)
            best, stalled, tried = math.inf, 0, False
            while rounds < _MAX_ROUNDS and (stalled < _STALL or digits >= limit):
                rounds += 1
                max_step, excess = _decimal_round(b, abs_b, zr, zi, eps)
                cube = max_step**3
                tried = cube < tol
                if tried:
                    radii = _inclusion_radii(coeffs[0], b, abs_b, zr, zi, eps, tol)
                    if radii is not None:
                        return zr, zi, radii, rounds, digits
                if cube < eps:
                    break
                if excess < best - 1:
                    best, stalled = excess, 0
                else:
                    stalled += 1
            if not tried:
                radii = _inclusion_radii(coeffs[0], b, abs_b, zr, zi, eps, tol)
            if radii is not None or rounds >= _MAX_ROUNDS or digits >= limit:
                return zr, zi, radii, rounds, digits
            digits = min(3 * digits, limit)


def _digit_limit(coeffs, tol) -> int:
    """The last level's digits: enough for converged iterates of the integer
    polynomial g (degree n, L = log2 ||g||_2 >= log2 of its Mahler measure
    M) to certify, so a level this fine that does not certify has not
    converged.

    Disc(g) is a nonzero integer, so at each root a, |g'(a)| >=
    (n-1)^(-(n-1)/2) M^(2-n) (Hadamard on the Vandermonde of the other
    roots), and the roots are sep >= sqrt(3) n^(-(n+2)/2) M^(1-n) apart
    (Mahler, Michigan Math. J. 11, 1964).  Iterates within sep/4 of the
    roots at the rounding floor 8 n eps H(|z|), H(|z|) <= ||g||_1 M^n, have
    radii at most 2^(n+3) n^2 eps H / |g'(a)|; the limit makes that at
    most min(tol, sep) / 4, one digit to spare for the rounding to binary.
    """
    n = len(coeffs) - 1
    norm = math.log2(sum(c * c for c in coeffs)) / 2
    sep = (n + 2) / 2 * math.log2(n) + (n - 1) * norm
    bits = max(float(-Decimal(tol).log10()) * _LOG2_10, sep) + (2 * n - 1) * norm
    bits += n + 6 + (n + 4) / 2 * math.log2(n + 1)
    return max(_LADDER_START, math.ceil(bits / _LOG2_10) + 1)


def _decimal_round(b, abs_b, zr, zi, eps):
    """One Aberth-Ehrlich round in place on z = zr + i zi; (max step, excess).

    A root is quiet once |p(z)| <= 8 d eps H(|z|), H the Horner sum of the |b_i|
    (a bound, so 16 digits); p' comes from the partial sums of p, if not quiet.
    The max step is 0 when every root is quiet; ``excess`` sums the decimal
    exponent of |p(z)|^2 over the floor's square for the others.
    """
    d = len(b) - 1
    low = Context(16, Emax=MAX_EMAX, Emin=MIN_EMIN)
    floor_scale = 8 * d * eps
    zero = Decimal(0)
    max_step = zero
    excess = 0
    for k in range(d):
        xr, xi = zr[k], zi[k]
        pr = pi = zero
        partial = []
        for c in b:
            partial.append((pr, pi))
            pr, pi = pr * xr - pi * xi + c, pr * xi + pi * xr
        r = low.sqrt(low.fma(xr, xr, low.multiply(xi, xi)))
        floor = zero
        for c in abs_b:
            floor = low.fma(floor, r, c)
        floor *= floor_scale
        size, limit = pr * pr + pi * pi, floor * floor
        if size <= limit:
            continue  # quiet: at the rounding floor of this level
        excess += size.adjusted() - limit.adjusted()
        dr = di = zero
        for qr, qi in partial:
            dr, di = dr * xr - di * xi + qr, dr * xi + di * xr + qi
        m = dr * dr + di * di
        if m:
            wr, wi = (pr * dr + pi * di) / m, (pi * dr - pr * di) / m
        else:
            wr, wi = pr, pi
        sr = si = zero
        for j in range(d):
            if j == k:
                continue
            ar, ai = xr - zr[j], xi - zi[j]
            m = ar * ar + ai * ai
            if not m:
                ar, ai, m = eps, zero, eps * eps
            sr += ar / m
            si -= ai / m
        er, ei = 1 - (wr * sr - wi * si), -(wr * si + wi * sr)
        m = er * er + ei * ei
        if m:
            hr, hi = (wr * er + wi * ei) / m, (wi * er - wr * ei) / m
        else:
            hr, hi = wr, wi
        xr, xi = xr - hr, xi - hi
        zr[k], zi[k] = xr, xi
        rel = (hr * hr + hi * hi).sqrt() / (1 + (xr * xr + xi * xi).sqrt())
        if rel > max_step:
            max_step = rel
    return max_step, excess


def _inclusion_radii(lead, b, abs_b, zr, zi, eps, tol):
    """Inclusion radii (floats, rounded up) of the iterates z = zr + i zi of
    the integer polynomial g with leading coefficient ``lead``, or None
    unless each is at most tol/4 and the disks are pairwise disjoint.

    r_k = n (|g(z_k)| + E_k) / (|lead| prod_{j != k} |z_k - z_j|): the
    disks D(z_k, r_k) cover the roots of g, and a disk disjoint from the
    others holds exactly one (Braess and Hadeler).  E_k = 8 n eps H(|z_k|)
    bounds the rounding of g(z_k) at the level, where b is g rounded once.
    In 16 digits, numerators are rounded up and denominators down, each
    difference z_k - z_j toward zero; Decimal's sqrt rounds to nearest, so
    its result is moved one unit outward.  Each radius also covers the
    rounding of z_k to a binary value of at least digits * log2(10) bits,
    at most |z_k| 10^-digits.  2 r_k below the distance from z_k to every
    other iterate makes the disks disjoint.
    """
    n = len(b) - 1
    up = Context(16, rounding=ROUND_UP, Emax=MAX_EMAX, Emin=MIN_EMIN)
    down = Context(16, rounding=ROUND_DOWN, Emax=MAX_EMAX, Emin=MIN_EMIN)
    lead = down.abs(Decimal(lead))
    floor_scale = 8 * n * eps
    ulp = eps / 10
    zero = Decimal(0)
    radii = []
    for k in range(n):
        xr, xi = zr[k], zi[k]
        pr = pi = zero
        for c in b:
            pr, pi = pr * xr - pi * xi + c, pr * xi + pi * xr
        r = up.next_plus(up.sqrt(up.fma(xr, xr, up.multiply(xi, xi))))
        h = zero
        for c in abs_b:
            h = up.fma(h, r, c)
        size = up.next_plus(up.sqrt(up.fma(pr, pr, up.multiply(pi, pi))))
        num = up.multiply(n, up.fma(h, floor_scale, size))
        prod, near = Decimal(1), None
        for j in range(n):
            if j != k:
                dr, di = down.subtract(xr, zr[j]), down.subtract(xi, zi[j])
                gap = down.fma(dr, dr, down.multiply(di, di))
                prod = down.multiply(prod, gap)
                near = gap if near is None or gap < near else near
        if not prod:
            return None
        den = down.multiply(lead, down.next_minus(down.sqrt(prod)))
        radius = up.fma(r, ulp, up.divide(num, den))
        if up.multiply(4, radius) > Decimal(tol):
            return None
        if near is not None and up.multiply(2, radius) >= down.next_minus(down.sqrt(near)):
            return None
        radii.append(math.nextafter(float(radius), math.inf))
    return radii


# ---------------------------------------------------------------------------
# exact square-free split (integer coefficients, highest degree first)
# ---------------------------------------------------------------------------


def _strip(f):
    """f without its leading zeros ([] for the zero polynomial)."""
    return f[next((k for k, c in enumerate(f) if c), len(f)):]


def _primitive(f):
    """f over its content, with a positive leading coefficient."""
    f = _strip(f)
    g = math.gcd(*f) if f and f[0] > 0 else -math.gcd(*f)
    return [c // g for c in f]


def _derivative(f):
    n = len(f) - 1
    return [(n - i) * c for i, c in enumerate(f[:-1])]


def _prem(a, b):
    """Primitive part of the pseudo-remainder of a by b."""
    while len(a) >= len(b):
        a = [b[0] * x - a[0] * y for x, y in zip_longest(a[1:], b[1:], fillvalue=0)]
    return _primitive(a)


def _gcd(a, b):
    """gcd of a and b (deg a > deg b) by a primitive pseudo-remainder sequence."""
    while b:
        a, b = b, _prem(a, b)
    return _primitive(a)


def _quotient(a, b):
    """a / b for integer polynomials where the primitive b divides a."""
    q = []
    while len(a) >= len(b):
        q.append(a[0] // b[0])
        a = [x - q[-1] * y for x, y in zip_longest(a[1:], b[1:], fillvalue=0)]
    return q


def _squarefree(f):
    """[(g_m, m), ...], nonconstant primitive g_m: f = c * prod g_m^m (Yun)."""
    f = _primitive(f)
    df = _derivative(f)
    a = _gcd(f, df)
    b, c = _quotient(f, a), _quotient(df, a)
    factors, m = [], 1
    while len(b) > 1:
        db = _derivative(b)
        d = _strip([x - y for x, y in zip([0] * (len(db) - len(c)) + c, db)])
        a = _gcd(b, d)
        if len(a) > 1:
            factors.append((a, m))
        b, c = _quotient(b, a), _quotient(d, a)
        m += 1
    return factors


# ---------------------------------------------------------------------------
# multiset comparison
# ---------------------------------------------------------------------------


@dataclass
class MatchReport:
    passed: bool
    structural_ok: bool  # False on cardinality mismatch
    max_distance: float  # an mpf beyond the double range
    worst_index: int | None
    pairs: list  # of (value_a, value_b, distance)


def _expanded_values(obj) -> list:
    """(value, inclusion radius) per root with multiplicity: an mpc value
    as it is (not rounded to mpmath's precision), and an ``OracleRoot``'s
    radius, 0 for any other value."""
    out = []
    for r in getattr(obj, "roots", obj):
        value = getattr(r, "value", r)
        if not isinstance(value, mpc):
            value = mpc(value)
        out.extend([(value, getattr(r, "radius", 0.0))] * getattr(r, "multiplicity", 1))
    return out


def compare_root_sets(a, b, tol: float = 1e-9) -> MatchReport:
    """Match two root multisets greedily and report the worst pair distance.

    A cardinality mismatch is a structural failure, reported rather than
    raised.  The values are read once, as the binary mantissas and
    exponents of their parts, and aligned at the lowest exponent of both
    sets, so every squared distance is an exact integer: no value overflows
    or reads 0 beside a much larger one, and no mpmath arithmetic is done.
    The greedy nearest-neighbor matching on those squared distances is
    followed by a swap refinement pass so near-ties cannot manufacture a
    spurious failure.  Each matched pair's distance is its exact one,
    rounded once to a float (to an mpf of 53 bits beyond the double range),
    so two values that agree far below 2^-53 of their moduli still show
    their distance.  A pair passes when its distance plus the inclusion
    radii of its values (an ``OracleRoot``'s; 0 for any other value) is at
    most ``tol`` plus 2^-52 (|x| + |y|), twice what rounding both values to
    doubles can hide: a root of modulus 1e13 printed at 64 bits is about
    1e-6 from the true root, never within an absolute 1e-9, and passes as
    its double does; inside the unit circle the allowance is under 5e-16.
    That inequality is decided exactly (``_measure``).
    """
    va = _expanded_values(a)
    vb = _expanded_values(b)
    if len(va) != len(vb):
        return MatchReport(
            passed=False,
            structural_ok=False,
            max_distance=float("inf"),
            worst_index=None,
            pairs=[],
        )
    parts = [part for x, _ in va + vb for part in x._mpc_]
    if any(not man and exp for _, man, exp, _ in parts):
        raise ValueError("root values must be finite")
    low = min((exp for _, man, exp, _ in parts if man), default=0)
    ia, ib = ([_aligned(x._mpc_, low) for x, _ in v] for v in (va, vb))
    dist = [[(xr - yr) ** 2 + (xi - yi) ** 2 for yr, yi in ib] for xr, xi in ia]
    n = len(va)
    used = [False] * n
    match = [0] * n
    for i in range(n):
        best = None
        for j in range(n):
            if not used[j] and (best is None or dist[i][j] < dist[i][best]):
                best = j
        match[i] = best
        used[best] = True
    improved = True
    while improved:  # pairwise swap refinement of the bottleneck distance
        improved = False
        for i in range(n):
            for j in range(i + 1, n):
                mi, mj = match[i], match[j]
                if max(dist[i][mj], dist[j][mi]) < max(dist[i][mi], dist[j][mj]):
                    match[i], match[j] = mj, mi
                    improved = True
    m, k = _dyadic(tol)
    pairs, passed = [], True
    for i, j in enumerate(match):
        (x, rx), (y, ry) = va[i], vb[j]
        (xr, xi), (yr, yi) = ia[i], ib[j]
        fixed = [_dyadic(rx), _dyadic(ry), (-m, k)]
        distance, ok = _measure(dist[i][j], xr * xr + xi * xi, yr * yr + yi * yi, low, fixed)
        pairs.append((x, y, distance))
        passed = passed and ok
    max_distance = max((p[2] for p in pairs), default=0.0)
    worst_index = max(range(n), key=lambda i: pairs[i][2]) if n else None
    return MatchReport(
        passed=passed,
        structural_ok=True,
        max_distance=max_distance,
        worst_index=worst_index,
        pairs=pairs,
    )


def _aligned(z, low):
    """The parts of an mpc ``_mpc_`` z as integers in units of 2^low."""
    return tuple((-man if sign else man) << (exp - low) if man else 0 for sign, man, exp, _ in z)


def _measure(s, nx, ny, low, fixed):
    """(distance, passed) of a pair of values x, y whose parts are integers
    in units of 2^low: s = |x - y|^2, nx = |x|^2 and ny = |y|^2 exactly, in
    units of 4^low; ``fixed`` is the radii of the pair minus the tolerance,
    as terms m 2^k.

    The distance is sqrt(s) 2^low rounded once (from an integer root of 57
    bits and a sticky bit).  The pair passes when
    sqrt(s) 2^low + radii - tol <= 2^(low-52) (|x| + |y|); radii and tol are
    floats, so dyadic, and only the three roots are not integers.  Each is
    bracketed by integer square roots, with more bits (``_GUARD_STEPS``)
    until the brackets decide.  A pair they leave undecided (one on the
    boundary itself, with an irrational root) fails: rounding can only fail
    a pair, never pass one.
    """
    start = 57 - s.bit_length() // 2
    distance = None
    for g in (start + extra for extra in _GUARD_STEPS):
        (d, d_exact), (rx, x_exact), (ry, y_exact) = (_isqrt(v, g) for v in (s, nx, ny))
        e = low - g
        if distance is None:
            try:
                distance = math.ldexp(2 * d + (not d_exact), e - 1)
            except OverflowError:
                distance = mp.make_mpf(from_man_exp(2 * d + (not d_exact), e - 1, 53, round_nearest))
        if _dyadic_sum(fixed + [(d + (not d_exact), e), (-rx - ry, e - 52)]) <= 0:
            return distance, True
        ceil = rx + ry + (not x_exact) + (not y_exact)
        if _dyadic_sum(fixed + [(d, e), (-ceil, e - 52)]) > 0:
            return distance, False
    return distance, False


#: Bits added to the square roots' brackets, one step per undecided verdict.
_GUARD_STEPS = (0, 64, 512, 4096, 1 << 15)


def _isqrt(n, g):
    """(floor(sqrt(n 4^g)), whether sqrt(n 4^g) is that integer), g of
    either sign: floor(sqrt(floor(n / 4^k))) = floor(sqrt(n) / 2^k)."""
    r = math.isqrt(n << 2 * g if g >= 0 else n >> -2 * g)
    return r, (r * r << 2 * max(-g, 0)) == n << 2 * max(g, 0)


def _dyadic(x: float):
    """x as (m, k), x = m 2^k."""
    n, q = x.as_integer_ratio()
    return n, 1 - q.bit_length()


def _dyadic_sum(terms) -> int:
    """The sum of the terms m 2^k, in units of the lowest 2^k (its sign)."""
    low = min(k for _, k in terms)
    return sum(m << (k - low) for m, k in terms)


def check_decomposition(
    f: NAryForm, dec: PowerSumDecomposition, tol: float = 1e-9
) -> bool:
    """Does the decomposition expand back to f (exactly, or within tol)?"""
    if f.nvars != dec.nvars() or f.degree != dec.degree:
        return False
    g = expand(dec, f.nvars)
    if f.is_exact() and dec.is_exact():
        return g == f
    scale = max(
        (abs(to_mpc(c)) if is_exact(c) else abs(mpc(c)) for c in f.terms.values()),
        default=mpf(1),
    )
    scale = max(scale, mpf(1))
    for mono in set(f.terms) | set(g.terms):
        cf = f.terms.get(mono, 0)
        cg = g.terms.get(mono, 0)
        cf = to_mpc(cf) if is_exact(cf) else mpc(cf)
        cg = to_mpc(cg) if is_exact(cg) else mpc(cg)
        if abs(cf - cg) > tol * scale:
            return False
    return True


# ---------------------------------------------------------------------------
# exact rational roots (square-free split + p-adic lifting, in integers)
# ---------------------------------------------------------------------------


def rational_roots(coeffs) -> list:
    """All rational roots of a rational polynomial: [(root, multiplicity)], sorted.

    A root's multiplicity is the index of its square-free factor g.  A root
    u/v of g (primitive, degree n, leading coefficient L) has v | L, so
    y = L * u/v is an integer root of the monic integer polynomial
    h(y) = L^(n-1) g(y/L), whose coefficients are g_i L^(i-1).  Those roots
    are found mod a prime, lifted p-adically (``_integer_roots``) and kept
    only where h(y) == 0 exactly.
    """
    work = [as_fraction(c) for c in coeffs]
    if work[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    found = []
    for g, m in _squarefree(clear_denominators(work)[0]):
        lead = g[0]
        h = [1] + [c * lead ** (i - 1) for i, c in enumerate(g[1:], 1)]
        found += [(Fraction(y, lead), m) for y in _integer_roots(h)]
    return sorted(found)


def _lifting_prime(h):
    """``(p, roots)``: the smallest odd prime p at which every root of h mod p
    is simple, and those roots, by evaluating h at 0..p-1.

    Hensel's lemma needs no more than that; it holds wherever h mod p is
    square-free, so at every odd prime not dividing the discriminant of the
    square-free h.
    """
    p = 3
    while True:
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            hp = [c % p for c in h]
            dp = [c % p for c in _derivative(hp)]
            roots = [a for a in range(p) if _horner(hp, a) % p == 0]
            if all(_horner(dp, a) % p for a in roots):
                return p, roots
        p += 2


def _root_bound(h):
    """A power of two above |y| for every root y of the monic h.

    Fujiwara's bound 2 max |h_i|^(1/i), with |h_i| < 2^bitlen(h_i) in place
    of the i-th root, so no root is taken.
    """
    return 2 << max(-(-abs(c).bit_length() // i) for i, c in enumerate(h[1:], 1))


def _integer_roots(h):
    """The integer roots of a monic square-free integer polynomial h.

    Each root a of h mod p is simple, so Newton steps y <- y - h(y)/h'(y)
    lift it to the unique root mod p^2, p^4, ... above it, until the
    modulus exceeds twice ``_root_bound(h)``.  An integer root of h reduces
    mod p to one of these a, so it is the symmetric residue of that lift; a
    lift is kept only if h(y) == 0.
    """
    p, roots = _lifting_prime(h)
    dh = _derivative(h)
    bound = 2 * _root_bound(h)
    found = []
    for y in roots:
        q = p
        while q <= bound:
            q *= q
            y = (y - _horner(h, y) * pow(_horner(dh, y), -1, q)) % q
        if y > q // 2:
            y -= q
        if _horner(h, y) == 0:
            found.append(y)
    return found

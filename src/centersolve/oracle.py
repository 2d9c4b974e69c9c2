"""Independent numeric verification: root finding without radicals.

An exact square-free split, then a simultaneous Aberth-Ehrlich iteration in
two phases on each factor.  It reads only the coefficients, never the
radical formulas it is used to check.

0. Square-free split.  The rational coefficients are cleared to a primitive
   integer polynomial f, and Yun's algorithm (SYMSAC 1976), on gcds from a
   primitive pseudo-remainder sequence, writes f = c * prod g_m^m with the
   g_m square-free and coprime.  A root of g_m is simple there, so Aberth
   converges quadratically, and its multiplicity in f is exactly m.  A linear
   factor's root is its quotient, rounded once.
1. Float phase.  Perturbed-circle guesses on Fujiwara's root bound are
   iterated in hardware ``complex`` on the monic coefficients, each root
   until |p(z)| is under the double-precision rounding floor, the phase until
   every root is there or the steps stall.  When a monic coefficient or an
   iterate is not a finite double (inputs beyond ~1e308) or two results
   coincide, the circle itself seeds the next phase.
2. Decimal ladder.  The same update in stdlib ``decimal`` (libmpdec), on
   pairs of Decimals, at 48 digits first.  The digits triple when every
   root is at the level's rounding floor or the largest relative step is
   below eps^(1/3), up to a last level at the working precision (eps =
   10^(1-digits) <= 2^-wprec), which alone decides convergence: every root
   at the rounding floor or every step below 256 eps (Bini and Fiorentino,
   Numer. Algorithms 23, 2000: pay for full precision only at the end).
   Decimal contexts are per-thread, so mpmath's precision is left alone.

Working precision scales with the degree of the factor iterated: its roots
are simple, but a simple root's condition number can still grow
exponentially with the degree (Wilkinson's polynomial).

Rational roots (``rational_roots``) share the square-free split and have no
numeric phase: the rational roots of each factor are the integer roots of a
monic integer polynomial over its leading coefficient, found mod a small
prime and lifted p-adically by Newton steps until the modulus exceeds
twice Fujiwara's root bound (Loos, SIAM J. Comput. 12, 1983; von zur Gathen
and Gerhard, Modern Computer Algebra, ch. 15).  Each is kept only if it is
an exact root, so no float, precision or tolerance decides the answer.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, Context, Decimal, localcontext
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from typing import NamedTuple

from mpmath import mp, mpc, mpf
from mpmath.libmp import from_rational, round_nearest

from .errors import NonConvergenceError
from .forms import (
    NAryForm,
    PowerSumDecomposition,
    UnivariateEquation,
    expand,
)
from .scalars import DEFAULT_PREC, as_fraction, clear_denominators, is_exact, to_mpc

#: Fixed irrational angular offset for the initial circle (radians).
_ANGLE_OFFSET = 0.7071067811865476

#: Rounds without progress that end the float phase (see _float_aberth).
_FLOAT_STALL = 8

#: Digits of the first decimal level; each level has three times as many.
_LADDER_START = 48

_LOG2_10 = math.log2(10)


class OracleRoot(NamedTuple):
    value: mpc
    multiplicity: int


@dataclass
class OracleRootSet:
    roots: list  # of OracleRoot, multiplicities summing to the degree
    iterations: int  # Aberth rounds at every decimal level, over all factors
    converged: bool
    equation: UnivariateEquation  # the input
    wprec: int  # working precision of the input's degree

    @cached_property
    def max_residual(self) -> float:
        """Scaled residual max |f(z)| / (max|b| * max(1,|z|)^d) against the
        input at ``wprec``, computed on first read."""
        return _scaled_residual(self.equation.plain, self.roots, self.wprec)

    def values_with_multiplicity(self):
        out = []
        for r in self.roots:
            out.extend([r.value] * r.multiplicity)
        return out


def _working_prec(degree: int, tol: float, prec: int) -> int:
    bits_for_tol = int(-math.log2(tol)) + 48 if tol > 0 else 128
    return max(prec, 24 * degree + 64, bits_for_tol)


def _horner(coeffs, z):
    """p(z); stays in mpf for real coefficients at a real point."""
    acc = coeffs[0]
    for c in coeffs[1:]:
        acc = acc * z + c
    return acc


def _scaled_residual(plain, roots, wprec) -> float:
    d = len(plain) - 1
    with mp.workprec(wprec):
        b = [to_mpc(c, wprec) for c in plain]
        scale = max(abs(c) for c in b)
        return float(
            max(
                abs(_horner(b, r.value)) / (scale * max(mpf(1), abs(r.value)) ** d)
                for r in roots
            )
        )


def _log2(x) -> float:
    """log2 of a positive mpf from its mantissa and exponent."""
    _, man, exp, _ = x._mpf_
    return exp + math.log2(int(man))


def _start_circle(abs_b) -> list:
    """Deterministic perturbed-circle guesses on Fujiwara's root bound.

    Every root modulus is at most 2 max_i |b_i/b_0|^(1/i), with b_d halved.
    The radius is computed in float logs of the moduli: mpmath's log and
    power at working precision would grow its caches on every call.
    """
    d = len(abs_b) - 1
    log_lead = _log2(abs_b[0])
    log_radius = 1 + max(
        (_log2(c) - log_lead - (i == d)) / i for i, c in enumerate(abs_b[1:], 1) if c
    )
    e = math.floor(log_radius)
    radius = mp.ldexp(mpf(2.0 ** (log_radius - e)), e)
    return [
        radius * mpc(cmath.rect(1 + k / (997 * d), 2 * math.pi * k / d + _ANGLE_OFFSET))
        for k in range(d)
    ]


def _float_aberth(coeffs, z):
    """Aberth-Ehrlich in hardware complex from the guesses z, or None.

    ``coeffs`` are the monic coefficients.  A root stops moving once |p(z)|
    is under the double-precision rounding floor.  The phase ends when every
    root has, or when the steps stall: _FLOAT_STALL rounds in a row without
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
    while active and stalled < _FLOAT_STALL:
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
    max_iter: int = 500,
) -> OracleRootSet:
    """All complex roots of a rational equation by Aberth-Ehrlich iteration.

    Each square-free factor gets the working precision of its degree, at
    most ``max_iter`` rounds below it on the decimal ladder and at most
    ``max_iter`` at it; ``iterations`` sums the rounds.
    ``max_residual`` is measured against the input when it is first read.
    """
    d = eq.degree
    if d < 1:
        raise NonConvergenceError("degree must be >= 1")
    factors = _squarefree(clear_denominators(eq.plain)[0])
    runs = [(_aberth(g, tol, prec, max_iter), m) for g, m in factors]
    roots = [OracleRoot(zk, m) for (z, _, _), m in runs for zk in z]
    iterations = sum(rounds for (_, rounds, _), _ in runs)
    converged = all(ok for (_, _, ok), _ in runs)
    wprec = _working_prec(d, tol, prec)
    if not converged:
        raise NonConvergenceError(
            f"no convergence after {max_iter} iterations"
            f" (residual {_scaled_residual(eq.plain, roots, wprec):.3g})"
        )
    # real parts are compared to 9 digits of the largest modulus, so the two
    # members of a conjugate pair, whose real parts differ only by rounding
    # noise, come out in the same order at every precision
    top = max(mpf(1), max(abs(r.value) for r in roots))
    roots.sort(key=lambda r: (round(float(r.value.real / top), 9), r.value.imag))
    return OracleRootSet(roots, iterations, converged, eq, wprec)


def _aberth(coeffs, tol, prec, max_iter):
    """(roots, Aberth rounds at every level, converged) of one polynomial.

    The float phase seeds the decimal ladder, whose last level, at the
    working precision, decides ``converged``.
    """
    d = len(coeffs) - 1
    wprec = _working_prec(d, tol, prec)
    with mp.workprec(wprec):
        b = [to_mpc(c, wprec) for c in coeffs]
        if d == 1:
            return [-b[1] / b[0]], 0, True
        circle = _start_circle([abs(c) for c in b])
        seeds = _float_aberth(
            [complex(c / b[0]) for c in b], [complex(zk) for zk in circle]
        )
        z = circle if seeds is None else [mpc(zk) for zk in seeds]
        return _decimal_ladder(coeffs, z, wprec, max_iter)


# ---------------------------------------------------------------------------
# decimal ladder (stdlib decimal, complex numbers as pairs of Decimals)
# ---------------------------------------------------------------------------


def _to_decimal(x) -> Decimal:
    """An mpf, rounded once to the current decimal context.

    man * 2^exp is (man * 5^-exp) * 10^exp for exp < 0, and scaleb
    rounds the exact product once.
    """
    sign, man, exp, _ = x._mpf_
    if exp < 0:
        man *= 5**-exp
    else:
        man, exp = man << exp, 0
    return Decimal(-man if sign else man).scaleb(exp)


def _to_mpf(x: Decimal):
    """A Decimal, rounded once to mpmath's current precision."""
    return mp.make_mpf(from_rational(*x.as_integer_ratio(), mp.prec, round_nearest))


def _ladder_levels(wprec: int) -> list:
    """Digits of each lower decimal level: 48, 144, 432, ... below ``wprec`` bits."""
    levels = []
    digits = _LADDER_START
    while digits * _LOG2_10 < wprec:
        levels.append(digits)
        digits *= 3
    return levels


def _finish_digits(wprec: int) -> int:
    """Digits of the last level, whose eps = 10^(1 - digits) is at most 2^-wprec."""
    return math.ceil(wprec / _LOG2_10) + 1


def _decimal_ladder(coeffs, z, wprec, max_iter):
    """(mpc roots, rounds, converged): Aberth-Ehrlich on a decimal precision ladder.

    Below the working precision the digits triple once every root is quiet
    or the largest relative step s has s^3 < eps (the level's rounding would
    cut off the next step's cubic convergence); those levels share
    ``max_iter`` rounds.  ``_decimal_finish`` runs the last level.
    """
    ladder = _ladder_levels(wprec) + [_finish_digits(wprec)]
    rounds = 0
    with localcontext(Context(ladder[0], Emax=MAX_EMAX, Emin=MIN_EMIN)) as ctx:
        zr = [_to_decimal(zk.real) for zk in z]
        zi = [_to_decimal(zk.imag) for zk in z]
        for digits in ladder:
            ctx.prec = digits
            b = [+Decimal(c) for c in coeffs]
            abs_b = [abs(c) for c in b]
            eps = Decimal(1).scaleb(1 - digits)
            while digits < ladder[-1] and rounds < max_iter:
                rounds += 1
                max_step, all_quiet = _decimal_round(b, abs_b, zr, zi, eps)
                if all_quiet or max_step**3 < eps:
                    break
        finished, converged = _decimal_finish(b, abs_b, zr, zi, eps, max_iter)
        z = [mpc(_to_mpf(x), _to_mpf(y)) for x, y in zip(zr, zi)]
    return z, rounds + finished, converged


def _decimal_finish(b, abs_b, zr, zi, eps, max_iter):
    """(rounds, converged): the last level's rounds, in place on z = zr + i zi.

    Converged once every root is quiet or every relative step is below 256 eps.
    """
    for rounds in range(1, max_iter + 1):
        max_step, all_quiet = _decimal_round(b, abs_b, zr, zi, eps)
        if all_quiet or max_step < 256 * eps:
            return rounds, True
    return max_iter, False


def _decimal_round(b, abs_b, zr, zi, eps):
    """One Aberth-Ehrlich round in place on z = zr + i zi; (max step, all quiet).

    A root is quiet once |p(z)| <= 8 d eps H(|z|), H the Horner sum of the |b_i|
    (a bound, so 16 digits); p' comes from the partial sums of p, if not quiet.
    """
    d = len(b) - 1
    low = Context(16, Emax=MAX_EMAX, Emin=MIN_EMIN)
    floor_scale = 8 * d * eps
    zero = Decimal(0)
    max_step = zero
    all_quiet = True
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
        if pr * pr + pi * pi <= floor * floor:
            continue  # quiet: at the rounding floor of this level
        all_quiet = False
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
    return max_step, all_quiet


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
    max_distance: float
    worst_index: int | None
    pairs: list  # of (value_a, value_b, distance)


def _expanded_values(obj):
    roots = getattr(obj, "roots", None)
    if roots is not None:
        out = []
        for r in roots:
            value = getattr(r, "value", r)
            mult = getattr(r, "multiplicity", 1)
            out.extend([mpc(value)] * mult)
        return out
    return [mpc(v) for v in obj]


def compare_root_sets(a, b, tol: float = 1e-9) -> MatchReport:
    """Match two root multisets greedily and report the worst pair distance.

    A cardinality mismatch is a structural failure, reported rather than
    raised.  The greedy nearest-neighbor matching is followed by a swap
    refinement pass so near-ties cannot manufacture a spurious failure.
    The pair distances are computed once, at the caller's precision.
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
    n = len(va)
    dist = [[abs(x - y) for y in vb] for x in va]
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
    pairs = [(va[i], vb[match[i]], float(dist[i][match[i]])) for i in range(n)]
    max_distance = max((p[2] for p in pairs), default=0.0)
    worst_index = max(range(n), key=lambda i: pairs[i][2]) if n else None
    return MatchReport(
        passed=max_distance <= tol,
        structural_ok=True,
        max_distance=max_distance,
        worst_index=worst_index,
        pairs=pairs,
    )


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

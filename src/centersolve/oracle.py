"""Independent numeric verification: root finding without radicals.

An exact square-free split, then a simultaneous Aberth-Ehrlich iteration in
two phases on each factor.  It reads only the coefficients, never the radical
formulas it is used to check.

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
2. Multiprecision phase.  The same update at the working precision until
   every root is at the rounding floor (and no longer updated) or every step
   is below 256 eps.  ``OracleRootSet.iterations`` counts these rounds only,
   summed over the factors.

Working precision scales with the degree of the factor iterated: its roots
are simple, but a simple root's condition number can still grow
exponentially with the degree (Wilkinson's polynomial).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import NamedTuple

from mpmath import mp, mpc, mpf
from mpmath.libmp import to_rational

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


class OracleRoot(NamedTuple):
    value: mpc
    multiplicity: int


@dataclass
class OracleRootSet:
    roots: list  # of OracleRoot, multiplicities summing to the degree
    iterations: int  # multiprecision Aberth rounds, summed over the factors
    converged: bool
    max_residual: float  # scaled residual max |f(z)| / (max|b| * max(1,|z|)^d)

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
    logs = [
        (_log2(c) - log_lead - (i == d)) / i
        for i, c in enumerate(abs_b[1:], 1)
        if c
    ]
    if not logs:  # b0 x^d: every root is 0
        return [mpc(0)] * d
    log_radius = 1 + max(logs)
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

    Each square-free factor gets the working precision of its degree and at
    most ``max_iter`` rounds; ``iterations`` sums the rounds.  ``max_residual``
    is measured against the input.
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
    with mp.workprec(wprec):
        b = [to_mpc(c, wprec) for c in eq.plain]
        scale = max(abs(c) for c in b)
        max_res = max(
            abs(_horner(b, r.value)) / (scale * max(mpf(1), abs(r.value)) ** d)
            for r in roots
        )
        if not converged:
            raise NonConvergenceError(
                f"no convergence after {max_iter} iterations"
                f" (residual {float(max_res):.3g})"
            )
    roots.sort(key=lambda r: (r.value.real, r.value.imag))
    return OracleRootSet(
        roots=roots,
        iterations=iterations,
        converged=converged,
        max_residual=float(max_res),
    )


def _aberth(coeffs, tol, prec, max_iter):
    """(roots, multiprecision rounds, converged) of one polynomial."""
    d = len(coeffs) - 1
    wprec = _working_prec(d, tol, prec)
    with mp.workprec(wprec):
        b = [to_mpc(c, wprec) for c in coeffs]
        if d == 1:
            return [-b[1] / b[0]], 0, True
        db = [(d - i) * b[i] for i in range(d)]
        abs_b = [abs(c) for c in b]
        circle = _start_circle(abs_b)
        seeds = _float_aberth(
            [complex(c / b[0]) for c in b], [complex(zk) for zk in circle]
        )
        z = circle if seeds is None else [mpc(zk) for zk in seeds]
        eps = mpf(2) ** (-wprec)
        iterations = 0
        converged = False
        for iterations in range(1, max_iter + 1):
            max_step = mpf(0)
            all_quiet = True
            for k in range(d):
                p = _horner(b, z[k])
                if abs(p) <= 8 * d * eps * _horner(abs_b, abs(z[k])):
                    continue  # quiet: at the rounding floor already
                all_quiet = False
                dp = _horner(db, z[k])
                w = p / dp if dp != 0 else p
                s = mpc(0)
                for j in range(d):
                    if j == k:
                        continue
                    diff = z[k] - z[j]
                    if diff == 0:
                        diff = mpc(eps)
                    s += 1 / diff
                denom = 1 - w * s
                step = w / denom if denom != 0 else w
                z[k] = z[k] - step
                rel = abs(step) / (1 + abs(z[k]))
                if rel > max_step:
                    max_step = rel
            if all_quiet or max_step < eps * 256:
                converged = True
                break
        if any(not mp.isfinite(zk) for zk in z):
            raise NonConvergenceError("iteration produced a non-finite value")
    return z, iterations, converged


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
# exact rational roots (square-free split + numeric seed + exact verification)
# ---------------------------------------------------------------------------


def rational_roots(coeffs) -> list:
    """All rational roots of a rational polynomial: [(root, multiplicity)], sorted.

    A root's multiplicity is the index of its square-free factor g.  A root
    r = u/v of g has v | L, the leading coefficient of the primitive g, so
    candidates are 1/L^2 apart and limit_denominator(L) recovers r from an
    iterate z within 1/(2L^2); a candidate counts only if g(r) == 0.  As
    v^(n-1) g'(r) is a nonzero integer and |g(z)| <= 8 n eps ||g||_1 B^n at
    the rounding floor (B: Fujiwara's bound), |z - r| ~ |g(z) / g'(r)| is
    below 1/(2L^2) once eps < 1 / (16 n ||g||_1 B^n L^(n+1)), plus 32 bits.
    """
    work = [as_fraction(c) for c in coeffs]
    if work[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    found = []
    for g, m in _squarefree(clear_denominators(work)[0]):
        n, lead = len(g) - 1, g[0]
        if n == 1:
            found.append((Fraction(-g[1], lead), m))
            continue
        logs = [(math.log2(abs(c)) - math.log2(lead)) / i for i, c in enumerate(g[1:], 1) if c]
        log_b = 1 + max(0, *logs)
        bits = math.log2(16 * n * sum(map(abs, g))) + n * log_b + (n + 1) * math.log2(lead)
        approx, _, converged = _aberth(g, 1e-12, int(bits) + 32, 500)
        if not converged:
            raise NonConvergenceError("rational_roots: no convergence after 500 iterations")
        candidates = {
            Fraction(*to_rational(z.real._mpf_)).limit_denominator(lead)
            for z in approx
            if 2 * abs(z.imag) * lead * lead < 1
        }
        found += [(r, m) for r in candidates if _horner(g, r) == 0]
    return sorted(found)

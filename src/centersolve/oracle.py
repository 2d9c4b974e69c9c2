"""Independent numeric verification: root finding without radicals.

The root finder is a simultaneous Aberth-Ehrlich iteration in two phases,
followed by Newton polishing and a clustering pass that assigns
multiplicities.  It never sees the radical formulas it is used to check.

1. Float phase.  Deterministic perturbed-circle guesses on Fujiwara's bound
   of the root moduli are iterated in hardware ``complex`` on the monic
   coefficients, each root until |p(z)| is under the double-precision
   rounding floor, the whole phase until every root is there or the steps
   stall.  When a monic coefficient or an iterate is not a finite double
   (inputs beyond ~1e308) or two results coincide, the circle itself seeds
   the next phase.
2. Multiprecision phase.  The same update at the working precision, from
   those seeds, until every root is at the rounding floor or every step is
   below 256 eps.  A root already at the floor is not updated.
   ``OracleRootSet.iterations`` counts these rounds only.

Working precision scales with the degree: a root of multiplicity m can only
be located to about eps^(1/m), so confirming a multiplicity-6 cluster inside
a 1e-6 window needs far more than double precision.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from mpmath import mp, mpc, mpf

from .errors import NonConvergenceError
from .forms import (
    NAryForm,
    PowerSumDecomposition,
    UnivariateEquation,
    expand,
    from_plain_coeffs,
)
from .scalars import DEFAULT_PREC, as_fraction, is_exact, to_mpc

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
    iterations: int  # multiprecision Aberth rounds
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
    cluster_tol: float = 1e-6,
) -> OracleRootSet:
    """All complex roots of the equation by Aberth-Ehrlich iteration."""
    d = eq.degree
    if d < 1:
        raise NonConvergenceError("degree must be >= 1")
    wprec = _working_prec(d, tol, prec)
    with mp.workprec(wprec):
        b = [to_mpc(c, wprec) for c in eq.plain]
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
        # Newton polishing, kept only when it lowers the residual
        for k in range(d):
            for _ in range(3):
                p = _horner(b, z[k])
                dp = _horner(db, z[k])
                if dp == 0:
                    break
                candidate = z[k] - p / dp
                if abs(_horner(b, candidate)) < abs(p):
                    z[k] = candidate
                else:
                    break
        if any(not mp.isfinite(zk) for zk in z):
            raise NonConvergenceError("iteration produced a non-finite value")
        scale = max(abs_b)
        max_res = max(
            abs(_horner(b, zk)) / (scale * max(mpf(1), abs(zk)) ** d) for zk in z
        )
        if not converged:
            raise NonConvergenceError(
                f"no convergence after {max_iter} iterations"
                f" (residual {float(max_res):.3g})"
            )
        roots = _cluster(z, cluster_tol)
    return OracleRootSet(
        roots=roots,
        iterations=iterations,
        converged=converged,
        max_residual=float(max_res),
    )


def _cluster(values, cluster_tol):
    """Group values within cluster_tol (transitively); mean as representative."""
    order = sorted(range(len(values)), key=lambda i: (values[i].real, values[i].imag))
    parent = list(range(len(values)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a in range(len(values)):
        for b in range(a + 1, len(values)):
            if abs(values[a] - values[b]) <= cluster_tol:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[rb] = ra
    groups = {}
    for i in order:
        groups.setdefault(find(i), []).append(values[i])
    roots = []
    for members in groups.values():
        rep = sum(members, mpc(0)) / len(members)
        roots.append(OracleRoot(value=rep, multiplicity=len(members)))
    roots.sort(key=lambda r: (r.value.real, r.value.imag))
    return roots


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
    used = [False] * n
    match = [0] * n
    for i in range(n):
        best, best_d = None, None
        for j in range(n):
            if used[j]:
                continue
            dist = abs(va[i] - vb[j])
            if best_d is None or dist < best_d:
                best, best_d = j, dist
        match[i] = best
        used[best] = True
    improved = True
    while improved:  # pairwise swap refinement of the bottleneck distance
        improved = False
        for i in range(n):
            for j in range(i + 1, n):
                cur = max(abs(va[i] - vb[match[i]]), abs(va[j] - vb[match[j]]))
                alt = max(abs(va[i] - vb[match[j]]), abs(va[j] - vb[match[i]]))
                if alt < cur:
                    match[i], match[j] = match[j], match[i]
                    improved = True
    pairs = [(va[i], vb[match[i]], float(abs(va[i] - vb[match[i]]))) for i in range(n)]
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
# exact rational roots (numeric seed + exact verification)
# ---------------------------------------------------------------------------


def _mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    frac = Fraction(man) * Fraction(2) ** exp
    return -frac if sign else frac


def rational_roots(coeffs) -> list:
    """All rational roots (with multiplicity) of a rational polynomial.

    One numeric root run on the input seeds the candidates, from its cluster
    means and its single approximations; each candidate is reconstructed
    with bounded denominators and verified by exact evaluation against the
    polynomial as it is deflated by exact synthetic division, which also
    counts its multiplicity.  A linear remainder left after deflation has a
    rational root.  Returns [(root, multiplicity), ...] sorted.
    """
    work = [as_fraction(c) for c in coeffs]
    if work[0] == 0:
        raise ValueError("leading coefficient must be nonzero")
    found = {}
    candidates = _rational_candidates(work) if len(work) > 2 else []
    for r in candidates:
        mult = 0
        while len(work) > 1 and _eval_poly(work, r) == 0:
            work = _deflate(work, r)
            mult += 1
        if mult:
            found[r] = mult
    if len(work) == 2:
        found[-work[1] / work[0]] = 1
    return sorted(found.items())


def _eval_poly(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in coeffs:
        acc = acc * x + c
    return acc


def _deflate(coeffs, r: Fraction):
    out = [coeffs[0]]
    for c in coeffs[1:-1]:
        out.append(out[-1] * r + c)
    return out


def _rational_candidates(coeffs):
    eq = from_plain_coeffs(coeffs)
    try:
        approx = numeric_roots(eq, tol=1e-20, prec=160, cluster_tol=0)
    except NonConvergenceError:
        return []
    values = approx.values_with_multiplicity()
    with mp.workprec(_working_prec(eq.degree, 1e-20, 160)):
        # a cluster mean locates a multiple root best; the single values
        # still separate distinct roots closer than the cluster tolerance
        seeds = [r.value for r in _cluster(values, 1e-6)] + values
    out = []
    for z in seeds:
        if abs(z.imag) > 1e-10 * (1 + abs(z.real)):
            continue
        re = _mpf_to_fraction(z.real)
        for bound in (1, 1000, 10**6, 10**9):
            cand = re.limit_denominator(bound)
            if cand not in out:
                out.append(cand)
    return out

"""Seeded input corpus with planted ground truth, one generator per workload.

Every input is built from a planted structure whose answer is known by
construction: two-power sums lambda1*(x+beta1)^d + lambda2*(x+beta2)^d (roots
are Moebius images of the d-th roots of -lambda2/lambda1), repeated linear
factors, the three ratio classes, products of known quadratics or linear
factors, and n-ary power sums of independent linear forms.  Nothing here
imports centersolve: the classification sanity tests below are written out
from the definitions, so a plant that degenerates into another class is
rejected and redrawn instead of being mislabelled.

A workload is a stream of blocks.  Every block holds the same classes at
the same degrees, in a seeded order, so the class mix and the share of each
property are the same in every block and every seed; the seed only chooses
the numbers, and a run that fits one block more or less measures the same
mix.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from itertools import combinations_with_replacement

import mpmath
from mpmath import mp, mpc, mpf

#: Working precision of the ground-truth root computations (bits).
TRUTH_PREC = 320

@dataclass
class Case:
    """One CLI call and what a correct answer looks like."""

    argv: list
    klass: str  # planted class tag (expected `class` field, when emitted)
    expect_exit: int
    roots: list | None = None  # [(complex, multiplicity)], planted
    decomposition: dict | None = None  # {"degree", "summands": [(c, [l...])]}
    props: dict = field(default_factory=dict)

    @property
    def command(self) -> str:
        return self.argv[0]


# ---------------------------------------------------------------------------
# exact helpers
# ---------------------------------------------------------------------------


class Quad:
    """a + b*sqrt(disc) over Q, just enough ring arithmetic for expansions."""

    __slots__ = ("a", "b", "disc")

    def __init__(self, a, b, disc):
        self.a, self.b, self.disc = F(a), F(b), disc

    def _lift(self, o):
        return o if isinstance(o, Quad) else Quad(o, 0, self.disc)

    def __add__(self, o):
        o = self._lift(o)
        return Quad(self.a + o.a, self.b + o.b, self.disc)

    __radd__ = __add__

    def __mul__(self, o):
        o = self._lift(o)
        return Quad(
            self.a * o.a + self.b * o.b * self.disc,
            self.a * o.b + self.b * o.a,
            self.disc,
        )

    __rmul__ = __mul__

    def __pow__(self, k):
        out = Quad(1, 0, self.disc)
        for _ in range(k):
            out = out * self
        return out

    def conj(self):
        return Quad(self.a, -self.b, self.disc)

    def numeric(self):
        return num(self.a) + num(self.b) * mpmath.sqrt(mpc(self.disc))

    def __eq__(self, o):
        o = self._lift(o)
        return self.a == o.a and self.b == o.b


def num(x):
    """High-precision numeric image of a Fraction or Quad."""
    if isinstance(x, Quad):
        return x.numeric()
    x = F(x)
    return mpc(mpf(x.numerator) / x.denominator)


def norm_coeffs(plain):
    d = len(plain) - 1
    return [F(b) / math.comb(d, i) for i, b in enumerate(plain)]


def geometric(seq) -> bool:
    m = len(seq) - 1
    return all(
        seq[i] * seq[j + 1] == seq[i + 1] * seq[j]
        for i in range(m)
        for j in range(i + 1, m)
    )


def rank(rows) -> int:
    m = [list(r) for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(r + 1, len(m)):
            fac = m[i][c] / m[r][c]
            m[i] = [x - fac * y for x, y in zip(m[i], m[r])]
        r += 1
    return r


def is_rational_square(x: F) -> bool:
    return (
        x >= 0
        and math.isqrt(x.numerator) ** 2 == x.numerator
        and math.isqrt(x.denominator) ** 2 == x.denominator
    )


def equation_class(plain) -> tuple[str, F | None]:
    """Class tag from the definitions, and the center discriminant if rank 2.

    Ratio classes first (cross-product tests), then the rank of the
    (d-1) x 3 Hankel matrix of the binomial-scaled coefficients, then the
    discriminant D2^2 - 4*D1*D3 of the 2x2 Hankel minors.
    """
    a = norm_coeffs(plain)
    d = len(a) - 1
    if geometric(a):
        return "PerfectPower", None
    if geometric(a[:-1]):
        return "PowerPlusConstant", None
    if a[d] != 0 and geometric(a[1:]):
        return "ConstantTimesPowerPlusPower", None
    if rank([[a[i], a[i + 1], a[i + 2]] for i in range(d - 1)]) == 3:
        return "NoNontrivialCenter", None
    d1 = a[0] * a[2] - a[1] * a[1]
    d2 = a[0] * a[3] - a[1] * a[2]
    d3 = a[1] * a[3] - a[2] * a[2]
    disc = d2 * d2 - 4 * d1 * d3
    return ("LinearTimesPowerD1" if disc == 0 else "SumOfTwoPowers"), disc


def poly_mul(p, q):
    out = [F(0)] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def digits(plain) -> int:
    """Decimal digits of the largest numerator or denominator."""
    return max(
        max(len(str(abs(F(c).numerator))), len(str(F(c).denominator))) for c in plain
    )


# ---------------------------------------------------------------------------
# rendering the program's inputs
# ---------------------------------------------------------------------------


def coeffs_text(plain) -> str:
    return " ".join(str(F(c)) for c in plain)


def expr_text(plain) -> str:
    d = len(plain) - 1
    parts = []
    for i, c in enumerate(plain):
        c = F(c)
        if c == 0:
            continue
        p = d - i
        mono = "" if p == 0 else ("x" if p == 1 else f"x^{p}")
        mag = abs(c)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        sign = "-" if c < 0 else "+"
        parts.append((sign, body))
    head_sign, head = parts[0]
    text = ("-" if head_sign == "-" else "") + head
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def nary_text(terms) -> str:
    parts = []
    for mono in sorted(terms, reverse=True):
        c = terms[mono]
        fac = "*".join(
            f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(mono) if e
        )
        mag = abs(c)
        parts.append(("-" if c < 0 else "+", fac if mag == 1 else f"{mag}*{fac}"))
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


# ---------------------------------------------------------------------------
# random draws
# ---------------------------------------------------------------------------


def nonzero_int(rng, hi):
    return rng.choice((-1, 1)) * rng.randint(1, hi)


def rand_frac(rng, num_digits, den_digits=1):
    n = nonzero_int(rng, 10**num_digits - 1)
    return F(n, rng.randint(1, 10**den_digits - 1))


def rand_mag(rng, band, den=9):
    """A signed fraction p/q, q <= den, with |p/q| inside band = (lo, hi)."""
    lo, hi = band
    while True:
        q = rng.randint(1, den)
        p_lo, p_hi = max(1, math.ceil(lo * q)), math.floor(hi * q)
        if p_lo <= p_hi:
            return F(rng.choice((-1, 1)) * rng.randint(p_lo, p_hi), q)


#: Default band for |beta|, |t| and planted roots.  The oracle's iteration
#: count grows with the log of its Cauchy starting radius, which grows like
#: C(d, d/2)*|beta|^(d/2); a fixed band keeps per-input cost comparable from
#: seed to seed, so run-to-run spread measures the program, not the draw.
BAND = (1.5, 2.5)


def unity_roots(r, d):
    """All d complex d-th roots of r."""
    base = mpmath.root(mpc(r), d)
    return [base * mpmath.expjpi(mpf(2 * k) / d) for k in range(d)]


def freeze_roots(values):
    """[(complex, multiplicity)] from high-precision values."""
    return [(complex(v), m) for v, m in values]


# ---------------------------------------------------------------------------
# univariate plants; each returns (plain, class, roots, decomposition, props)
# ---------------------------------------------------------------------------

_IRRATIONAL_D = (2, 3, 5, 6, 7, -1, -2, -3)


def plant_two_power(
    rng,
    d,
    irrational=False,
    height=None,
    same_sign=True,
    lam_digits=1,
    near_one=0,
    near_minus_one=0,
):
    """lambda1*(x+beta1)^d + lambda2*(x+beta2)^d with known roots.

    ``irrational``: beta and lambda are conjugates in Q(sqrt(D)), so the center
    discriminant is not a rational square.  ``height``: digits of the beta
    numerators and denominators; without it |beta| lies in BAND.
    ``same_sign``: lambda1 and lambda2 share a sign (radicand -lambda2/lambda1
    negative) or not; |lambda1| <= 3 < 6 <= |lambda2| keeps the leading
    coefficient away from cancellation.  ``lam_digits``: digits of lambda2
    (above 308 the exact radicand no longer fits a float).

    Two shapes put the radicand next to a root of unity:
    ``near_one=k`` sets lambda2 = -lambda1*(1 + 10^-k), so the radicand is
    within 10^-k of 1 and one root has size ~10^k; ``near_minus_one=k`` (odd d)
    sets beta1 = -beta2 = B with B ~ 10^k and lambda2 = lambda1*(1 + rho/B),
    so the radicand is within ~1/B of -1 and one root of size O(1) comes out
    of a cancellation of k digits, more than 64 bits hold for k >= 12.
    """
    while True:
        if irrational:
            D = rng.choice(_IRRATIONAL_D)
            if height is None:
                # |beta| = |p +- q*sqrt(D)| stays within 1/4 of |p|
                p = rand_mag(rng, (BAND[0] + 0.25, BAND[1] - 0.25))
                root = math.sqrt(abs(D))
                q = rand_mag(rng, (0.1 / root, 0.25 / root), den=40)
            else:
                p, q = rand_frac(rng, height, height), rand_frac(rng, height, height)
            lam = Quad(
                rng.choice((-1, 1)) * rng.randint(3, 9),
                rng.choice((-1, 1)) * rng.randint(1, 2),
                D,
            )
            b1, b2 = Quad(p, q, D), Quad(p, -q, D)
            l1, l2 = lam, lam.conj()
            plain = [
                2 * (math.comb(d, i) * l1 * b1**i).a for i in range(d + 1)
            ]
        else:
            if height is None:
                b1, b2 = rand_mag(rng, BAND), rand_mag(rng, BAND)
            else:
                b1 = rand_frac(rng, height, height)
                b2 = rand_frac(rng, height, height)
            l1 = F(rng.choice((-1, 1)) * rng.randint(1, 3))
            l2 = F(rng.randint(6, 9)) * (1 if (l1 > 0) == same_sign else -1)
            if near_one:
                l2 = -l1 * (1 + F(1, 10**near_one))
            elif near_minus_one:
                b1 = F(rng.randint(10**near_minus_one, 10 ** (near_minus_one + 1)), rng.randint(1, 9))
                b2 = -b1
                l2 = l1 * (1 + rand_frac(rng, 1) / b1)
            elif lam_digits > 1:
                # opposite sign: the radicand is positive, so its exact root is tried
                big = rng.randint(1, 9) * 10 ** (lam_digits - 1) + rng.randint(1, 9)
                l2 = F(-big if l1 > 0 else big)
            plain = [
                math.comb(d, i) * (l1 * b1**i + l2 * b2**i) for i in range(d + 1)
            ]
        if b1 == b2 or b1 == 0 or b2 == 0 or plain[0] == 0 or plain[-1] == 0:
            continue
        klass, disc = equation_class(plain)
        if klass != "SumOfTwoPowers":
            continue
        if is_rational_square(disc) == irrational:
            continue
        with mp.workprec(TRUTH_PREC):
            r = -num(l2) / num(l1)
            nb1, nb2 = num(b1), num(b2)
            roots = [((s * nb2 - nb1) / (1 - s), 1) for s in unity_roots(r, d)]
            summands = [(num(l1), [mpc(1), nb1]), (num(l2), [mpc(1), nb2])]
        exact = not irrational
        dec = {
            "degree": d,
            "exact": True if exact else None,  # Q(sqrt(D)) output is exact too
            "summands": (
                [(l1, [F(1), b1]), (l2, [F(1), b2])]
                if exact
                else [(complex(c), [complex(x) for x in lf]) for c, lf in summands]
            ),
        }
        props = {
            "irrational_disc": irrational,
            "escalation": bool(near_minus_one),
            "radicand_near_one": bool(near_one),
        }
        return plain, klass, freeze_roots(roots), dec, props


def plant_linear_times_power(rng, d, height=None):
    """c*(x - a)^(d-1)*(x - b): a root of multiplicity d-1 and a simple one."""
    while True:
        if height is None:
            a, b = rand_mag(rng, BAND), rand_mag(rng, BAND)
        else:
            a, b = rand_frac(rng, height), rand_frac(rng, height)
        if a == b:
            continue
        plain = [F(nonzero_int(rng, 9))]
        for _ in range(d - 1):
            plain = poly_mul(plain, [F(1), -a])
        plain = poly_mul(plain, [F(1), -b])
        klass, _ = equation_class(plain)
        if klass == "LinearTimesPowerD1":
            return plain, klass, [(complex(num(a)), d - 1), (complex(num(b)), 1)], None, {}


def plant_ratio(rng, d, tag, height=None, gamma_digits=1):
    """The three ratio classes, from their defining shapes.

    PerfectPower c*(x+t)^d; PowerPlusConstant c*(x+t)^d + g;
    ConstantTimesPowerPlusPower g*x^d + c*(u*x+1)^d.
    """
    while True:
        c = F(nonzero_int(rng, 9))
        t = rand_mag(rng, BAND) if height is None else rand_frac(rng, height)
        g = F(nonzero_int(rng, 9) * 10 ** (gamma_digits - 1) + rng.randint(0, 9))
        if gamma_digits > 1 and (g > 0) == (c > 0):
            g = -g  # positive radicand -g/c, so its exact root is tried
        if tag == "ConstantTimesPowerPlusPower":
            plain = [math.comb(d, i) * c * t ** (d - i) for i in range(d + 1)]
            plain[0] += g
        else:
            plain = [math.comb(d, i) * c * t**i for i in range(d + 1)]
            if tag == "PowerPlusConstant":
                plain[-1] += g
        if plain[0] == 0 or plain[-1] == 0:
            continue
        klass, _ = equation_class(plain)
        if klass != tag:
            continue
        with mp.workprec(TRUTH_PREC):
            if tag == "PerfectPower":
                roots = [(-num(t), d)]
            elif tag == "PowerPlusConstant":
                roots = [(s - num(t), 1) for s in unity_roots(-num(g) / num(c), d)]
            else:
                roots = [
                    (1 / (s - num(t)), 1) for s in unity_roots(-num(g) / num(c), d)
                ]
        return plain, klass, freeze_roots(roots), None, {}


def plant_quartic(rng, rational_resolvent: bool):
    """Trivial-center quartic: two known quadratics, or a generic quartic.

    A product of two rational quadratics has a rational resolvent root; a
    generic integer quartic whose resolvent cubic has no rational root (checked
    by the rational-root theorem) takes the irrational route.  Roots of the
    generic quartic come from mpmath.polyroots at high precision.
    """
    while True:
        if rational_resolvent:
            q1 = [F(1), F(rng.randint(-9, 9)), F(nonzero_int(rng, 9))]
            q2 = [F(1), F(rng.randint(-9, 9)), F(nonzero_int(rng, 9))]
            plain = [F(nonzero_int(rng, 5)) * c for c in poly_mul(q1, q2)]
        else:
            plain = [F(1)] + [F(rng.randint(-9, 9)) for _ in range(3)] + [
                F(nonzero_int(rng, 9))
            ]
            if _resolvent_has_rational_root(plain):
                continue
        klass, _ = equation_class(plain)
        if klass != "NoNontrivialCenter":
            continue
        with mp.workprec(TRUTH_PREC):
            vals = mpmath.polyroots(
                [mpf(c.numerator) / c.denominator for c in plain],
                maxsteps=400,
                extraprec=TRUTH_PREC,
            )
        vals = [mpc(v) for v in vals]
        if min(abs(a - b) for i, a in enumerate(vals) for b in vals[i + 1 :]) < 1e-6:
            continue
        props = {"irrational_resolvent": not rational_resolvent}
        return plain, klass, freeze_roots((v, 1) for v in vals), None, props


def _resolvent_has_rational_root(plain) -> bool:
    b = [c / plain[0] for c in plain]
    s = b[1] / 4
    # depressed coefficients of y^4 + p y^2 + q y + r with x = y - s
    p = b[2] - 6 * s * s
    q = b[3] - 2 * b[2] * s + 8 * s**3
    r = b[4] - b[3] * s + b[2] * s * s - 3 * s**4
    cubic = [F(8), -4 * p, -8 * r, 4 * p * r - q * q]
    lcm = math.lcm(*(c.denominator for c in cubic))
    ints = [int(c * lcm) for c in cubic]
    if ints[3] == 0:
        return True
    for n in _divisors(abs(ints[3])):
        for m in _divisors(abs(ints[0])):
            for cand in (F(n, m), F(-n, m)):
                acc = F(0)
                for c in ints:
                    acc = acc * cand + c
                if acc == 0:
                    return True
    return False


def _divisors(n):
    small = [k for k in range(1, math.isqrt(n) + 1) if n % k == 0]
    return sorted(set(small + [n // k for k in small]))


def plant_trivial(rng, d, height=1):
    """c * prod (x - r_i), distinct rational roots, Hankel rank 3."""
    while True:
        rs = set()
        while len(rs) < d:
            rs.add(rand_frac(rng, height))
        plain = [F(nonzero_int(rng, 9))]
        for r in sorted(rs):
            plain = poly_mul(plain, [F(1), -r])
        klass, _ = equation_class(plain)
        if klass == "NoNontrivialCenter":
            roots = [(complex(num(r)), 1) for r in sorted(rs)]
            return plain, klass, roots, None, {}


# ---------------------------------------------------------------------------
# n-ary plants
# ---------------------------------------------------------------------------


def _invertible(rng, n, hi=3):
    """Random invertible matrix with entries +-1..hi, none zero, so every
    planted form has the same monomial support and a like cost."""
    while True:
        m = [[F(nonzero_int(rng, hi)) for _ in range(n)] for _ in range(n)]
        if rank(m) == n:
            return m


def _expand_power(c, lin, d, n):
    """c * (sum_j lin[j] x_j)^d as {exponent tuple: coefficient}."""
    out = {}
    for combo in combinations_with_replacement(range(n), d):
        mono = [0] * n
        for j in combo:
            mono[j] += 1
        coeff = c * math.factorial(d)
        for j, e in enumerate(mono):
            coeff = coeff * lin[j] ** e * F(1, math.factorial(e))
        out[tuple(mono)] = out.get(tuple(mono), 0) + coeff
    return out


def plant_nary(rng, n, d, irrational=False):
    """Sum of n d-th powers of independent linear forms in x1..xn.

    ``irrational``: the first two summands are a conjugate pair over
    Q(sqrt(D)), so the center is Q(sqrt(D)) x Q^(n-2) and the exact path
    must hand over to the numeric one.
    """
    m = _invertible(rng, n)
    lams = [F(nonzero_int(rng, 5)) for _ in range(n)]
    terms = {}
    if irrational:
        D = rng.choice(_IRRATIONAL_D)
        lam = Quad(nonzero_int(rng, 5), nonzero_int(rng, 5), D)
        lin = [Quad(u, v, D) for u, v in zip(m[0], m[1])]
        for mono, c in _expand_power(lam, lin, d, n).items():
            terms[mono] = terms.get(mono, 0) + 2 * c.a
        planted = [(lam, lin), (lam.conj(), [x.conj() for x in lin])]
        rest = range(2, n)
    else:
        planted = []
        rest = range(n)
    for i in rest:
        for mono, c in _expand_power(lams[i], m[i], d, n).items():
            terms[mono] = terms.get(mono, 0) + c
        planted.append((lams[i], m[i]))
    terms = {k: v for k, v in terms.items() if v != 0}
    if irrational:
        with mp.workprec(TRUTH_PREC):
            summands = [
                (complex(num(c)), [complex(num(x)) for x in lf]) for c, lf in planted
            ]
    else:
        summands = planted
    dec = {"degree": d, "exact": not irrational, "summands": summands}
    return terms, dec


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _univariate(plant, command, mode, extra=()):
    plain, klass, roots, dec, props = plant
    text = coeffs_text(plain) if mode == "coeffs" else expr_text(plain)
    argv = [command, "--input", mode, text, "--format", "json", *extra]
    if command == "solve" and klass == "NoNontrivialCenter" and len(plain) != 5:
        expect = 3  # no radical method; quartics take the two-squares route
    else:
        expect = 0
    if command == "classify":
        roots, dec = None, None
    props = {"degree": len(plain) - 1, "digits": digits(plain), "huge": digits(plain) > 308, **props}
    return Case(argv, klass, expect, roots, dec, props)


# Block layout.  A run's p50 and p90 are order statistics over every call, and
# per-call cost is set mostly by class and degree, so each block is laid out
# in cost groups: the median call and the 90th-percentile call each fall
# inside a group of like-cost inputs, not on the edge between two groups
# whose costs differ by 2x.  Otherwise the percentiles would jump from one
# group to the next with the draw.


def block_solve_verified(rng, k):
    """`solve --format json` with the oracle on, degrees 3-16 (60 calls).

    Cost groups, cheapest first: 22 light (d <= 5 ratio classes, d <= 4 sums,
    quartics, trivial-center exits, ~10-45 ms) | 15 around the median
    (d = 5-7, ~60 ms) | 14 mid (d = 4-9, 80-300 ms) | 6 around p90 (d = 10,
    ~400 ms) | 3 heaviest (d = 12, 14, 16).
    """
    tp = lambda d, same=True: plant_two_power(rng, d, same_sign=same)
    irr = lambda d: plant_two_power(rng, d, irrational=True)
    ratio = lambda d, tag: plant_ratio(rng, d, tag)
    ltp = lambda d: plant_linear_times_power(rng, d)
    ppc, ctpp, pp = "PowerPlusConstant", "ConstantTimesPowerPlusPower", "PerfectPower"
    specs = [
        tp(3), tp(3, False), irr(3), irr(3), tp(4), tp(4, False), irr(4), irr(4),
        ratio(3, ppc), ratio(3, ctpp), ratio(4, ppc), ratio(4, ctpp),
        ratio(5, ppc), ratio(5, ctpp), plant_quartic(rng, True), plant_quartic(rng, True),
        plant_quartic(rng, False), plant_quartic(rng, False),
        plant_trivial(rng, 9), plant_trivial(rng, 13), ltp(3), ratio(3, pp),
        tp(5), tp(5), tp(6), tp(6), tp(6), tp(6, False), tp(6, False), tp(6, False),
        ratio(6, ppc), ratio(6, ppc), ratio(6, ctpp), ratio(7, ctpp), ratio(7, ctpp),
        irr(5), irr(5),
        ratio(4, pp), ltp(4), ratio(7, ppc), irr(6), irr(6), tp(7), tp(7, False),
        irr(7), ltp(5), ratio(5, pp), tp(8), irr(8), tp(9), irr(9),
        tp(10), tp(10), tp(10, False), tp(10, False), irr(10), irr(10),
        tp(12), tp(14), tp(16),
    ]
    modes = ("coeffs", "expr")
    return [_univariate(p, "solve", modes[(i + k) % 2]) for i, p in enumerate(specs)]


def block_solve_exact(rng, k):
    """`solve --no-verify` and `classify`, d = 3-40 (68 calls).

    27 inputs through both commands, 8 more through `classify` only, so the
    median lands among the ~2 ms calls, and 6 more d = 30 sums of 4-digit
    height through `solve` only, so p90 lands among ~70 ms calls.
    """
    specs = [
        plant_two_power(rng, d, height=h)
        for d, h in ((3, 1), (5, 1), (8, 1), (12, 2), (20, 2), (30, 4), (40, 8))
    ]
    specs += [
        plant_two_power(rng, d, irrational=True, height=h)
        for d, h in ((3, 1), (5, 1), (8, 2), (12, 4))
    ]
    specs += [plant_two_power(rng, d, near_minus_one=b) for d, b in ((3, 12), (9, 18), (21, 24))]
    specs.append(plant_two_power(rng, 4, near_one=30))
    specs.append(plant_two_power(rng, 5, lam_digits=330))
    specs.append(plant_ratio(rng, 7, "PowerPlusConstant", gamma_digits=400))
    specs += [plant_linear_times_power(rng, d, height=2) for d in (3, 10, 20)]
    specs += [
        plant_ratio(rng, d, tag, height=2)
        for d, tag in (
            (9, "PerfectPower"),
            (25, "PowerPlusConstant"),
            (40, "ConstantTimesPowerPlusPower"),
        )
    ]
    specs += [plant_quartic(rng, True), plant_quartic(rng, False)]
    specs += [plant_trivial(rng, d) for d in (7, 40)]
    modes = ("coeffs", "expr")
    cases = []
    for i, p in enumerate(specs):
        mode = modes[(i + k) % 2]
        cases.append(_univariate(p, "solve", mode, ("--no-verify",)))
        cases.append(_univariate(p, "classify", mode))
    for i in range(8):
        cases.append(_univariate(plant_two_power(rng, 8, height=1), "classify", modes[i % 2]))
    for i in range(6):
        plant = plant_two_power(rng, 30, height=4)
        cases.append(_univariate(plant, "solve", modes[i % 2], ("--no-verify",)))
    return cases


def block_decompose_nary(rng, k):
    """`decompose` on expr inputs (40 calls).

    Cost groups: 14 light (binary two-power sums, n = 3 cubics) | 12 around
    the median (n = 3 quartics, ~45 ms) | 6 mid (n = 3-5, incl. three
    conjugate-pair plants) | 8 heaviest, around p90 (n = 6 cubics and n = 5
    quartics, ~600 ms).
    """
    cases = []
    for d in (3, 4, 5, 6, 3, 4, 5, 6):
        plain, klass, _, dec, props = plant_two_power(rng, d, same_sign=d % 2 == 0)
        cases.append(
            Case(
                ["decompose", "--input", "expr", expr_text(plain), "--format", "json"],
                klass,
                0,
                None,
                dec,
                {"degree": d, "nvars": 2, "digits": digits(plain), **props},
            )
        )
    shapes = [(3, 3, False)] * 6 + [(3, 4, False)] * 12
    shapes += [(3, 3, True), (3, 3, True), (4, 3, False), (3, 4, True), (4, 4, False)]
    shapes += [(5, 3, False)]
    shapes += [(6, 3, False)] * 6 + [(5, 4, False)] * 2
    for n, d, irrational in shapes:
        terms, dec = plant_nary(rng, n, d, irrational=irrational)
        cases.append(_nary_case(terms, dec, n, d, irrational))
    return cases


def _nary_case(terms, dec, n, d, irrational):
    return Case(
        ["decompose", "--input", "expr", nary_text(terms), "--format", "json"],
        "DiagonalForm",
        0,
        None,
        dec,
        {
            "degree": d,
            "nvars": n,
            "digits": digits(list(terms.values())),
            "irrational_spectrum": irrational,
        },
    )


WORKLOADS = {
    "solve_verified": block_solve_verified,
    "solve_exact": block_solve_exact,
    "decompose_nary": block_decompose_nary,
}


def block(workload: str, seed: int, k: int) -> list:
    """Block k of a workload's stream; the same (seed, k) gives the same inputs."""
    rng = random.Random(f"{workload}/{seed}/{k}")
    cases = WORKLOADS[workload](rng, k)
    rng.shuffle(cases)
    return cases


def properties(cases) -> dict:
    """Degree histogram, class mix and property shares of a list of cases."""
    n = len(cases)
    hist, nvars, mix = {}, {}, {}
    for c in cases:
        hist[c.props["degree"]] = hist.get(c.props["degree"], 0) + 1
        n_vars = c.props.get("nvars", 1)
        nvars[n_vars] = nvars.get(n_vars, 0) + 1
        key = f"{c.command}:{c.klass}"
        mix[key] = mix.get(key, 0) + 1
    share = lambda key: round(sum(bool(c.props.get(key)) for c in cases) / n, 4)
    return {
        "inputs": n,
        "degree_histogram": dict(sorted(hist.items())),
        "nvars_histogram": dict(sorted(nvars.items())),
        "class_mix": dict(sorted(mix.items())),
        "max_coeff_digits": max(c.props["digits"] for c in cases),
        "share_irrational_disc": share("irrational_disc"),
        "share_irrational_spectrum": share("irrational_spectrum"),
        "share_forced_escalation": share("escalation"),
        "share_radicand_near_one": share("radicand_near_one"),
        "share_irrational_resolvent": share("irrational_resolvent"),
        "share_above_1e308": share("huge"),
    }

"""Classification of equations by center structure and radical solutions.

The pipeline for a degree-d equation f with binomial-scaled coefficients a_i
reads one record, the invariants of the Hankel matrix with rows
(a_i, a_{i+1}, a_{i+2}):

  * rank 1 is a perfect power, rank 3 a trivial center (no radical method
    here);
  * at rank 2, a zero discriminant with D1 != 0 is a repeated generator
    eigenvalue, which forces a root of multiplicity d-1 with the last root
    closed by Vieta;
  * every other rank-2 equation -- a power plus a constant (D1 = 0), a
    constant times x^d plus a power (D3 = 0) or a sum of two powers -- is
    completed once into c1*L1^d + c2*L2^d, and every root is the Moebius
    image (w*b1 - b2) / (a2 - w*a1) of a d-th root w of -c1/c2, where
    L_j = a_j*x + b_j.

Quartics with trivial center (after a factor x^k is split off) take the
sum-of-two-squares route: depress, find a root of the resolvent cubic (by
completing the cube when no root is rational), split into two quadratics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc

from .center import BinaryInvariants, binary_invariants
from .errors import (
    CenterRankError,
    DegreeError,
    NoRadicalMethodError,
    RepeatedEigenvalueError,
)
from .forms import (
    BinaryForm,
    LinearForm,
    PowerSumDecomposition,
    UnivariateEquation,
    from_plain_coeffs,
)
from .oracle import rational_roots
from .scalars import (
    DEFAULT_PREC,
    QuadExt,
    exact_sqrt,
    nth_root,
    rational_nth_root,
    to_mpc,
    unit_root,
)

# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquationClass:
    tag: str  # PerfectPower | PowerPlusConstant | ConstantTimesPowerPlusPower
    #         | SumOfTwoPowers | LinearTimesPowerD1 | NoNontrivialCenter
    # PerfectPower: scale, shift (f = scale*(x + shift)^d); LinearTimesPowerD1:
    # repeated_root, simple_root; empty for the three two-power classes,
    # whose data complete_powers carries
    witness: dict
    invariants: BinaryInvariants  # of the homogenization

    @property
    def hankel_rank(self) -> int:
        return self.invariants.hankel_rank


def classify(eq: UnivariateEquation) -> EquationClass:
    """Total classification from the center invariants of the homogenization.

    With a0 != 0 (always, for an equation) the invariants decide every tag:
    Hankel rank 1 iff the a_i are geometric (a perfect power); at rank 2,
    D1 = 0 iff a_0..a_{d-1} are geometric (a power plus a constant); and a
    sum of two distinct powers with an x^d summand has the eigenvalue 0, so
    D1*D3 = lambda1*lambda2 = 0.  Outside these classes D1 != 0, so the
    two center classes need no pivot-restoring transform.
    """
    if eq.degree < 3:
        raise DegreeError("classification needs degree >= 3")
    a = eq.norm
    d = eq.degree
    inv = binary_invariants(eq.homogenize())
    if inv.hankel_rank == 1:
        tag, witness = "PerfectPower", {"scale": a[0], "shift": a[1] / a[0]}
    elif inv.hankel_rank == 3:
        tag, witness = "NoNontrivialCenter", {}
    elif inv.D1 == 0:
        tag, witness = "PowerPlusConstant", {}
    elif inv.discriminant == 0:
        tag = "LinearTimesPowerD1"
        witness = {
            "repeated_root": -inv.D2 / (2 * inv.D1),
            "simple_root": (d - 1) * inv.D2 / (2 * inv.D1) - d * a[1] / a[0],
        }
    elif inv.D3 == 0:
        tag, witness = "ConstantTimesPowerPlusPower", {}
    else:
        tag, witness = "SumOfTwoPowers", {}
    return EquationClass(tag=tag, witness=witness, invariants=inv)


# ---------------------------------------------------------------------------
# completing powers of binary forms
# ---------------------------------------------------------------------------


def _two_power_completion(norm, inv: BinaryInvariants) -> PowerSumDecomposition:
    """c1*(x + (l1/D1) y)^d + c2*(x + (l2/D1) y)^d for a pivoted rank-2 form."""
    if inv.discriminant == 0:
        raise RepeatedEigenvalueError("repeated generator eigenvalue")
    a0, a1 = norm[0], norm[1]
    l1, l2 = inv.lambda1, inv.lambda2
    c1 = (l2 * a0 - inv.D1 * a1) / (l2 - l1)
    c2 = (l1 * a0 - inv.D1 * a1) / (l1 - l2)
    form1 = LinearForm((Fraction(1), l1 / inv.D1))
    form2 = LinearForm((Fraction(1), l2 / inv.D1))
    d = len(norm) - 1
    summands = [(c, f) for c, f in ((c1, form1), (c2, form2)) if c != 0]
    return PowerSumDecomposition(tuple(summands), d)


def complete_powers(form: BinaryForm) -> PowerSumDecomposition:
    """Two-power completion of a binary form of degree >= 3 and Hankel rank 2.

    When D1 = 0 and a0 != 0, the a_0..a_{d-1} are geometric with ratio
    t = a1/a0, so the form is a0*(x + t*y)^d + gamma*y^d.  When D1 = 0 and
    a0 = 0, y^2 divides the form, which is no sum of two distinct powers.
    A repeated eigenvalue or the wrong Hankel rank is an error.
    """
    if form.degree < 3:
        raise DegreeError("complete_powers expects degree >= 3")
    return _complete_powers(form, binary_invariants(form))


def _complete_powers(form: BinaryForm, inv: BinaryInvariants) -> PowerSumDecomposition:
    """complete_powers with the form's invariants already computed."""
    if inv.hankel_rank != 2:
        raise CenterRankError(inv.hankel_rank)
    if inv.D1 != 0:
        return _two_power_completion(form.norm, inv)
    a0, a1, ad = form.norm[0], form.norm[1], form.norm[-1]
    if a0 == 0:  # then a1 = 0 as well
        raise RepeatedEigenvalueError("repeated generator eigenvalue")
    d = form.degree
    t = a1 / a0
    gamma = ad - a0 * t**d
    y_power = (gamma, LinearForm((Fraction(0), Fraction(1))))
    if t == 0:
        summands = ((a0, LinearForm((Fraction(1), Fraction(0)))), y_power)
    else:
        # a0*(x + t*y)^d = a0*t^d * (x/t + y)^d; it comes first iff its
        # eigenvalue a0*t^(d-3)*gamma under the x/y swap is the larger one
        power = (a0 * t**d, LinearForm((1 / t, Fraction(1))))
        first = gamma * a0 * t ** (d - 1) > 0
        summands = (power, y_power) if first else (y_power, power)
    return PowerSumDecomposition(summands, d)


# ---------------------------------------------------------------------------
# radical roots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadicalRoot:
    value: mpc
    multiplicity: int
    exact: object | None  # Fraction or QuadExt when the root is exact
    expr: str  # prefix mini-language, auditable without a CAS


@dataclass(frozen=True)
class RootSet:
    roots: tuple  # of RadicalRoot
    method: str
    pre_transform: tuple  # human-readable notes of transforms applied
    equation: UnivariateEquation

    @property
    def degree(self) -> int:
        return sum(r.multiplicity for r in self.roots)

    def values_with_multiplicity(self):
        out = []
        for r in self.roots:
            out.extend([r.value] * r.multiplicity)
        return out


def _prefix(x) -> str:
    if isinstance(x, QuadExt):
        return f"add({x.a},mul({x.b},sqrt({x.disc})))"
    return str(x)


def shift_equation(eq: UnivariateEquation, c: Fraction) -> UnivariateEquation:
    """Exact coefficients of f(x + c) (Taylor shift)."""
    b = list(eq.plain)
    d = eq.degree
    for i in range(d):
        for j in range(1, d - i + 1):
            b[j] += c * b[j - 1]
    return from_plain_coeffs(b)


#: Internal residual target, one order under the 1e-9 verification contract.
_RESIDUAL_TARGET = 1e-10
_MAX_ESCALATIONS = 6


def max_scaled_residual(root_set: "RootSet", prec: int) -> float:
    """max over roots of |f(x)| / (max|b_i| * max(1, |x|)^d)."""
    eq = root_set.equation
    with mp.workprec(prec):
        scale = max(abs(to_mpc(b, prec)) for b in eq.plain)
        worst = 0.0
        for r in root_set.roots:
            res = abs(eq.evaluate(r.value, prec))
            bound = scale * max(mp.mpf(1), abs(r.value)) ** eq.degree
            worst = max(worst, float(res / bound))
    return worst


def _escalate(evaluate, prec: int):
    """Re-evaluate the roots at doubled precision until the residual contract holds.

    Callers analyze the equation once, before this loop; each round only
    evaluates the radical expressions at the working precision.
    Near-degenerate inputs (huge or nearly cancelling coefficients) lose
    digits in the root formulas; the radical expressions are exact, so
    raising the evaluation precision always recovers the contract.
    """
    working = max(prec, DEFAULT_PREC)
    result = None
    for _ in range(_MAX_ESCALATIONS):
        with mp.workprec(working):
            result = evaluate(working)
        root_set = result if isinstance(result, RootSet) else result.root_set
        if max_scaled_residual(root_set, working + 64) <= _RESIDUAL_TARGET:
            break
        working *= 2
    return result


def _mk_root(value, multiplicity=1, exact=None, expr=None):
    return RadicalRoot(
        value=mpc(value),
        multiplicity=multiplicity,
        exact=exact,
        expr=_prefix(exact) if expr is None else expr,
    )


def solve_by_radicals(
    eq: UnivariateEquation, prec: int = DEFAULT_PREC, branch: int = 0
) -> RootSet:
    """Radical roots of an equation whose homogenization has a usable center.

    ``branch`` rotates the principal d-th root by the branch-th root of
    unity; any choice yields the same root multiset.  When the x^k-free
    part has Hankel rank 3, a quartic takes the sum-of-two-squares route;
    at any other degree that rank raises NoRadicalMethodError.
    """
    return _solve_classified(eq, None, prec, branch)[0]


def _solve_classified(eq: UnivariateEquation, cls, prec: int, branch: int = 0):
    """(solve_by_radicals, completion), reusing ``cls = classify(eq)`` when
    the caller has it.

    A factor x^k is split off first; the rest is classified, and a two-power
    class completed, once, here; only the root evaluation is repeated by the
    escalation loop.  The completion is of the x^k-free part, None for the
    other classes and the two-squares quartic.
    """
    work, zeros = eq, 0
    if eq.degree >= 3:
        while work.degree > 1 and work.plain[-1] == 0:
            zeros += 1
            work = from_plain_coeffs(work.plain[:-1])
    if work.degree >= 3 and (cls is None or zeros):
        cls = classify(work)
    if work.degree >= 3 and cls.tag == "NoNontrivialCenter" and work.degree != 4:
        raise NoRadicalMethodError(
            "Hankel rank 3: the center is trivial, no radical formula here"
        )
    dec = None  # the completion of a two-power class
    if work.degree >= 3 and cls.tag not in (
        "PerfectPower",
        "LinearTimesPowerD1",
        "NoNontrivialCenter",
    ):
        dec = _complete_powers(work.homogenize(), cls.invariants)
    root_set = _escalate(
        lambda working: _radical_roots(eq, work, zeros, cls, dec, working, branch),
        prec,
    )
    return root_set, dec


def _radical_roots(eq, work, zeros, cls, dec, prec, branch) -> RootSet:
    """One evaluation of the roots of eq = x^zeros * work at precision prec."""
    d = work.degree
    pre_transform = ()
    if d == 1:
        root = -work.plain[1] / work.plain[0]
        roots = [_mk_root(to_mpc(root, prec), 1, exact=root)]
        method = "linear"
    elif d == 2:
        roots = _quadratic_roots(work, prec)
        method = "quadratic"
    elif cls.tag == "PerfectPower":
        root = -work.norm[1] / work.norm[0]
        roots = [_mk_root(to_mpc(root, prec), d, exact=root)]
        method = "perfect-power"
    elif cls.tag == "LinearTimesPowerD1":
        repeated, simple = cls.witness["repeated_root"], cls.witness["simple_root"]
        roots = [
            _mk_root(to_mpc(repeated, prec), d - 1, exact=repeated),
            _mk_root(to_mpc(simple, prec), 1, exact=simple),
        ]
        method = "repeated-linear-factor"
    elif cls.tag == "NoNontrivialCenter":  # a quartic
        quartic = _solve_quartic(work, prec).root_set
        roots, method = list(quartic.roots), quartic.method
        pre_transform = quartic.pre_transform
    else:  # a two-power class, completed once by the caller
        roots = _power_sum_roots(dec, prec, branch)
        method = "two-power-sum"
    if zeros:
        roots.append(_mk_root(mpc(0), zeros, exact=Fraction(0)))
        pre_transform = (f"factored out x^{zeros}",) + pre_transform
    return RootSet(
        roots=tuple(roots),
        method=method,
        pre_transform=pre_transform,
        equation=eq,
    )


def _quadratic_roots(eq: UnivariateEquation, prec):
    b0, b1, b2 = eq.plain
    disc = b1 * b1 - 4 * b0 * b2
    if disc == 0:
        root = -b1 / (2 * b0)
        return [_mk_root(to_mpc(root, prec), 2, exact=root)]
    s = exact_sqrt(disc)
    r1 = (-b1 + s) / (2 * b0)
    r2 = (-b1 - s) / (2 * b0)
    return [_mk_root(to_mpc(r, prec), 1, exact=r) for r in (r1, r2)]


def _power_sum_roots(dec: PowerSumDecomposition, prec: int, branch: int = 0):
    """Every root of c1*L1^d + c2*L2^d = 0, L_j = a_j*x + b_j, by one Moebius map.

    L2 = w*L1 with w^d = ratio = -c1/c2, so x = (w*b1 - b2) / (a2 - w*a1).
    Each form with a_j != 0 is scaled to a_j = 1 (c_j absorbs a_j^d) and a
    y^d summand goes first, so a0*(x + t*y)^d + gamma*y^d gives x = w - t.
    a2 - w*a1 cancels for the w nearest a2/a1; there it is taken as
    (a2^d - ratio*a1^d) / sum_j a2^(d-1-j) (w*a1)^j, whose numerator is exact
    and nonzero: c2 times it is the leading coefficient.
    """
    d = dec.degree
    scaled = []
    for c, form in dec.summands:
        a, b = form.coeffs
        scaled.append((c * a**d, Fraction(1), b / a) if a != 0 else (c, a, b))
    (c1, a1, b1), (c2, a2, b2) = sorted(scaled, key=lambda s: s[1] != 0)
    ratio = -c1 / c2
    w_exact = rational_nth_root(ratio, d) if isinstance(ratio, Fraction) else None
    base = nth_root(ratio, d, prec)
    a1n, b1n, a2n, b2n = (to_mpc(x, prec) for x in (a1, b1, a2, b2))
    ws = [base * unit_root(d, (i + branch) % d, prec) for i in range(d)]
    near = min(range(d), key=lambda i: abs(a2n - ws[i] * a1n))
    delta = f"root({_prefix(ratio)},{d})"
    roots = []
    for i, w in enumerate(ws):
        k = (i + branch) % d
        exact = None
        if w_exact is not None and 2 * k in (0, d):  # w = +-w_exact
            we = w_exact if k == 0 else -w_exact
            exact = (we * b1 - b2) / (a2 - we * a1)
            value = to_mpc(exact, prec)
        else:
            den = (
                to_mpc(a2**d - ratio * a1**d, prec)
                / sum(a2n ** (d - 1 - j) * (w * a1n) ** j for j in range(d))
                if i == near
                else a2n - w * a1n
            )
            value = (w * b1n - b2n) / den
        wk = delta if k == 0 else f"mul({delta},zeta({d},{k}))"
        expr = (
            f"div(sub(mul({wk},{_prefix(b1)}),{_prefix(b2)}),"
            f"sub({_prefix(a2)},mul({wk},{_prefix(a1)})))"
        )
        roots.append(_mk_root(value, 1, exact=exact, expr=expr))
    return roots


# ---------------------------------------------------------------------------
# cubic: the classical depressed-cubic formula
# ---------------------------------------------------------------------------


def cardano(p, q, prec: int = DEFAULT_PREC) -> RootSet:
    """Roots of x^3 + p*x + q = 0 by the classical radical formula.

    The two cube roots are paired so their product is -p/3; the remaining
    roots rotate the pair by the primitive cube roots of unity.
    """
    p, q = Fraction(p), Fraction(q)
    return _escalate(lambda working: _cardano(p, q, working), prec)


def _cardano(p: Fraction, q: Fraction, prec: int) -> RootSet:
    eq = from_plain_coeffs((1, 0, p, q))
    if p == 0 and q == 0:
        roots = (_mk_root(mpc(0), 3, exact=Fraction(0)),)
    elif p == 0:
        base = nth_root(-q, 3, prec)
        base_exact = rational_nth_root(-q, 3)
        roots = []
        for i in range(3):
            exact = base_exact if (base_exact is not None and i == 0) else None
            roots.append(
                _mk_root(
                    base * unit_root(3, i, prec),
                    1,
                    exact=exact,
                    expr=f"mul(root({_prefix(-q)},3),zeta(3,{i}))",
                )
            )
    elif q == 0:
        s = exact_sqrt(-p)
        roots = [
            _mk_root(mpc(0), 1, exact=Fraction(0)),
            _mk_root(to_mpc(s, prec), 1, exact=s, expr=f"sqrt({_prefix(-p)})"),
            _mk_root(
                -to_mpc(s, prec), 1, exact=-s, expr=f"neg(sqrt({_prefix(-p)}))"
            ),
        ]
    else:
        radicand = q * q / 4 + p * p * p / 27
        s = mp.sqrt(to_mpc(radicand, prec))
        u = nth_root(to_mpc(-q, prec) / 2 + s, 3, prec)
        v = to_mpc(-p, prec) / 3 / u
        omega = unit_root(3, 1, prec)
        omega2 = unit_root(3, 2, prec)
        exprs = [
            (u + v, "add(u,v)"),
            (omega * u + omega2 * v, "add(mul(zeta(3,1),u),mul(zeta(3,2),v))"),
            (omega2 * u + omega * v, "add(mul(zeta(3,2),u),mul(zeta(3,1),v))"),
        ]
        stem = (
            f"u=root(add({-q}/2,sqrt({_prefix(radicand)})),3); "
            f"v=div({-p}/3,u)"
        )
        roots = [
            _mk_root(val, 1, expr=f"{expr} where {stem}")
            for val, expr in exprs
        ]
    return RootSet(
        roots=tuple(roots), method="cardano", pre_transform=(), equation=eq
    )


# ---------------------------------------------------------------------------
# quartics: depression and the sum-of-two-squares factorization
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DepressedQuartic:
    p: Fraction
    q: Fraction
    r: Fraction
    shift: Fraction  # x = y - shift


@dataclass(frozen=True)
class ResolventData:
    alpha: object  # chosen resolvent root (Fraction when rational)
    beta: mpc  # (beta*y + gamma)^2 completes the square: beta^2 = p - 2a
    gamma: mpc


@dataclass(frozen=True)
class QuarticSolution:
    root_set: RootSet
    depressed: DepressedQuartic
    resolvent: ResolventData
    factors: tuple  # two (1, B, C) quadratic factors of the depressed quartic


def depress_quartic(eq: UnivariateEquation) -> DepressedQuartic:
    """Monic-normalize and shift away the cubic term: y^4 + p y^2 + q y + r."""
    if eq.degree != 4:
        raise DegreeError("depress_quartic expects degree 4")
    b = [c / eq.plain[0] for c in eq.plain]
    s = b[1] / 4
    shifted = shift_equation(from_plain_coeffs(b), -s)
    _, cube, p, q, r = shifted.plain
    if cube != 0:
        raise ArithmeticError("depression failed to kill the cubic term")
    return DepressedQuartic(p=p, q=q, r=r, shift=s)


def _resolvent_alpha(p, q, r, prec):
    """A root of 8a^3 - 4p a^2 - 8r a + (4pr - q^2) = 0; rational preferred.

    Without a rational root the resolvent is irreducible, so its roots are
    distinct and no cube: its binary form completes into two cubes.
    """
    coeffs = [Fraction(8), -4 * p, -8 * r, 4 * p * r - q * q]
    rational = rational_roots(coeffs)
    if rational:
        return max(root for root, _ in rational)
    cubes = complete_powers(from_plain_coeffs(coeffs).homogenize())
    candidates = [root.value for root in _power_sum_roots(cubes, prec)]
    return max(candidates, key=lambda z: (z.real, z.imag))


def solve_quartic_by_two_squares(
    eq: UnivariateEquation, prec: int = DEFAULT_PREC
) -> QuarticSolution:
    """Quartic roots via (y^2 + a)^2 + (completed square) factorization.

    Writes the depressed quartic as (y^2 + a)^2 - (u y + v)^2 with
    u^2 = 2a - p and u v = -q/2, splits into two quadratics, and undoes the
    shift.  Exact data is kept whenever the resolvent root is rational.
    """
    return _escalate(lambda working: _solve_quartic(eq, working), prec)


def _solve_quartic(eq: UnivariateEquation, prec: int) -> QuarticSolution:
    dq = depress_quartic(eq)
    p, q, r = dq.p, dq.q, dq.r
    alpha = _resolvent_alpha(p, q, r, prec)
    sqrt = exact_sqrt if isinstance(alpha, Fraction) else mp.sqrt
    u = sqrt(2 * alpha - p)
    v = -q / (2 * u) if u != 0 else sqrt(alpha * alpha - r)
    factors = ((Fraction(1), u, alpha + v), (Fraction(1), -u, alpha - v))
    resolvent = ResolventData(
        alpha=alpha,
        beta=to_mpc(u, prec) * mpc(0, 1),
        gamma=to_mpc(v, prec) * mpc(0, 1),
    )
    roots = []
    for _, bq, cq in factors:
        bqn = to_mpc(bq, prec)
        cqn = to_mpc(cq, prec)
        disc = bqn * bqn - 4 * cqn
        sq = mp.sqrt(disc)
        for sign in (1, -1):
            y = (-bqn + sign * sq) / 2
            x = y - to_mpc(dq.shift, prec)
            roots.append(
                _mk_root(
                    x,
                    1,
                    expr=(
                        f"sub(div(add(neg({bq}),mul({sign},sqrt(sub(mul({bq},{bq}),"
                        f"mul(4,{cq}))))),2),{dq.shift})"
                    ),
                )
            )
    root_set = RootSet(
        roots=tuple(roots),
        method="quartic-two-squares",
        pre_transform=(f"depressed with x = y - {dq.shift}",),
        equation=eq,
    )
    return QuarticSolution(
        root_set=root_set, depressed=dq, resolvent=resolvent, factors=factors
    )

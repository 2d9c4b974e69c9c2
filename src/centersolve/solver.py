"""Classification of equations by center structure and radical solutions.

The pipeline for a degree-d equation f with binomial-scaled coefficients a_i:

  * ratio classes first (perfect power; power plus constant; constant plus
    power), decided by exact cross-product tests, solved by d-th roots;
  * otherwise the Hankel matrix with rows (a_i, a_{i+1}, a_{i+2}) is ranked:
    rank 3 means a trivial center and no radical method here, rank 2 hands
    the equation to the center generator.  Distinct generator eigenvalues
    complete f into two d-th powers and every root is a Moebius image of a
    d-th root of unity; a repeated eigenvalue forces a root of multiplicity
    d-1 with the last root closed by Vieta.

Quartics with trivial center take the separate sum-of-two-squares route:
depress, solve the resolvent cubic, split into two quadratics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc

from .center import BinaryInvariants, binary_center_system, binary_invariants
from .errors import (
    CenterRankError,
    DegreeError,
    NoRadicalMethodError,
    PivotError,
    RepeatedEigenvalueError,
    ResolventFailureError,
)
from .forms import (
    BinaryForm,
    LinearForm,
    PowerSumDecomposition,
    UnivariateEquation,
    from_plain_coeffs,
)
from .linalg import rank
from .oracle import rational_roots
from .scalars import (
    DEFAULT_PREC,
    QuadExt,
    exact_sqrt,
    is_exact,
    nth_root,
    rational_nth_root,
    scalar_str,
    to_mpc,
    unit_root,
)

# ---------------------------------------------------------------------------
# Hankel matrix and classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HankelMatrix:
    rows: tuple  # (d-1) x 3, entries read from the a-coefficients
    rank: int


def hankel(eq: UnivariateEquation) -> HankelMatrix:
    """The (d-1) x 3 coefficient Hankel matrix with its exact rank."""
    if eq.degree < 3:
        raise DegreeError("hankel matrix needs degree >= 3")
    rows = tuple((a, b, -c) for a, b, c in binary_center_system(eq.homogenize()))
    return HankelMatrix(rows=rows, rank=rank(rows))


@dataclass(frozen=True)
class EquationClass:
    tag: str  # PerfectPower | PowerPlusConstant | ConstantTimesPowerPlusPower
    #         | SumOfTwoPowers | LinearTimesPowerD1 | NoNontrivialCenter
    witness: dict
    invariants: BinaryInvariants  # of the homogenization

    @property
    def hankel_rank(self) -> int:
        return self.invariants.hankel_rank


def _geometric(seq) -> bool:
    """All cross products s_i*s_{j+1} == s_{i+1}*s_j (projective ratio test)."""
    m = len(seq) - 1
    return all(
        seq[i] * seq[j + 1] == seq[i + 1] * seq[j]
        for i in range(m)
        for j in range(i + 1, m)
    )


def classify(eq: UnivariateEquation) -> EquationClass:
    """Total classification by ratio tests and center structure.

    Outside the three ratio classes, Hankel rank <= 2 forces the pivot
    D1 = a0*a2 - a1^2 to be nonzero (a0 != 0 for an equation), so the two
    center classes need no pivot-restoring transform.
    """
    if eq.degree < 3:
        raise DegreeError("classification needs degree >= 3")
    a = eq.norm
    d = eq.degree
    inv = binary_invariants(eq.homogenize())
    if _geometric(a):
        tag, witness = "PerfectPower", {"scale": a[0], "shift": a[1] / a[0]}
    elif _geometric(a[:-1]):
        t = a[1] / a[0]
        tag = "PowerPlusConstant"
        witness = {"scale": a[0], "shift": t, "constant": a[d] - a[0] * t**d}
    elif a[d] != 0 and _geometric(a[1:]):
        u = a[d - 1] / a[d]
        tag = "ConstantTimesPowerPlusPower"
        witness = {
            "scale": a[d],
            "reciprocal_shift": u,
            "constant": a[0] - a[d] * u**d,
        }
    elif inv.hankel_rank == 3:
        tag, witness = "NoNontrivialCenter", {}
    elif inv.discriminant != 0:
        tag, witness = "SumOfTwoPowers", {}
    else:
        tag = "LinearTimesPowerD1"
        witness = {
            "repeated_root": -inv.D2 / (2 * inv.D1),
            "simple_root": (d - 1) * inv.D2 / (2 * inv.D1) - d * a[1] / a[0],
        }
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


def complete_cube(form: BinaryForm) -> PowerSumDecomposition:
    """Write a binary cubic as a sum of two cubes of linear forms.

    Requires the pivot D1 != 0 and distinct generator eigenvalues; the two
    summand coefficients and shifts are exact over Q or Q(sqrt(disc)).
    """
    if form.degree != 3:
        raise DegreeError("complete_cube expects degree 3")
    inv = binary_invariants(form)
    if inv.D1 == 0:  # for a cubic this includes every rank below 2
        raise PivotError("D1 = 0")
    return _two_power_completion(form.norm, inv)


def _swap_decomposition(dec: PowerSumDecomposition) -> PowerSumDecomposition:
    return PowerSumDecomposition(
        tuple((c, LinearForm((f.coeffs[1], f.coeffs[0]))) for c, f in dec.summands),
        dec.degree,
    )


def complete_powers(form: BinaryForm) -> PowerSumDecomposition:
    """Two-power completion for degree >= 3, restoring the pivot if needed.

    When D1 = 0 (possible for a binary form, never for an equation outside
    the ratio classes) the same completion is run on the x/y-swapped form,
    and the pure diagonal a0*x^d + ad*y^d splits directly; genuinely
    repeated eigenvalues or the wrong Hankel rank are errors.
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
    swapped = form.reversed()
    swapped_inv = binary_invariants(swapped)
    if swapped_inv.D1 != 0:
        return _swap_decomposition(_two_power_completion(swapped.norm, swapped_inv))
    if all(c == 0 for c in form.norm[1:-1]):
        a0, ad = form.norm[0], form.norm[-1]
        if a0 != 0 and ad != 0:
            return PowerSumDecomposition(
                (
                    (a0, LinearForm((Fraction(1), Fraction(0)))),
                    (ad, LinearForm((Fraction(0), Fraction(1)))),
                ),
                form.degree,
            )
    raise PivotError("no pivot available for the two-power completion")


# ---------------------------------------------------------------------------
# radical roots
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadicalRoot:
    value: mpc
    multiplicity: int
    exact: object | None  # Fraction or QuadExt when the root is exact
    expr: str  # prefix mini-language, auditable without a CAS
    pretty: str
    params: dict | None = None  # structured radical data (radicand, index, ...)


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


def _root_expr(radicand, d, i, data: BinaryInvariants) -> str:
    delta = f"root({_prefix(radicand)},{d})"
    w = delta if i == 0 else f"mul({delta},zeta({d},{i}))"
    return (
        f"div(sub(mul({w},{_prefix(data.lambda1)}),{_prefix(data.lambda2)}),"
        f"mul({_prefix(data.D1)},sub(1,{w})))"
    )


def shift_equation(eq: UnivariateEquation, c: Fraction) -> UnivariateEquation:
    """Exact coefficients of f(x + c) (Taylor shift)."""
    b = list(eq.plain)
    d = eq.degree
    for i in range(d):
        for j in range(1, d - i + 1):
            b[j] += c * b[j - 1]
    return from_plain_coeffs(b)


def reversal_transform(eq: UnivariateEquation) -> UnivariateEquation:
    """Reverse the coefficients; roots map to their reciprocals."""
    if eq.plain[-1] == 0:
        raise PivotError("constant term is zero; factor out x first")
    return from_plain_coeffs(tuple(reversed(eq.plain)))


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
    Near-degenerate inputs (delta numerically close to a root of unity)
    cancel catastrophically in the root denominators; the radical
    expressions are exact, so raising the evaluation precision always
    recovers the contract.
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


def _mk_root(value, multiplicity=1, exact=None, expr=None, pretty=None, params=None):
    if exact is not None and expr is None:
        expr = _prefix(exact)
    if pretty is None:
        pretty = scalar_str(exact) if exact is not None else str(value)
    return RadicalRoot(
        value=mpc(value),
        multiplicity=multiplicity,
        exact=exact,
        expr=expr or str(value),
        pretty=pretty,
        params=params,
    )


def solve_by_radicals(
    eq: UnivariateEquation, prec: int = DEFAULT_PREC, branch: int = 0
) -> RootSet:
    """Radical roots of an equation whose homogenization has a usable center.

    ``branch`` rotates the principal d-th root by the branch-th root of
    unity; any choice yields the same root multiset.  Raises
    NoRadicalMethodError when the Hankel rank is 3 (for quartics, the
    sum-of-two-squares route still applies).
    """
    return _solve_classified(eq, None, prec, branch)


def _solve_classified(
    eq: UnivariateEquation, cls, prec: int, branch: int = 0
) -> RootSet:
    """solve_by_radicals, reusing ``cls = classify(eq)`` when the caller has it.

    A factor x^k is split off first; the rest is classified once, here, and
    only the root evaluation is repeated by the escalation loop.
    """
    work, zeros = eq, 0
    if eq.degree >= 3:
        while work.degree > 1 and work.plain[-1] == 0:
            zeros += 1
            work = from_plain_coeffs(work.plain[:-1])
    if work.degree >= 3 and (cls is None or zeros):
        cls = classify(work)
    if work.degree >= 3 and cls.tag == "NoNontrivialCenter":
        hint = (
            " (quartic: use solve_quartic_by_two_squares)" if work.degree == 4 else ""
        )
        raise NoRadicalMethodError(
            f"Hankel rank 3: the center is trivial, no radical formula here{hint}"
        )
    return _escalate(
        lambda working: _radical_roots(eq, work, zeros, cls, working, branch), prec
    )


def _radical_roots(eq, work, zeros, cls, prec, branch) -> RootSet:
    """One evaluation of the roots of eq = x^zeros * work at precision prec."""
    pre = [f"factored out x^{zeros}"] if zeros else []
    d = work.degree
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
    elif cls.tag == "PowerPlusConstant":
        w = cls.witness
        roots = _power_plus_constant_roots(
            w["scale"], w["shift"], w["constant"], d, prec, branch
        )
        method = "power-plus-constant"
    elif cls.tag == "ConstantTimesPowerPlusPower":
        # the reversed equation is a power plus constant with this witness
        w = cls.witness
        roots = _power_plus_constant_roots(
            w["scale"], w["reciprocal_shift"], w["constant"], d, prec, branch
        )
        roots = [_invert_root(r, prec) for r in roots]
        pre.append("reversal (roots inverted)")
        method = "reversed-power-plus-constant"
    elif cls.tag == "SumOfTwoPowers":
        roots = _two_power_roots(work, cls.invariants, prec, branch)
        method = "two-power-sum"
    else:  # LinearTimesPowerD1
        repeated, simple = cls.witness["repeated_root"], cls.witness["simple_root"]
        roots = [
            _mk_root(to_mpc(repeated, prec), d - 1, exact=repeated),
            _mk_root(to_mpc(simple, prec), 1, exact=simple),
        ]
        method = "repeated-linear-factor"
    if zeros:
        roots.append(_mk_root(mpc(0), zeros, exact=Fraction(0)))
    return RootSet(
        roots=tuple(roots),
        method=method,
        pre_transform=tuple(pre),
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


def _power_plus_constant_roots(scale, t, gamma, d, prec, branch):
    """Roots of scale*(x + t)^d + gamma."""
    radicand = -gamma / scale
    base_exact = rational_nth_root(radicand, d)
    base = nth_root(radicand, d, prec)
    roots = []
    for i in range(d):
        k = (i + branch) % d
        w = base * unit_root(d, k, prec)
        exact = None
        if base_exact is not None and k == 0:
            exact = -t + base_exact
        expr = f"sub(mul(root({_prefix(radicand)},{d}),zeta({d},{k})),{t})"
        pretty = f"({scalar_str(radicand)})^(1/{d}) * zeta_{d}^{k} - {scalar_str(t)}"
        value = to_mpc(exact, prec) if exact is not None else w - to_mpc(t, prec)
        roots.append(
            _mk_root(
                value,
                1,
                exact=exact,
                expr=expr,
                pretty=pretty,
                params={"radicand": radicand, "degree": d, "index": k, "shift": t},
            )
        )
    return roots


def _invert_root(r: RadicalRoot, prec) -> RadicalRoot:
    exact = None
    if r.exact is not None:
        exact = 1 / r.exact
        value = to_mpc(exact, prec)
    else:
        value = 1 / r.value
    return RadicalRoot(
        value=mpc(value),
        multiplicity=r.multiplicity,
        exact=exact,
        expr=f"inv({r.expr})",
        pretty=f"1/({r.pretty})",
        params=None if r.params is None else {**r.params, "inverted": True},
    )


def _two_power_roots(eq: UnivariateEquation, data: BinaryInvariants, prec, branch):
    d = eq.degree
    a0, a1 = eq.norm[0], eq.norm[1]
    # num - den = (l2 - l1)*a0 and den = (l1 - l2)*c2 are nonzero: the
    # eigenvalues are distinct, a0 != 0, and c2 = 0 would be a perfect power
    num = data.lambda2 * a0 - data.D1 * a1
    den = data.lambda1 * a0 - data.D1 * a1
    ratio = num / den
    delta_exact = (
        rational_nth_root(ratio, d) if isinstance(ratio, Fraction) else None
    )
    with mp.workprec(max(prec, 64)):
        delta = nth_root(to_mpc(ratio, prec), d, prec) * unit_root(d, branch, prec)
        roots = []
        l1 = to_mpc(data.lambda1, prec)
        l2 = to_mpc(data.lambda2, prec)
        d1 = to_mpc(data.D1, prec)
        ws = [delta * unit_root(d, i, prec) for i in range(d)]
        # 1 - w cancels for the w nearest 1; there 1 - w = (1 - ratio) / sum w^j,
        # since w^d = ratio is exact and the sum is near d
        near = min(range(d), key=lambda i: abs(1 - ws[i]))
        for i, w in enumerate(ws):
            k = (i + branch) % d
            exact = None
            if delta_exact is not None and k == 0:
                exact = (delta_exact * data.lambda1 - data.lambda2) / (
                    data.D1 * (1 - delta_exact)
                )
            one_minus_w = (
                to_mpc(1 - ratio, prec) / sum(w**j for j in range(d))
                if i == near
                else 1 - w
            )
            value = (
                to_mpc(exact, prec)
                if exact is not None
                else (w * l1 - l2) / (d1 * one_minus_w)
            )
            pretty = (
                f"(delta*zeta_{d}^{k}*l1 - l2)/(D1*(1 - delta*zeta_{d}^{k})), "
                f"delta = ({scalar_str(ratio)})^(1/{d})"
            )
            root = _mk_root(
                value,
                1,
                exact=exact,
                expr=_root_expr(ratio, d, k, data),
                pretty=pretty,
                params={
                    "radicand": ratio,
                    "degree": d,
                    "index": k,
                    "lambda1": data.lambda1,
                    "lambda2": data.lambda2,
                    "D1": data.D1,
                },
            )
            roots.append(root)
    return roots


# ---------------------------------------------------------------------------
# cubic: the classical depressed-cubic formula
# ---------------------------------------------------------------------------


def cardano(p, q, prec: int = DEFAULT_PREC) -> RootSet:
    """Roots of x^3 + p*x + q = 0 by the classical radical formula.

    The two cube roots are paired so their product is -p/3; the remaining
    roots rotate the pair by the primitive cube roots of unity.
    """
    p = Fraction(p) if not isinstance(p, Fraction) else p
    q = Fraction(q) if not isinstance(q, Fraction) else q
    return _escalate(lambda working: _cardano(p, q, working), prec)


def _cardano(p: Fraction, q: Fraction, prec: int) -> RootSet:
    eq = from_plain_coeffs((1, 0, p, q))
    with mp.workprec(max(prec, 64)):
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
                        pretty=f"({scalar_str(-q)})^(1/3) * zeta_3^{i}",
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
                _mk_root(val, 1, expr=f"{expr} where {stem}", pretty=f"{expr}; {stem}")
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
    """A root of 8a^3 - 4p a^2 - 8r a + (4pr - q^2) = 0; rational preferred."""
    coeffs = [Fraction(8), -4 * p, -8 * r, 4 * p * r - q * q]
    rational = rational_roots(coeffs)
    if rational:
        return max(root for root, _ in rational)
    # depress the resolvent and hand it to the cubic formula
    b = [c / coeffs[0] for c in coeffs]
    s = b[1] / 3
    shifted = shift_equation(from_plain_coeffs(b), -s)
    _, _, pc, qc = shifted.plain
    candidates = [root.value - to_mpc(s, prec) for root in _cardano(pc, qc, prec).roots]
    best = max(candidates, key=lambda z: (z.real, z.imag))
    return best


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
    exact_mode = isinstance(alpha, Fraction)
    if exact_mode:
        u = exact_sqrt(2 * alpha - p)
        if u != 0:
            v = -q / (2 * u) if isinstance(u, Fraction) else (-q) * u.inverse() / 2
        else:
            v = exact_sqrt(alpha * alpha - r)
        factors = ((Fraction(1), u, alpha + v), (Fraction(1), -u, alpha - v))
        beta = to_mpc(u, prec) * mpc(0, 1)
        gamma = to_mpc(v, prec) * mpc(0, 1)
    else:
        with mp.workprec(max(prec, 64)):
            u = mp.sqrt(2 * alpha - to_mpc(p, prec))
            if abs(u) > 0:
                v = -to_mpc(q, prec) / (2 * u)
            else:
                v = mp.sqrt(alpha * alpha - to_mpc(r, prec))
            factors = ((mpc(1), u, alpha + v), (mpc(1), -u, alpha - v))
            beta = u * mpc(0, 1)
            gamma = v * mpc(0, 1)
    resolvent = ResolventData(alpha=alpha, beta=mpc(beta), gamma=mpc(gamma))
    roots = []
    with mp.workprec(max(prec, 64)):
        for _, bq, cq in factors:
            bqn = to_mpc(bq, prec) if is_exact(bq) else mpc(bq)
            cqn = to_mpc(cq, prec) if is_exact(cq) else mpc(cq)
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
                        pretty=(
                            f"quadratic factor y^2 + ({bq})y + ({cq}); "
                            f"x = y - {dq.shift}"
                        ),
                    )
                )
    if len(roots) != 4:
        raise ResolventFailureError("factorization did not yield four roots")
    root_set = RootSet(
        roots=tuple(roots),
        method="quartic-two-squares",
        pre_transform=(f"depressed with x = y - {dq.shift}",),
        equation=eq,
    )
    return QuarticSolution(
        root_set=root_set, depressed=dq, resolvent=resolvent, factors=factors
    )

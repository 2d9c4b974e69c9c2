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

Every route builds each root once as a radical expression tree over Q; the
tree's text is the printed ``expr`` and its value at a precision is the
root, so precision escalation only evaluates the trees.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property

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
    form: BinaryForm = field(repr=False, compare=False)  # the homogenization

    @property
    def hankel_rank(self) -> int:
        return self.invariants.hankel_rank

    @cached_property
    def completion(self) -> PowerSumDecomposition:
        """The two-power completion of the homogenization, computed once."""
        return _complete_powers(self.form, self.invariants)


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
    form = eq.homogenize()
    inv = binary_invariants(form)
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
    return EquationClass(tag=tag, witness=witness, invariants=inv, form=form)


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


class _Node:
    """A radical expression: an op of ``_OPS`` applied to sub-trees, exact
    leaves (Fraction or QuadExt) and integers (degrees and small factors,
    which enter the arithmetic as they are).  Its text, rendered on the
    first ``str()`` and kept, is the printed ``expr``, so a tree that is
    never printed (a resolvent root not chosen) is never rendered; a shared
    sub-tree is rendered once and printed in full wherever it occurs.
    ``_value`` evaluates it.
    """

    __slots__ = ("op", "args", "text")

    def __init__(self, op, *args):
        self.op, self.args, self.text = op, args, None

    def __str__(self):
        if self.text is None:
            self.text = f"{self.op}({','.join(map(_prefix, self.args))})"
        return self.text


_OPS = {
    "add": operator.add, "sub": operator.sub, "neg": operator.neg,
    "mul": operator.mul, "div": operator.truediv, "sqrt": mp.sqrt,
    "root": lambda x, d: nth_root(x, d, mp.prec),  # the real branch for x < 0, odd d
    "zeta": lambda d, k: unit_root(d, k, mp.prec),  # exp(2 pi i k/d)
    "geom": lambda x, y, d: sum(x ** (d - 1 - j) * y**j for j in range(d)),
}


def _value(x, memo):
    """Value of a tree or exact leaf at the working precision, memoised by
    id (one memo per round, so a shared sub-tree is evaluated once); the
    memo keeps x, so no later object takes its id."""
    hit = memo.get(id(x))
    if hit is None:
        if isinstance(x, _Node):
            args = [a if isinstance(a, int) else _value(a, memo) for a in x.args]
            out = _OPS[x.op](*args)
        else:
            out = to_mpc(x, mp.prec)
        hit = memo[id(x)] = (out, x)
    return hit[0]


def _evaluator(prec: int, memo: dict):
    """value(x) of trees and leaves at prec, sharing memo."""

    def value(x):
        with mp.workprec(prec):
            return _value(x, memo)

    return value


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
    # the input's class (None below degree 3)
    classification: EquationClass | None = field(default=None, compare=False)

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


def _escalate(roots, template: RootSet, prec: int):
    """Evaluate the root trees at doubled precision until the residual contract holds.

    ``roots`` holds (tree, multiplicity, exact) triples, built once; each
    round only evaluates them (an exact root, its exact scalar).  Near-
    degenerate inputs lose digits in the root formulas; the radical
    expressions are exact, so raising the precision always recovers the
    contract.  Returns ``template`` with the roots, and the last evaluator.
    """
    exprs = [_prefix(tree) for tree, _, _ in roots]
    working = max(prec, DEFAULT_PREC)
    for _ in range(_MAX_ESCALATIONS):
        memo = {}
        with mp.workprec(working):
            evaluated = tuple(
                RadicalRoot(_value(t if e is None else e, memo), m, e, expr)
                for (t, m, e), expr in zip(roots, exprs)
            )
        root_set, value = replace(template, roots=evaluated), _evaluator(working, memo)
        if max_scaled_residual(root_set, working + 64) <= _RESIDUAL_TARGET:
            break
        working *= 2
    return root_set, value


def solve_by_radicals(
    eq: UnivariateEquation, prec: int = DEFAULT_PREC, branch: int = 0
) -> RootSet:
    """Radical roots of an equation whose homogenization has a usable center.

    ``branch`` rotates the principal d-th root by the branch-th root of
    unity; any choice yields the same root multiset.  A factor x^k is split
    off; the input and the rest are classified, and every root built as a
    tree, once.  When the rest has Hankel rank 3, a quartic takes the
    sum-of-two-squares route; at any other degree that rank raises
    NoRadicalMethodError.
    """
    work, zeros = eq, 0
    if eq.degree >= 3:
        while work.degree > 1 and work.plain[-1] == 0:
            zeros += 1
            work = from_plain_coeffs(work.plain[:-1])
    cls = classify(eq) if eq.degree >= 3 else None
    part = classify(work) if zeros and work.degree >= 3 else cls
    d = work.degree
    pre_transform = ()
    if d == 1:
        root = -work.plain[1] / work.plain[0]
        roots, method = [(root, 1, root)], "linear"
    elif d == 2:
        b0, b1, b2 = work.plain
        s = exact_sqrt(b1 * b1 - 4 * b0 * b2)
        pair = ((-b1 + s) / (2 * b0), (-b1 - s) / (2 * b0))
        roots = [(pair[0], 2, pair[0])] if s == 0 else [(r, 1, r) for r in pair]
        method = "quadratic"
    elif part.tag == "PerfectPower":
        root = -work.norm[1] / work.norm[0]
        roots, method = [(root, d, root)], "perfect-power"
    elif part.tag == "LinearTimesPowerD1":
        repeated, simple = part.witness["repeated_root"], part.witness["simple_root"]
        roots = [(repeated, d - 1, repeated), (simple, 1, simple)]
        method = "repeated-linear-factor"
    elif part.tag == "NoNontrivialCenter":
        if d != 4:
            raise NoRadicalMethodError(
                "Hankel rank 3: the center is trivial, no radical formula here"
            )
        dq, *_, roots = _two_squares(work)
        method = "quartic-two-squares"
        pre_transform = (f"depressed with x = y - {dq.shift}",)
    else:  # a two-power class, completed once
        roots, method = _power_sum_roots(part.completion, branch), "two-power-sum"
    if zeros:
        roots.append((Fraction(0), zeros, Fraction(0)))
        pre_transform = (f"factored out x^{zeros}",) + pre_transform
    return _escalate(roots, RootSet((), method, pre_transform, eq, cls), prec)[0]


def _power_sum_roots(dec: PowerSumDecomposition, branch: int = 0):
    """Every root of c1*L1^d + c2*L2^d = 0, L_j = a_j*x + b_j, by one Moebius map.

    L2 = w*L1 with w^d = ratio = -c1/c2, so x = (w*b1 - b2) / (a2 - w*a1).
    Each form with a_j != 0 is scaled to a_j = 1 (c_j absorbs a_j^d) and a
    y^d summand goes first, so a0*(x + t*y)^d + gamma*y^d gives x = w - t.
    a2 - w*a1 cancels for the w nearest a2/a1 = 1 (when a1 != 0): the one
    whose angle arg(w_0) + 2*pi*k/d is nearest 0.  There it is taken as
    (a2^d - ratio*a1^d) / geom(a2, w*a1, d), with an exact and nonzero
    numerator: c2 times it is the leading coefficient.  Returns (tree, 1,
    exact) triples; an exact root keeps the plain Moebius template.
    """
    d = dec.degree
    scaled = []
    for c, form in dec.summands:
        a, b = form.coeffs
        scaled.append((c * a**d, Fraction(1), b / a) if a != 0 else (c, a, b))
    (c1, a1, b1), (c2, a2, b2) = sorted(scaled, key=lambda s: s[1] != 0)
    ratio = -c1 / c2
    w_exact = rational_nth_root(ratio, d) if isinstance(ratio, Fraction) else None
    near = None
    if a1 != 0:
        turns = float(mp.arg(nth_root(ratio, d, 53))) / (2 * math.pi)
        near = (round(-turns * d) - branch) % d
    delta = _Node("root", ratio, d)
    roots = []
    for i in range(d):
        k = (i + branch) % d
        w = delta if k == 0 else _Node("mul", delta, _Node("zeta", d, k))
        exact = None
        if w_exact is not None and 2 * k in (0, d):  # w = +-w_exact
            we = w_exact if k == 0 else -w_exact
            exact = (we * b1 - b2) / (a2 - we * a1)
        wa1 = _Node("mul", w, a1)
        den = (
            _Node("div", a2**d - ratio * a1**d, _Node("geom", a2, wa1, d))
            if i == near and exact is None
            else _Node("sub", a2, wa1)
        )
        num = _Node("sub", _Node("mul", w, b1), b2)
        roots.append((_Node("div", num, den), 1, exact))
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
    eq = from_plain_coeffs((1, 0, p, q))
    return _escalate(_cardano(p, q), RootSet((), "cardano", (), eq), prec)[0]


def _cardano(p: Fraction, q: Fraction):
    """(tree, multiplicity, exact) roots; u and v print in full in each root."""
    if p == 0 and q == 0:
        return [(Fraction(0), 3, Fraction(0))]
    if p == 0:
        base, exact = _Node("root", -q, 3), rational_nth_root(-q, 3)
        roots = [_Node("mul", base, _Node("zeta", 3, i)) for i in range(3)]
        return [(root, 1, None if i else exact) for i, root in enumerate(roots)]
    if q == 0:
        s, root = exact_sqrt(-p), _Node("sqrt", -p)
        zero = Fraction(0)
        return [(zero, 1, zero), (root, 1, s), (_Node("neg", root), 1, -s)]
    s = _Node("sqrt", q * q / 4 + p * p * p / 27)
    u = _Node("root", _Node("add", _Node("div", -q, 2), s), 3)
    v = _Node("div", _Node("div", -p, 3), u)
    omega, omega2 = _Node("zeta", 3, 1), _Node("zeta", 3, 2)
    return [
        (_Node("add", u, v), 1, None),
        (_Node("add", _Node("mul", omega, u), _Node("mul", omega2, v)), 1, None),
        (_Node("add", _Node("mul", omega2, u), _Node("mul", omega, v)), 1, None),
    ]


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


def _resolvent_alpha(p, q, r):
    """A root of 8a^3 - 4p a^2 - 8r a + (4pr - q^2) = 0: rational when one
    is, else a tree.

    Without a rational root the resolvent is irreducible, so its roots are
    distinct and no cube: its binary form completes into two cubes, and the
    root with the largest real part is chosen, once, the first in branch
    order of a conjugate pair.  The candidates are valued at 64 and 128
    bits, then 128 and 256, ..., until the choice holds by more than twice
    the change between the two plus the coarser rounding, so roots that
    agree to 64 bits are not ordered by rounding noise.
    """
    coeffs = [Fraction(8), -4 * p, -8 * r, 4 * p * r - q * q]
    rational = rational_roots(coeffs)
    if rational:
        return max(root for root, _ in rational)
    cubes = complete_powers(from_plain_coeffs(coeffs).homogenize())
    trees = [tree for tree, _, _ in _power_sum_roots(cubes)]
    prec = DEFAULT_PREC
    while True:
        coarse, fine = ([_evaluator(bits, {})(t) for t in trees] for bits in (prec, 2 * prec))
        with mp.workprec(2 * prec):
            noise = 2 * max(abs(x - y) + abs(y) * 2.0**-prec for x, y in zip(coarse, fine))

            def above(i, j):
                x, y = fine[i], fine[j]
                gap = x.real - y.real
                return gap > noise or (
                    abs(gap) <= noise and abs(x - y.conjugate()) <= noise and i < j
                )

            for i, tree in enumerate(trees):
                if all(above(i, j) for j in range(len(trees)) if j != i):
                    return tree
        prec *= 2


def _sqrt(x, value):
    """sqrt(x), as +-i*sqrt(-x) (the sign of im(x)) when re(x) < 0 under
    ``value``: the same root off the negative reals, and on them, where a
    tree real in exact arithmetic has noise in im(x), the branch taken under
    ``value`` rather than one taken anew at each precision."""
    z = value(x)
    if z.real >= 0:
        return _Node("sqrt", x)
    root = _Node("mul", _Node("zeta", 4, 1), _Node("sqrt", _Node("neg", x)))
    return root if z.imag >= 0 else _Node("neg", root)


def _two_squares(eq: UnivariateEquation):
    """The depression, the resolvent root alpha, u, v, the two quadratic
    factors (b, c) of the depressed quartic and the root trees; alpha, u, v,
    b and c are exact scalars when alpha is rational and trees otherwise."""
    dq = depress_quartic(eq)
    p, q, r = dq.p, dq.q, dq.r
    value = _evaluator(DEFAULT_PREC, {})  # each choice below is made once, at 64 bits
    alpha = _resolvent_alpha(p, q, r)
    if isinstance(alpha, Fraction):
        u = exact_sqrt(2 * alpha - p)
        v = -q / (2 * u) if u != 0 else exact_sqrt(alpha * alpha - r)
        factors = ((u, alpha + v), (-u, alpha - v))
    else:  # 2*alpha - p is irrational, so u != 0
        u = _sqrt(_Node("sub", _Node("mul", 2, alpha), p), value)
        v = _Node("div", -q, _Node("mul", 2, u))
        factors = (
            (u, _Node("add", alpha, v)),
            (_Node("neg", u), _Node("sub", alpha, v)),
        )
    roots = []
    for b, c in factors:
        sq = _sqrt(_Node("sub", _Node("mul", b, b), _Node("mul", 4, c)), value)
        for sign in (1, -1):
            y = _Node("div", _Node("add", _Node("neg", b), _Node("mul", sign, sq)), 2)
            roots.append((_Node("sub", y, dq.shift), 1, None))
    return dq, alpha, u, v, factors, roots


def solve_quartic_by_two_squares(
    eq: UnivariateEquation, prec: int = DEFAULT_PREC
) -> QuarticSolution:
    """Quartic roots via (y^2 + a)^2 + (completed square) factorization.

    Writes the depressed quartic as (y^2 + a)^2 - (u y + v)^2 with
    u^2 = 2a - p and u v = -q/2, splits into two quadratics, and undoes the
    shift.  Exact data is kept whenever the resolvent root is rational;
    otherwise alpha and the factors are their values at the final precision.
    """
    dq, alpha, u, v, factors, roots = _two_squares(eq)
    note = (f"depressed with x = y - {dq.shift}",)
    template = RootSet((), "quartic-two-squares", note, eq)
    root_set, value = _escalate(roots, template, prec)
    keep = (lambda x: x) if isinstance(alpha, Fraction) else value
    i = _Node("zeta", 4, 1)
    beta, gamma = _Node("mul", u, i), _Node("mul", v, i)
    resolvent = ResolventData(alpha=keep(alpha), beta=value(beta), gamma=value(gamma))
    return QuarticSolution(
        root_set=root_set,
        depressed=dq,
        resolvent=resolvent,
        factors=tuple((Fraction(1), keep(b), keep(c)) for b, c in factors),
    )

"""Deciding diagonalizability and extracting power-sum decompositions.

A nondegenerate form of degree > 2 is a sum of d-th powers of independent
linear forms exactly when its center algebra is a product of fields.  The
constructive route: pick a generic element g of the center, split its
characteristic polynomial, and take column i of the change of variables P
from the range of the primitive idempotent

    e_i = prod_{j != i} (g - l_j I) / (l_i - l_j),

as its first nonzero column: e_i applied to a unit vector, n - 1
matrix-vector steps, so no idempotent matrix is formed.  e_i is that column
times row i of P^-1, so row i of P^-1 is a row of e_i (the same steps on
g^T) over one entry of the column: no matrix is inverted.  Then P^-1 g P is
diagonal, and the diagonal coefficient of y_i^d in f(Py) is f evaluated at
column i of P.  The result is checked once, by expanding it back to f.

One pipeline (``_split``) does this over two scalar kinds, and the spectrum
of the generic element chooses which.  When its n eigenvalues are distinct
and rational, the split runs on integers: g and the eigenvalues are cleared
over one denominator, f to F = den * f, each column is an integer vector w
over one divisor D = prod (l_i - l_j), and its diagonal coefficient is
F(w) / (den * D^d).  When one eigenvalue is irrational, it runs on mpc at a
working precision, each step scaled by 1 / (l_i - l_j), with eigenvalues
from the numeric roots of the characteristic polynomial; their
multiplicities come from its exact square-free split, so no distance
between them decides whether the spectrum is separated.  Only the zero and
negligible-summand tests and where the divisions fall differ between the
two kinds.  A non-commutative center, a center of the wrong dimension, or a
repeated eigenvalue in every draw means f is not such a power sum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import lcm, prod
from operator import mul

from mpmath import mp

from .center import CenterBasis, compute_center
from .errors import NotDiagonalizableError
from .forms import LinearForm, NAryForm, PowerSumDecomposition, from_plain_coeffs
from .linalg import char_poly
from .oracle import check_decomposition, numeric_roots, rational_roots
from .scalars import DEFAULT_PREC, clear_denominators, to_mpc

_RETRY_SEED = 0x5EED


def _first_primes(k: int):
    primes = []
    n = 2
    while len(primes) < k:
        if all(n % p for p in primes):
            primes.append(n)
        n += 1
    return primes


@dataclass(frozen=True)
class AlgebraProfile:
    """Structure of the center algebra as seen through a generic element."""

    dim: int
    commutative: bool
    generic_element: tuple
    char_poly: tuple  # monic, descending
    spectrum_kind: str  # distinct-rational | repeated | irrational | non-commutative
    eigenvalues: tuple | None  # rational eigenvalues w/ multiplicity, if rational


@dataclass(frozen=True)
class DiagonalDecomposition:
    p: tuple  # change of variables, x = P y
    diagonal: tuple  # coefficients with f(Py) = sum diagonal[i] * y_i^d
    as_power_sum: PowerSumDecomposition
    exact: bool


def _weight_draws(dim: int):
    primes = _first_primes(dim)
    yield tuple(primes)
    yield tuple(p * p for p in primes)
    rng = random.Random(_RETRY_SEED)
    for _ in range(6):
        yield tuple(rng.randrange(1, 10**6) for _ in range(dim))


def _generic_element(basis: CenterBasis, weights):
    """sum w_i B_i, summed in integers over the lcm of the denominators."""
    n = basis.n
    den = lcm(*(d for _, d in basis.integer_basis))
    scaled = [(w * (den // d), m) for w, (m, d) in zip(weights, basis.integer_basis)]
    return [
        [Fraction(sum(s * m[r][c] for s, m in scaled), den) for c in range(n)]
        for r in range(n)
    ]


def profile(f: NAryForm) -> AlgebraProfile:
    """Commutativity, generic element, and spectrum classification over Q."""
    basis = compute_center(f)
    n = basis.n
    commutative = basis.is_commutative()
    for weights in _weight_draws(basis.dim):
        g = _generic_element(basis, weights)
        cp = char_poly(g)
        roots = rational_roots(cp)
        repeated = any(m > 1 for _, m in roots)
        # one draw shows a non-commutative center; a commutative one is drawn
        # again while a rational eigenvalue repeats, whether or not the rest
        # of the spectrum splits
        if not commutative or not repeated:
            break
    split = sum(m for _, m in roots) == n
    if not commutative:
        kind = "non-commutative"
    elif repeated:
        kind = "repeated"  # every draw repeated a rational eigenvalue
    elif split:
        kind = "distinct-rational"
    else:
        kind = "irrational"  # an irrational witness: the algebra is not Q^n
    return AlgebraProfile(
        dim=basis.dim,
        commutative=commutative,
        generic_element=_freeze(g),
        char_poly=tuple(cp),
        spectrum_kind=kind,
        eigenvalues=tuple(roots) if split else None,
    )


def _freeze(m):
    return tuple(tuple(row) for row in m)


def _eigen_pair(g, eigenvalues, i, is_zero, exact):
    """Column i of P and row i of P^-1 from the rank-one idempotent
    e_i = prod_{j != i} (g - l_j I) / (l_i - l_j), as ``(w, D, row)`` with
    the column equal to w / D.

    Column k of e_i is the product applied to the k-th unit vector, one
    factor at a time: n - 1 matrix-vector steps.  On integers (``exact``)
    the chain stays in integers and D = prod (l_i - l_j) divides once; on
    mpc each step is scaled by its 1 / (l_i - l_j) and D = 1.  The column
    is the first nonzero one (the trace of e_i is 1).  Since e_i is the
    column times the row, row r of e_i over entry r of the column is the
    row; the same chain on g^T from unit vector r gives D times row r of
    e_i, and r is the largest entry of w, so no division is ill-scaled.
    """
    n = len(g)
    li = eigenvalues[i]
    others = [lj for j, lj in enumerate(eigenvalues) if j != i]
    steps = [(lj, 1 if exact else 1 / (li - lj)) for lj in others]

    def apply(m, k):
        v = [int(r == k) for r in range(n)]
        for lj, c in steps:
            v = [c * (sum(map(mul, row, v)) - lj * x) for row, x in zip(m, v)]
        return v

    w = next(w for w in (apply(g, k) for k in range(n)) if not all(map(is_zero, w)))
    r = max(range(n), key=lambda k: abs(w[k]))
    pivot = Fraction(w[r]) if exact else w[r]
    row = [x / pivot for x in apply(list(zip(*g)), r)]
    return w, Fraction(prod(li - lj for lj in others)) if exact else 1, row


def diagonalize_form(
    f: NAryForm,
    prec: int = DEFAULT_PREC,
    tol: float = 1e-9,
) -> DiagonalDecomposition:
    """Write f as a sum of d-th powers of n independent linear forms.

    The center must be commutative of dimension n, with a generic element
    of n distinct eigenvalues; distinct is decided exactly, also when the
    eigenvalues are numeric.  If they are rational the result is exact; if
    one is irrational it is numeric, at max(prec, 96) bits.  Column i of P
    is an eigenvector of the generic element for its i-th eigenvalue, taken
    from the range of its idempotent without forming that matrix.
    """
    prof = profile(f)
    n = f.nvars
    if prof.spectrum_kind == "non-commutative":
        raise NotDiagonalizableError("center algebra is not commutative")
    if prof.dim != n:
        raise NotDiagonalizableError(
            f"center has dimension {prof.dim}, expected {n}"
        )
    if prof.spectrum_kind == "repeated":
        raise NotDiagonalizableError(
            "generic center element has a repeated spectrum"
        )
    if prof.spectrum_kind == "distinct-rational":
        # g and the eigenvalues over one denominator: the idempotents of
        # the integer matrix den * g with eigenvalues den * l_j are the same
        eigenvalues = sorted(value for value, _ in prof.eigenvalues)
        nums, _ = clear_denominators(
            [x for row in prof.generic_element for x in row] + eigenvalues
        )
        g = [nums[r * n : (r + 1) * n] for r in range(n)]
        result = _split(
            f.cleared(), g, nums[n * n :], lambda x: x == 0, cut=0, exact=True
        )
    else:
        wprec = max(prec, 96)
        eigenvalues = _numeric_spectrum(prof.char_poly, wprec)
        with mp.workprec(wprec):
            eps = mp.mpf(2) ** (-wprec // 2)
            g = [[to_mpc(x, wprec) for x in row] for row in prof.generic_element]
            result = _split(
                (f, 1),
                g,
                eigenvalues,
                lambda x: abs(x) < eps,
                cut=tol,
                exact=False,
            )
    if not check_decomposition(f, result.as_power_sum, tol=tol):
        raise NotDiagonalizableError("the power sum does not expand back to the form")
    return result


def _numeric_spectrum(cp, wprec: int) -> list:
    """All eigenvalues of the generic element, numerically, each certified
    within 2^-wprec (a Decimal tolerance, since past 1074 bits a float
    underflows to 0); each must be simple, which the exact multiplicities of
    ``numeric_roots`` decide.

    ``profile`` draws again only while a rational eigenvalue repeats, so a
    repeated irrational one is refused here: the trace over Q(sqrt 2) of
    (x1 + sqrt2 x3)^2 (x2 + sqrt2 x4) has the center Q(sqrt 2)[e]/(e^2),
    so every generic element has the square of an irreducible quadratic as
    its char poly, (t^2 - 4t - 46)^2 for the first draw.
    """
    tol = Decimal(2) ** -wprec
    roots = numeric_roots(from_plain_coeffs(cp), tol=tol, prec=wprec).roots
    if any(r.multiplicity > 1 for r in roots):
        raise NotDiagonalizableError(
            "generic center element has a repeated spectrum"
        )
    return [r.value for r in roots]


def _split(form, g, eigenvalues, is_zero, cut, exact) -> DiagonalDecomposition:
    """P, P^-1, diagonal and summands from a split spectrum.

    ``form`` is ``(F, den)`` with F = den * f; ``g`` and ``eigenvalues`` are
    the generic element and its spectrum in the working scalars (integers
    over one denominator, or mpc at the caller's precision).  ``is_zero``
    decides which columns of an idempotent vanish.  Column i of P is w / D
    and its diagonal coefficient f(w / D) = F(w) / (den * D^d).  Summand i
    is dropped when |diagonal[i]| <= cut * max |diagonal|, so cut = 0 keeps
    every nonzero one.
    """
    big_f, den = form
    n, d = big_f.nvars, big_f.degree
    p_cols, p_inv, diagonal = [], [], []
    for i in range(n):
        w, div, row = _eigen_pair(g, eigenvalues, i, is_zero, exact)
        p_cols.append([x / div for x in w])
        p_inv.append(row)
        # evaluate_exact is generic in the scalar; on an irrational spectrum
        # it runs on mpc
        diagonal.append(big_f.evaluate_exact(w) / (den * div**d))
    p = [[p_cols[j][i] for j in range(n)] for i in range(n)]
    scale = max(abs(c) for c in diagonal)
    summands = tuple(
        (c, LinearForm(tuple(row)))
        for c, row in zip(diagonal, p_inv)
        if abs(c) > cut * scale
    )
    return DiagonalDecomposition(
        p=_freeze(p),
        diagonal=tuple(diagonal),
        as_power_sum=PowerSumDecomposition(summands, d),
        exact=exact,
    )

"""Deciding diagonalizability and extracting power-sum decompositions.

A nondegenerate form of degree > 2 is a sum of d-th powers of independent
linear forms exactly when its center algebra is a product of fields.  The
constructive route: pick a generic element g of the center, split its
characteristic polynomial, and take column i of the change of variables P
from the range of the primitive idempotent

    e_i = prod_{j != i} (g - l_j I) / (l_i - l_j),

as its first nonzero column: e_i applied to a unit vector, n - 1
matrix-vector steps, so no idempotent matrix is formed.  Then P^-1 g P is
diagonal, and the diagonal coefficient of y_i^d in f(Py) is f evaluated at
column i of P.  The result is checked once, by expanding it back to f.

One pipeline (``_split``) does this over two scalar kinds, and the spectrum
of the generic element chooses which.  When its n eigenvalues are distinct
and rational, the split runs on Fractions.  When one eigenvalue is
irrational, it runs on mpc at a working precision, with eigenvalues from
the numeric roots of the characteristic polynomial; their multiplicities
come from its exact square-free split, so no distance between them decides
whether the spectrum is separated.  Only the zero and negligible-summand
tests differ between the two kinds.  A non-commutative center, a center of
the wrong dimension, or a repeated eigenvalue in every draw means f is not
such a power sum.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from mpmath import mp

from .center import CenterBasis, compute_center
from .errors import NotDiagonalizableError
from .forms import LinearForm, NAryForm, PowerSumDecomposition, from_plain_coeffs
from .linalg import char_poly, inverse, mat_add, mat_scale
from .oracle import check_decomposition, numeric_roots, rational_roots
from .scalars import DEFAULT_PREC, as_fraction, to_mpc

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
    n = basis.n
    g = [[Fraction(0)] * n for _ in range(n)]
    for w, b in zip(weights, basis.basis):
        g = mat_add(g, mat_scale(Fraction(w), b))
    return g


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


def _eigen_column(g, eigenvalues, i, scalar, is_zero):
    """First nonzero column of e_i = prod_{j != i} (g - l_j I) / (l_i - l_j).

    Column k of e_i is the product applied to the k-th unit vector, one
    factor at a time: n - 1 matrix-vector steps.
    """
    n = len(g)
    li = eigenvalues[i]
    for k in range(n):
        v = [scalar(int(r == k)) for r in range(n)]
        for j, lj in enumerate(eigenvalues):
            if j != i:
                c = 1 / (li - lj)
                v = [c * (sum(map(mul, row, v)) - lj * x) for row, x in zip(g, v)]
        if any(not is_zero(x) for x in v):
            return v
    raise NotDiagonalizableError("idempotent is zero")


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
        eigenvalues = sorted(value for value, _ in prof.eigenvalues)
        result = _split(
            f, prof, eigenvalues, as_fraction, lambda x: x == 0, cut=0, exact=True
        )
    else:
        wprec = max(prec, 96)
        eigenvalues = _numeric_spectrum(prof.char_poly, wprec)
        with mp.workprec(wprec):
            eps = mp.mpf(2) ** (-wprec // 2)
            result = _split(
                f,
                prof,
                eigenvalues,
                lambda x: to_mpc(x, wprec),
                lambda x: abs(x) < eps,
                cut=tol,
                exact=False,
            )
    if not check_decomposition(f, result.as_power_sum, tol=tol):
        raise NotDiagonalizableError("the power sum does not expand back to the form")
    return result


def _numeric_spectrum(cp, wprec: int) -> list:
    """All eigenvalues of the generic element, numerically; each must be
    simple, which the exact multiplicities of ``numeric_roots`` decide."""
    roots = numeric_roots(from_plain_coeffs(cp), tol=1e-20, prec=wprec).roots
    if any(r.multiplicity > 1 for r in roots):
        raise NotDiagonalizableError(
            "generic center element has a repeated spectrum"
        )
    return [r.value for r in roots]


def _split(f, prof, eigenvalues, scalar, is_zero, cut, exact) -> DiagonalDecomposition:
    """P, P^-1, diagonal and summands from a split spectrum.

    ``scalar`` maps the exact entries of the generic element into the working
    scalars (Fraction, or mpc at the caller's precision); ``is_zero`` decides
    which columns of an idempotent vanish; summand i is dropped when
    |diagonal[i]| <= cut * max |diagonal|, so cut = 0 keeps every nonzero one.
    """
    n = f.nvars
    g = [[scalar(x) for x in row] for row in prof.generic_element]
    cols = [_eigen_column(g, eigenvalues, i, scalar, is_zero) for i in range(n)]
    p = [[cols[j][i] for j in range(n)] for i in range(n)]
    try:
        p_inv = inverse(p)
    except ValueError:
        raise NotDiagonalizableError("the change of variables is singular") from None
    # evaluate_exact is generic in the scalar; on an irrational spectrum it
    # runs on mpc
    diagonal = [f.evaluate_exact(col) for col in cols]
    scale = max(abs(c) for c in diagonal)
    summands = tuple(
        (c, LinearForm(tuple(row)))
        for c, row in zip(diagonal, p_inv)
        if abs(c) > cut * scale
    )
    return DiagonalDecomposition(
        p=_freeze(p),
        diagonal=tuple(diagonal),
        as_power_sum=PowerSumDecomposition(summands, f.degree),
        exact=exact,
    )

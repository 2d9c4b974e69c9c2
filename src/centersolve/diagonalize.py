"""Deciding diagonalizability and extracting power-sum decompositions.

A nondegenerate form of degree > 2 is a sum of d-th powers of independent
linear forms exactly when its center algebra is a product of fields.  The
constructive route: pick a generic element g of the center, split its
characteristic polynomial, build the orthogonal primitive idempotents by
Lagrange interpolation

    e_i = prod_{j != i} (g - l_j I) / (l_i - l_j),

assemble the change of variables P column-wise from their ranges (so that
P^-1 e_i P = E_ii), and read the diagonal coefficient of y_i^d off f(Py) as
f evaluated at column i of P.  The result is checked once, by expanding it
back to f.

One pipeline (``_split``) does this over two scalar kinds.  Exact mode runs
it on Fractions with the generic element's rational eigenvalues, which must
be distinct; since the minimal polynomial is then prod (x - l_i), the
idempotent relations hold by Cayley-Hamilton and are not rechecked.  Numeric
mode runs it on mpc at a working precision, with eigenvalues from the
numeric roots of the characteristic polynomial; it accepts any spectrum
those separate, and only its zero and negligible-summand tests differ.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp

from .center import CenterBasis, compute_center
from .errors import IrrationalSpectrumError, NotDiagonalizableError
from .forms import LinearForm, NAryForm, PowerSumDecomposition, from_plain_coeffs
from .linalg import char_poly, inverse, mat_add, mat_mul, mat_scale
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
    p_inv: tuple
    idempotents: tuple
    diagonal: tuple  # coefficients with f(Py) = sum diagonal[i] * y_i^d
    as_power_sum: PowerSumDecomposition
    exact: bool


def _weight_draws(dim: int, seed: int | None):
    primes = _first_primes(dim)
    yield tuple(primes)
    yield tuple(p * p for p in primes)
    rng = random.Random(_RETRY_SEED if seed is None else seed)
    for _ in range(6):
        yield tuple(rng.randrange(1, 10**6) for _ in range(dim))


def _generic_element(basis: CenterBasis, weights):
    n = basis.n
    g = [[Fraction(0)] * n for _ in range(n)]
    for w, b in zip(weights, basis.basis):
        g = mat_add(g, mat_scale(Fraction(w), b))
    return g


def profile(f: NAryForm, basis: CenterBasis | None = None, seed: int | None = None) -> AlgebraProfile:
    """Commutativity, generic element, and spectrum classification over Q."""
    if basis is None:
        basis = compute_center(f)
    n = basis.n
    commutative = basis.is_commutative()
    for weights in _weight_draws(basis.dim, seed):
        g = _generic_element(basis, weights)
        cp = char_poly(g)
        roots = rational_roots(cp)
        total = sum(m for _, m in roots)
        if not commutative:
            return AlgebraProfile(
                dim=basis.dim,
                commutative=False,
                generic_element=_freeze(g),
                char_poly=tuple(cp),
                spectrum_kind="non-commutative",
                eigenvalues=tuple(roots) if total == n else None,
            )
        if all(m == 1 for _, m in roots):
            # distinct rational eigenvalues, or one irrational witness, which
            # certifies that the algebra is not Q^n
            split = total == n
            return AlgebraProfile(
                dim=basis.dim,
                commutative=True,
                generic_element=_freeze(g),
                char_poly=tuple(cp),
                spectrum_kind="distinct-rational" if split else "irrational",
                eigenvalues=tuple(roots) if split else None,
            )
        # a repeated rational eigenvalue, whether or not the rest splits:
        # retry with a fresh generic element
    # every draw repeated a rational eigenvalue; report the last one
    return AlgebraProfile(
        dim=basis.dim,
        commutative=True,
        generic_element=_freeze(g),
        char_poly=tuple(cp),
        spectrum_kind="repeated",
        eigenvalues=tuple(roots) if total == n else None,
    )


def _freeze(m):
    return tuple(tuple(row) for row in m)


def _lagrange_idempotents(g, eigenvalues, ident):
    out = []
    for li in eigenvalues:
        e = ident
        for lj in eigenvalues:
            if lj == li:
                continue
            shifted = mat_add(g, mat_scale(-lj, ident))
            e = mat_scale(1 / (li - lj), mat_mul(e, shifted))
        out.append(e)
    return out


def _first_nonzero_column(m, zero_test):
    n = len(m)
    for j in range(n):
        col = [m[i][j] for i in range(n)]
        if any(not zero_test(x) for x in col):
            return col
    raise NotDiagonalizableError("idempotent is zero")


def diagonalize_form(
    f: NAryForm,
    mode: str = "exact",
    seed: int | None = None,
    prec: int = DEFAULT_PREC,
    tol: float = 1e-9,
) -> DiagonalDecomposition:
    """Write f as a sum of d-th powers of n independent linear forms.

    Exact mode requires a commutative center of dimension n whose generic
    element has n distinct rational eigenvalues; numeric mode accepts any
    split spectrum, working at the given precision.
    """
    basis = compute_center(f)
    prof = profile(f, basis, seed=seed)
    n = f.nvars
    if not prof.commutative or prof.spectrum_kind == "non-commutative":
        raise NotDiagonalizableError("center algebra is not commutative")
    if prof.dim != n:
        raise NotDiagonalizableError(
            f"center has dimension {prof.dim}, expected {n}"
        )
    if mode == "exact":
        if prof.spectrum_kind == "repeated":
            raise NotDiagonalizableError(
                "generic center element has a repeated spectrum"
            )
        if prof.spectrum_kind == "irrational":
            raise IrrationalSpectrumError(
                "spectrum does not split over Q; rerun in numeric mode"
            )
        eigenvalues = sorted(value for value, _ in prof.eigenvalues)
        result = _split(
            f, prof, eigenvalues, as_fraction, lambda x: x == 0, cut=0, exact=True
        )
    elif mode == "numeric":
        wprec = max(prec, 96)
        eigenvalues = _numeric_spectrum(prof.char_poly, wprec, tol)
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
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if not check_decomposition(f, result.as_power_sum, tol=tol):
        raise NotDiagonalizableError("the power sum does not expand back to the form")
    return result


def _numeric_spectrum(cp, wprec: int, tol: float) -> list:
    """All eigenvalues of the generic element, numerically and separated."""
    n = len(cp) - 1
    approx = numeric_roots(from_plain_coeffs(cp), tol=1e-20, prec=wprec)
    eigenvalues = approx.values_with_multiplicity()
    if len(eigenvalues) != n:
        raise NotDiagonalizableError("could not separate the numeric spectrum")
    sep = min(
        (
            abs(eigenvalues[i] - eigenvalues[j])
            for i in range(n)
            for j in range(i + 1, n)
        ),
        default=math.inf,  # a single eigenvalue is always separated
    )
    if sep < tol:
        raise NotDiagonalizableError("numeric spectrum is not separated")
    return eigenvalues


def _split(f, prof, eigenvalues, scalar, is_zero, cut, exact) -> DiagonalDecomposition:
    """Idempotents, P, P^-1, diagonal and summands from a split spectrum.

    ``scalar`` maps the exact entries of the generic element into the working
    scalars (Fraction, or mpc at the caller's precision); ``is_zero`` decides
    which idempotent columns vanish; summand i is dropped when
    |diagonal[i]| <= cut * max |diagonal|, so cut = 0 keeps every nonzero one.
    """
    n = f.nvars
    g = [[scalar(x) for x in row] for row in prof.generic_element]
    ident = [[scalar(int(i == j)) for j in range(n)] for i in range(n)]
    idem = _lagrange_idempotents(g, eigenvalues, ident)
    cols = [_first_nonzero_column(e, is_zero) for e in idem]
    p = [[cols[j][i] for j in range(n)] for i in range(n)]
    try:
        p_inv = inverse(p)
    except ValueError:
        raise NotDiagonalizableError("the change of variables is singular") from None
    # evaluate_exact is generic in the scalar; in numeric mode it runs on mpc
    diagonal = [f.evaluate_exact(col) for col in cols]
    scale = max(abs(c) for c in diagonal)
    summands = tuple(
        (c, LinearForm(tuple(row)))
        for c, row in zip(diagonal, p_inv)
        if abs(c) > cut * scale
    )
    return DiagonalDecomposition(
        p=_freeze(p),
        p_inv=_freeze(p_inv),
        idempotents=tuple(_freeze(e) for e in idem),
        diagonal=tuple(diagonal),
        as_power_sum=PowerSumDecomposition(summands, f.degree),
        exact=exact,
    )

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

Exact mode needs the spectrum to split over Q; numeric mode mirrors the same
pipeline with approximate eigenvalues and tolerances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from mpmath import mp, mpc

from .center import CenterBasis, compute_center
from .errors import IrrationalSpectrumError, NotDiagonalizableError
from .forms import LinearForm, NAryForm, PowerSumDecomposition, from_plain_coeffs
from .linalg import char_poly, identity, inverse, mat_add, mat_eq, mat_mul, mat_scale
from .oracle import check_decomposition, numeric_roots, rational_roots
from .scalars import DEFAULT_PREC, to_mpc

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
    last = None
    for weights in _weight_draws(basis.dim, seed):
        g = _generic_element(basis, weights)
        cp = char_poly(g)
        roots = rational_roots(cp)
        total = sum(m for _, m in roots)
        last = (g, cp, roots)
        if not commutative:
            return AlgebraProfile(
                dim=basis.dim,
                commutative=False,
                generic_element=_freeze(g),
                char_poly=tuple(cp),
                spectrum_kind="non-commutative",
                eigenvalues=tuple(roots) if total == n else None,
            )
        if total < n:
            # one irrational witness certifies the algebra is not Q^n
            return AlgebraProfile(
                dim=basis.dim,
                commutative=True,
                generic_element=_freeze(g),
                char_poly=tuple(cp),
                spectrum_kind="irrational",
                eigenvalues=None,
            )
        if len(roots) == n:
            return AlgebraProfile(
                dim=basis.dim,
                commutative=True,
                generic_element=_freeze(g),
                char_poly=tuple(cp),
                spectrum_kind="distinct-rational",
                eigenvalues=tuple(roots),
            )
        # repeated rational spectrum: retry with a fresh generic element
    g, cp, roots = last
    return AlgebraProfile(
        dim=basis.dim,
        commutative=True,
        generic_element=_freeze(g),
        char_poly=tuple(cp),
        spectrum_kind="repeated",
        eigenvalues=tuple(roots),
    )


def _freeze(m):
    return tuple(tuple(row) for row in m)


def _thaw(m):
    return [list(row) for row in m]


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
        result = _diagonalize_exact(f, prof)
    elif mode == "numeric":
        result = _diagonalize_numeric(f, prof, prec=prec, tol=tol)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if not check_decomposition(f, result.as_power_sum, tol=tol):
        raise NotDiagonalizableError("the power sum does not expand back to the form")
    return result


def _diagonalize_exact(f: NAryForm, prof: AlgebraProfile) -> DiagonalDecomposition:
    n = f.nvars
    g = _thaw(prof.generic_element)
    eigenvalues = sorted(value for value, _ in prof.eigenvalues)
    ident = identity(n)
    idem = _lagrange_idempotents(g, eigenvalues, ident)
    total = ident
    for i, e in enumerate(idem):
        if not mat_eq(mat_mul(e, e), e):
            raise NotDiagonalizableError("idempotent relation failed")
        for e2 in idem[i + 1 :]:
            if any(x != 0 for row in mat_mul(e, e2) for x in row):
                raise NotDiagonalizableError("idempotents are not orthogonal")
        total = mat_add(total, mat_scale(Fraction(-1), e))
    if any(x != 0 for row in total for x in row):
        raise NotDiagonalizableError("idempotents do not sum to the identity")
    cols = [_first_nonzero_column(e, lambda x: x == 0) for e in idem]
    p = [[cols[j][i] for j in range(n)] for i in range(n)]
    p_inv = inverse(p)
    diagonal = [f.evaluate_exact(col) for col in cols]
    summands = tuple(
        (diagonal[i], LinearForm(tuple(p_inv[i])))
        for i in range(n)
        if diagonal[i] != 0
    )
    return DiagonalDecomposition(
        p=_freeze(p),
        p_inv=_freeze(p_inv),
        idempotents=tuple(_freeze(e) for e in idem),
        diagonal=tuple(diagonal),
        as_power_sum=PowerSumDecomposition(summands, f.degree),
        exact=True,
    )


def _numeric_inverse(m, prec):
    n = len(m)
    with mp.workprec(prec):
        aug = [[mpc(x) for x in row] + [mpc(1 if i == j else 0) for j in range(n)]
               for i, row in enumerate(m)]
        for c in range(n):
            pivot = max(range(c, n), key=lambda r: abs(aug[r][c]))
            if abs(aug[pivot][c]) == 0:
                raise NotDiagonalizableError("numeric change of variables is singular")
            aug[c], aug[pivot] = aug[pivot], aug[c]
            pv = aug[c][c]
            aug[c] = [x / pv for x in aug[c]]
            for r in range(n):
                if r != c and aug[r][c] != 0:
                    fac = aug[r][c]
                    aug[r] = [x - fac * y for x, y in zip(aug[r], aug[c])]
        return [row[n:] for row in aug]


def _diagonalize_numeric(
    f: NAryForm, prof: AlgebraProfile, prec: int, tol: float
) -> DiagonalDecomposition:
    n = f.nvars
    wprec = max(prec, 96)
    eq = from_plain_coeffs([c for c in prof.char_poly])
    approx = numeric_roots(eq, tol=1e-20, prec=wprec, cluster_tol=1e-24)
    eigenvalues = [r.value for r in approx.roots for _ in range(r.multiplicity)]
    if len(eigenvalues) != n:
        raise NotDiagonalizableError("could not separate the numeric spectrum")
    sep = min(
        abs(eigenvalues[i] - eigenvalues[j])
        for i in range(n)
        for j in range(i + 1, n)
    )
    if sep < tol:
        raise NotDiagonalizableError("numeric spectrum is not separated")
    with mp.workprec(wprec):
        g = [[to_mpc(x, wprec) for x in row] for row in prof.generic_element]
        ident = [[mpc(1 if i == j else 0) for j in range(n)] for i in range(n)]
        idem = _lagrange_idempotents(g, eigenvalues, ident)
        zero = lambda x: abs(x) < mp.mpf(2) ** (-wprec // 2)
        cols = [_first_nonzero_column(e, zero) for e in idem]
        p = [[cols[j][i] for j in range(n)] for i in range(n)]
        p_inv = _numeric_inverse(p, wprec)
        # evaluate_exact is generic in the scalar; here it runs on mpc columns
        diagonal = [mpc(f.evaluate_exact(col)) for col in cols]
        scale = max((abs(c) for c in diagonal), default=mp.mpf(1))
        summands = tuple(
            (diagonal[i], LinearForm(tuple(p_inv[i])))
            for i in range(n)
            if abs(diagonal[i]) > tol * scale
        )
    return DiagonalDecomposition(
        p=_freeze(p),
        p_inv=_freeze(p_inv),
        idempotents=tuple(_freeze(e) for e in idem),
        diagonal=tuple(diagonal),
        as_power_sum=PowerSumDecomposition(summands, f.degree),
        exact=False,
    )

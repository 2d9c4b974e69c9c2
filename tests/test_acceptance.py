"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import io
import json
import random
import time
from fractions import Fraction as F
from functools import lru_cache

import centersolve as cs
from centersolve import (
    BinaryForm,
    CenterRankError,
    RepeatedEigenvalueError,
    cardano,
    classify,
    compare_root_sets,
    complete_powers,
    compute_center,
    diagonalize_form,
    expand,
    numeric_roots,
    solve_by_radicals,
    solve_quartic_by_two_squares,
)
from centersolve.linalg import rank
from conftest import (
    DEGREE7_PLAIN,
    QUINTIC_PLAIN,
    TERNARY_CUBIC_DEC,
    TERNARY_CUBIC_TERMS,
    fraction_inverse,
    identity,
    naive_mat_mul,
    planted_diagonalizable,
    rand_fraction,
    rand_invertible_matrix,
    rand_nonzero_fraction,
    span_equal,
)


def _report(number, name):
    print(f"\n[criterion {number}] {name}: PASS")


def _multiset(root_set):
    return [complex(v) for v in root_set.values_with_multiplicity()]


def _multisets_close(a, b, tol):
    if len(a) != len(b):
        return False
    remaining = list(b)
    for x in a:
        best = min(range(len(remaining)), key=lambda i: abs(x - remaining[i]))
        if abs(x - remaining[best]) > tol:
            return False
        remaining.pop(best)
    return True


def _vieta_ok(root_set, tol=1e-9):
    eq = root_set.equation
    values = _multiset(root_set)
    b = [complex(x) for x in eq.plain]
    want_sum = -b[1] / b[0]
    want_prod = (-1) ** eq.degree * b[-1] / b[0]
    total = sum(values)
    prod = 1
    for v in values:
        prod *= v
    return (
        abs(total - want_sum) <= tol * max(1.0, abs(want_sum))
        and abs(prod - want_prod) <= tol * max(1.0, abs(want_prod))
    )


# ---------------------------------------------------------------------------
# shared, cached computations (reused by criteria 9 and 10)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _quintic_case():
    eq = cs.from_plain_coeffs(QUINTIC_PLAIN)
    return eq, solve_by_radicals(eq)


@lru_cache(maxsize=None)
def _degree7_case():
    eq = cs.from_plain_coeffs(DEGREE7_PLAIN)
    return eq, solve_by_radicals(eq)


@lru_cache(maxsize=None)
def _cardano_family():
    rng = random.Random(0xCA4DA)
    cases = []
    while len(cases) < 100:
        p = rand_nonzero_fraction(rng, -9, 9, 4)
        q = rand_nonzero_fraction(rng, -9, 9, 4)
        if q * q / 4 + p**3 / 27 == 0:
            continue
        eq = cs.from_plain_coeffs([1, 0, p, q])
        cases.append((p, q, eq, solve_by_radicals(eq), cardano(p, q)))
    return cases


@lru_cache(maxsize=None)
def _planted_family():
    rng = random.Random(0x9A27)
    cases = []
    degrees = [3, 4, 5, 6, 7, 8, 9]
    while len(cases) < 100:
        d = degrees[len(cases) % len(degrees)]
        lam1 = rand_nonzero_fraction(rng, -9, 9, 3)
        lam2 = rand_nonzero_fraction(rng, -9, 9, 3)
        if lam1 + lam2 == 0:
            continue
        beta1 = rand_nonzero_fraction(rng, -9, 9, 3)
        beta2 = rand_nonzero_fraction(rng, -9, 9, 3)
        if beta1 == beta2:
            continue
        dec = cs.PowerSumDecomposition(
            (
                (lam1, cs.LinearForm((F(1), beta1))),
                (lam2, cs.LinearForm((F(1), beta2))),
            ),
            d,
        )
        form = expand(dec, 2)
        from math import comb

        norm = tuple(
            form.coefficient((d - i, i)) / comb(d, i) for i in range(d + 1)
        )
        cases.append((cs.from_norm_coeffs(norm), dec))
    return cases


@lru_cache(maxsize=None)
def _quartic_family():
    rng = random.Random(0x0425)
    cases = []
    for _ in range(100):
        b = [F(1)] + [rand_fraction(rng, -9, 9, 4) for _ in range(4)]
        eq = cs.from_plain_coeffs(b)
        cases.append((eq, solve_quartic_by_two_squares(eq)))
    return cases


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_1_quintic_golden():
    start = time.perf_counter()
    eq, rs = _quintic_case()
    inv = cs.binary_invariants(eq.homogenize())
    assert (inv.D1, inv.D2, inv.D3) == (-8, -20, -12)
    assert (inv.lambda1, inv.lambda2) == (-8, -12)
    a0, a1 = eq.norm[0], eq.norm[1]
    ratio = (inv.lambda2 * a0 - inv.D1 * a1) / (inv.lambda1 * a0 - inv.D1 * a1)
    assert ratio == F(1, 32)
    assert cs.rational_nth_root(ratio, 5) == F(1, 2)
    exact_roots = [r.exact for r in rs.roots if r.exact is not None]
    assert exact_roots == [F(-2)]
    oracle = numeric_roots(eq)
    report = compare_root_sets(rs, oracle, tol=1e-10)
    assert report.passed
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(1, "quintic golden invariants, exact root -2, residual < 1e-10")


def test_criterion_2_degree7_golden():
    start = time.perf_counter()
    eq, rs = _degree7_case()
    inv = cs.binary_invariants(eq.homogenize())
    assert inv.D1 == F(-25, 1764)
    assert inv.lambda1 == inv.lambda2 == F(25, 3528)
    got = sorted((r.exact, r.multiplicity) for r in rs.roots)
    assert got == [(F(-1, 3), 1), (F(1, 2), 6)]
    assert all(isinstance(r.exact, F) for r in rs.roots)
    oracle = numeric_roots(eq)
    mults = sorted(r.multiplicity for r in oracle.roots)
    assert mults == [1, 6]
    six = next(r for r in oracle.roots if r.multiplicity == 6)
    assert abs(complex(six.value) - 0.5) < 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    _report(2, "degree-7 golden: exact rationals, multiplicity-6 cluster")


def test_criterion_3_ternary_cubic_decompose():
    start = time.perf_counter()
    f = cs.NAryForm(3, 3, TERNARY_CUBIC_TERMS)
    result = diagonalize_form(f)
    assert result.exact
    assert result.as_power_sum.canonical() == TERNARY_CUBIC_DEC.canonical()
    assert expand(result.as_power_sum, 3) == f
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    # the CLI surface reproduces it as well
    from centersolve.cli import run_command

    out = io.StringIO()
    text = (
        "x1^3 + 3*x2*x1^2 + 3*x3*x1^2 + 3*x2^2*x1 + 3*x3^2*x1 "
        "+ 6*x2*x3*x1 - x2^3 + 20*x3^3 - 21*x2*x3^2 + 15*x2^2*x3"
    )
    assert run_command(["decompose", text, "--format", "json"], stdout=out) == 0
    doc = json.loads(out.getvalue())
    assert doc["verification"]["passed"] is True
    assert len(doc["decomposition"]["summands"]) == 3
    _report(3, "ternary cubic decomposition matches up to symmetry, exactly")


def test_criterion_4_cardano_equivalence():
    for p, q, eq, rs_center, rs_cardano in _cardano_family():
        assert _multisets_close(_multiset(rs_center), _multiset(rs_cardano), 1e-9), (
            p,
            q,
        )
    # the repeated-eigenvalue family q^2/4 = -p^3/27
    rng = random.Random(0xDE9E)
    for _ in range(20):
        t = rand_nonzero_fraction(rng, -9, 9, 3)
        p, q = -3 * t * t, 2 * t**3
        eq = cs.from_plain_coeffs([1, 0, p, q])
        rs = solve_by_radicals(eq)
        got = sorted((r.exact, r.multiplicity) for r in rs.roots)
        want = sorted([(-3 * q / (2 * p), 2), (3 * q / p, 1)])
        assert got == want, (p, q)
    _report(4, "100 cubics: classical formula == center pipeline; exact double roots")


def test_criterion_5_plant_and_recover():
    for eq, dec in _planted_family():
        assert classify(eq).tag == "SumOfTwoPowers"
        recovered = complete_powers(eq.homogenize())
        assert recovered.canonical() == dec.canonical()
        assert expand(recovered, 2) == eq.homogenize().to_nary()
    _report(5, "100 planted two-power sums classified and recovered exactly")


def test_criterion_6_two_cubes_criterion():
    rng = random.Random(0x3B2)
    tested = 0
    misclassified = 0
    while tested < 500:
        norm = tuple(rand_fraction(rng, -6, 6, 3) for _ in range(4))
        if all(c == 0 for c in norm):
            continue
        form = BinaryForm(norm)
        d1 = norm[0] * norm[2] - norm[1] ** 2
        d2 = norm[0] * norm[3] - norm[1] * norm[2]
        d3 = norm[1] * norm[3] - norm[2] ** 2
        disc = d2 * d2 - 4 * d1 * d3
        try:
            dec = complete_powers(form)
            success = True
        except (RepeatedEigenvalueError, CenterRankError):
            success = False
        if success:
            assert expand(dec, 2) == form.to_nary()
            (c1, l1), (c2, l2) = dec.summands
            (a1, b1), (a2, b2) = l1.coeffs, l2.coeffs
            assert a1 * b2 != b1 * a2  # not proportional
        if success != (disc != 0):
            misclassified += 1
        tested += 1
    assert tested == 500
    assert misclassified == 0
    _report(6, "500 cubics: two-cube completion succeeds iff discriminant != 0")


def test_criterion_7_quartic_path():
    for eq, sol in _quartic_family():
        oracle = numeric_roots(eq)
        report = compare_root_sets(sol.root_set, oracle, tol=1e-9)
        assert report.passed, (eq.plain, report.max_distance)
    worked = solve_quartic_by_two_squares(cs.from_plain_coeffs([1, 0, -1, -2, -1]))
    assert worked.resolvent.alpha == 0
    factors = {tuple(map(str, f)) for f in worked.factors}
    assert factors == {("1", "1", "1"), ("1", "-1", "-1")}
    _report(7, "100 quartics via the resolvent route match the oracle at 1e-9")


def test_criterion_8_center_properties():
    rng = random.Random(0xCE27E2)
    forms = []
    while len(forms) < 50:
        n = rng.choice([2, 3, 4])
        d = rng.choice([3, 4])
        f, _ = planted_diagonalizable(rng, n, d)
        forms.append(f)
    bases = []
    for f in forms:
        basis = compute_center(f)
        bases.append(basis)
        flat = [[x for row in b for x in row] for b in basis.basis]
        ident_flat = [x for row in identity(f.nvars) for x in row]
        assert rank(flat) == rank(flat + [ident_flat])  # identity in the span
        assert basis.is_commutative()
        from test_center import satisfies_center_condition

        for x in basis.basis:
            assert satisfies_center_condition(f, x)
    for k in range(20):
        f = forms[k % len(forms)]
        basis = bases[k % len(forms)]
        n = f.nvars
        p = rand_invertible_matrix(rng, n)
        p_inv = fraction_inverse(p)
        conjugated = [naive_mat_mul(naive_mat_mul(p_inv, b), p) for b in basis.basis]
        basis_g = compute_center(f.substitute_linear(p))
        assert span_equal(
            [[x for row in b for x in row] for b in basis_g.basis],
            [[x for row in b for x in row] for b in conjugated],
        )
    _report(8, "50 centers: membership, identity, commutativity, covariance")


def test_criterion_9_branch_invariance():
    eq, rs = _quintic_case()
    base = _multiset(rs)
    for k in range(1, 5):
        rotated = _multiset(solve_by_radicals(eq, branch=k))
        assert _multisets_close(base, rotated, 1e-9)
    for p, q, eq, rs_center, _ in _cardano_family():
        base = _multiset(rs_center)
        for k in range(1, 3):
            rotated = _multiset(solve_by_radicals(eq, branch=k))
            assert _multisets_close(base, rotated, 1e-9), (p, q, k)
    for eq, _ in _planted_family():
        rs = solve_by_radicals(eq)
        base = _multiset(rs)
        for k in range(1, eq.degree):
            rotated = _multiset(solve_by_radicals(eq, branch=k))
            assert _multisets_close(base, rotated, 1e-9), (eq.plain, k)
    _report(9, "delta branch rotations permute every root multiset")


def test_criterion_10_vieta_conservation():
    root_sets = [_quintic_case()[1], _degree7_case()[1]]
    root_sets += [rs for _, _, _, rs, _ in _cardano_family()]
    root_sets += [rc for _, _, _, _, rc in _cardano_family()]
    root_sets += [solve_by_radicals(eq) for eq, _ in _planted_family()]
    root_sets += [sol.root_set for _, sol in _quartic_family()]
    assert len(root_sets) >= 400
    for rs in root_sets:
        assert _vieta_ok(rs, tol=1e-9), rs.equation.plain
    _report(10, "sum/product Vieta identities hold for every produced root set")

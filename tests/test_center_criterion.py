"""classify and complete_powers read the center invariants alone.

The references below are the earlier implementations: classify by exact
cross-product (ratio) scans of the coefficients, and complete_powers at
D1 = 0 by completing the x/y-swapped form.  They are kept here only as
test oracles for the invariant-only decisions.
"""

import random
from fractions import Fraction as F

import pytest

import centersolve as cs
from centersolve import BinaryForm, binary_invariants, classify, complete_powers
from centersolve.errors import CenterRankError, CenterSolveError, RepeatedEigenvalueError
from centersolve.forms import LinearForm, PowerSumDecomposition
from centersolve.solver import _two_power_completion

TAGS = (
    "PerfectPower",
    "PowerPlusConstant",
    "ConstantTimesPowerPlusPower",
    "NoNontrivialCenter",
    "SumOfTwoPowers",
    "LinearTimesPowerD1",
)


def _geometric(seq):
    m = len(seq) - 1
    return all(
        seq[i] * seq[j + 1] == seq[i + 1] * seq[j]
        for i in range(m)
        for j in range(i + 1, m)
    )


def reference_classify(eq):
    """Tag and witness by ratio scans first, then the center invariants."""
    a = eq.norm
    d = eq.degree
    inv = binary_invariants(eq.homogenize())
    if _geometric(a):
        return "PerfectPower", {"scale": a[0], "shift": a[1] / a[0]}
    if _geometric(a[:-1]):
        t = a[1] / a[0]
        return "PowerPlusConstant", {
            "scale": a[0],
            "shift": t,
            "constant": a[d] - a[0] * t**d,
        }
    if a[d] != 0 and _geometric(a[1:]):
        u = a[d - 1] / a[d]
        return "ConstantTimesPowerPlusPower", {
            "scale": a[d],
            "reciprocal_shift": u,
            "constant": a[0] - a[d] * u**d,
        }
    if inv.hankel_rank == 3:
        return "NoNontrivialCenter", {}
    if inv.discriminant != 0:
        return "SumOfTwoPowers", {}
    return "LinearTimesPowerD1", {
        "repeated_root": -inv.D2 / (2 * inv.D1),
        "simple_root": (d - 1) * inv.D2 / (2 * inv.D1) - d * a[1] / a[0],
    }


def reference_complete_powers(form):
    """Two-power completion that restores a vanishing D1 by the x/y swap."""
    inv = binary_invariants(form)
    if inv.hankel_rank != 2:
        raise CenterRankError(inv.hankel_rank)
    if inv.D1 != 0:
        return _two_power_completion(form.norm, inv)
    swapped = BinaryForm(tuple(reversed(form.norm)))
    swapped_inv = binary_invariants(swapped)
    if swapped_inv.D1 != 0:
        dec = _two_power_completion(swapped.norm, swapped_inv)
        return PowerSumDecomposition(
            tuple((c, LinearForm((f.coeffs[1], f.coeffs[0]))) for c, f in dec.summands),
            dec.degree,
        )
    if all(c == 0 for c in form.norm[1:-1]):
        a0, ad = form.norm[0], form.norm[-1]
        if a0 != 0 and ad != 0:
            return PowerSumDecomposition(
                ((a0, LinearForm((F(1), F(0)))), (ad, LinearForm((F(0), F(1))))),
                form.degree,
            )
    raise CenterSolveError("no pivot available for the two-power completion")


_PARAMS = [F(k) for k in range(-3, 4)] + [F(1, 2), F(-1, 2), F(2, 3), F(-3, 2)]


def _norm_of_powers(d, terms):
    """Binomial-scaled coefficients of sum c*(p*x + q*y)^d."""
    return [sum(c * p ** (d - i) * q**i for c, p, q in terms) for i in range(d + 1)]


def _planted_norm(rng, kind, d):
    """One seeded equation per family; small parameters make overlaps common."""
    pick = lambda: rng.choice(_PARAMS)
    if kind == 0:  # a perfect power
        return _norm_of_powers(d, [(pick(), F(1), pick())])
    if kind == 1:  # a power plus a constant
        return _norm_of_powers(d, [(pick(), F(1), pick()), (pick(), F(0), F(1))])
    if kind == 2:  # a constant times x^d plus a power
        return _norm_of_powers(d, [(pick(), F(1), F(0)), (pick(), pick(), F(1))])
    if kind == 3:  # two powers
        return _norm_of_powers(d, [(pick(), F(1), pick()), (pick(), F(1), pick())])
    if kind == 4:  # (x + b)^(d-1) * (g*x + e), by convolution
        b, g, e = pick(), pick(), pick()
        plain = [F(1)]
        for _ in range(d - 1):
            plain = [x + b * y for x, y in zip(plain + [F(0)], [F(0)] + plain)]
        plain = [g * x + e * y for x, y in zip(plain + [F(0)], [F(0)] + plain)]
        return list(cs.from_plain_coeffs(plain).norm) if plain[0] != 0 else [F(0)]
    return [pick() for _ in range(d + 1)]  # mostly a trivial center


def _seeded_equations(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        d = rng.randint(3, 9)
        norm = _planted_norm(rng, len(out) % 6, d)
        if norm[0] != 0:
            out.append(cs.from_norm_coeffs(norm))
    return out


def _lone_power_coefficient(eq, cls):
    """The y^d (PowerPlusConstant) or x^d coefficient of the completion."""
    import centersolve.solver as solver

    dec = solver._complete_powers(eq.homogenize(), cls.invariants)
    lone = (0, 1) if cls.tag == "PowerPlusConstant" else (1, 0)
    return next(c for c, form in dec.summands if form.coeffs == lone)


def test_classify_matches_the_ratio_scans():
    counts = dict.fromkeys(TAGS, 0)
    for eq in _seeded_equations(12_000, seed=2301):
        cls = classify(eq)
        tag, witness = reference_classify(eq)
        assert cls.tag == tag, eq.norm
        if tag in ("PerfectPower", "LinearTimesPowerD1"):
            assert cls.witness == witness, eq.norm
        elif tag in ("PowerPlusConstant", "ConstantTimesPowerPlusPower"):
            # the completion carries the constant the ratio scan found
            assert _lone_power_coefficient(eq, cls) == witness["constant"], eq.norm
        counts[cls.tag] += 1
    assert min(counts.values()) >= 300, counts


def test_one_invariants_call_per_classification(monkeypatch):
    import centersolve.solver as solver

    calls = []
    original = solver.binary_invariants

    def counting(form):
        calls.append(form)
        return original(form)

    monkeypatch.setattr(solver, "binary_invariants", counting)
    for plain in ([3, 3, 3, 1], [1, 0, 0, -8], [31, 235, 710, 1070, 805, 242]):
        calls.clear()
        classify(cs.from_plain_coeffs(plain))
        assert len(calls) == 1
    form = BinaryForm((1, 1, 1, 5))  # D1 = 0
    inv = original(form)
    calls.clear()
    solver._complete_powers(form, inv)
    assert calls == []


def _outcome(fn, form):
    try:
        dec = fn(form)
    except CenterSolveError as exc:  # compared by type and message below
        return type(exc), str(exc)
    return dec.degree, dec.summands


def _d1_zero_forms(count, seed):
    """Binary forms with D1 = 0: a0*(x + t*y)^d + gamma*y^d, and y^2 * g."""
    rng = random.Random(seed)
    pick = lambda: rng.choice(_PARAMS)
    out = []
    while len(out) < count:
        d = rng.randint(3, 9)
        if len(out) % 3 == 2:  # a0 = a1 = 0
            norm = [F(0), F(0)] + [pick() for _ in range(d - 1)]
        else:
            a0, t = pick(), pick()
            norm = [a0 * t**i for i in range(d)] + [a0 * t**d + pick()]
        form = BinaryForm(tuple(norm))
        if binary_invariants(form).D1 == 0:
            out.append(form)
    return out


def test_d1_zero_completion_matches_the_swap_path():
    kinds = {"power-first": 0, "y-power-first": 0, "diagonal": 0, "raised": 0}
    for form in _d1_zero_forms(3000, seed=2302):
        got = _outcome(complete_powers, form)
        assert got == _outcome(reference_complete_powers, form), form.norm
        if isinstance(got[0], type):
            kinds["raised"] += got[0] is RepeatedEigenvalueError
        elif got[1][0][1].coeffs[0] == 0:
            kinds["y-power-first"] += 1
        elif got[1][1][1].coeffs[0] == 0 and got[1][0][1].coeffs[1] == 0:
            kinds["diagonal"] += 1
        else:
            kinds["power-first"] += 1
    assert min(kinds.values()) >= 50, kinds


@pytest.mark.parametrize(
    "norm,first",
    [
        # x^3 + 3x^2y + 3xy^2 + 5y^3 = (x + y)^3 + 4y^3
        ((1, 1, 1, 5), ("1", ("1", "1"))),
        # (x + y)^4 - 3y^4
        ((1, 1, 1, 1, -2), ("-3", ("0", "1"))),
    ],
)
def test_d1_zero_summand_order(norm, first):
    dec = complete_powers(BinaryForm(norm))
    c, f = dec.summands[0]
    assert (str(c), tuple(map(str, f.coeffs))) == first
    assert cs.expand(dec, 2) == BinaryForm(norm).to_nary()

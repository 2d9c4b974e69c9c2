"""Independent answer checker: planted ground truth against the CLI's JSON.

Uses only json, fractions and complex arithmetic; it never imports
centersolve.  Roots match when |got - want| <= 1e-9 * max(1, |want|) with
equal multiplicities; decompositions match up to the order of the summands
and the scaling c*L^d = (c/u^d)*(u*L)^d, exactly when both sides are
rational, numerically otherwise.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

TOL = 1e-9

_QUAD = re.compile(r"^(-?[\d/]+) ([+-]) (?:([\d/]+)\*)?sqrt\((-?[\d/]+)\)$")


def check(case, code, out: str, err: str, exc: BaseException | None) -> str | None:
    """None when the call's outcome is right, else the reason it failed."""
    if exc is not None:
        return f"exception {type(exc).__name__}: {str(exc)[:120]}"
    if code != case.expect_exit:
        first = err.strip().splitlines()[0][:120] if err.strip() else ""
        return f"exit {code}, expected {case.expect_exit} ({first})"
    if case.expect_exit != 0:
        return None
    try:
        doc = json.loads(out)
    except ValueError as exc_json:
        return f"output is not JSON: {exc_json}"
    if case.klass != "DiagonalForm" and doc.get("class") != case.klass:
        return f"class {doc.get('class')}, expected {case.klass}"
    ver = doc.get("verification")
    if ver is not None and ver.get("passed") is not True:
        return f"verification.passed is {ver.get('passed')}"
    if case.roots is not None:
        reason = _check_roots(doc.get("roots"), case.roots)
        if reason:
            return reason
    if case.decomposition is not None:
        reason = _check_decomposition(doc.get("decomposition"), case.decomposition)
        if reason:
            return reason
    return None


def _close(got: complex, want: complex) -> bool:
    return abs(got - want) <= TOL * max(1.0, abs(want))


def _check_roots(got, want) -> str | None:
    if got is None:
        return "no roots in the output"
    if sum(r["multiplicity"] for r in got) != sum(m for _, m in want):
        return "root multiplicities do not sum to the degree"
    unused = [(complex(r["re"], r["im"]), r["multiplicity"]) for r in got]
    for z, m in want:
        hit = next(
            (i for i, (g, gm) in enumerate(unused) if gm == m and _close(g, z)), None
        )
        if hit is None:
            return f"planted root {z:.12g} (multiplicity {m}) not found"
        unused.pop(hit)
    return None


def _scalar(x):
    """A JSON scalar as Fraction (p/q), complex (a+b*sqrt(D) or [re, im])."""
    if isinstance(x, list):
        return complex(x[0], x[1])
    m = _QUAD.match(x)
    if m is None:
        return Fraction(x)
    a, sign, b, disc = m.groups()
    b = Fraction(b or 1) * (1 if sign == "+" else -1)
    disc = Fraction(disc)
    root = complex(float(disc)) ** 0.5
    return complex(float(Fraction(a))) + float(b) * root


def _same_summand(got, want, degree) -> bool:
    (gc, gl), (wc, wl) = got, want
    j = max(range(len(wl)), key=lambda i: abs(wl[i]))
    if gl[j] == 0:
        return False
    u = gl[j] / wl[j]
    exact = all(isinstance(x, Fraction) for x in (gc, wc, *gl, *wl))
    if exact:
        return all(g == u * w for g, w in zip(gl, wl)) and gc * u**degree == wc
    scale = max(abs(x) for x in gl)
    return all(
        abs(complex(g) - complex(u) * complex(w)) <= TOL * scale for g, w in zip(gl, wl)
    ) and _close(complex(gc) * complex(u) ** degree, complex(wc))


def _check_decomposition(got, want) -> str | None:
    if got is None:
        return "no decomposition in the output"
    if got["degree"] != want["degree"]:
        return f"decomposition degree {got['degree']}, expected {want['degree']}"
    if want["exact"] is not None and got["exact"] != want["exact"]:
        return f"decomposition exact={got['exact']}, expected {want['exact']}"
    summands = [
        (_scalar(s["coefficient"]), [_scalar(x) for x in s["linear_form"]])
        for s in got["summands"]
    ]
    if len(summands) != len(want["summands"]):
        return f"{len(summands)} summands, expected {len(want['summands'])}"
    for w in want["summands"]:
        hit = next(
            (i for i, g in enumerate(summands) if _same_summand(g, w, want["degree"])),
            None,
        )
        if hit is None:
            return "a planted summand is missing from the decomposition"
        summands.pop(hit)
    return None

"""Command-line front end.

Subcommands: solve, center, decompose, classify, oracle.  Input is either a
polynomial expression (--input expr, the default) or whitespace-separated
plain coefficients (--input coeffs); '-' reads from stdin.  JSON documents
carry exact values as p/q strings (never floats) next to decimal
approximations, and are strict JSON: a number beyond the double range
(magnitude about 1.8e308 or more) is a string, its value to 17 significant
digits ("1.0e+400", see ``_number``).

Exit codes: 0 success, 1 usage error, 2 parse error, 3 method not
applicable (any library error; an unexpected exception is reported as an
internal error with the same code, so a batch goes on), 4 verification
failure (radical and oracle roots differ, the oracle does not converge, or a
two-power decomposition does not expand back).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from mpmath import mp

from .center import binary_invariants, compute_center
from .diagonalize import diagonalize_form
from .errors import (
    CenterSolveError,
    DegreeError,
    NonConvergenceError,
)
from .forms import BinaryForm, UnivariateEquation, from_plain_coeffs
from .oracle import check_decomposition, compare_root_sets, numeric_roots
from .parser import ParsedInput, PolyParseError, parse_polynomial
from .scalars import DEFAULT_PREC, is_exact, scalar_str
from .solver import (
    classify,
    complete_powers,
    max_scaled_residual,
    solve_by_radicals,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_NO_METHOD = 3
EXIT_VERIFY = 4

_VERIFY_TOL = 1e-9


class _UsageError(Exception):
    pass


def _bits(text: str) -> int:
    """A --precision value: a positive number of bits."""
    try:
        bits = int(text)
    except ValueError:
        bits = 0
    if bits < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return bits


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="centersolve",
        description="Center algebras, power-sum decompositions and radical roots.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "classify, solve by radicals, cross-check with the oracle"),
        ("center", "center basis, dimension and invariants"),
        ("decompose", "power-sum decomposition"),
        ("classify", "classification tag only"),
        ("oracle", "numeric roots only"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("polynomial", nargs="?", help="expression, coefficients, or -")
        cmd.add_argument(
            "--input",
            choices=("expr", "coeffs"),
            default="expr",
            help="input syntax (default: expr)",
        )
        cmd.add_argument(
            "--format",
            choices=("text", "json"),
            default="text",
            help="output format (default: text)",
        )
        # each command is given only the options it reads
        if name in ("solve", "decompose", "oracle"):
            cmd.add_argument(
                "--precision",
                type=_bits,
                default=DEFAULT_PREC,
                metavar="N",
                help="numeric precision in bits (default: 64)",
            )
        if name == "solve":
            cmd.add_argument(
                "--no-verify",
                action="store_true",
                help="skip the numeric-oracle cross-check",
            )
        cmd.add_argument(
            "--batch",
            metavar="FILE",
            default=None,
            help="process one input per line of FILE",
        )
    return parser


#: The parser run_command uses, built on its first call: building one costs
#: ~25x a parse_args call, and a parser keeps no state between parses.
_shared_parser = functools.cache(build_parser)


# ---------------------------------------------------------------------------
# document assembly
# ---------------------------------------------------------------------------


def _empty_document(source: str) -> dict:
    return {
        "input": source,
        "degree": None,
        "class": None,
        "invariants": {
            "D1": None,
            "D2": None,
            "D3": None,
            "discriminant": None,
            "hankel_rank": None,
        },
        "roots": None,
        "decomposition": None,
        "verification": None,
        "center": None,
    }


def _number(x):
    """A real number (float or mpf) as a JSON value: a float, or beyond the
    double range a string of its value to 17 significant digits, such as
    "1.0e+400" ("inf" for an infinite distance)."""
    f = float(x)
    return f if math.isfinite(f) else mp.nstr(x, 17)


def _coeff_json(x):
    if is_exact(x):
        return scalar_str(x)
    return [_number(x.real), _number(x.imag)]


def _roots_json(roots):
    """Radical roots with their ``expr``; oracle roots have none (null)."""
    return [
        {
            "expr": getattr(r, "expr", None),
            "re": _number(r.value.real),
            "im": _number(r.value.imag),
            "multiplicity": r.multiplicity,
        }
        for r in roots
    ]


def _decomposition_json(dec, variables):
    return {
        "degree": dec.degree,
        "variables": list(variables),
        "exact": dec.is_exact(),
        "summands": [
            {
                "coefficient": _coeff_json(c),
                "linear_form": [_coeff_json(x) for x in form.coeffs],
            }
            for c, form in dec.summands
        ],
    }


def _fill_invariants(doc, inv):
    doc["invariants"] = {
        "D1": str(inv.D1),
        "D2": str(inv.D2),
        "D3": str(inv.D3),
        "discriminant": str(inv.discriminant),
        "hankel_rank": inv.hankel_rank,
    }


def _fill_class(doc, cls):
    """Copy a class and its invariants to doc."""
    doc["class"] = cls.tag
    _fill_invariants(doc, cls.invariants)
    return cls


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------


def _read_input(args) -> str:
    if args.polynomial is None:
        raise _UsageError("missing polynomial input (or use --batch FILE)")
    if args.polynomial == "-":
        return sys.stdin.read().strip()
    return args.polynomial


def _parse(args, text: str) -> ParsedInput:
    if args.input == "coeffs":
        try:
            coeffs = [Fraction(tok) for tok in text.replace(",", " ").split()]
        except (ValueError, ZeroDivisionError) as exc:
            raise PolyParseError(f"bad coefficient: {exc}", 1, 1) from None
        if len(coeffs) < 2:
            raise PolyParseError("need at least two coefficients", 1, 1)
        try:
            eq = from_plain_coeffs(coeffs)
        except DegreeError as exc:
            raise PolyParseError(str(exc), 1, 1) from None
        return ParsedInput(
            source=text, equation=eq, form=None, binary=None, variables=("x",)
        )
    return parse_polynomial(text)


def _require_equation(parsed: ParsedInput) -> UnivariateEquation:
    if parsed.equation is not None:
        return parsed.equation
    if parsed.binary is not None and parsed.binary.norm[0] != 0:
        return parsed.binary.dehomogenize()
    raise PolyParseError("this command needs a univariate polynomial in x", 1, 1)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_solve(args, text, out, err) -> tuple[dict, int]:
    parsed = _parse(args, text)
    eq = _require_equation(parsed)
    doc = _empty_document(text)
    doc["degree"] = eq.degree
    prec = args.precision
    root_set = solve_by_radicals(eq, prec)
    cls = root_set.classification
    if cls is not None:
        _fill_class(doc, cls)
    doc["roots"] = _roots_json(root_set.roots)
    if doc["class"] == "SumOfTwoPowers":
        doc["decomposition"] = _decomposition_json(cls.completion, ("x", "y"))
    residual = max_scaled_residual(root_set, prec + 64)
    verification = {
        "max_residual": _number(residual),
        "oracle_max_distance": None,
        "oracle_max_radius": None,
        "passed": residual <= _VERIFY_TOL,
    }
    doc["verification"] = verification
    if args.no_verify:
        return doc, EXIT_OK
    try:
        oracle_set = numeric_roots(eq, tol=1e-12, prec=prec)
    except NonConvergenceError as exc:
        verification["passed"] = False
        print(f"verification failed: the oracle did not converge: {exc}", file=err)
        return doc, EXIT_VERIFY
    report = compare_root_sets(root_set, oracle_set, tol=_VERIFY_TOL)
    verification["oracle_max_distance"] = _number(report.max_distance)
    verification["oracle_max_radius"] = max(r.radius for r in oracle_set.roots)
    verification["passed"] = verification["passed"] and report.passed
    if not report.passed:
        print("verification failed: radical and oracle roots differ", file=err)
        return doc, EXIT_VERIFY
    return doc, EXIT_OK


def _cmd_classify(args, text, out, err) -> tuple[dict, int]:
    parsed = _parse(args, text)
    eq = _require_equation(parsed)
    doc = _empty_document(text)
    doc["degree"] = eq.degree
    _fill_class(doc, classify(eq))
    return doc, EXIT_OK


def _cmd_oracle(args, text, out, err) -> tuple[dict, int]:
    parsed = _parse(args, text)
    eq = _require_equation(parsed)
    doc = _empty_document(text)
    doc["degree"] = eq.degree
    oracle_set = numeric_roots(eq, tol=1e-12, prec=args.precision)
    doc["roots"] = _roots_json(oracle_set.roots)
    doc["verification"] = {
        "max_residual": _number(oracle_set.max_residual),
        "oracle_max_distance": None,
        "oracle_max_radius": max(r.radius for r in oracle_set.roots),
        "passed": oracle_set.converged,
    }
    return doc, EXIT_OK


def _cmd_center(args, text, out, err) -> tuple[dict, int]:
    parsed = _parse(args, text)
    doc = _empty_document(text)
    if parsed.form is not None and parsed.binary is None:
        form = parsed.form
    elif parsed.binary is not None:
        form = parsed.binary.to_nary()
    else:
        form = parsed.equation.homogenize().to_nary()
    doc["degree"] = form.degree
    basis = compute_center(form)
    center_info = {
        "dim": basis.dim,
        "commutative": basis.is_commutative(),
        "basis": [
            [[str(x) for x in row] for row in matrix] for matrix in basis.basis
        ],
        "lambda1": None,
        "lambda2": None,
    }
    if form.nvars == 2:
        inv = binary_invariants(BinaryForm.from_nary(form))
        _fill_invariants(doc, inv)
        if inv.lambda1 is not None and inv.D1 != 0:  # Lambda is defined
            center_info["lambda1"] = scalar_str(inv.lambda1)
            center_info["lambda2"] = scalar_str(inv.lambda2)
    doc["center"] = center_info
    return doc, EXIT_OK


def _cmd_decompose(args, text, out, err) -> tuple[dict, int]:
    parsed = _parse(args, text)
    doc = _empty_document(text)
    if parsed.form is not None and parsed.binary is None:
        form = parsed.form
        doc["degree"] = form.degree
        result = diagonalize_form(form, prec=args.precision)
        dec = result.as_power_sum
        doc["decomposition"] = _decomposition_json(dec, parsed.variables)
        # diagonalize_form has already expanded the result back to the form
        doc["verification"] = {
            "max_residual": None,
            "oracle_max_distance": None,
            "oracle_max_radius": None,
            "passed": True,
        }
        return doc, EXIT_OK
    if parsed.equation is not None:
        cls = _fill_class(doc, classify(parsed.equation))
        binary, dec = cls.form, cls.completion
    else:
        binary = parsed.binary
        dec = complete_powers(binary)
    doc["degree"] = binary.degree
    doc["decomposition"] = _decomposition_json(dec, ("x", "y"))
    ok = check_decomposition(binary.to_nary(), dec)
    doc["verification"] = {
        "max_residual": None,
        "oracle_max_distance": None,
        "oracle_max_radius": None,
        "passed": ok,
    }
    if not ok:
        print("verification failed: the decomposition does not expand back", file=err)
        return doc, EXIT_VERIFY
    return doc, EXIT_OK


_COMMANDS = {
    "solve": _cmd_solve,
    "center": _cmd_center,
    "decompose": _cmd_decompose,
    "classify": _cmd_classify,
    "oracle": _cmd_oracle,
}


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------


def _print_text(doc: dict, out):
    print(f"input: {doc['input']}", file=out)
    if doc["degree"] is not None:
        print(f"degree: {doc['degree']}", file=out)
    if doc["class"] is not None:
        print(f"class: {doc['class']}", file=out)
    inv = doc["invariants"]
    if inv and inv["D1"] is not None:
        print(
            f"invariants: D1={inv['D1']} D2={inv['D2']} D3={inv['D3']} "
            f"discriminant={inv['discriminant']} hankel_rank={inv['hankel_rank']}",
            file=out,
        )
    if doc["center"] is not None:
        c = doc["center"]
        print(f"center: dim={c['dim']} commutative={c['commutative']}", file=out)
        for matrix in c["basis"]:
            print("  basis element:", file=out)
            for row in matrix:
                print("    [" + ", ".join(row) + "]", file=out)
        if c["lambda1"] is not None:
            print(f"  lambda1 = {c['lambda1']}, lambda2 = {c['lambda2']}", file=out)
    if doc["roots"] is not None:
        print("roots:", file=out)
        for r in doc["roots"]:
            approx = _text_number(r["re"], ".12g")
            if r["im"] != 0:
                im = _signed(r["im"], ".12g")
                approx += f" {im[0]} {im[1:]}i"
            mult = f" (multiplicity {r['multiplicity']})" if r["multiplicity"] > 1 else ""
            expr = f"  {r['expr']}" if r["expr"] else ""
            print(f"  {approx}{mult}{expr}", file=out)
    if doc["decomposition"] is not None:
        dec = doc["decomposition"]
        print(
            f"decomposition: {len(dec['summands'])} summands of degree "
            f"{dec['degree']} ({'exact' if dec['exact'] else 'numeric'})",
            file=out,
        )
        for s in dec["summands"]:
            form = ", ".join(_text_coeff(x) for x in s["linear_form"])
            coeff = _text_coeff(s["coefficient"])
            print(f"  {coeff} * ({form})^{dec['degree']}", file=out)
    if doc["verification"] is not None:
        v = doc["verification"]
        print(
            f"verification: {'passed' if v['passed'] else 'FAILED'}"
            + (
                f" (max residual {_text_number(v['max_residual'], '.3g')})"
                if v["max_residual"] is not None
                else ""
            )
            + (
                f" (oracle max distance {_text_number(v['oracle_max_distance'], '.3g')})"
                if v["oracle_max_distance"] is not None
                else ""
            ),
            file=out,
        )


def _text_number(x, spec):
    """A JSON number in text: a float formatted by ``spec``, a string as is."""
    return x if isinstance(x, str) else format(x, spec)


def _signed(x, spec):
    text = _text_number(x, spec)
    return text if text[0] in "+-" else "+" + text


def _text_coeff(x):
    """An exact scalar as is, a [re, im] pair as re+imi."""
    return x if isinstance(x, str) else f"{_text_number(x[0], '.9g')}{_signed(x[1], '.9g')}i"


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _run_single(args, text, out, err) -> int:
    try:
        doc, code = _COMMANDS[args.command](args, text, out, err)
    except PolyParseError as exc:
        print(f"parse error: {exc}", file=err)
        return EXIT_PARSE
    except CenterSolveError as exc:
        print(f"not applicable: {exc}", file=err)
        return EXIT_NO_METHOD
    except Exception as exc:  # a defect: report it for this input, keep the batch going
        detail = f"{type(exc).__name__}: {exc}" if str(exc) else type(exc).__name__
        print(f"internal error: {detail}", file=err)
        return EXIT_NO_METHOD
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False), file=out)
    else:
        _print_text(doc, out)
    return code


def run_command(argv, stdout=None, stderr=None) -> int:
    """Run one CLI invocation; returns the exit code."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    try:
        args = _shared_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    if args.batch:
        worst = EXIT_OK
        try:
            with open(args.batch, encoding="utf-8") as fh:
                lines = [line.strip() for line in fh if line.strip()]
        except OSError as exc:
            print(f"usage error: {exc}", file=err)
            return EXIT_USAGE
        for line in lines:
            worst = max(worst, _run_single(args, line, out, err))
        return worst
    try:
        text = _read_input(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=err)
        return EXIT_USAGE
    return _run_single(args, text, out, err)


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()

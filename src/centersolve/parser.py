"""Recursive-descent parser for polynomial expressions.

Grammar (precedence: ^ above unary minus above * above binary +/-):

    expr    := term (('+' | '-') term)*
    term    := unary ('*' unary)*
    unary   := '-' unary | power
    power   := atom ('^' INT)*
    atom    := RATIONAL | VARIABLE | '(' expr ')'

Literals are integers or rationals written p/q; '/' is only part of a
rational literal, never a general operator.  Variables are ``x`` (with ``y``
for binary forms) or ``x1`` .. ``x9``; multiplication is always explicit.
Products and powers are expanded exactly, so the result is a canonical
sparse polynomial.  Every operand holds integer coefficients over one
denominator: a product or power of single terms adds or scales exponent
tuples, and only the whole result becomes Fractions.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import add

from .errors import CenterSolveError
from .forms import (
    BinaryForm,
    NAryForm,
    UnivariateEquation,
    from_plain_coeffs,
    poly_mul,
    poly_pow,
)

_MAX_VARS = 9

# slot 0 = x (== x1), slot 9 = y; x_k sits at slot k-1
_SLOTS = {"x": 0, "y": _MAX_VARS, **{f"x{k}": k - 1 for k in range(1, _MAX_VARS + 1)}}
#: Exponent tuple of each variable.
_UNITS = {
    name: tuple(int(s == slot) for s in range(_MAX_VARS + 1))
    for name, slot in _SLOTS.items()
}

#: One token per match: an integer, a name, or any other single character.
_TOKEN = re.compile(r"\s*(\d+|[^\W\d_]\w*|\S)")


class PolyParseError(CenterSolveError):
    """Syntax error with position and the tokens that would have been legal."""

    def __init__(self, message, line, column, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        hint = f" (expected: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at line {line}, column {column}{hint}")


class _Parser:
    """Operands are (terms, den): exponent tuples over the maximal variable
    set mapped to nonzero integers, all over one denominator den > 0."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _TOKEN.findall(text) + [""]  # "" ends the input
        self.i = 0
        self.seen: set[str] = set()

    def error(self, message, expected=()):
        """Raise at the current token; a character that starts no token is
        reported first, wherever it is."""
        index = self.i
        for j, tok in enumerate(self.toks[:-1]):
            first = tok[0]
            if first not in "+-*^/()" and not (first.isdecimal() or first.isalpha()):
                message, expected, index = f"unexpected character {first!r}", (), j
                break
        text = self.text
        offset = ([m.start(1) for m in _TOKEN.finditer(text)] + [len(text)])[index]
        line = text.count("\n", 0, offset) + 1
        column = offset - text.rfind("\n", 0, offset)
        raise PolyParseError(message, line, column, expected)

    def parse(self):
        terms, den = self.expr()
        if self.toks[self.i]:
            self.error(
                f"trailing input {self.toks[self.i]!r}",
                expected=("+", "-", "*", "^", "end of input"),
            )
        return terms, den

    def expr(self):
        acc, den = self.term()  # a fresh dict, summed into in place
        toks = self.toks
        while (op := toks[self.i]) == "+" or op == "-":
            self.i += 1
            terms, tden = self.term()
            common = lcm(den, tden)
            if common != den:
                for mono in acc:
                    acc[mono] *= common // den
                den = common
            scale = den // tden if op == "+" else -(den // tden)
            for mono, c in terms.items():
                s = acc.get(mono, 0) + scale * c
                if s:
                    acc[mono] = s
                else:
                    del acc[mono]
        return acc, den

    def term(self):
        terms, den = self.unary()
        while self.toks[self.i] == "*":
            self.i += 1
            rhs, rden = self.unary()
            den *= rden
            if len(terms) == 1 == len(rhs):
                ((m, a),) = terms.items()
                ((n, b),) = rhs.items()
                terms = {tuple(map(add, m, n)): a * b}
            else:
                terms = poly_mul(terms, rhs)
        return terms, den

    def unary(self):
        if self.toks[self.i] == "-":
            self.i += 1
            terms, den = self.unary()
            return {mono: -c for mono, c in terms.items()}, den
        return self.power()

    def power(self):
        terms, den = self.atom()
        while self.toks[self.i] == "^":
            self.i += 1
            tok = self.toks[self.i]
            if not tok.isdecimal():
                self.error(
                    "exponent must be a nonnegative integer literal",
                    expected=("integer",),
                )
            self.i += 1
            k = int(tok)
            den **= k
            if len(terms) == 1:
                ((m, c),) = terms.items()
                terms = {tuple([e * k for e in m]): c**k}
            else:
                terms = poly_pow(terms, k, _MAX_VARS + 1)
        return terms, den

    def atom(self):
        tok = self.toks[self.i]
        unit = _UNITS.get(tok)
        if unit is not None:
            self.i += 1
            self.seen.add(tok)
            return {unit: 1}, 1
        if tok.isdecimal():
            self.i += 1
            den = 1
            if self.toks[self.i] == "/":
                self.i += 1
                if not self.toks[self.i].isdecimal():
                    self.error(
                        "denominator must be an integer literal",
                        expected=("integer",),
                    )
                den = int(self.toks[self.i])
                if den == 0:
                    self.error("zero denominator")
                self.i += 1
            num = int(tok)
            return ({(0,) * (_MAX_VARS + 1): num} if num else {}), den
        if tok == "(":
            self.i += 1
            poly = self.expr()
            if self.toks[self.i] != ")":
                self.error("unbalanced parenthesis", expected=(")",))
            self.i += 1
            return poly
        if tok == "/":
            self.error(
                "'/' is only valid inside a rational literal p/q",
                expected=("integer",),
            )
        if tok[:1].isalnum():
            self.error(
                f"unknown variable {tok!r}",
                expected=("x", "y", "x1..x9"),
            )
        self.error(
            f"unexpected token {tok!r}" if tok else "unexpected end of input",
            expected=("number", "variable", "("),
        )


@dataclass(frozen=True)
class ParsedInput:
    source: str
    equation: UnivariateEquation | None
    form: NAryForm | None
    binary: BinaryForm | None
    variables: tuple


def parse_polynomial(text: str) -> ParsedInput:
    """Parse an expression to an equation (in x), a binary form (x, y), or
    an n-ary form (x1..xn).  The n-ary and binary results must be
    homogeneous."""
    parser = _Parser(text)
    terms, den = parser.parse()
    poly = {mono: Fraction(c, den) for mono, c in terms.items()}
    seen = parser.seen
    indexed = {v for v in seen if v not in ("x", "y")}
    if indexed and "y" in seen:
        raise PolyParseError("cannot mix y with indexed variables", 1, 1)
    if indexed and "x" in seen:
        # x is an alias for x1 in indexed expressions
        seen = (seen - {"x"}) | {"x1"}
    if "y" in seen:
        return _as_binary(text, poly, seen)
    if indexed:
        return _as_nary(text, poly, seen)
    return _as_univariate(text, poly, seen)


def _degree_in(poly, slot: int) -> int:
    return max((mono[slot] for mono in poly), default=0)


def _as_univariate(text, poly, seen) -> ParsedInput:
    d = _degree_in(poly, 0)
    if d < 1:
        raise PolyParseError("polynomial is constant", 1, 1)
    plain = [Fraction(0)] * (d + 1)
    for mono, c in poly.items():
        plain[d - mono[0]] = c
    eq = from_plain_coeffs(plain)
    return ParsedInput(
        source=text, equation=eq, form=None, binary=None, variables=("x",)
    )


def _as_binary(text, poly, seen) -> ParsedInput:
    degrees = {mono[0] + mono[_MAX_VARS] for mono in poly}
    if len(degrees) != 1:
        raise PolyParseError("binary form must be homogeneous in x, y", 1, 1)
    d = degrees.pop()
    terms = {}
    for mono, c in poly.items():
        terms[(mono[0], mono[_MAX_VARS])] = c
    nary = NAryForm(2, d, terms)
    return ParsedInput(
        source=text,
        equation=None,
        form=nary,
        binary=BinaryForm.from_nary(nary),
        variables=("x", "y"),
    )


def _as_nary(text, poly, seen) -> ParsedInput:
    n = max(_SLOTS[v] for v in seen) + 1
    degrees = {sum(mono) for mono in poly}
    if len(degrees) != 1:
        raise PolyParseError("form must be homogeneous", 1, 1)
    d = degrees.pop()
    terms = {mono[:n]: c for mono, c in poly.items()}
    form = NAryForm(n, d, terms)
    variables = tuple(f"x{i+1}" for i in range(n))
    return ParsedInput(
        source=text, equation=None, form=form, binary=None, variables=variables
    )


def render_polynomial(parsed: ParsedInput) -> str:
    """Canonical text form; parsing it back yields an equal object."""
    if parsed.equation is not None:
        return _render_univariate(parsed.equation)
    form = parsed.form
    names = ["x", "y"] if parsed.binary is not None else list(parsed.variables)
    parts = []
    for mono in sorted(form.terms, reverse=True):
        c = form.terms[mono]
        factors = []
        for slot, e in enumerate(mono):
            if e == 0:
                continue
            name = names[slot]
            factors.append(name if e == 1 else f"{name}^{e}")
        body = "*".join(factors)
        if body:
            parts.append(f"{c}*{body}" if c != 1 else body)
        else:
            parts.append(str(c))
    return _join_signed(parts)


def _render_univariate(eq: UnivariateEquation) -> str:
    d = eq.degree
    parts = []
    for i, b in enumerate(eq.plain):
        if b == 0:
            continue
        power = d - i
        if power == 0:
            parts.append(str(b))
        else:
            var = "x" if power == 1 else f"x^{power}"
            parts.append(var if b == 1 else f"{b}*{var}")
    return _join_signed(parts)


def _join_signed(parts) -> str:
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        if p.startswith("-"):
            out += f" - {p[1:]}"
        else:
            out += f" + {p}"
    return out

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
Products and powers are expanded, so the result is a canonical sparse
polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CenterSolveError
from .forms import (
    BinaryForm,
    NAryForm,
    UnivariateEquation,
    from_plain_coeffs,
    poly_add,
    poly_mul,
    poly_pow,
    poly_scale,
)

_VARIABLES = ("x", "y") + tuple(f"x{i}" for i in range(1, 10))
_MAX_VARS = 9


class PolyParseError(CenterSolveError):
    """Syntax error with position and the tokens that would have been legal."""

    def __init__(self, message, line, column, expected=()):
        self.line = line
        self.column = column
        self.expected = tuple(expected)
        hint = f" (expected: {', '.join(expected)})" if expected else ""
        super().__init__(f"{message} at line {line}, column {column}{hint}")


@dataclass(frozen=True)
class Token:
    kind: str  # INT | VAR | OP | LPAREN | RPAREN | END
    text: str
    line: int
    column: int


def _tokenize(text: str):
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        start_col = col
        if ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(Token("INT", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i + 1
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("VAR", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in "+-*^/":
            tokens.append(Token("OP", ch, line, start_col))
        elif ch == "(":
            tokens.append(Token("LPAREN", ch, line, start_col))
        elif ch == ")":
            tokens.append(Token("RPAREN", ch, line, start_col))
        else:
            raise PolyParseError(f"unexpected character {ch!r}", line, start_col)
        col += 1
        i += 1
    tokens.append(Token("END", "", line, col))
    return tokens


class _Parser:
    """Operands are sparse polynomials over the maximal variable set."""

    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.seen: set[str] = set()

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def error(self, message, expected=()):
        tok = self.peek()
        raise PolyParseError(message, tok.line, tok.column, expected)

    def parse(self):
        poly = self.expr()
        if self.peek().kind != "END":
            self.error(
                f"trailing input {self.peek().text!r}",
                expected=("+", "-", "*", "^", "end of input"),
            )
        return poly

    def expr(self):
        poly = self.term()
        while self.peek().kind == "OP" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.term()
            if op == "-":
                rhs = poly_scale(Fraction(-1), rhs)
            poly = poly_add(poly, rhs)
        return poly

    def term(self):
        poly = self.unary()
        while self.peek().kind == "OP" and self.peek().text == "*":
            self.advance()
            poly = poly_mul(poly, self.unary())
        return poly

    def unary(self):
        if self.peek().kind == "OP" and self.peek().text == "-":
            self.advance()
            return poly_scale(Fraction(-1), self.unary())
        return self.power()

    def power(self):
        poly = self.atom()
        while self.peek().kind == "OP" and self.peek().text == "^":
            self.advance()
            tok = self.peek()
            if tok.kind != "INT":
                self.error(
                    "exponent must be a nonnegative integer literal",
                    expected=("integer",),
                )
            self.advance()
            poly = poly_pow(poly, int(tok.text), _MAX_VARS + 1)
        return poly

    def atom(self):
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            value = Fraction(int(tok.text))
            if self.peek().kind == "OP" and self.peek().text == "/":
                self.advance()
                den = self.peek()
                if den.kind != "INT":
                    self.error(
                        "denominator must be an integer literal",
                        expected=("integer",),
                    )
                self.advance()
                if int(den.text) == 0:
                    raise PolyParseError(
                        "zero denominator", den.line, den.column
                    )
                value = Fraction(int(tok.text), int(den.text))
            if value == 0:
                return {}
            return {(0,) * (_MAX_VARS + 1): value}
        if tok.kind == "VAR":
            if tok.text not in _VARIABLES:
                self.error(
                    f"unknown variable {tok.text!r}",
                    expected=("x", "y", "x1..x9"),
                )
            self.advance()
            self.seen.add(tok.text)
            mono = [0] * (_MAX_VARS + 1)
            mono[_var_slot(tok.text)] = 1
            return {tuple(mono): Fraction(1)}
        if tok.kind == "LPAREN":
            self.advance()
            poly = self.expr()
            if self.peek().kind != "RPAREN":
                self.error("unbalanced parenthesis", expected=(")",))
            self.advance()
            return poly
        if tok.kind == "OP" and tok.text == "/":
            self.error(
                "'/' is only valid inside a rational literal p/q",
                expected=("integer",),
            )
        self.error(
            f"unexpected token {tok.text!r}" if tok.text else "unexpected end of input",
            expected=("number", "variable", "("),
        )


def _var_slot(name: str) -> int:
    # slot 0 = x (== x1), slot 9 = y; x_k sits at slot k-1
    if name == "x":
        return 0
    if name == "y":
        return _MAX_VARS
    return int(name[1:]) - 1


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
    poly = parser.parse()
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
    n = max(_var_slot(v) for v in seen) + 1
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

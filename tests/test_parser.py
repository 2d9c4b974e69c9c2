from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import centersolve as cs
from centersolve import PolyParseError, parse_polynomial, render_polynomial
from centersolve.parser import _SLOTS, _Parser
from conftest import TERNARY_CUBIC_TERMS


class TestUnivariate:
    def test_quintic_text(self):
        parsed = parse_polynomial(
            "31*x^5 + 235*x^4 + 710*x^3 + 1070*x^2 + 805*x + 242"
        )
        assert parsed.equation is not None
        assert parsed.equation.plain == (31, 235, 710, 1070, 805, 242)
        assert parsed.variables == ("x",)

    def test_monomial(self):
        parsed = parse_polynomial("x^3")
        assert parsed.equation.plain == (1, 0, 0, 0)

    def test_difference_of_cubes(self):
        parsed = parse_polynomial("(x+1)^3 - (x-1)^3")
        assert parsed.equation.plain == (6, 0, 2)

    def test_rational_coefficients(self):
        parsed = parse_polynomial("1/2*x^2 - 3/4*x + 5")
        assert parsed.equation.plain == (F(1, 2), F(-3, 4), F(5))

    def test_unary_minus(self):
        parsed = parse_polynomial("-x^2 + x")
        assert parsed.equation.plain == (-1, 1, 0)

    def test_nested_parens_and_products(self):
        parsed = parse_polynomial("2*(x+1)*(x-1)")
        assert parsed.equation.plain == (2, 0, -2)


class TestBinaryAndNAry:
    def test_binary_form(self):
        parsed = parse_polynomial("x^3 + 3*x^2*y + 3*x*y^2 + y^3")
        assert parsed.binary is not None
        assert parsed.binary.norm == (1, 1, 1, 1)

    def test_binary_must_be_homogeneous(self):
        with pytest.raises(PolyParseError):
            parse_polynomial("x^3 + y^2")

    def test_ternary_cubic(self):
        text = (
            "x1^3 + 3*x2*x1^2 + 3*x3*x1^2 + 3*x2^2*x1 + 3*x3^2*x1 "
            "+ 6*x2*x3*x1 - x2^3 + 20*x3^3 - 21*x2*x3^2 + 15*x2^2*x3"
        )
        parsed = parse_polynomial(text)
        assert parsed.form is not None
        assert parsed.form.terms == TERNARY_CUBIC_TERMS
        assert parsed.variables == ("x1", "x2", "x3")

    def test_x_is_alias_for_x1(self):
        parsed = parse_polynomial("x^3 + x2^3")
        assert parsed.form.nvars == 2

    def test_y_with_indexed_rejected(self):
        with pytest.raises(PolyParseError):
            parse_polynomial("x1^2*y")


class TestErrors:
    def test_syntax_error_position(self):
        with pytest.raises(PolyParseError) as exc:
            parse_polynomial("x + + 2")
        assert exc.value.line == 1
        assert exc.value.column == 5
        assert exc.value.expected

    def test_non_integer_exponent(self):
        with pytest.raises(PolyParseError) as exc:
            parse_polynomial("x^y")
        assert "exponent" in str(exc.value)

    def test_unknown_variable(self):
        with pytest.raises(PolyParseError) as exc:
            parse_polynomial("z^2 + 1")
        assert "unknown variable" in str(exc.value)

    def test_juxtaposition_rejected(self):
        with pytest.raises(PolyParseError):
            parse_polynomial("2 x")

    def test_division_only_in_literals(self):
        with pytest.raises(PolyParseError):
            parse_polynomial("x/2")

    def test_unbalanced_paren(self):
        with pytest.raises(PolyParseError):
            parse_polynomial("(x+1")

    def test_zero_denominator(self):
        with pytest.raises(PolyParseError):
            parse_polynomial("1/0*x")

    def test_constant_input(self):
        with pytest.raises(PolyParseError):
            parse_polynomial("7")

    def test_position_on_second_line(self):
        with pytest.raises(PolyParseError) as exc:
            parse_polynomial("x^2 +\n ?")
        assert exc.value.line == 2


def test_round_trip_on_seeded_random_equations():
    import random

    from centersolve import ParsedInput, from_plain_coeffs

    rng = random.Random(777)
    for _ in range(40):
        d = rng.randint(1, 9)
        coeffs = [F(rng.randint(-99, 99), rng.randint(1, 12)) for _ in range(d + 1)]
        if coeffs[0] == 0:
            coeffs[0] = F(1)
        eq = from_plain_coeffs(coeffs)
        parsed = ParsedInput(
            source="", equation=eq, form=None, binary=None, variables=("x",)
        )
        text = render_polynomial(parsed)
        assert parse_polynomial(text).equation == eq, text


class TestRoundTrip:
    @pytest.mark.parametrize(
        "text",
        [
            "31*x^5 + 235*x^4 + 710*x^3 + 1070*x^2 + 805*x + 242",
            "x^3 - 2*x + 1/3",
            "x^3 + 3*x^2*y + 3*x*y^2 + y^3",
            "x1^3 - 2*x2^3 + 3*x3^3",
            "-x^4 + 2/7*x",
        ],
    )
    def test_render_parse_round_trip(self, text):
        first = parse_polynomial(text)
        rendered = render_polynomial(first)
        second = parse_polynomial(rendered)
        assert render_polynomial(second) == rendered
        if first.equation is not None:
            assert second.equation == first.equation
        if first.form is not None:
            assert second.form == first.form


# Error table: every (message, line, column, expected) is the one the
# character-by-character tokenizer this parser replaced produced.
MALFORMED = [
    ("", "unexpected end of input", 1, 1, ("number", "variable", "(")),
    ("   ", "unexpected end of input", 1, 4, ("number", "variable", "(")),
    ("\n", "unexpected end of input", 2, 1, ("number", "variable", "(")),
    ("x +", "unexpected end of input", 1, 4, ("number", "variable", "(")),
    ("x + + 2", "unexpected token '+'", 1, 5, ("number", "variable", "(")),
    ("+x", "unexpected token '+'", 1, 1, ("number", "variable", "(")),
    ("x**2", "unexpected token '*'", 1, 3, ("number", "variable", "(")),
    ("()", "unexpected token ')'", 1, 2, ("number", "variable", "(")),
    ("--", "unexpected end of input", 1, 3, ("number", "variable", "(")),
    ("x^2 +\n\n  x +\n *", "unexpected token '*'", 4, 2, ("number", "variable", "(")),
    ("x^", "exponent must be a nonnegative integer literal", 1, 3, ("integer",)),
    ("x^-1", "exponent must be a nonnegative integer literal", 1, 3, ("integer",)),
    ("x^(2)", "exponent must be a nonnegative integer literal", 1, 3, ("integer",)),
    ("x^2^", "exponent must be a nonnegative integer literal", 1, 5, ("integer",)),
    ("x/2", "trailing input '/'", 1, 2, ("+", "-", "*", "^", "end of input")),
    ("2 x", "trailing input 'x'", 1, 3, ("+", "-", "*", "^", "end of input")),
    ("x+1)", "trailing input ')'", 1, 4, ("+", "-", "*", "^", "end of input")),
    ("1/x", "denominator must be an integer literal", 1, 3, ("integer",)),
    ("3/-4*x", "denominator must be an integer literal", 1, 3, ("integer",)),
    ("x + 2/", "denominator must be an integer literal", 1, 7, ("integer",)),
    ("1/0*x", "zero denominator", 1, 3, ()),
    ("0/0", "zero denominator", 1, 3, ()),
    ("x^2 + 1/0", "zero denominator", 1, 9, ()),
    ("/x", "'/' is only valid inside a rational literal p/q", 1, 1, ("integer",)),
    ("x+/2", "'/' is only valid inside a rational literal p/q", 1, 3, ("integer",)),
    ("(x+1", "unbalanced parenthesis", 1, 5, (")",)),
    ("x1^2 + (x2", "unbalanced parenthesis", 1, 11, (")",)),
    ("((((x", "unbalanced parenthesis", 1, 6, (")",)),
    ("z^2 + 1", "unknown variable 'z'", 1, 1, ("x", "y", "x1..x9")),
    ("x10^2", "unknown variable 'x10'", 1, 1, ("x", "y", "x1..x9")),
    ("X^2", "unknown variable 'X'", 1, 1, ("x", "y", "x1..x9")),
    ("x_1^3", "unknown variable 'x_1'", 1, 1, ("x", "y", "x1..x9")),
    ("x^2 +\n ?", "unexpected character '?'", 2, 2, ()),
    ("x^2 +\r\n?", "unexpected character '?'", 2, 1, ()),
    ("x + 1\t+ #", "unexpected character '#'", 1, 9, ()),
    ("x^2 + _y", "unexpected character '_'", 1, 7, ()),
    ("x^2 + \u00bd", "unexpected character '\u00bd'", 1, 7, ()),
    ("1.5*x", "unexpected character '.'", 1, 2, ()),
    # a character that starts no token is reported before an earlier
    # syntax error
    ("x + + ?", "unexpected character '?'", 1, 7, ()),
    ("x1^2*y", "cannot mix y with indexed variables", 1, 1, ()),
    ("x^3 + y^2", "binary form must be homogeneous in x, y", 1, 1, ()),
    ("x1^3 + x2", "form must be homogeneous", 1, 1, ()),
    ("x - x", "polynomial is constant", 1, 1, ()),
]


@pytest.mark.parametrize("text, message, line, column, expected", MALFORMED)
def test_error_table(text, message, line, column, expected):
    with pytest.raises(PolyParseError) as exc:
        parse_polynomial(text)
    err = exc.value
    assert (str(err).split(" at line ")[0], err.line, err.column, err.expected) == (
        message,
        line,
        column,
        expected,
    )


def test_superscript_digit_is_an_unexpected_character():
    # "\u00b2" is a digit to str.isdigit but not a decimal digit; the
    # character-by-character tokenizer took it for part of an integer and
    # then raised ValueError on int("\u00b2")
    with pytest.raises(PolyParseError) as exc:
        parse_polynomial("x^\u00b2")
    assert (exc.value.line, exc.value.column) == (1, 3)
    assert str(exc.value).startswith("unexpected character '\u00b2'")


# Random expression trees, rendered with the fewest parentheses the grammar
# needs (plus explicit ones), and valued in Fractions straight from the tree.
_PREC = {"add": 1, "sub": 1, "mul": 2, "neg": 3, "pow": 4}
_LEAVES = st.one_of(
    st.tuples(
        st.just("num"),
        st.one_of(st.integers(0, 30), st.integers(0, 10**25)),
        st.sampled_from([1, 1, 2, 3, 7, 12]),
    ),
    st.tuples(st.just("var"), st.sampled_from(sorted(_SLOTS))),
)
_TREES = st.recursive(
    _LEAVES,
    lambda children: st.one_of(
        st.tuples(st.sampled_from(["add", "sub", "mul"]), children, children),
        st.tuples(st.just("neg"), children),
        st.tuples(st.just("pow"), children, st.integers(0, 3)),
        st.tuples(st.just("paren"), children),
    ),
    max_leaves=10,
)


def _tokens(tree):
    """(tokens, precedence) of a tree; atoms have precedence 5."""
    kind = tree[0]
    if kind == "num":
        _, p, q = tree
        return ([str(p)] if q == 1 else [str(p), "/", str(q)]), 5
    if kind == "var":
        return [tree[1]], 5
    if kind == "paren":
        return ["(", *_tokens(tree[1])[0], ")"], 5

    def operand(sub, least):
        toks, prec = _tokens(sub)
        return toks if prec >= least else ["(", *toks, ")"]

    prec = _PREC[kind]
    if kind == "neg":
        return ["-", *operand(tree[1], 3)], prec
    if kind == "pow":
        return [*operand(tree[1], 4), "^", str(tree[2])], prec
    op = {"add": "+", "sub": "-", "mul": "*"}[kind]
    return [*operand(tree[1], prec), op, *operand(tree[2], prec + 1)], prec


def _value(tree, point):
    kind = tree[0]
    if kind == "num":
        return F(tree[1], tree[2])
    if kind == "var":
        return point[tree[1]]
    if kind == "paren":
        return _value(tree[1], point)
    if kind == "neg":
        return -_value(tree[1], point)
    if kind == "pow":
        return _value(tree[1], point) ** tree[2]
    a, b = _value(tree[1], point), _value(tree[2], point)
    return {"add": a + b, "sub": a - b, "mul": a * b}[kind]


@settings(max_examples=300, deadline=None)
@given(
    tree=_TREES,
    separators=st.lists(st.sampled_from(["", " ", "\n", " \t\n "]), min_size=80),
    values=st.lists(
        st.tuples(st.integers(-9, 9), st.integers(1, 5)), min_size=11, max_size=11
    ),
)
def test_expansion_matches_a_fraction_evaluation(tree, separators, values):
    toks, _ = _tokens(tree)
    text = "".join(s + t for s, t in zip(separators + [""] * len(toks), toks))
    point = {name: F(*v) for name, v in zip(sorted(_SLOTS), values)}
    point["x1"] = point["x"]  # x is an alias for x1
    parser = _Parser(text)
    terms, den = parser.parse()
    at_slot = [None] * 10
    for name, slot in _SLOTS.items():
        at_slot[slot] = point[name]
    got = F(0)
    for mono, c in terms.items():
        assert c != 0
        term = F(c, den)
        for x, e in zip(at_slot, mono):
            term *= x**e
        got += term
    want = _value(tree, point)
    assert got == want, text
    if parser.seen <= {"x"}:
        try:
            eq = parse_polynomial(text).equation
        except PolyParseError as exc:
            assert str(exc).startswith("polynomial is constant")
            assert all(mono[0] == 0 for mono in terms), text
        else:
            assert eq.evaluate_exact(point["x"]) == want, text

import random
import re
import time
from fractions import Fraction

import pytest

from gawb.parse import PolyParseError, UndeclaredVariableError, parse_poly
from gawb.poly import LaurentSubstitutionError, Poly, mono


def test_three_term_relation():
    p = parse_poly("x^2*v - y^2*u - 1", ["x", "y", "u", "v"])
    assert p.terms == {
        mono(x=2, v=1): 1,
        mono(y=2, u=1): -1,
        (): -1,
    }


def test_rational_coefficient():
    p = parse_poly("5/16*v^2*x", ["x", "v"])
    assert p.terms == {mono(v=2, x=1): Fraction(5, 16)}


def test_laurent_monomial():
    p = parse_poly("x^-3*y^-1")
    assert p == Poly.monomial(mono(x=-3, y=-1))


def test_parentheses_and_unary_minus():
    assert parse_poly("-(x - y)^2") == -(parse_poly("x-y") ** 2)
    assert parse_poly("-x + y") == parse_poly("y") - parse_poly("x")


def test_explicit_star_required():
    with pytest.raises(PolyParseError):
        parse_poly("2x")


def test_error_positions():
    with pytest.raises(PolyParseError) as e:
        parse_poly("x + ")
    assert e.value.position == 4
    with pytest.raises(PolyParseError) as e:
        parse_poly("x ^ y")
    assert e.value.position == 4
    with pytest.raises(PolyParseError) as e:
        parse_poly("x + $")
    assert e.value.position == 4


def test_undeclared_variable():
    with pytest.raises(UndeclaredVariableError) as e:
        parse_poly("x + zz", ["x"])
    assert e.value.name == "zz"
    assert e.value.position == 4


def test_negative_exponent_of_sum_rejected():
    with pytest.raises(PolyParseError):
        parse_poly("(x + y)^-1")


def test_zero_denominator():
    with pytest.raises(PolyParseError):
        parse_poly("1/0")


def test_division_only_for_literals():
    with pytest.raises(PolyParseError):
        parse_poly("x/2")


# -- the reference parser ------------------------------------------------------------
#
# The parser as it stood before terms were built directly: every token goes
# through Poly arithmetic (a Poly per primary, Poly.__mul__ per factor,
# Poly.__pow__ per power and a fresh dict per sum).  parse_poly must give the
# same terms, in the same order and with the same coefficient types, and raise
# the same errors at the same positions.

_REF_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[a-zA-Z][a-zA-Z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _reference_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN_RE.match(text, pos)
        if not m or m.end() == m.start():
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_at = len(text) - len(stripped)
            raise PolyParseError(f"unexpected character {text[bad_at]!r}", bad_at)
        if m.group("int") is not None:
            tokens.append(("int", m.group("int"), m.start("int")))
        elif m.group("ident") is not None:
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _ReferenceParser:
    def __init__(self, text, variables):
        self.tokens = _reference_tokenize(text)
        self.i = 0
        self.variables = None if variables is None else set(variables)

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val, pos = self.peek()
        if kind != "op" or val != op:
            raise PolyParseError(f"expected {op!r}", pos)
        return self.next()

    def parse(self):
        p = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise PolyParseError(f"unexpected token {val!r}", pos)
        return p

    def expr(self):
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        p = self.term()
        if sign < 0:
            p = -p
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                q = self.term()
                p = p - q if val == "-" else p + q
            else:
                return p

    def term(self):
        p = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                p = p * self.factor()
            else:
                return p

    def factor(self):
        p = self.primary()
        kind, val, pos = self.peek()
        if kind == "op" and val == "^":
            self.next()
            exp = self.signed_int()
            try:
                p = p ** exp
            except LaurentSubstitutionError as e:
                raise PolyParseError(str(e), pos) from None
        return p

    def signed_int(self):
        sign = 1
        kind, val, pos = self.peek()
        if kind == "op" and val == "-":
            self.next()
            sign = -1
        kind, val, pos = self.peek()
        if kind != "int":
            raise PolyParseError("expected integer exponent", pos)
        self.next()
        return sign * int(val)

    def primary(self):
        kind, val, pos = self.next()
        if kind == "int":
            num = int(val)
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.next()
                k3, v3, p3 = self.peek()
                if k3 != "int":
                    raise PolyParseError("expected integer denominator", p3)
                self.next()
                den = int(v3)
                if den == 0:
                    raise PolyParseError("zero denominator", p3)
                q = Fraction(num, den)
                return Poly.const(q.numerator if q.denominator == 1 else q)
            return Poly.const(num)
        if kind == "ident":
            if self.variables is not None and val not in self.variables:
                raise UndeclaredVariableError(val, pos)
            return Poly.variable(val)
        if kind == "op" and val == "(":
            p = self.expr()
            self.expect_op(")")
            return p
        raise PolyParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)


def _reference_parse_poly(text, variables=None):
    return _ReferenceParser(text, None if variables is None else tuple(variables)).parse()


def _outcome(parse, text, variables):
    """Terms as (monomial, coefficient, coefficient type) in dict order, or the
    error's type, message, position and undeclared name."""
    try:
        p = parse(text, variables)
    except PolyParseError as e:
        return (type(e), str(e), e.position, getattr(e, "name", None))
    return [(m, c, type(c)) for m, c in p.terms.items()]


_VARS = ("x", "y", "u", "v")
_IDENTS = ("x", "y", "u", "v", "z", "a_1")
_SPACES = ("", "", "", " ", "  ", "\t")


def _gen_expr(rng, depth):
    """An expression of up to four terms at the top, up to three inside
    parentheses, so that powers of parenthesised sums stay small."""
    sp = lambda: rng.choice(_SPACES)  # noqa: E731
    parts = [rng.choice(("", "", "-", "+"))]
    for k in range(rng.randint(1, 4 if depth == 2 else 3)):
        if k:
            parts.append(sp() + rng.choice("+-") + sp())
        parts.append("*".join(_gen_factor(rng, depth) for _ in range(rng.randint(1, 3 if depth == 2 else 2))))
    return "".join(parts)


def _gen_factor(rng, depth):
    r = rng.random()
    if r < 0.35 or (r >= 0.7 and depth == 0):
        base = rng.choice(_IDENTS)
    elif r < 0.55:
        base = str(rng.choice((0, 1, 1, 2, 3, 5, 12)))
    elif r < 0.7:
        base = f"{rng.randint(0, 6)}/{rng.choice((0, 1, 2, 3, 4, 4, 6, 6))}"
    else:
        base = f"({_gen_expr(rng, depth - 1)})"
    if rng.random() < 0.4:
        top = 2 if base[0] == "(" else 3
        base += f"^{rng.choice(('', '', '-'))}{rng.randint(0, top)}"
    return base


def _mutate(rng, text):
    """One deletion, insertion, duplication or truncation."""
    i = rng.randint(0, len(text))
    kind = rng.randrange(4)
    if kind == 0 and text:
        i = min(i, len(text) - 1)
        return text[:i] + text[i + 1:]
    if kind == 1:
        return text[:i] + rng.choice("$^()/*+-x0 .\n ") + text[i:]
    if kind == 2 and text:
        i = min(i, len(text) - 1)
        return text[:i + 1] + text[i:]
    return text[:i]


def _seeded_texts(rng, count):
    while count:
        text = _gen_expr(rng, 2)
        if rng.random() < 0.4:
            text = _mutate(rng, text)
            if re.search(r"\^-?\d\d", text):
                continue  # keep the powers small
        count -= 1
        yield text


def test_matches_reference_on_fixed_cases():
    cases = [
        "0^0", "0^-1", "0^2", "(x+y)^-1", "(2*x)^-2", "2/4*x", "4/2*x", "1/2*2*x",
        "x - x + x", "x - x", "-(x - y)^2", "(x - x)^-1", "(x + y)^0", "(1/2)^-1",
        "(-1)^-3", "x + y  ", "  x\t", "x^2^3", "(x", "1/", "1/0", "x/2", "", "   ",
        "x*x^-1", "2*(x + y)*3", "(x + y)*x*(x - y)", "0*(x + y)", "-x + y", "x + $",
        "x ^ y", "x + ", "2x", "x^-3*y^-1", "5/16*v^2*x", "(x*y)^2*(x + 1)^2",
        # where a factor's optional "/INT" or "^[-]INT" is or is not one token with it
        "x^ - 2", "2 / 3", "2/3^2", "2^2/3", "x^^2", "2^2^3", "(x+y)^ -1", "x^-", "1//2",
        "2/3/4", "2_", "x_1*2", "x ^ -y", "\u0663*x", "x\u00a0+\u20031", "x^\u0663", "2 /3^2",
        "2 /3/4", "(2 /3/4)", "x ^2/3", "(x ^2^3)", "2^3 /4", "0 /3^-1", "2 /0/4",
        "(x+y) ^-1/2", "(1/2*2)^-1", "((1/2)*x + (1/2)*x)^-1", "(-2/3)^-2*x", "x*0*(x+y)",
        "x x $", "x)^2", "2^- 3/4", "1/ 2^3", "x*(y+1)*2/3*x",
        # a token takes its spaced "/INT" and "^[-]INT"; a "/" or "^" left after it raises
        "1 / 0", "0 / 5 ^ -1", "x ^ - 2", "( x + y ) ^ - 1", "2 ^ 3 ^ 4", "(2 ^ 3 ^ 4)",
        "1 /x", "x ^", "x ^ -", "1 / 2 / 3",
    ]
    for text in cases:
        for variables in (None, _VARS):
            want = _outcome(_reference_parse_poly, text, variables)
            assert _outcome(parse_poly, text, variables) == want, (text, variables)


def _spaced(rng, text):
    """text with spaces and tabs put around each "/" and "^" and after the
    "-" of an exponent."""
    text = re.sub(r"[/^]", lambda m: rng.choice(_SPACES) + m[0] + rng.choice(_SPACES), text)
    return re.sub(r"\^\s*-", lambda m: m[0] + rng.choice(_SPACES), text)


def test_matches_reference_on_seeded_strings():
    """20,000 grammar-generated strings, 40% of them mutated into (mostly)
    malformed ones, each parsed with and without a variable list; then the
    first 5,000 again with whitespace inside their "/INT" and "^[-]INT"."""
    rng = random.Random(31)
    seen = set()
    first = []
    for text in _seeded_texts(rng, 20_000):
        variables = _VARS if rng.random() < 0.5 else None
        if len(first) < 5_000:
            first.append((text, variables))
        want = _outcome(_reference_parse_poly, text, variables)
        assert _outcome(parse_poly, text, variables) == want, (text, variables)
        if isinstance(want, list):
            seen.add("zero" if not want else "terms")
            seen.update(t.__name__ for _, _, t in want)
        else:
            seen.add(want[0].__name__)
            seen.add(re.sub(r"'.*'", "'?'", want[1].rsplit(" (at", 1)[0]))
    assert seen >= {
        "zero", "terms", "int", "Fraction", "PolyParseError", "UndeclaredVariableError",
        "unexpected character '?'", "unexpected token '?'", "unexpected end of input",
        "expected '?'", "expected integer exponent", "expected integer denominator",
        "zero denominator", "undeclared variable '?'",
        "negative power requires a single-term (unit) polynomial",
    }
    rng = random.Random(32)
    for text, variables in first:
        text = _spaced(rng, text)
        want = _outcome(_reference_parse_poly, text, variables)
        assert _outcome(parse_poly, text, variables) == want, (text, variables)


def test_whitespace_run_after_caret_parses_in_linear_time():
    # the token pattern takes the blanks after "^" once; "\s*" on both sides of
    # an optional "-" would try every split of them (seconds for this text)
    text = "x^" + " " * 20_000 + "y"
    start = time.perf_counter()
    with pytest.raises(PolyParseError, match="expected integer exponent"):
        parse_poly(text)
    assert time.perf_counter() - start < 1.0

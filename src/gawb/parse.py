"""Recursive-descent parser for the polynomial expression grammar.

Grammar (whitespace insensitive):

    expr    := ['+'|'-'] term (('+'|'-') term)*
    term    := factor ('*' factor)*
    factor  := primary ['^' ['-'] INT]
    primary := INT ['/' INT] | IDENT | '(' expr ')'

Identifiers are ``[a-zA-Z][a-zA-Z0-9_]*``.  ``^`` takes a signed integer and
applies to one primary, so ``x^2^3`` is an error; a negative exponent is only
legal on a unit (single-term) base.  Rational literals are written ``p/q``.
An explicit ``*`` is required between factors.  Error positions are 0-based
character offsets into the text.

One ``findall`` splits the text into coarse tokens: an integer with its
``/INT`` and ``^[-]INT``, an identifier or a ``)`` with its ``^[-]INT``,
another operator, or a bad character.  A part is absorbed only when it is
complete and unspaced, so ``x ^ 2``, ``x^-y`` or ``1/`` reach the grammar
character by character, as before.  Tokens carry no positions: an error
rescans the text with ``finditer``, reports the first bad character before
any syntax error, and takes its position from the match.

Terms are built without ``Poly`` arithmetic: an identifier adds to the
term's exponent dict, and the coefficient is an ``int`` numerator and
denominator with a flag for a ``Fraction`` factor, so a term makes at most
one ``Fraction``.  Only a parenthesised factor of several terms takes the
term on through ``Poly.__mul__`` and ``Poly.__pow__``.  The terms, their
insertion order and their coefficient types are those that ``Poly``
arithmetic on the factors gives.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional

from .poly import LaurentSubstitutionError, Poly, mono_factors, mono_from_map

# A token is the tuple of these groups, "" where a group did not take part:
# 0 an integer, 1 its denominator, 2 an identifier, 3 ")", 4 the exponent of
# any of those three, 5 another operator, 6 a bad character.
_TOKEN_RE = re.compile(
    r"(?:(\d+)(?:/(\d+))?|([a-zA-Z][a-zA-Z0-9_]*)|(\)))(?:\^(-?\d+))?|([-+*/^(])|(\S)"
)
_END = ("",) * 7
_DEN, _EXP = 2, 5  # match groups of a token's "/INT" and "^[-]INT"


class PolyParseError(ValueError):
    """Syntax error; carries the 0-based position in the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UndeclaredVariableError(PolyParseError):
    def __init__(self, name: str, position: int):
        PolyParseError.__init__(self, f"undeclared variable {name!r}", position)
        self.name = name


class _Parser:
    """A single-term factor is ``(num, den, frac)`` with its exponent dict
    (num 0 for zero); a factor of several terms is ``None`` with its
    ``Poly``."""

    __slots__ = ("text", "tokens", "i", "variables", "depth")

    def __init__(self, text: str, variables: Optional[set]):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text) + [_END, _END]
        self.i = 0
        self.variables = variables
        self.depth = 0  # parentheses open around the current factor

    def error(self, i: int, message: Optional[str] = None, group: int = 0, shift: int = 0,
              name: Optional[str] = None) -> PolyParseError:
        """The error at token i (at its match group plus shift), ``unexpected
        token`` without a message; the first bad character comes first."""
        found = list(_TOKEN_RE.finditer(self.text))
        for m in found:
            if m[7]:
                return PolyParseError(f"unexpected character {m[7]!r}", m.start())
        if i >= len(found):
            return PolyParseError(message or "unexpected end of input", len(self.text))
        m = found[i]
        pos = m.start(group) + shift
        if name is not None:
            return UndeclaredVariableError(name, pos)
        return PolyParseError(message or f"unexpected token {m[1] or m[3] or m[4] or m[6]!r}", pos)

    def parse(self) -> Poly:
        terms = self.expr()
        if self.i < len(self.tokens) - 2:
            raise self.error(self.i)
        return Poly._raw(terms)

    def expr(self) -> dict:
        tokens = self.tokens
        op = tokens[self.i][5]
        negate = op == "-"
        if negate or op == "+":
            self.i += 1
        acc: dict = {}
        get = acc.get
        while True:
            for m, c in self.term():
                old = get(m)
                if old is None:
                    acc[m] = -c if negate else c
                else:
                    n = old - c if negate else old + c
                    if n:
                        acc[m] = n
                    else:
                        del acc[m]
            op = tokens[self.i][5]
            if op != "+" and op != "-":
                return acc
            self.i += 1
            negate = op == "-"

    def term(self):
        """The term's ``(mono, coeff)`` pairs, in the order ``Poly``
        arithmetic gives them."""
        tokens = self.tokens
        variables = self.variables
        i = start = self.i
        num = den = 1
        frac = False
        exps: dict = {}
        get = exps.get
        p = None  # the term as a Poly, once it meets a factor of several terms
        while True:
            t = tokens[i]
            nxt = tokens[i + 1][5]
            name = t[2]
            if name and p is None and nxt != "^":
                if variables is not None and name not in variables:
                    raise self.error(i, name=name)
                k = t[4]
                exps[name] = get(name, 0) + (int(k) if k else 1)
                i += 1
            elif t[0] and not t[1] and not t[4] and p is None and nxt != "^" and nxt != "/":
                num *= int(t[0])
                i += 1
            else:
                first = i == start
                self.i = i
                c, m = self.factor()
                i = self.i
                if c is None:
                    if p is None and not first:
                        p = Poly.monomial(mono_from_map(exps), Fraction(num, den) if frac else num)
                    p = m if p is None else p * m
                elif p is None:
                    num *= c[0]
                    den *= c[1]
                    frac = frac or c[2]
                    for v, e in m.items():
                        exps[v] = get(v, 0) + e
                else:
                    p = p * Poly.monomial(mono_from_map(m), Fraction(c[0], c[1]) if c[2] else c[0])
            if tokens[i][5] != "*":
                break
            i += 1
        self.i = i
        if p is not None:
            return p.terms.items()
        c = Fraction(num, den) if frac else num
        return ((mono_from_map(exps), c),) if c else ()

    def factor(self) -> tuple:
        tokens = self.tokens
        i = self.i
        t = tokens[i]
        at = i  # the token whose "^[-]INT" is this factor's exponent
        stray = None  # (token, group) of a part that the factor cannot take
        i += 1
        if t[2]:
            if self.variables is not None and t[2] not in self.variables:
                raise self.error(at, name=t[2])
            c, m = (1, 1, False), {t[2]: 1}
        elif t[0]:
            n, d, d_at, d_group = int(t[0]), t[1], at, _DEN
            if not d and not t[4] and tokens[i][5] == "/":
                u = tokens[i + 1]
                if not u[0]:
                    raise self.error(i + 1, "expected integer denominator")
                d, d_at, d_group = u[0], i + 1, 0
                at = i + 1
                if u[1]:
                    stray = (at, _DEN)
                i += 2
            if d:
                d = int(d)
                if not d:
                    raise self.error(d_at, "zero denominator", d_group)
                g = gcd(n, d)
                c = (n // g, d // g, d != g)
            else:
                c = (n, 1, False)
            m = {}
        elif t[5] == "(":
            self.depth += 1
            self.i = i
            terms = self.expr()
            i = at = self.i
            if not tokens[i][3]:
                raise self.error(i, "expected ')'")
            self.depth -= 1
            i += 1
            if len(terms) == 1:
                ((mono, coeff),) = terms.items()
                c, m = (coeff.numerator, coeff.denominator, type(coeff) is Fraction), dict(mono_factors(mono))
            elif terms:
                c, m = None, Poly._raw(terms)
            else:
                c, m = (0, 1, False), {}
        else:
            raise self.error(at)
        k = None
        if stray is None and tokens[at][4]:
            k, caret = int(tokens[at][4]), (at, _EXP, -1)
        elif stray is None and tokens[i][5] == "^":
            caret = (i, 0, 0)
            sign = -1 if tokens[i + 1][5] == "-" else 1
            i += 2 if sign < 0 else 1
            u = tokens[i]
            if not u[0]:
                raise self.error(i, "expected integer exponent")
            k = sign * int(u[0])
            if u[1] or u[4]:
                stray = (i, _DEN if u[1] else _EXP)
            i += 1
        self.i = i
        if k == 0:
            c, m = (1, 1, False), {}
        elif k is not None:
            if c is not None and c[0]:
                n, d, f = c
                if k > 0:
                    c = (n ** k, d ** k, f)
                elif d == 1 and (n == 1 or n == -1):
                    c = (n ** -k, 1, False)
                else:
                    c = (d ** -k, n ** -k, True)
                m = {v: e * k for v, e in m.items()}
            else:
                try:
                    p = (Poly.zero() if c is not None else m) ** k
                except LaurentSubstitutionError as e:
                    raise self.error(caret[0], str(e), caret[1], caret[2]) from None
                c, m = (None, p) if p.terms else ((0, 1, False), {})
        if stray is not None:  # the grammar ends the term here, then fails at this "/" or "^"
            message = "expected ')'" if self.depth else f"unexpected token {'/' if stray[1] == _DEN else '^'!r}"
            raise self.error(stray[0], message, stray[1], -1)
        return c, m


def parse_poly(text: str, variables: Optional[Iterable[str]] = None) -> Poly:
    """Parse text into a Poly.

    With ``variables`` given, identifiers outside the list raise
    UndeclaredVariableError; without it any identifier is accepted.
    """
    return _Parser(text, None if variables is None else set(variables)).parse()

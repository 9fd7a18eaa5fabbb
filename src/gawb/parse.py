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

One ``findall`` splits the text into whole-factor tokens: an integer with
its ``/INT`` and ``^[-]INT``, an identifier or a ``)`` with its ``^[-]INT``,
another operator, or a bad character.  A token takes these parts with any
whitespace around ``/`` and ``^`` and after the exponent's ``-``, so every
valid ``/INT`` and ``^[-]INT`` is read from its own token; an operator ``/``
or ``^`` right after a factor only ever raises.  Tokens carry no positions:
an error rescans the text with ``finditer``, reports the first bad character
before any syntax error, and takes its position from the match.

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

# A token is the tuple of these groups (match group k + 1 at index k), "" where
# a group did not take part: 0 an operator other than ")", 1 an identifier, 2
# an integer, 3 its denominator, 4 ")", 5 the "-" and 6 the digits of the
# exponent of any of those three, 7 a bad character.  Operators come first as
# the most frequent tokens.  Only the "-" carries the blanks after it: blanks
# on both sides of an optional "-" would scan a blank run after "^" once per
# way of splitting it.
_TOKEN_RE = re.compile(
    r"([-+*/^(])|(?:([a-zA-Z][a-zA-Z0-9_]*)|(\d+)(?:\s*/\s*(\d+))?|(\)))"
    r"(?:\s*\^\s*(?:(-)\s*)?(\d+))?|(\S)"
)
_END = ("",) * 8


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

    __slots__ = ("text", "tokens", "i", "variables")

    def __init__(self, text: str, variables: Optional[set]):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text) + [_END, _END]
        self.i = 0
        self.variables = variables

    def error(self, i: int, message: Optional[str] = None, group: int = 0,
              name: Optional[str] = None) -> PolyParseError:
        """The error at the start of match group ``group`` of token i (group 7,
        the exponent, puts it at the exponent's ``^``), ``unexpected token``
        without a message; the first bad character comes first."""
        found = list(_TOKEN_RE.finditer(self.text))
        for m in found:
            if m[8]:
                return PolyParseError(f"unexpected character {m[8]!r}", m.start())
        if i >= len(found):
            return PolyParseError(message or "unexpected end of input", len(self.text))
        m = found[i]
        if name is not None:
            return UndeclaredVariableError(name, m.start())
        pos = self.text.rindex("^", 0, m.start(7)) if group == 7 else m.start(group)
        return PolyParseError(message or f"unexpected token {m[1] or m[2] or m[3] or m[5]!r}", pos)

    def parse(self) -> Poly:
        terms = self.expr()
        if self.i < len(self.tokens) - 2:
            raise self.error(self.i)
        return Poly._raw(terms)

    def expr(self) -> dict:
        tokens = self.tokens
        op = tokens[self.i][0]
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
            op = tokens[self.i][0]
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
            nxt = tokens[i + 1][0]
            name = t[1]
            if name and p is None and nxt != "^":
                if variables is not None and name not in variables:
                    raise self.error(i, name=name)
                exps[name] = get(name, 0) + (int(t[5] + t[6]) if t[6] else 1)
                i += 1
            elif t[2] and not t[3] and not t[6] and p is None and nxt != "^" and nxt != "/":
                num *= int(t[2])
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
            if tokens[i][0] != "*":
                break
            i += 1
        self.i = i
        if p is not None:
            return p.terms.items()
        c = Fraction(num, den) if frac else num
        return ((mono_from_map(exps), c),) if c else ()

    def factor(self) -> tuple:
        """The primary at token i, raised to the exponent its last token
        holds.  A ``/`` or ``^`` token right after that token never begins a
        valid part, which the token would hold, so it is read only to raise."""
        tokens = self.tokens
        i = self.i
        t = tokens[i]
        if t[1]:
            if self.variables is not None and t[1] not in self.variables:
                raise self.error(i, name=t[1])
            c, m = (1, 1, False), {t[1]: 1}
        elif t[2]:
            n = int(t[2])
            if t[3]:
                d = int(t[3])
                if not d:
                    raise self.error(i, "zero denominator", 4)
                g = gcd(n, d)
                c = (n // g, d // g, d != g)
            elif not t[6] and tokens[i + 1][0] == "/":
                raise self.error(i + 2, "expected integer denominator")
            else:
                c = (n, 1, False)
            m = {}
        elif t[0] == "(":
            self.i = i + 1
            terms = self.expr()
            i = self.i
            t = tokens[i]
            if not t[4]:
                raise self.error(i, "expected ')'")
            if len(terms) == 1:
                ((mono, coeff),) = terms.items()
                c, m = (coeff.numerator, coeff.denominator, type(coeff) is Fraction), dict(mono_factors(mono))
            elif terms:
                c, m = None, Poly._raw(terms)
            else:
                c, m = (0, 1, False), {}
        else:
            raise self.error(i)
        self.i = i + 1
        if not t[6]:
            if tokens[i + 1][0] == "^":
                raise self.error(i + 3 if tokens[i + 2][0] == "-" else i + 2, "expected integer exponent")
            return c, m
        k = int(t[5] + t[6])
        if k == 0:
            return (1, 1, False), {}
        if c is not None and c[0]:
            n, d, f = c
            if k > 0:
                c = (n ** k, d ** k, f)
            elif d == 1 and (n == 1 or n == -1):
                c = (n ** -k, 1, False)
            else:
                c = (d ** -k, n ** -k, True)
            return c, {v: e * k for v, e in m.items()}
        try:
            p = (Poly.zero() if c is not None else m) ** k
        except LaurentSubstitutionError as e:
            raise self.error(i, str(e), 7) from None
        return (None, p) if p.terms else ((0, 1, False), {})


def parse_poly(text: str, variables: Optional[Iterable[str]] = None) -> Poly:
    """Parse text into a Poly.

    With ``variables`` given, identifiers outside the list raise
    UndeclaredVariableError; without it any identifier is accepted.
    """
    return _Parser(text, None if variables is None else set(variables)).parse()

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

The text is tokenized in one pass, and terms are built without ``Poly``
arithmetic: a term of single-term factors (literals, identifiers, their
powers and parenthesised single terms) multiplies one coefficient and
collects one exponent dict, and ``expr`` adds each term into one term dict
in place.  Only once a term meets a parenthesised factor of several terms
does it continue with ``Poly.__mul__`` and ``Poly.__pow__``.  Each step
performs the same coefficient operations, in the same order, as the
corresponding ``Poly`` arithmetic, so the terms, their insertion order and
their coefficient types (``int`` until a ``Fraction`` is needed) are those
that ``Poly`` arithmetic on the factors would give.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Optional

from .poly import LaurentSubstitutionError, Poly, invert_coeff, mono_factors, mono_from_map

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<ident>[a-zA-Z][a-zA-Z0-9_]*)|(?P<op>[-+*/^()]))"
)


class PolyParseError(ValueError):
    """Syntax error; carries the 0-based position in the input text."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UndeclaredVariableError(PolyParseError):
    def __init__(self, name: str, position: int):
        PolyParseError.__init__(self, f"undeclared variable {name!r}", position)
        self.name = name


def _tokenize(text: str) -> list:
    """``(kind, value, position)`` triples ending with ``("end", "", len)``.
    An operator's kind is the operator itself; the other kinds are ``int``
    and ``ident``."""
    tokens = []
    append = tokens.append
    pos = 0
    for m in iter(_TOKEN_RE.scanner(text).match, None):
        kind = m.lastgroup
        val = m[kind]
        pos = m.end()
        append((val if kind == "op" else kind, val, pos - len(val)))
    if pos < len(text):
        stripped = text[pos:].lstrip()
        if stripped:
            bad_at = len(text) - len(stripped)
            raise PolyParseError(f"unexpected character {text[bad_at]!r}", bad_at)
    append(("end", "", len(text)))
    return tokens


class _Parser:
    """A factor is a ``(coeff, exponent dict)`` pair while it is a single
    term (coefficient 0 for zero) and ``(None, Poly)`` once it has several.
    Each factor's dict is new, so a term collects its exponents in the dict
    of its first factor."""

    __slots__ = ("tokens", "i", "variables")

    def __init__(self, text: str, variables: Optional[set]):
        self.tokens = _tokenize(text)
        self.i = 0
        self.variables = variables

    def parse(self) -> Poly:
        terms = self.expr()
        kind, val, pos = self.tokens[self.i]
        if kind != "end":
            raise PolyParseError(f"unexpected token {val!r}", pos)
        return Poly._raw(terms)

    def expr(self) -> dict:
        tokens = self.tokens
        kind = tokens[self.i][0]
        negate = kind == "-"
        if negate or kind == "+":
            self.i += 1
        acc: dict = {}
        get = acc.get
        while True:
            for m, c in self.term():
                n = get(m, 0) - c if negate else get(m, 0) + c
                if n:
                    acc[m] = n
                else:
                    del acc[m]
            kind = tokens[self.i][0]
            if kind != "+" and kind != "-":
                return acc
            self.i += 1
            negate = kind == "-"

    def term(self):
        """The term's ``(mono, coeff)`` pairs, in the order ``Poly``
        arithmetic gives them."""
        tokens = self.tokens
        c, m = self.factor()
        exps = None if c is None else m
        while tokens[self.i][0] == "*":
            self.i += 1
            fc, fm = self.factor()
            if exps is not None:
                if fc is not None:
                    c = c * fc
                    get = exps.get
                    for v, e in fm.items():
                        exps[v] = get(v, 0) + e
                    continue
                m = Poly.monomial(mono_from_map(exps), c)
                c = exps = None
            m = m * (fm if fc is None else Poly.monomial(mono_from_map(fm), fc))
        if exps is None:
            return m.terms.items()
        return ((mono_from_map(exps), c),) if c else ()

    def factor(self) -> tuple:
        tokens = self.tokens
        kind, val, pos = tokens[self.i]
        self.i += 1
        if kind == "ident":
            if self.variables is not None and val not in self.variables:
                raise UndeclaredVariableError(val, pos)
            c, m = 1, {val: 1}
        elif kind == "int":
            c, m = self.literal(int(val)), {}
        elif kind == "(":
            terms = self.expr()
            kind, _, pos = tokens[self.i]
            if kind != ")":
                raise PolyParseError("expected ')'", pos)
            self.i += 1
            if len(terms) == 1:
                ((m, c),) = terms.items()
                m = dict(mono_factors(m))
            else:
                c, m = (None, Poly._raw(terms)) if terms else (0, {})
        else:
            raise PolyParseError(f"unexpected token {val!r}" if val else "unexpected end of input", pos)
        kind, _, pos = tokens[self.i]
        if kind != "^":
            return c, m
        self.i += 1
        k = self.signed_int()
        if k == 0:
            return 1, {}
        if c:
            return (c ** k if k > 0 else invert_coeff(c) ** -k), {v: e * k for v, e in m.items()}
        try:
            p = (Poly.zero() if c == 0 else m) ** k
        except LaurentSubstitutionError as e:
            raise PolyParseError(str(e), pos) from None
        return (None, p) if p.terms else (0, {})

    def literal(self, num: int):
        tokens = self.tokens
        if tokens[self.i][0] != "/":
            return num
        kind, val, pos = tokens[self.i + 1]
        if kind != "int":
            raise PolyParseError("expected integer denominator", pos)
        self.i += 2
        den = int(val)
        if den == 0:
            raise PolyParseError("zero denominator", pos)
        q = Fraction(num, den)
        return q.numerator if q.denominator == 1 else q

    def signed_int(self) -> int:
        tokens = self.tokens
        sign = 1
        if tokens[self.i][0] == "-":
            self.i += 1
            sign = -1
        kind, val, pos = tokens[self.i]
        if kind != "int":
            raise PolyParseError("expected integer exponent", pos)
        self.i += 1
        return sign * int(val)


def parse_poly(text: str, variables: Optional[Iterable[str]] = None) -> Poly:
    """Parse text into a Poly.

    With ``variables`` given, identifiers outside the list raise
    UndeclaredVariableError; without it any identifier is accepted.
    """
    return _Parser(text, None if variables is None else set(variables)).parse()

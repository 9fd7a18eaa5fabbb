"""Sparse multivariate Laurent polynomials with exact rational coefficients.

A monomial is a sorted tuple of ``(variable, exponent)`` pairs with nonzero
integer exponents (negative exponents allowed).  A polynomial is a dict from
monomials to nonzero coefficients; coefficients are ``int`` or
``fractions.Fraction`` and all arithmetic is exact.  The zero polynomial has
an empty term dict.  Coefficients stay ``int`` until a division by a
non-unit needs a ``Fraction``: ``invert_coeff`` keeps 1 and -1 integral, and
products are formed in ``int`` over a common denominator.

A derivation step, the sum of images[v] * dp/dv (``Poly.derive``), runs in
one private kernel, ``_product_sum``, when p and some image have two terms
or more.  It packs each operand monomial once into an ``int`` with one
biased bit field per variable, wide enough for that variable's exponents in
any product, so a product monomial is the sum of two keys; it
differentiates by subtracting a unit from a key, sums integer numerators on
those keys and unpacks and divides back each output term once.  Everywhere
else, ``Poly.__mul__`` included, monomials keep the tuple layout above.

The monomial layout is private to this module.  Other modules build
monomials with ``mono``, ``mono_from_map``, ``ONE_MONO`` and the ``mono_*``
arithmetic, and read them only through ``mono_exp`` (one variable's
exponent), ``mono_factors`` (every ``(variable, exponent)`` pair),
``Poly.exponent_range`` and ``Poly.select``.  ``mono`` is interned through a
bounded table (``functools.lru_cache`` on its keyword arguments, in the order
given), so the few monomials a caller builds again and again, such as the
cells x^i * y^j of a sweep, are sorted once and shared; monomials are
tuples, so sharing one is safe.

Every ``TermOrder`` with the same kind and variables shares one monomial
table for the life of the process, so whatever is built for a monomial
serves every later order, presentation and render over those variables.
``TermOrder.key`` fills a monomial's sort key; ``render_poly`` fills its
row, the key with the monomial's text, the first time it renders it (both
from one walk of the exponent vector, ``TermOrder._vector_key``), and then
sorts the rows it reads.  Keys alone never build text: Groebner work keys
many monomials that are never printed.  A table holds at most
``MONOMIAL_TABLE_SIZE`` monomials and is emptied when full.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import inf, lcm
from operator import itemgetter, neg
from typing import Iterable, Mapping, Optional, Union

Coeff = Union[int, Fraction]
Mono = tuple  # tuple[tuple[str, int], ...], sorted by variable name

ONE_MONO: Mono = ()

_exponent = itemgetter(1)  # of a (variable, exponent) pair; 0 is falsy


class LaurentSubstitutionError(ValueError):
    """Raised when a negatively-exponented variable is mapped to a non-unit."""


@lru_cache(maxsize=1024)
def mono(**exps: int) -> Mono:
    """The monomial with the given exponents (zero exponents dropped),
    interned: a repeated call with the same keywords returns the same tuple."""
    return mono_from_map(exps)


def mono_from_map(exps: Mapping[str, int]) -> Mono:
    return tuple(sorted(filter(_exponent, exps.items())))


def mono_mul(a: Mono, b: Mono) -> Mono:
    if not a:
        return b
    if not b:
        return a
    d = dict(a)
    for v, e in b:
        n = d.get(v, 0) + e
        if n:
            d[v] = n
        else:
            del d[v]
    return tuple(sorted(d.items()))


def mono_exp(m: Mono, var: str) -> int:
    """The exponent of var in m (0 when var does not occur)."""
    for v, e in m:
        if v == var:
            return e
    return 0


def mono_factors(m: Mono) -> Iterable[tuple[str, int]]:
    """The ``(variable, exponent)`` pairs of m, sorted by variable; every
    exponent is nonzero."""
    return m


def mono_pow(a: Mono, k: int) -> Mono:
    if k == 0:
        return ONE_MONO
    return tuple((v, e * k) for v, e in a)


def mono_divides(a: Mono, b: Mono) -> bool:
    """Whether a | b as regular monomials (componentwise exponents)."""
    db = dict(b)
    return all(0 < e <= db.get(v, 0) for v, e in a)


def mono_div(a: Mono, b: Mono) -> Mono:
    """a / b; exponents may go negative."""
    return mono_mul(a, tuple((v, -e) for v, e in b))


def mono_lcm(a: Mono, b: Mono) -> Mono:
    d = dict(a)
    for v, e in b:
        d[v] = max(d.get(v, 0), e)
    return tuple(sorted(d.items()))


def mono_degree(m: Mono, variables: Optional[Iterable[str]] = None) -> int:
    if variables is None:
        return sum(e for _, e in m)
    vs = set(variables)
    return sum(e for v, e in m if v in vs)


def mono_is_regular(m: Mono, variables: Optional[Iterable[str]] = None) -> bool:
    if variables is None:
        return all(e >= 0 for _, e in m)
    vs = set(variables)
    return all(e >= 0 for v, e in m if v in vs)


# Monomials one shared table holds before it is emptied.  The largest table
# of a verify-paper pass, degrevlex over (x, y, u, v), holds about 4,500.
MONOMIAL_TABLE_SIZE = 8192

# (kind, variables) -> (position of each variable, key of each monomial,
# (key, text) row of each rendered monomial)
_TABLES: dict = {}


class TermOrder:
    """Total order on monomials: degrevlex or lex over a variable priority list.

    Earlier variables in the priority list are larger.  The key function is
    usable on Laurent monomials too (for canonical printing); well-foundedness
    only holds on regular monomials.  Orders of the same kind over the same
    variables share one monomial table of keys and rendered rows.
    """

    __slots__ = ("kind", "variables", "_pos", "_keys", "_rows")

    def __init__(self, kind: str, variables: Iterable[str]):
        if kind not in ("degrevlex", "lex"):
            raise ValueError(f"unknown term order kind: {kind!r}")
        self.kind = kind
        self.variables = variables = tuple(variables)
        table = _TABLES.get((kind, variables))
        if table is None:
            if len(set(variables)) != len(variables):
                raise ValueError("duplicate variables in term order")
            table = _TABLES[kind, variables] = ({v: i for i, v in enumerate(variables)}, {}, {})
        self._pos, self._keys, self._rows = table

    def key(self, m: Mono):
        k = self._keys.get(m)
        if k is None:
            k = self._vector_key(m)[1]
            self._add(m, k)
        return k

    def _add(self, m: Mono, k) -> None:
        """Put m's key in the shared table, emptying the table first when it
        is full."""
        keys = self._keys
        if m not in keys and len(keys) >= MONOMIAL_TABLE_SIZE:
            keys.clear()
            self._rows.clear()
        keys[m] = k

    def _row(self, m: Mono) -> tuple:
        """m's ``(key, text)`` row, built and put in the shared table."""
        exps, k = self._vector_key(m)
        self._add(m, k)
        text = "*".join([v if e == 1 else f"{v}^{e}" for v, e in zip(self.variables, exps) if e])
        row = self._rows[m] = (k, text)
        return row

    def _vector_key(self, m: Mono) -> tuple:
        """m's exponents over ``variables``, in their order, and its key."""
        exps = [0] * len(self.variables)
        pos = self._pos
        for v, e in m:
            if v not in pos:
                raise ValueError(f"variable {v!r} not covered by term order")
            exps[pos[v]] = e
        if self.kind == "lex":
            return exps, tuple(exps)
        return exps, (sum(exps), tuple(map(neg, reversed(exps))))

    def heap_key(self, m: Mono):
        """``key(m)`` negated entrywise: ``heapq``'s min-heap then pops the
        largest monomial first.  Built on every call from the shared table's
        key; the table holds no heap keys."""
        k = self._keys.get(m) or self.key(m)
        if self.kind == "lex":
            return tuple(map(neg, k))
        return (-k[0], tuple(map(neg, k[1])))

    def sorted_monos(self, monos: Iterable[Mono], reverse: bool = True):
        return sorted(monos, key=self.key, reverse=reverse)

    def __eq__(self, other):
        return (
            isinstance(other, TermOrder)
            and self.kind == other.kind
            and self.variables == other.variables
        )

    def __hash__(self):
        return hash((self.kind, self.variables))

    def __repr__(self):
        return f"TermOrder({self.kind!r}, {self.variables!r})"


class Poly:
    """Immutable-by-convention sparse polynomial.  Do not mutate ``terms``."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Mono, Coeff]] = None):
        d = {}
        if terms:
            for m, c in terms.items():
                if c:
                    d[m] = c
        self.terms = d

    @staticmethod
    def _raw(terms: dict) -> "Poly":
        p = Poly.__new__(Poly)
        p.terms = terms
        return p

    @staticmethod
    def zero() -> "Poly":
        return Poly._raw({})

    @staticmethod
    def const(c: Coeff) -> "Poly":
        return Poly._raw({ONE_MONO: c} if c else {})

    @staticmethod
    def variable(name: str, exp: int = 1) -> "Poly":
        if exp == 0:
            return Poly.const(1)
        return Poly._raw({((name, exp),): 1})

    @staticmethod
    def monomial(m: Mono, c: Coeff = 1) -> "Poly":
        return Poly._raw({m: c} if c else {})

    # -- queries ------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and ONE_MONO in self.terms)

    def constant_value(self) -> Coeff:
        if not self.terms:
            return 0
        if len(self.terms) == 1 and ONE_MONO in self.terms:
            return self.terms[ONE_MONO]
        raise ValueError("polynomial is not constant")

    def is_single_term(self) -> bool:
        return len(self.terms) == 1

    def single_term(self) -> tuple[Mono, Coeff]:
        if len(self.terms) != 1:
            raise ValueError("polynomial is not a single term")
        return next(iter(self.terms.items()))

    def variables(self) -> set:
        vs = set()
        for m in self.terms:
            for v, _ in m:
                vs.add(v)
        return vs

    def is_regular(self, variables: Optional[Iterable[str]] = None) -> bool:
        return all(mono_is_regular(m, variables) for m in self.terms)

    def degree_in(self, var: str) -> int:
        """Largest exponent of var over terms, floored at 0."""
        return max(0, self.exponent_range(var)[1])

    # exponent_range and select inline mono_exp's scan: both run per
    # certificate in the affineness sweep

    def exponent_range(self, var: str) -> tuple[int, int]:
        """(smallest, largest) exponent of var over terms, counting 0 for a
        term without var; (0, 0) for the zero polynomial."""
        exps = []
        for m in self.terms:
            for v, e in m:
                if v == var:
                    break
            else:
                e = 0
            exps.append(e)
        return (min(exps), max(exps)) if exps else (0, 0)

    def select(self, var: str, lo: float = -inf, hi: float = inf) -> "Poly":
        """The terms whose var-exponent lies in [lo, hi], in insertion order."""
        out = {}
        for m, c in self.terms.items():
            for v, e in m:
                if v == var:
                    break
            else:
                e = 0
            if lo <= e <= hi:
                out[m] = c
        return Poly._raw(out)

    def coeff_of(self, m: Mono) -> Coeff:
        return self.terms.get(m, 0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        d = dict(self.terms)
        for m, c in other.terms.items():
            n = d.get(m, 0) + c
            if n:
                d[m] = n
            else:
                del d[m]
        return Poly._raw(d)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._raw({m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Poly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        other = _coerce(other)
        a, b = self.terms, other.terms
        if not a or not b:
            return Poly.zero()
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # one monomial factor keeps distinct monomials distinct
            ((m1, c1),) = a.items()
            return Poly._raw({mono_mul(m1, m2): c1 * c2 for m2, c2 in b.items()})
        # multiply in int over the common denominator, divide once at the end
        da, a = _int_scaled(a)
        db, b = _int_scaled(b)
        d: dict = {}
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = mono_mul(m1, m2)
                n = d.get(m, 0) + c1 * c2
                if n:
                    d[m] = n
                elif m in d:
                    del d[m]
        den = da * db
        if den != 1:
            d = {m: _int_over(n, den) for m, n in d.items()}
        return Poly._raw(d)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if not isinstance(k, int):
            raise TypeError("polynomial power must be an integer")
        if k < 0:
            m, c = self.single_term_or_laurent_error()
            inv = Poly.monomial(mono_pow(m, -1), invert_coeff(c))
            return inv ** (-k)
        result = Poly.const(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def single_term_or_laurent_error(self) -> tuple[Mono, Coeff]:
        if len(self.terms) != 1:
            raise LaurentSubstitutionError(
                "negative power requires a single-term (unit) polynomial"
            )
        return next(iter(self.terms.items()))

    def scale(self, c: Coeff) -> "Poly":
        if not c:
            return Poly.zero()
        return Poly._raw({m: k * c for m, k in self.terms.items()})

    def mul_monomial(self, m: Mono, c: Coeff = 1) -> "Poly":
        if not c:
            return Poly.zero()
        return Poly._raw({mono_mul(t, m): k * c for t, k in self.terms.items()})

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self):
        return f"Poly({render_poly(self)!r})"

    # -- calculus and structure ----------------------------------------------

    def differentiate(self, var: str) -> "Poly":
        """Formal partial derivative (valid for Laurent exponents too).

        The exponent of var drops by one in place in each monomial that has
        it, and the pair goes when it reaches 0.  Dividing by var is
        injective on those monomials and c*e is nonzero, so no two terms
        meet and none cancels."""
        d: dict = {}
        for m, c in self.terms.items():
            for i, (v, e) in enumerate(m):
                if v == var:
                    d[m[:i] + m[i + 1:] if e == 1 else m[:i] + ((v, e - 1),) + m[i + 1:]] = c * e
                    break
        return Poly._raw(d)

    def derive(self, images: Mapping[str, "Poly"]) -> "Poly":
        """The sum over v of images[v] * d(self)/dv: the derivation with
        these images of the variables, applied to self (Laurent exponents
        too).  A variable of self without an image maps to 0.  When self
        and some image have two terms or more, the packed product kernel
        forms each derivative as it multiplies, so no derivative polynomial
        is built.  Otherwise every product is a monomial times a polynomial,
        which ``Poly.__mul__`` forms with one ``mono_mul`` a term and no
        common denominator, and the derivatives are multiplied and added
        one at a time: the kernel's packing costs more there."""
        if len(self.terms) > 1:
            for img in images.values():
                if len(img.terms) > 1:
                    return _product_sum(self.terms, {v: img.terms for v, img in images.items()})
        total = Poly.zero()
        for v, img in images.items():
            total = total + img * self.differentiate(v)
        return total

    def substitute(self, mapping: Mapping[str, "Poly"]) -> "Poly":
        """Ring-homomorphic substitution.

        A variable occurring with a negative exponent may only be mapped to a
        single-term polynomial (a unit in the Laurent ring).
        """
        out = Poly.zero()
        for m, c in self.terms.items():
            acc = Poly.const(c)
            residual: list = []
            for v, e in m:
                target = mapping.get(v)
                if target is None:
                    residual.append((v, e))
                else:
                    acc = acc * (target ** e)
            if residual:
                acc = acc.mul_monomial(tuple(residual))
            out = out + acc
        return out

    def evaluate(self, assignment: Mapping[str, Coeff]) -> Coeff:
        """Exact evaluation; every variable must be assigned.

        Negative exponents require the assigned value to be nonzero.
        """
        total: Coeff = 0
        for m, c in self.terms.items():
            val: Coeff = c
            for v, e in m:
                if v not in assignment:
                    raise KeyError(f"no value assigned to variable {v!r}")
                x = Fraction(assignment[v])
                if e < 0:
                    if x == 0:
                        raise ZeroDivisionError(f"variable {v!r} is 0 with negative exponent")
                    val *= Fraction(1) / x ** (-e)
                else:
                    val *= x ** e
            total += val
        return total

    def homogeneous_degree(self, variables: Iterable[str]) -> Optional[int]:
        """Common total degree in the given variables, or None if mixed.

        Requires the polynomial to be regular in those variables; the zero
        polynomial has no well-defined degree and yields None.
        """
        vs = tuple(variables)
        if not self.is_regular(vs):
            raise ValueError("polynomial must be regular in the selected variables")
        if not self.terms:
            return None
        degs = {mono_degree(m, vs) for m in self.terms}
        return degs.pop() if len(degs) == 1 else None


def _coerce(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, (int, Fraction)):
        return Poly.const(x)
    raise TypeError(f"cannot coerce {type(x).__name__} to Poly")


def _int_scaled(terms: dict) -> tuple:
    """(den, scaled): den is the lcm of the coefficients' denominators and
    scaled holds den times each coefficient, as an int.  Int-only terms come
    back as they are, with den 1."""
    for c in terms.values():
        if type(c) is not int:
            break
    else:
        return 1, terms
    den = lcm(*[c.denominator for c in terms.values()])
    return den, {m: c.numerator * (den // c.denominator) for m, c in terms.items()}


def _int_over(n: int, den: int) -> Coeff:
    """n / den exactly, as an int when den divides n."""
    q, r = divmod(n, den)
    return Fraction(n, den) if r else q


def _product_sum(b: dict, factors: dict) -> Poly:
    """The packed product kernel: the sum over (var, a) in factors of
    a * db/dvar, for term dicts a and b.

    Layout: with lo_w <= 0 <= hi_w bounding the exponents of variable w over
    all operands, w gets a bit field biased by low_w = 2*lo_w - 1 and wide
    enough for 2*hi_w, so a product's exponent, less one for the
    derivative's drop, fits and no field carries into the next.  Fields
    follow the variables' sorted order.  An operand monomial packs once,
    into sum(e << shift[w]) over its pairs (w, e); b's keys also carry the
    bias, so each field of a b key, and of a product key (the sum of its
    factors' keys), holds e_w - low_w.  Differentiating in var reads var's
    exponent e off each b key, subtracts var's unit from the key and
    multiplies the coefficient by e.  Coefficients are scaled to ints over
    one denominator (b's times the lcm of the factors'), products are
    summed on the packed keys, and each output key is unpacked and divided
    back once.  Terms keep the order in which the loops (factors, a, b)
    first meet them, and a term that cancels is dropped when it does, as in
    ``Poly.__add__``.
    """
    if not b or not factors:
        return Poly.zero()
    lo: dict = {}
    hi: dict = {}
    for terms in (b, *factors.values()):
        for m in terms:
            for v, e in m:
                if e < lo.get(v, 0):
                    lo[v] = e
                elif e > hi.get(v, 0):
                    hi[v] = e
    shift: dict = {}
    fields: dict = {}
    s = bias = 0
    for w in sorted(lo.keys() | hi.keys()):
        low = 2 * lo.get(w, 0) - 1
        width = (2 * hi.get(w, 0) - low).bit_length()
        shift[w] = s
        fields[w] = (s, (1 << width) - 1, low)
        bias -= low << s
        s += width
    db, b = _int_scaled(b)
    packed_b = []
    for m, c in b.items():
        k = bias
        for w, e in m:
            k += e << shift[w]
        packed_b.append((k, c))
    scaled = [(var, *_int_scaled(a)) for var, a in factors.items()]
    da = lcm(*[den for _, den, _ in scaled])
    d: dict = {}
    get = d.get
    for var, den, a in scaled:
        if var not in fields:
            continue  # var occurs in no operand, so db/dvar is 0
        s, mask, low = fields[var]
        unit = 1 << s
        rows = []
        for k, c in packed_b:
            e = (k >> s & mask) + low
            if e:
                rows.append((k - unit, c * e))
        scale = da // den
        for m1, c1 in a.items():
            k1 = 0
            for w, e in m1:
                k1 += e << shift[w]
            c1 *= scale
            for k2, c2 in rows:
                k = k1 + k2
                n = get(k, 0) + c1 * c2
                if n:
                    d[k] = n
                else:
                    del d[k]
    den = da * db
    out = {}
    for k, n in d.items():
        m = []
        for w, (s, mask, low) in fields.items():
            e = (k >> s & mask) + low
            if e:
                m.append((w, e))
        out[tuple(m)] = n if den == 1 else _int_over(n, den)
    return Poly._raw(out)


def invert_coeff(c: Coeff) -> Coeff:
    """1/c; an int when c is 1 or -1, a Fraction otherwise."""
    if c == 1 or c == -1:
        return int(c)
    return Fraction(1) / Fraction(c)


def render_poly(p: Poly, order: Optional[TermOrder] = None) -> str:
    """Canonical text form: terms sorted descending by the term order.

    Each monomial's ``(key, text)`` row comes from the order's shared table,
    and is built there the first time any order of that kind over those
    variables renders the monomial."""
    if not p.terms:
        return "0"
    if order is None:
        order = TermOrder("degrevlex", sorted(p.variables()))
    get, new_row = order._rows.get, order._row
    rows = [(get(m) or new_row(m), c) for m, c in p.terms.items()]
    rows.sort(reverse=True)  # distinct monomials have distinct keys
    parts = []
    for (_, body), c in rows:
        neg = c < 0
        ac = -c if neg else c
        if not body:
            body = str(ac)
        elif ac != 1:
            body = f"{ac}*{body}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)

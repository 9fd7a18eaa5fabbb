"""Cech 1-cocycle algebra for the two-chart cover of the punctured plane.

A Laurent polynomial in the chart variables is a 1-cocycle for the cover
{x != 0}, {y != 0}.  Its cohomology class is the projection onto the span of
x^-i y^-j with i, j >= 1: every other monomial is regular on one of the two
charts and hence a coboundary.  Nontrivial classes have a unique normal form
p(x, y) * x^-m y^-n with deg_x p < m, deg_y p < n, and each of these
determines a hypersurface total space together with an affineness
certificate computed by the Case 1 / Case 2 transform recursion.

One walk over the terms of p serves both the normal form and its
certificate.  ``NormalFormMNP`` validates p by reading each term's cell
(x-exponent, y-exponent) through a small bounded table
(``functools.lru_cache``) and keeps the cells it read, with deg_y p;
``affineness_certificate`` picks the Case 2 power b and the Case 1
multiplicity a from those cells instead of walking p again, and builds every
shifted monomial through more such tables, keyed by exponents or by a
monomial and a shift, so a sweep over one (m, n) box reads and builds each
of its monomials once.  The witness check reads the relation alone and does
not share the walk's cells.

The normal form, the certificate and its steps are slotted dataclasses, not
frozen ones: each holds a ``Poly``, which is immutable by convention and
cannot be hashed, so freezing gave them no hash, and it made each
construction two to three times slower.  A ``NormalFormMNP`` whose field is
reassigned validates the new value before its cells are read again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple, Union

from . import catalog
from .derivations import Derivation
from .parse import parse_poly
from .poly import (
    ONE_MONO, Coeff, Mono, Poly, invert_coeff, mono, mono_degree, mono_exp, mono_factors,
    mono_from_map, mono_mul,
)
from .quotient import (
    AlgebraPresentation,
    RingElement,
    UnitCertificate,
    unit_ideal_test,
)


@dataclass(frozen=True)
class CocycleClass:
    """Class in H^1 of the punctured plane: coefficients on x^-i y^-j, i,j >= 1."""

    coefficients: Tuple[Tuple[Tuple[int, int], Coeff], ...]

    @staticmethod
    def from_dict(d: Dict[Tuple[int, int], Coeff]) -> "CocycleClass":
        items = tuple(sorted((ij, c) for ij, c in d.items() if c))
        for (i, j), _ in items:
            if i < 1 or j < 1:
                raise ValueError("class indices must satisfy i, j >= 1")
        return CocycleClass(items)

    def as_dict(self) -> Dict[Tuple[int, int], Coeff]:
        return dict(self.coefficients)

    def is_trivial(self) -> bool:
        return not self.coefficients

    def __add__(self, other: "CocycleClass") -> "CocycleClass":
        d = self.as_dict()
        for ij, c in other.coefficients:
            d[ij] = d.get(ij, 0) + c
        return CocycleClass.from_dict(d)

    def scale(self, c: Coeff) -> "CocycleClass":
        return CocycleClass.from_dict({ij: c * k for ij, k in self.coefficients})

    def to_json(self) -> dict:
        return {
            "terms": [
                {"i": i, "j": j, "c": str(c)} for (i, j), c in self.coefficients
            ]
        }

    @staticmethod
    def from_json(data: dict) -> "CocycleClass":
        d: Dict[Tuple[int, int], Coeff] = {}
        for t in data.get("terms", []):
            d[(int(t["i"]), int(t["j"]))] = Fraction(t["c"])
        return CocycleClass.from_dict(d)


def _check_chart_support(g: Poly, x: str, y: str):
    extra = g.variables() - {x, y}
    if extra:
        raise ValueError(f"cocycle mentions non-chart variables {sorted(extra)}")


def class_of(g: Poly, x: str = "x", y: str = "y") -> CocycleClass:
    """Project onto the doubly-negative part: the H^1 class of the cocycle."""
    _check_chart_support(g, x, y)
    d: Dict[Tuple[int, int], Coeff] = {}
    for m, c in g.terms.items():
        ex, ey = mono_exp(m, x), mono_exp(m, y)
        if ex < 0 and ey < 0:
            d[(-ex, -ey)] = c
    return CocycleClass.from_dict(d)


def is_coboundary(g: Poly, x: str = "x", y: str = "y") -> Tuple[bool, Optional[Tuple[Poly, Poly]]]:
    """Trivial-class test with a 0-cochain witness g = g_plus - g_minus.

    g_plus is regular on the chart {x != 0} (no negative powers of y) and
    g_minus on {y != 0}; the witness exists exactly when the class vanishes.
    """
    _check_chart_support(g, x, y)
    if not class_of(g, x, y).is_trivial():
        return False, None
    g_plus, g_minus = g.select(y, 0), -g.select(y, hi=-1)
    assert g_plus - g_minus == g
    return True, (g_plus, g_minus)


class _ValidatedWalk:
    """The slot in which ``NormalFormMNP`` keeps its validating walk over p.
    A slot of a base class, so it is not a dataclass field."""

    __slots__ = ("_walk",)


@dataclass(slots=True)
class NormalFormMNP(_ValidatedWalk):
    """Cocycle normal form p(x,y) x^-m y^-n with deg_x p < m, deg_y p < n.

    The constructor validates p in one walk over its terms and keeps what it
    read: the cell (i, j, c) of each term c * x^i * y^j, in p's term order,
    and deg_y p.  ``cells`` and ``deg_y`` return them, and walk again only
    when a field was reassigned since.
    """

    m: int
    n: int
    p: Poly

    def __post_init__(self):
        m, n, p = self.m, self.n, self.p
        if m < 1 or n < 1:
            raise ValueError("m, n must be >= 1")
        if not p.terms:
            raise ValueError("p must be nonzero")
        cells = []
        deg_x = deg_y = 0
        for mo, c in p.terms.items():
            cell = _cell_of(mo)
            if cell is None:
                _reject_non_cell(p)
            i, j = cell
            cells.append((i, j, c))
            if i > deg_x:
                deg_x = i
            if j > deg_y:
                deg_y = j
        if deg_x >= m or deg_y >= n:
            raise ValueError("normal form requires deg_x p < m and deg_y p < n")
        self._walk = (m, n, p, tuple(cells), deg_y)

    def _walked(self) -> tuple:
        w = self._walk
        if w[2] is not self.p or w[0] != self.m or w[1] != self.n:
            self.__post_init__()
            w = self._walk
        return w

    def cells(self) -> Tuple[Tuple[int, int, Coeff], ...]:
        """(i, j, c) for each term c * x^i * y^j of p, in p's term order."""
        return self._walked()[3]

    @property
    def deg_y(self) -> int:
        """deg_y p, as the validating walk read it."""
        return self._walked()[4]

    def cocycle(self) -> Poly:
        return self.p.mul_monomial(mono(x=-self.m, y=-self.n))


@lru_cache(maxsize=1024)
def _cell_of(mo: Mono) -> Optional[Tuple[int, int]]:
    """(i, j) for the cell x^i * y^j; None for a monomial with a negative
    exponent or a variable other than x or y."""
    i = j = 0
    for v, e in mono_factors(mo):
        if e < 0:
            return None
        if v == "x":
            i = e
        elif v == "y":
            j = e
        else:
            return None
    return i, j


def _reject_non_cell(p: Poly):
    """Raise for a p with a term that is not a cell: a negative exponent
    anywhere in p outranks the variables other than x and y."""
    extra = set()
    for mo in p.terms:
        for v, e in mono_factors(mo):
            if e < 0:
                raise ValueError("p must be a regular polynomial")
            if v != "x" and v != "y":
                extra.add(v)
    raise ValueError(f"p mentions {sorted(extra)}")


def normal_form_mnp(c: CocycleClass) -> NormalFormMNP:
    """m = max i, n = max j over the support; p collects the shifted terms."""
    if c.is_trivial():
        raise ValueError("the trivial class has no (m, n, p) normal form")
    m = max(i for (i, _), _ in c.coefficients)
    n = max(j for (_, j), _ in c.coefficients)
    terms: Dict = {}
    for (i, j), coeff in c.coefficients:
        terms[mono(x=m - i, y=n - j)] = coeff
    return NormalFormMNP(m, n, Poly(terms))


# -- affineness certificates --------------------------------------------------


@dataclass(slots=True)
class Case1Step:
    a: int
    q0: Poly
    fiber_var: str
    relation: Poly
    witness_numer: Poly  # witness = witness_numer / y
    witness_power: int   # least k with witness * x^k in the coordinate ring

    def presentation(self) -> AlgebraPresentation:
        return AlgebraPresentation(("x", "y", "u", self.fiber_var), [self.relation])


@dataclass(slots=True)
class Case2Step:
    b: int
    new_n: int
    new_p: Poly
    old_fiber_var: str
    new_fiber_var: str   # substitution: old = y^b * new
    relation: Poly

    def presentation(self) -> AlgebraPresentation:
        return AlgebraPresentation(("x", "y", "u", self.new_fiber_var), [self.relation])


@dataclass(slots=True)
class AffinenessCertificate:
    m: int
    n: int
    p: Poly
    trace: Tuple[Union[Case1Step, Case2Step], ...]
    outcome: str                 # "HypersurfaceInA4" | "UnitCertificate"
    q0: Optional[Poly] = None

    @property
    def steps(self) -> int:
        return len(self.trace)


class CertificateError(RuntimeError):
    pass


# Monomial tables of the certificate: every monomial it builds is a cell
# x^i * y^j of p shifted by a power of y or x, a fiber lead x^k * fiber, or a
# witness monomial times x^a, and the witness check reads the total degree of
# each monomial of the relation.  A sweep block meets the same few of them
# for every p, so each is built or read once, through the ``poly``
# accessors and constructors.  (``_cell_of``, above, reads p's cells.)


@lru_cache(maxsize=1024)
def _cell(i: int, j: int) -> Mono:
    return mono(x=i, y=j)


@lru_cache(maxsize=1024)
def _fiber_lead(k: int, fiber: str) -> Mono:
    return mono_from_map({"x": k, fiber: 1})


@lru_cache(maxsize=1024)
def _x_shift(mo: Mono, a: int) -> Mono:
    return mono_mul(mo, mono(x=a))


_degree = lru_cache(maxsize=1024)(mono_degree)


def affineness_certificate(nf: NormalFormMNP) -> AffinenessCertificate:
    """Run the Case 1 / Case 2 transform for X(m, n, p).

    Case 2 applies when p has no y-free term: it strips the full power y^b
    from p (replacing the fiber coordinate v by w = v / y^b and n by n - b).
    The stripped p has a y-free term, so Case 1 follows at once and a trace
    is [Case 1] or [Case 2, Case 1].  Case 1 writes the y-free part of p as
    x^a q0 with q0(0) != 0 and terminates with the unit certificate,
    recording the transform witness (x^(m-a) * fiber - q0) / y together with
    its witness power a, the least k such that witness * x^k lies in the
    coordinate ring (certified by ``_check_case1_witness``).

    The cells (i, j, c) of p's terms come from the walk that validated nf
    (``NormalFormMNP.cells``); p is not walked again.  b is the least j, the
    terms with j = b form p0 (the y-free part after the Case 2 strip), and a
    is the least i among them.  The stripped p, q0 and the witness are
    assembled from the cells in p's term order through the monomial tables
    above, and the relation x^m * fiber - y^(n-b) * u - p / y^b is built
    once and shared by both steps.
    """
    m, n, p = nf.m, nf.n, nf.p
    cells = nf.cells()
    a, b = m, n  # above every exponent: deg_x p < m and deg_y p < n
    for i, j, c in cells:
        if j < b:
            a, b = i, j
        elif j == b and i < a:
            a = i
    if not (a or b):
        return AffinenessCertificate(m, n, p, (), "HypersurfaceInA4")

    fiber, cur_n, cur_p = "v", n, p
    if b:
        # Case 2: strip y^b (b < n because deg_y p < n)
        fiber, cur_n = "w", n - b
        cur_p = Poly._raw({_cell(i, j - b): c for i, j, c in cells})
    # Case 1: p0 = x^a q0, q0(0) != 0
    q0 = Poly._raw({_cell(i - a, 0): c for i, j, c in cells if j == b})
    if ONE_MONO not in q0.terms:
        raise CertificateError("internal error: q0(0) = 0 after multiplicity split")
    relation = catalog.xmnp_relation(m, cur_n, cur_p, fiber)
    witness = Poly._raw({_fiber_lead(m - a, fiber): 1, **{mo: -c for mo, c in q0.terms.items()}})
    _check_case1_witness(witness, a, m, relation, fiber)
    case1 = Case1Step(
        a=a, q0=q0, fiber_var=fiber, relation=relation,
        witness_numer=witness, witness_power=a,
    )
    trace = (case1,)
    if b:
        trace = (
            Case2Step(
                b=b, new_n=cur_n, new_p=cur_p,
                old_fiber_var="v", new_fiber_var=fiber, relation=relation,
            ),
            case1,
        )
    return AffinenessCertificate(m, n, p, trace, "UnitCertificate", q0=q0)


def _check_case1_witness(witness: Poly, a: int, m: int, relation: Poly, fiber: str) -> None:
    """Certify that a is the least k with witness * x^k in (y, relation).

    Let f be the y-free part of the relation.  Then (y, f) generates the same
    ideal, and it is a Groebner basis for degrevlex on (x, y, u, fiber):
    y and lm(f) have no common factor (Buchberger's first criterion).  Two
    exact checks then settle the power without any division:

    * identity: witness * x^a == f, so witness * x^a lies in the ideal (and
      witness * x^a - relation is divisible by y);
    * minimality: lm(f) = x^m * fiber, which holds because every other term
      of f has total degree at most m.  Then no term of witness * x^(a-1)
      is divisible by y or by lm(f), so it is its own nonzero normal form;
      the same holds for every smaller power of x, so no k < a works.

    f is read off the relation, not off the cells of p the certificate
    walked, so the check does not share the walk's arithmetic.
    """
    f = relation.select("y", 0, 0).terms
    if len(f) != len(witness.terms) or any(
        f.get(_x_shift(mo, a)) != c for mo, c in witness.terms.items()
    ):
        raise CertificateError("Case 1 transform identity failed")
    lead = _fiber_lead(m, fiber)
    if lead not in f or any(_degree(mo) > m for mo in f if mo != lead):
        raise CertificateError("Case 1 relation does not lead with x^m * fiber")


# -- cocycle attached to a locally trivial action ------------------------------


class ActionCocycleError(RuntimeError):
    pass


@dataclass
class ActionCocycleReport:
    localized: AlgebraPresentation
    deltas: List[RingElement]
    unit_certificate: UnitCertificate
    fractions: List[RingElement]
    differences: Dict[Tuple[int, int], RingElement]
    invariance_residuals: Dict[Tuple[int, int], str]
    laurent: Dict[Tuple[int, int], Optional[Poly]]
    classes: Dict[Tuple[int, int], Optional[CocycleClass]]

    @property
    def invariant(self) -> bool:
        return not any(self.invariance_residuals.values())


def laurent_from_element(e: RingElement, chart_vars: Sequence[str]) -> Optional[Poly]:
    """Express numer / denominators as a Laurent polynomial in the chart
    variables, when the denominators are powers of single chart variables and
    the numerator only involves chart variables."""
    if e.numer.variables() - set(chart_vars):
        return None
    shift: Dict[str, int] = {}
    scale: Coeff = 1
    for f, a in zip(e.ring.inverted, e.denom):
        if not a:
            continue
        if not f.is_single_term():
            return None
        mo, c = f.single_term()
        for v, exp in mono_factors(mo):
            if v not in chart_vars:
                return None
            shift[v] = shift.get(v, 0) - a * exp
        if c != 1:
            scale = scale * invert_coeff(c) ** a
    return e.numer.mul_monomial(mono_from_map(shift), scale)


def action_cocycle(
    pres: AlgebraPresentation,
    d: Derivation,
    a_list: Sequence[Union[RingElement, Poly, str]],
    chart_vars: Optional[Sequence[str]] = None,
) -> ActionCocycleReport:
    """Build and check the cocycle family a_i/delta(a_i) - a_j/delta(a_j).

    Requires each delta(a_i) to be a nonzero kernel element; the family is
    locally trivializing when the delta(a_i) generate the unit ideal, which is
    certified.  Each pairwise difference is checked to be a delta-invariant of
    the doubly localized ring.
    """
    elems = [pres.element(a) for a in a_list]
    deltas = [d.apply(e).simplified() for e in elems]
    for i, de in enumerate(deltas):
        if de.is_zero():
            raise ActionCocycleError(f"delta(a_{i}) = 0")
        if not de.is_regular():
            raise ActionCocycleError(f"delta(a_{i}) has denominators; expected a regular kernel element")
        if not d.apply(de).is_zero():
            raise ActionCocycleError(f"delta(a_{i}) is not in the kernel of delta")
    cert = unit_ideal_test(pres, deltas)
    if not cert.ok:
        raise ActionCocycleError(
            "the delta(a_i) do not generate the unit ideal; this witness set "
            "does not certify local triviality"
        )
    localized = pres.extend((), [de.numer for de in deltas])
    dloc = Derivation(localized, {v: localized.lift(img) for v, img in d.images.items()})
    fractions = []
    for e, de in zip(elems, deltas):
        fractions.append(localized.lift(e).divide_by_inverted(de.numer))
    differences: Dict[Tuple[int, int], RingElement] = {}
    invariance: Dict[Tuple[int, int], str] = {}
    laurent: Dict[Tuple[int, int], Optional[Poly]] = {}
    classes: Dict[Tuple[int, int], Optional[CocycleClass]] = {}
    for i in range(len(fractions)):
        for j in range(i + 1, len(fractions)):
            g = fractions[i] - fractions[j]
            differences[(i, j)] = g
            resid = dloc.apply(g)
            invariance[(i, j)] = "" if resid.is_zero() else resid.render()
            lp = laurent_from_element(g, chart_vars) if chart_vars else None
            laurent[(i, j)] = lp
            if lp is not None and chart_vars is not None and len(chart_vars) == 2:
                classes[(i, j)] = class_of(lp, chart_vars[0], chart_vars[1])
            else:
                classes[(i, j)] = None
    return ActionCocycleReport(
        localized=localized,
        deltas=deltas,
        unit_certificate=cert,
        fractions=fractions,
        differences=differences,
        invariance_residuals=invariance,
        laurent=laurent,
        classes=classes,
    )


def parse_cocycle(text: str, x: str = "x", y: str = "y") -> Poly:
    return parse_poly(text, (x, y))

"""Cech 1-cocycle algebra for the two-chart cover of the punctured plane.

A Laurent polynomial in the chart variables is a 1-cocycle for the cover
{x != 0}, {y != 0}.  Its cohomology class is the projection onto the span of
x^-i y^-j with i, j >= 1: every other monomial is regular on one of the two
charts and hence a coboundary.  Nontrivial classes have a unique normal form
p(x, y) * x^-m y^-n with deg_x p < m, deg_y p < n, and each of these
determines a hypersurface total space together with an affineness
certificate computed by the Case 1 / Case 2 transform recursion.

A certificate's shape depends only on m, n and the monomials of p in their
term order, never on p's coefficients: the Case 2 power b, the Case 1
multiplicity a, the fiber variable, every monomial of the stripped p, of q0,
of the relation and of the witness, and every condition of the witness check
but the coefficient identity.  ``NormalFormMNP`` looks that shape, a
template, up in a table keyed by ``(m, n, tuple(p.terms))``; on a miss it
validates p in one walk over its terms, which builds the template and stores
it for a valid p only.  ``affineness_certificate`` fills in p's
coefficients.  The first certificate of a template builds the template's
monomials, so a normal form that is never certified does not pay for them,
and runs the full witness check, which reads the relation alone and shares
none of the template's monomials; every later one compares each witness
coefficient with the relation's coefficient at the monomial that check
stored.  The table holds at most ``TEMPLATE_TABLE_SIZE`` templates and is
emptied when full, so a sweep over a few (m, n) boxes builds each support's
shape once.

The normal form, the certificate and its steps are the module's only
dataclasses, slotted ones: the tests read a certificate's fields through
``dataclasses.fields``, and each record holds a ``Poly``, which is immutable
by convention and cannot be hashed, so none of them has a hash.  A
``NormalFormMNP`` whose field is reassigned validates the new value before
its cells or its template are read again.  ``CocycleClass`` is a
``NamedTuple`` and ``ActionCocycleReport`` a plain slotted class, so
importing the module generates no code for them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from . import catalog
from .derivations import Derivation
from .parse import parse_poly
from .poly import (
    ONE_MONO, Coeff, Mono, Poly, invert_coeff, mono, mono_exp, mono_factors,
    mono_from_map, mono_mul, render_poly,
)
from .quotient import (
    AlgebraPresentation,
    RingElement,
    UnitCertificate,
    unit_ideal_test,
)


class CocycleClass(NamedTuple):
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
    """The slot in which ``NormalFormMNP`` keeps (m, n, p) as validated and
    their template.  A slot of a base class, so it is not a dataclass field."""

    __slots__ = ("_walk",)


# A dataclass, as tuned for the sweep: ``_walked`` reruns ``__post_init__``
# to validate a reassigned field and look up its template.
@dataclass(slots=True)
class NormalFormMNP(_ValidatedWalk):
    """Cocycle normal form p(x,y) x^-m y^-n with deg_x p < m, deg_y p < n.

    The constructor takes the template of (m, n, p's monomials) from the
    template table, or validates p in one walk over its terms and builds it.
    ``deg_y`` reads the template and ``cells`` reads p's terms; both validate
    again first when a field was reassigned since.
    """

    m: int
    n: int
    p: Poly

    def __post_init__(self):
        m, n, p = self.m, self.n, self.p
        key = (m, n, tuple(p.terms))
        t = _TEMPLATES.get(key)
        if t is None:
            t = _build_template(m, n, p, key)
        self._walk = (m, n, p, t)

    def _walked(self) -> tuple:
        w = self._walk
        if w[2] is not self.p or w[0] != self.m or w[1] != self.n:
            self.__post_init__()
            w = self._walk
        return w

    def cells(self) -> Tuple[Tuple[int, int, Coeff], ...]:
        """(i, j, c) for each term c * x^i * y^j of p, in p's term order."""
        p = self._walked()[2]
        return tuple((mono_exp(mo, "x"), mono_exp(mo, "y"), c) for mo, c in p.terms.items())

    @property
    def deg_y(self) -> int:
        """deg_y p, as the validating walk read it."""
        return self._walked()[3].deg_y

    def cocycle(self) -> Poly:
        return self.p.mul_monomial(mono(x=-self.m, y=-self.n))


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


# A dataclass: the certificate tests use ``dataclasses.fields`` and ``replace``.
@dataclass(slots=True)
class Case1Step:
    a: int
    q0: Poly
    fiber_var: str
    relation: Poly
    witness_numer: Poly  # witness = witness_numer / y
    witness_power: int   # least k with witness * x^k in the coordinate ring


# A dataclass: the certificate tests use ``dataclasses.fields`` and ``replace``.
@dataclass(slots=True)
class Case2Step:
    b: int
    new_n: int
    new_p: Poly
    old_fiber_var: str
    new_fiber_var: str   # substitution: old = y^b * new
    relation: Poly


# A dataclass: the certificate tests use ``dataclasses.fields`` and ``replace``.
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


# The template table: (m, n, tuple(p.terms)) -> _Template, for valid normal
# forms only.  A sweep round of 15,000 certificates builds about 1,600
# templates, the exhaustive m, n <= 3 sweep 332 (one per support); the table
# is emptied when it reaches TEMPLATE_TABLE_SIZE.  ``templates_built`` counts
# the templates built since import.  The witness check builds its own
# monomials (the lead x^m * fiber and each witness monomial times x^a) through
# two small bounded tables: a workload whose supports seldom repeat, such as
# single queries, runs the full check for nearly every certificate.
TEMPLATE_TABLE_SIZE = 4096


@lru_cache(maxsize=1024)
def _fiber_lead(k: int, fiber: str) -> Mono:
    return mono_from_map({"x": k, fiber: 1})


@lru_cache(maxsize=1024)
def _x_shift(mo: Mono, a: int) -> Mono:
    return mono_mul(mo, mono(x=a))


_TEMPLATES: dict = {}
templates_built = 0


class _Template:
    """The shape of a normal form and of its certificate.

    The validating walk sets ``deg_y`` (deg_y p), ``b`` (the least j over
    p's terms x^i * y^j: the Case 2 power), ``q0_at`` (the position in p of
    each term with j = b, the terms of p0) and ``a`` (the least i among
    them: the Case 1 multiplicity).  The base case, a = b = 0, needs nothing
    more.  The first certificate built from the template sets the rest
    (``_shape``), so a normal form that is never certified does not pay for
    it: ``fiber`` and ``new_n``, the fiber variable and n after Case 2;
    ``stripped``, the monomials of p / y^b in p's term order (None when
    b = 0); ``q0``, the monomial of q0 that each term of p0 gives; ``lead``,
    the witness lead x^(m-a) * fiber; and ``shifted``, None until a
    certificate passes the full witness check, and then the witness
    monomials times x^a.
    """

    __slots__ = ("deg_y", "a", "b", "q0_at", "fiber", "new_n", "stripped", "q0", "lead", "shifted")


def _build_template(m: int, n: int, p: Poly, key: tuple) -> _Template:
    """Validate p in one walk over its terms and store its template under
    key; raise, storing nothing, for an invalid normal form.

    The template keeps no term's exponents: a sweep round's 1,600 templates
    would hold 0.6 MB of them."""
    global templates_built
    if m < 1 or n < 1:
        raise ValueError("m, n must be >= 1")
    if not p.terms:
        raise ValueError("p must be nonzero")
    at = []  # the positions of the terms with the least j so far
    deg_x = deg_y = 0
    a, b = m, n  # above every exponent that passes the degree bounds
    for k, mo in enumerate(p.terms):
        i = j = 0
        for v, e in mono_factors(mo):
            if e < 0:
                _reject_non_cell(p)
            if v == "x":
                i = e
            elif v == "y":
                j = e
            else:
                _reject_non_cell(p)
        if i > deg_x:
            deg_x = i
        if j > deg_y:
            deg_y = j
        if j < b:
            a, b, at = i, j, [k]
        elif j == b:
            at.append(k)
            if i < a:
                a = i
    if deg_x >= m or deg_y >= n:
        raise ValueError("normal form requires deg_x p < m and deg_y p < n")
    t = _Template()
    t.deg_y, t.a, t.b, t.q0_at, t.q0 = deg_y, a, b, tuple(at), None
    if len(_TEMPLATES) >= TEMPLATE_TABLE_SIZE:
        _TEMPLATES.clear()
    _TEMPLATES[key] = t
    templates_built += 1
    return t


def _shape(t: _Template, m: int, n: int, p: Poly) -> None:
    """Set the certificate's part of t (see ``_Template``), for a p with t's
    monomials."""
    a, b = t.a, t.b
    t.fiber = fiber = "w" if b else "v"
    t.new_n = n - b
    t.stripped = None
    if b:
        y_shift = mono(y=-b)
        t.stripped = tuple([mono_mul(mo, y_shift) for mo in p.terms])
    monos = tuple(p.terms)
    t.q0 = tuple([mono(x=mono_exp(monos[k], "x") - a) for k in t.q0_at])
    t.lead = _fiber_lead(m - a, fiber)
    t.shifted = None


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

    b is the least j over p's terms x^i * y^j, the terms with j = b form p0
    (the y-free part after the Case 2 strip), and a is the least i among
    them.  These, and every monomial below, come from nf's template; the
    stripped p, q0 and the witness take p's coefficients in p's term order,
    and the relation x^m * fiber - y^(n-b) * u - p / y^b is built once and
    shared by both steps.  The first certificate of a template runs the full
    witness check; every later one checks each witness coefficient against
    the relation's coefficient at the monomial that check stored.
    """
    m, n, p, t = nf._walked()
    a, b = t.a, t.b
    if not (a or b):
        return AffinenessCertificate(m, n, p, (), "HypersurfaceInA4")

    if t.q0 is None:
        _shape(t, m, n, p)
    coeffs = tuple(p.terms.values())
    fiber, cur_n, cur_p = t.fiber, t.new_n, p
    if b:
        # Case 2: strip y^b (b < n because deg_y p < n)
        cur_p = Poly._raw(dict(zip(t.stripped, coeffs)))
    # Case 1: p0 = x^a q0, q0(0) != 0
    q0 = Poly._raw({mo: coeffs[k] for k, mo in zip(t.q0_at, t.q0)})
    if ONE_MONO not in q0.terms:
        raise CertificateError("internal error: q0(0) = 0 after multiplicity split")
    relation = catalog.xmnp_relation(m, cur_n, cur_p, fiber)
    witness = Poly._raw({t.lead: 1, **{mo: -c for mo, c in q0.terms.items()}})
    if t.shifted is None:
        t.shifted = _check_case1_witness(witness, a, m, relation, fiber)
    elif list(map(relation.terms.get, t.shifted)) != list(witness.terms.values()):
        raise CertificateError("Case 1 transform identity failed")
    # positional arguments: a keyword argument costs a slotted dataclass's
    # __init__ about 0.1 us, and a sweep builds two or three records per p
    case1 = Case1Step(a, q0, fiber, relation, witness, a)  # witness_power = a
    if b:
        case2 = Case2Step(b, cur_n, cur_p, "v", fiber, relation)
        return AffinenessCertificate(m, n, p, (case2, case1), "UnitCertificate", q0)
    return AffinenessCertificate(m, n, p, (case1,), "UnitCertificate", q0)


def describe_trace(cert: AffinenessCertificate) -> str:
    """The certificate's steps in one line, as ``gawb affine-cert`` prints them."""
    parts = []
    for s in cert.trace:
        if isinstance(s, Case2Step):
            parts.append(f"Case2(b={s.b}, n->{s.new_n})")
        else:
            parts.append(f"Case1(a={s.a}, q0={render_poly(s.q0)}, k={s.witness_power})")
    return " -> ".join(parts) if parts else "(empty)"


def _check_case1_witness(witness: Poly, a: int, m: int, relation: Poly, fiber: str) -> Tuple[Mono, ...]:
    """Certify that a is the least k with witness * x^k in (y, relation),
    and return the monomials of witness * x^a in witness's term order.

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

    One pass over the relation reads f and the total degree of each of its
    terms; the lead x^m * fiber has degree m + 1, so the minimality condition
    holds exactly when it is the only term of f of degree above m.  Each
    monomial is read, shifted and measured here, not taken from the
    certificate's template, so the check does not share the template's
    arithmetic.  Every condition but the coefficients' agreement reads
    monomials only: a later witness with the same monomials, against a
    relation with the same monomials, passes exactly when its coefficients
    equal the relation's at the returned monomials.
    """
    f, above = {}, []  # the y-free terms, and those of total degree above m
    for mo, c in relation.terms.items():
        degree = 0
        for v, e in mono_factors(mo):
            if v == "y":
                break
            degree += e
        else:
            f[mo] = c
            if degree > m:
                above.append(mo)
    shifted = tuple([_x_shift(mo, a) for mo in witness.terms])
    if len(f) != len(witness.terms) or list(map(f.get, shifted)) != list(witness.terms.values()):
        raise CertificateError("Case 1 transform identity failed")
    if above != [_fiber_lead(m, fiber)]:
        raise CertificateError("Case 1 relation does not lead with x^m * fiber")
    return shifted


# -- cocycle attached to a locally trivial action ------------------------------


class ActionCocycleError(RuntimeError):
    pass


class ActionCocycleReport:
    __slots__ = ("localized", "deltas", "unit_certificate", "fractions", "differences",
                 "invariance_residuals", "laurent", "classes")

    def __init__(self, localized: AlgebraPresentation, deltas: List[RingElement],
                 unit_certificate: UnitCertificate, fractions: List[RingElement],
                 differences: Dict[Tuple[int, int], RingElement],
                 invariance_residuals: Dict[Tuple[int, int], str],
                 laurent: Dict[Tuple[int, int], Optional[Poly]],
                 classes: Dict[Tuple[int, int], Optional[CocycleClass]]):
        self.localized = localized
        self.deltas = deltas
        self.unit_certificate = unit_certificate
        self.fractions = fractions
        self.differences = differences
        self.invariance_residuals = invariance_residuals
        self.laurent = laurent
        self.classes = classes

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

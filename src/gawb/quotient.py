"""Finitely presented algebras with tracked localization.

A presentation is a polynomial ring modulo relations, together with a list of
inverted elements.  Ring elements carry a regular representative in Groebner
normal form and a denominator that is a product of powers of the inverted
elements; no general fraction field is ever constructed.  Equality is decided
by reducing the cross-multiplied difference.
"""

from __future__ import annotations

import enum
import itertools
import random
from fractions import Fraction
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from . import groebner
from .linalg import cofactor_det
from .parse import parse_poly
from .poly import (
    Coeff, Poly, TermOrder, invert_coeff, mono_divides, mono_factors, mono_from_map, render_poly,
)

PolyLike = Union[Poly, str, int, Fraction]


class PresentationError(ValueError):
    pass


_SECTIONS = ("vars", "invert", "relations", "order")  # the sections from_text reads


class MismatchedPresentationsError(ValueError):
    pass


class NotAUnitError(ValueError):
    """An element that must be invertible in the localization is not."""


class SamplingError(RuntimeError):
    pass


class AlgebraPresentation:
    """C[variables] / (relations), localized at the inverted elements.

    Immutable after construction; the reduced Groebner basis of the relation
    ideal is computed once and cached.
    """

    def __init__(
        self,
        variables: Sequence[str],
        relations: Sequence[PolyLike] = (),
        inverted: Sequence[PolyLike] = (),
        order: Optional[TermOrder] = None,
        groebner_budget: int = groebner.DEFAULT_SPAIR_BUDGET,
        *,
        _basis: Optional[Sequence[Poly]] = None,
    ):
        """``_basis``, passed only by ``extend``, is the reduced Groebner basis
        of the same relations under an order that agrees with ``order`` on
        every monomial of the relations, so Buchberger would return it."""
        self.variables: Tuple[str, ...] = tuple(variables)
        if len(set(self.variables)) != len(self.variables):
            raise PresentationError("duplicate variable names")
        self.order = order or TermOrder("degrevlex", self.variables)
        if set(self.order.variables) != set(self.variables):
            raise PresentationError("term order must cover exactly the declared variables")
        self.groebner_budget = groebner_budget

        self.relations: Tuple[Poly, ...] = tuple(self._parse(r) for r in relations)
        for r in self.relations:
            if r.is_zero():
                raise PresentationError("relations must be nonzero")
            if not r.is_regular():
                raise PresentationError("relations must be regular (no negative exponents)")
        if _basis is None:
            self.basis = groebner.buchberger(list(self.relations), self.order, budget=groebner_budget)
        else:
            self.basis = groebner.GroebnerBasis(_basis, self.order, generators=self.relations)

        self.inverted: Tuple[Poly, ...] = tuple(self._parse(f) for f in inverted)
        self._unit_vars: Dict[str, int] = {}
        names: List[Optional[str]] = []  # the variable each inverted element is, or None
        for i, f in enumerate(self.inverted):
            if not f.is_regular():
                raise PresentationError("inverted elements must be regular polynomials")
            if self.basis.normal_form(f).is_zero():
                raise PresentationError(f"inverted element {render_poly(f)} is zero modulo relations")
            vs = tuple(f.variables())
            name = vs[0] if len(vs) == 1 and f == Poly.variable(vs[0]) else None
            names.append(name)
            if name is not None:
                self._unit_vars.setdefault(name, i)
        self._inverted_vars: Tuple[Optional[str], ...] = tuple(names)
        # a variable is its own normal form unless a leading monomial of the
        # basis divides it (the variable itself, or 1 for the unit ideal)
        self._reducible_vars = frozenset(
            v for v in self.variables
            if any(mono_divides(lm, mono_from_map({v: 1})) for lm, _ in self.basis.leads)
        )

    def _parse(self, p: PolyLike) -> Poly:
        if isinstance(p, Poly):
            extra = p.variables() - set(self.variables)
            if extra:
                raise PresentationError(f"polynomial uses undeclared variables {sorted(extra)}")
            return p
        if isinstance(p, str):
            return parse_poly(p, self.variables)
        if isinstance(p, (int, Fraction)):
            return Poly.const(p)
        raise TypeError(f"cannot interpret {type(p).__name__} as a polynomial")

    # -- equality is structural so that lifted elements interoperate ---------

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraPresentation)
            and self.variables == other.variables
            and self.relations == other.relations
            and self.inverted == other.inverted
            and self.order == other.order
        )

    def __repr__(self):
        return f"AlgebraPresentation({self.to_text()!r})"

    def to_text(self) -> str:
        parts = [f"vars: {','.join(self.variables)}"]
        if self.inverted:
            parts.append(f"invert: {','.join(render_poly(f, self.order) for f in self.inverted)}")
        if self.relations:
            parts.append(f"relations: {', '.join(render_poly(r, self.order) for r in self.relations)}")
        return "; ".join(parts)

    @staticmethod
    def from_text(text: str, **kwargs) -> "AlgebraPresentation":
        fields: Dict[str, str] = {}
        for chunk in text.split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if ":" not in chunk:
                raise PresentationError(f"malformed presentation section {chunk!r}")
            k, v = chunk.split(":", 1)
            k = k.strip()
            if k not in _SECTIONS:
                raise PresentationError(
                    f"unknown presentation section {k!r} (expected one of {', '.join(_SECTIONS)})"
                )
            if k in fields:
                raise PresentationError(f"presentation section {k!r} given twice")
            fields[k] = v.strip()
        if "vars" not in fields:
            raise PresentationError("presentation text must declare 'vars'")
        variables = [v.strip() for v in fields["vars"].split(",") if v.strip()]
        inverted = [s.strip() for s in fields.get("invert", "").split(",") if s.strip()]
        relations = [s.strip() for s in fields.get("relations", "").split(",") if s.strip()]
        order = None
        if "order" in fields:
            order = TermOrder(fields["order"], variables)
        return AlgebraPresentation(variables, relations, inverted, order=order, **kwargs)

    # -- element constructors -------------------------------------------------

    def zero(self) -> "RingElement":
        return self.element(0)

    def one(self) -> "RingElement":
        return self.element(1)

    def var(self, name: str) -> "RingElement":
        if name not in self.variables:
            raise PresentationError(f"unknown variable {name!r}")
        p, denom = Poly.variable(name), (0,) * len(self.inverted)
        if name in self._reducible_vars:
            return self._make(p, denom)
        return self._normal(p, denom)

    def element(self, value: Union[PolyLike, "RingElement"]) -> "RingElement":
        if isinstance(value, RingElement):
            return self.lift(value)
        p = self._parse(value)
        denom = [0] * len(self.inverted)
        if not p.is_regular():
            # move negative powers of inverted variables into the denominator
            shifts: Dict[str, int] = {}
            for v in p.variables():
                low = p.exponent_range(v)[0]
                if low < 0:
                    idx = self._unit_vars.get(v)
                    if idx is None:
                        raise NotAUnitError(
                            f"variable {v!r} has negative exponents but is not inverted"
                        )
                    shifts[v] = -low
                    denom[idx] += -low
            p = p.mul_monomial(mono_from_map(shifts))
        return self._make(p, tuple(denom))

    def _make(self, numer: Poly, denom: Tuple[int, ...]) -> "RingElement":
        if numer.terms:
            numer = self.basis.normal_form(numer)
        return self._normal(numer, denom)

    def _normal(self, numer: Poly, denom: Tuple[int, ...]) -> "RingElement":
        """The element numer / denom, for a numer already in normal form."""
        if numer.is_zero():
            denom = (0,) * len(self.inverted)
        e = RingElement.__new__(RingElement)
        e.ring = self
        e.numer = numer
        e.denom = denom
        return e

    def substitute(self, p: Poly, images: Mapping[str, "RingElement"]) -> "RingElement":
        """The element p(images) of this ring: the images (elements of this
        ring) replace the variables of the raw (unreduced, regular) polynomial
        p, and a variable without an image stays, so it must be declared here.

        Each term is reduced once: the product of its coefficient, its kept
        variables and the images' numerators, over the sum of the images'
        denominator exponents.  The terms are then added in p's order.
        """
        out = self.zero()
        for m, c in p.terms.items():
            numer, denom, kept = Poly.const(c), (0,) * len(self.inverted), {}
            for v, e in mono_factors(m):
                img = images.get(v)
                if img is None:
                    kept[v] = e
                else:
                    numer = numer * img.numer ** e
                    denom = tuple(a + e * b for a, b in zip(denom, img.denom))
            kept_mono = self._parse(Poly.monomial(mono_from_map(kept)))
            out = out + self._make(numer * kept_mono, denom)
        return out

    def denominator_poly(self, denom: Tuple[int, ...]) -> Poly:
        out = Poly.const(1)
        for f, e in zip(self.inverted, denom):
            if e:
                out = out * f ** e
        return out

    # -- structure maps -------------------------------------------------------

    def extend(
        self, extra_vars: Sequence[str], extra_inverted: Sequence[PolyLike] = ()
    ) -> "AlgebraPresentation":
        """Adjoin fresh variables, appended after the current priority list,
        and invert further elements (given over the extended variables).

        The relations do not mention the new variables, and the extended
        order, with them last, ranks the old variables' monomials as before;
        so Buchberger would take the same steps, and the reduced basis is
        reused."""
        overlap = set(extra_vars) & set(self.variables)
        if overlap:
            raise PresentationError(f"variables {sorted(overlap)} already present")
        return AlgebraPresentation(
            self.variables + tuple(extra_vars),
            self.relations,
            self.inverted + tuple(extra_inverted),
            order=TermOrder(self.order.kind, self.order.variables + tuple(extra_vars)),
            groebner_budget=self.groebner_budget,
            _basis=self.basis.polys,
        )

    def lift(self, e: "RingElement") -> "RingElement":
        """Map an element of a sub-presentation into this one.

        Legal when this presentation extends the element's: same relations,
        and the source inverted list is a prefix of ours.
        """
        src = e.ring
        if src == self:
            return e
        if set(src.variables) - set(self.variables):
            raise MismatchedPresentationsError("element lives in a larger ring")
        if tuple(src.inverted) != tuple(self.inverted[: len(src.inverted)]):
            raise MismatchedPresentationsError("inverted lists are not compatible")
        denom = tuple(e.denom) + (0,) * (len(self.inverted) - len(e.denom))
        return self._make(e.numer, denom)


class RingElement:
    """numer / prod(inverted_i ^ denom_i), with numer in normal form."""

    __slots__ = ("ring", "numer", "denom")

    def _coerce(self, other) -> "RingElement":
        if isinstance(other, RingElement):
            if other.ring != self.ring:
                raise MismatchedPresentationsError("elements belong to different presentations")
            return other
        if isinstance(other, (int, Fraction, Poly, str)):
            return self.ring.element(other)
        raise TypeError(f"cannot combine RingElement with {type(other).__name__}")

    def is_zero(self) -> bool:
        return self.numer.is_zero()

    def is_regular(self) -> bool:
        return not any(self.denom)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        # exact: a numerator from _make is already reduced, and zero has no denominator
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.denom == other.denom:
            return self.ring._make(self.numer + other.numer, self.denom)
        lcm = tuple(max(a, b) for a, b in zip(self.denom, other.denom))
        p = self.numer * self.ring.denominator_poly(
            tuple(l - a for l, a in zip(lcm, self.denom))
        )
        q = other.numer * self.ring.denominator_poly(
            tuple(l - b for l, b in zip(lcm, other.denom))
        )
        return self.ring._make(p + q, lcm)

    __radd__ = __add__

    def __neg__(self):
        return self.ring._make(-self.numer, self.denom)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        return self.ring._make(
            self.numer * other.numer,
            tuple(a + b for a, b in zip(self.denom, other.denom)),
        )

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("RingElement power must be a nonnegative integer")
        return self.ring._make(self.numer ** k, tuple(k * a for a in self.denom))

    def __eq__(self, other) -> bool:
        """Mathematical equality modulo relations (cross-multiplied)."""
        other = self._coerce(other)
        if self.denom == other.denom:
            return self.numer == other.numer
        p = self.numer * self.ring.denominator_poly(other.denom)
        q = other.numer * self.ring.denominator_poly(self.denom)
        return self.ring.basis.normal_form(p - q).is_zero()

    def simplified(self) -> "RingElement":
        """Cancel inverted factors that divide the representative exactly."""
        numer = self.numer
        denom = list(self.denom)
        changed = True
        while changed and any(denom):
            changed = False
            for i, f in enumerate(self.ring.inverted):
                while denom[i] > 0:
                    q, r = groebner.reduce_poly(numer, [f], self.ring.order)
                    if not r.is_zero():
                        break
                    numer = q[0]
                    denom[i] -= 1
                    changed = True
        return self.ring._make(numer, tuple(denom))

    def divide_by_inverted(self, f: PolyLike, power: int = 1) -> "RingElement":
        """Divide by an inverted element (given as the polynomial itself)."""
        fp = self.ring._parse(f) if not isinstance(f, Poly) else f
        for i, g in enumerate(self.ring.inverted):
            if g == fp:
                denom = list(self.denom)
                denom[i] += power
                return self.ring._make(self.numer, tuple(denom))
        raise NotAUnitError(f"{render_poly(fp)} is not in the inverted list")

    def unit_inverse(self) -> "RingElement":
        """Inverse of an element of the form c * monomial-in-inverted-variables."""
        return self.ring._make(*self._inverse_parts())

    def _inverse_parts(self) -> Tuple[Poly, Tuple[int, ...]]:
        """The unreduced numerator and the denominator of ``unit_inverse``."""
        if not self.numer.is_single_term():
            raise NotAUnitError("element is not a single term; cannot invert")
        m, c = self.numer.single_term()
        denom = [0] * len(self.ring.inverted)
        for v, e in mono_factors(m):
            idx = self.ring._unit_vars.get(v)
            if idx is None or e < 0:
                raise NotAUnitError(f"monomial factor {v!r} is not an inverted variable")
            denom[idx] += e
        return Poly.const(invert_coeff(c)) * self.ring.denominator_poly(self.denom), tuple(denom)

    def substitute(
        self,
        mapping: Mapping[str, Union["RingElement", PolyLike]],
        into: Optional[AlgebraPresentation] = None,
    ) -> "RingElement":
        """The ring map sending each variable in ``mapping`` to its image, an
        element of ``into`` (this element's ring by default).

        Every move of an element between presentations goes through here:
        renaming or adjoining parameters, specialising them to constants,
        composing actions.  Variables absent from the mapping are kept, so
        they must be variables of ``into``.  The numerator maps through
        ``into.substitute``; each inverted element f of this ring maps to
        f(images), which must be a unit of ``into`` of the form
        c * monomial in inverted variables, and its inverse multiplies in.

        The image of an inverted variable is looked up, not recomputed, and
        each inverse is read off its image.  The inverses' numerators and the
        mapped numerator make one product, reduced once.  It is the element that reducing after every
        factor gives: NF(a*b) = NF(NF(a)*b), and a partial product that is
        zero stays zero, so the denominator's reset to 1 is the same too.
        """
        into = self.ring if into is None else into
        images = {v: into.element(e) for v, e in mapping.items()}
        out = into.substitute(self.numer, images)
        if not any(self.denom):
            return out
        numer, denom = out.numer, out.denom
        for f, v, e in zip(self.ring.inverted, self.ring._inverted_vars, self.denom):
            if not e:
                continue
            if v is None:
                img = into.substitute(f, images)
            else:
                img = images[v] if v in images else into.var(v)
            inv_numer, inv_denom = img._inverse_parts()
            numer = numer * inv_numer ** e
            denom = tuple(a + e * b for a, b in zip(denom, inv_denom))
        return into._make(numer, denom)

    def evaluate(self, point: "RationalPoint") -> Fraction:
        if point.ring != self.ring:
            raise MismatchedPresentationsError("point belongs to a different presentation")
        num = Fraction(self.numer.evaluate(point.assignment)) if not self.numer.is_zero() else Fraction(0)
        den = Fraction(1)
        for f, e in zip(self.ring.inverted, self.denom):
            if e:
                den *= Fraction(f.evaluate(point.assignment)) ** e
        return num / den

    def render(self) -> str:
        num = render_poly(self.numer, self.ring.order)
        dens = []
        for f, e in zip(self.ring.inverted, self.denom):
            if e:
                ftxt = render_poly(f, self.ring.order)
                if len(f.terms) > 1 or e > 1:
                    dens.append(f"({ftxt})^{e}" if e > 1 else f"({ftxt})")
                else:
                    dens.append(ftxt)
        if not dens:
            return num
        numtxt = f"({num})" if len(self.numer.terms) > 1 else num
        return f"{numtxt} / ({'*'.join(dens)})" if len(dens) > 1 else f"{numtxt} / {dens[0]}"

    def __repr__(self):
        return f"RingElement({self.render()!r})"


class UnitCertificate(NamedTuple):
    """1 = sum(element_cofactors . elements) + sum(relation_cofactors . relations)."""

    ok: bool
    element_cofactors: Tuple[Poly, ...] = ()
    relation_cofactors: Tuple[Poly, ...] = ()

    def expand(self, elements: Sequence[Poly], relations: Sequence[Poly]) -> Poly:
        acc = Poly.zero()
        for c, e in zip(self.element_cofactors, elements):
            acc = acc + c * e
        for c, r in zip(self.relation_cofactors, relations):
            acc = acc + c * r
        return acc


def unit_ideal_test(
    pres: AlgebraPresentation, elements: Sequence[Union[RingElement, PolyLike]]
) -> UnitCertificate:
    """Whether the elements generate the unit ideal modulo the relations.

    On success the certificate expands to 1 exactly (checked here).
    """
    polys: List[Poly] = []
    for e in elements:
        el = pres.element(e)
        if not el.is_regular():
            raise ValueError("unit_ideal_test requires regular elements (no denominators)")
        polys.append(el.numer)
    gens = polys + list(pres.relations)
    gb = groebner.buchberger(gens, pres.order, budget=pres.groebner_budget, with_cofactors=True)
    if not gb.is_unit_ideal():
        return UnitCertificate(False)
    const = gb.polys[0].constant_value()
    cof = [c.scale(invert_coeff(const)) for c in gb.cofactors[0]]
    cert = UnitCertificate(True, tuple(cof[: len(polys)]), tuple(cof[len(polys):]))
    expanded = cert.expand(polys, pres.relations)
    if expanded != Poly.const(1):
        raise AssertionError("internal error: unit certificate does not expand to 1")
    return cert


class SmoothnessVerdict(enum.Enum):
    SMOOTH_EVERYWHERE = "SmoothEverywhere"
    SMOOTH_OFF_PUNCTURE = "SmoothOffPuncture"
    INCONCLUSIVE = "Inconclusive"


class SmoothnessReport:
    __slots__ = ("verdict", "puncture_powers", "detail")

    def __init__(self, verdict: SmoothnessVerdict, puncture_powers: Optional[Dict[str, int]] = None,
                 detail: str = ""):
        self.verdict = verdict
        self.puncture_powers = {} if puncture_powers is None else puncture_powers
        self.detail = detail


def smoothness_check(
    pres: AlgebraPresentation,
    puncture: Sequence[str] = (),
    power_bound: int = 12,
) -> SmoothnessReport:
    """Jacobian criterion with one-sided puncture certificates.

    The ideal of maximal minors of the Jacobian plus the relations is tested
    for the unit ideal; failing that, each puncture variable must have some
    power, at most power_bound, inside that ideal.  Verdicts are never wrong,
    only possibly Inconclusive.
    """
    c = len(pres.relations)
    if c == 0:
        return SmoothnessReport(SmoothnessVerdict.SMOOTH_EVERYWHERE, detail="no relations")
    jac = [[r.differentiate(v) for v in pres.variables] for r in pres.relations]
    minors: List[Poly] = []
    for cols in itertools.combinations(range(len(pres.variables)), c):
        sub = [[jac[i][j] for j in cols] for i in range(c)]
        d = cofactor_det(sub)
        if d is not None and not d.is_zero():
            minors.append(d)
    gens = minors + list(pres.relations)
    gb = groebner.buchberger(gens, pres.order, budget=pres.groebner_budget)
    if gb.is_unit_ideal():
        return SmoothnessReport(SmoothnessVerdict.SMOOTH_EVERYWHERE)
    if not puncture:
        return SmoothnessReport(
            SmoothnessVerdict.INCONCLUSIVE, detail="Jacobian ideal is not the unit ideal"
        )
    powers: Dict[str, int] = {}
    for z in puncture:
        if z not in pres.variables:
            raise PresentationError(f"puncture variable {z!r} not declared")
        zp = Poly.variable(z)
        found = None
        acc = Poly.const(1)
        for k in range(1, power_bound + 1):
            acc = acc * zp
            if gb.contains(acc):
                found = k
                break
        if found is None:
            return SmoothnessReport(
                SmoothnessVerdict.INCONCLUSIVE,
                puncture_powers=powers,
                detail=f"no power of {z!r} up to {power_bound} lies in the Jacobian ideal",
            )
        powers[z] = found
    return SmoothnessReport(SmoothnessVerdict.SMOOTH_OFF_PUNCTURE, puncture_powers=powers)


class RationalPoint:
    """Exact rational point on a presentation, off the inverted loci."""

    __slots__ = ("ring", "assignment")

    def __init__(self, ring: AlgebraPresentation, assignment: Mapping[str, Coeff]):
        missing = set(ring.variables) - set(assignment)
        if missing:
            raise ValueError(f"missing coordinates {sorted(missing)}")
        self.ring = ring
        self.assignment = {v: Fraction(assignment[v]) for v in ring.variables}
        for r in ring.relations:
            if r.evaluate(self.assignment) != 0:
                raise ValueError("point does not satisfy the relations")
        for f in ring.inverted:
            if f.evaluate(self.assignment) == 0:
                raise ValueError("point lies on the zero locus of an inverted element")

    def __repr__(self):
        coords = ", ".join(f"{v}={self.assignment[v]}" for v in self.ring.variables)
        return f"RationalPoint({coords})"


def _solvable_variable(pres: AlgebraPresentation) -> Tuple[str, Poly, Poly]:
    """Find v with relation = A*v + B, A a nonzero monomial free of v."""
    if len(pres.relations) != 1:
        raise SamplingError("sampling requires exactly one relation")
    rel = pres.relations[0]
    for v in pres.variables:
        if rel.degree_in(v) != 1:
            continue
        A = rel.select(v, 1, 1).mul_monomial(mono_from_map({v: -1}))
        if A.is_single_term():
            return v, A, rel.select(v, 0, 0)
    raise SamplingError("no variable occurs linearly with a monomial coefficient")


def sample_point(pres: AlgebraPresentation, seed: int, rejection_budget: int = 200) -> RationalPoint:
    """Deterministic rational point: free coordinates are drawn as n/q with
    n in [-10,10]\\{0} and q in [1,5]; the designated variable is solved from
    the relation.  Points hitting an inverted locus are rejected and redrawn.
    """
    solved, A, B = _solvable_variable(pres)
    rng = random.Random(seed)
    nonzero = [n for n in range(-10, 11) if n != 0]
    for _ in range(rejection_budget):
        assignment: Dict[str, Fraction] = {}
        for v in pres.variables:
            if v == solved:
                continue
            assignment[v] = Fraction(rng.choice(nonzero), rng.randint(1, 5))
        a_val = A.evaluate(assignment)
        if a_val == 0:
            continue
        assignment[solved] = Fraction(-B.evaluate(assignment)) / Fraction(a_val)
        try:
            return RationalPoint(pres, assignment)
        except ValueError:
            continue
    raise SamplingError(f"rejection budget of {rejection_budget} exceeded")

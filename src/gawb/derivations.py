"""Derivations on presented algebras, their exponentials, and action axioms.

A derivation is given by images of the generators and extended by the Leibniz
rule; on localized elements the quotient rule is applied.  Exponentials of
certified-nilpotent derivations produce substitution maps over the ring
extended by the flow parameter.  ``verify_action`` checks group-action axioms
symbolically; actions compose left-to-right, i.e. acting by g and then by g'
must equal acting by the product g*g' of the declared law.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from typing import Dict, Iterator, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from .poly import Poly, invert_coeff, mono_from_map
from .quotient import (
    AlgebraPresentation,
    MismatchedPresentationsError,
    PolyLike,
    RingElement,
)


class NotNilpotentWithinBound(RuntimeError):
    def __init__(self, variable: str, bound: int):
        super().__init__(
            f"derivative tower of {variable!r} did not vanish within {bound} iterations"
        )
        self.variable = variable
        self.bound = bound


class Derivation:
    """Images of every generator; extended to the algebra by Leibniz."""

    def __init__(
        self,
        ring: AlgebraPresentation,
        images: Mapping[str, Union[RingElement, PolyLike]],
    ):
        self.ring = ring
        self.images: Dict[str, RingElement] = {}
        missing = set(ring.variables) - set(images)
        if missing:
            raise ValueError(f"no image given for generators {sorted(missing)}")
        extra = set(images) - set(ring.variables)
        if extra:
            raise ValueError(f"images given for unknown variables {sorted(extra)}")
        for v, e in images.items():
            self.images[v] = ring.element(e)

    def apply_poly(self, p: Poly) -> RingElement:
        """d(p), the sum of d(v) * dp/dv over the variables v of p.

        When p and every image it uses are regular, ``Poly.derive`` sums
        the numerators d(v) * dp/dv and the sum is reduced once.  The
        normal form is linear and ``groebner._divide`` writes the remainder
        in pop order, so this is the representative that reducing every
        product and partial sum gives.  Otherwise the terms are reduced and
        added one at a time (the eager path), since there a partial sum
        that cancels resets the denominator.  A bare variable v maps to its
        stored image, d(v), which is already reduced.
        """
        used = []
        for v in p.variables():
            img = self.images.get(v)
            if img is None:
                raise ValueError(f"polynomial mentions {v!r} which has no image")
            if not img.is_zero():
                used.append((v, img))
        if len(used) == 1 and p == Poly.variable(used[0][0]):
            return used[0][1]
        if p.is_regular() and all(img.is_regular() for _, img in used):
            total = p.derive({v: img.numer for v, img in used})
            return self.ring._make(total, (0,) * len(self.ring.inverted))
        out = self.ring.zero()
        for v, img in used:
            out = out + img * self.ring.element(p.differentiate(v))
        return out

    def apply(self, e: Union[RingElement, PolyLike]) -> RingElement:
        """Leibniz on the representative, quotient rule on the denominator."""
        e = self.ring.element(e)
        base = self.apply_poly(e.numer)
        if any(e.denom):
            inv_d = self.ring._make(Poly.const(1), e.denom)
            corr = self.ring.zero()
            for i, (f, a) in enumerate(zip(self.ring.inverted, e.denom)):
                if not a:
                    continue
                term = self.apply_poly(f).divide_by_inverted(f)
                corr = corr + a * term
            numer_elem = self.ring._normal(e.numer, (0,) * len(e.denom))
            return (base - numer_elem * corr) * inv_d
        return base

    def __repr__(self):
        body = "; ".join(
            f"{v} -> {self.images[v].render()}" for v in self.ring.variables
        )
        return f"Derivation({body!r})"

    def to_text(self) -> str:
        return "der: " + "; ".join(
            f"{v} -> {self.images[v].render()}" for v in self.ring.variables
        )

    @staticmethod
    def from_text(ring: AlgebraPresentation, text: str) -> "Derivation":
        body = text.strip()
        if body.startswith("der:"):
            body = body[len("der:"):]
        images: Dict[str, PolyLike] = {}
        for part in body.split(";"):
            part = part.strip()
            if not part:
                continue
            if "->" not in part:
                raise ValueError(f"malformed derivation entry {part!r}")
            v, img = part.split("->", 1)
            v = v.strip()
            if v in images:
                raise ValueError(f"derivation gives the image of {v!r} twice")
            images[v] = img.strip()
        return Derivation(ring, images)


def descends_to_quotient(d: Derivation) -> bool:
    """True iff every relation is mapped into the relation ideal."""
    return all(d.apply_poly(r).is_zero() for r in d.ring.relations)


class NilpotencyCertificate(NamedTuple):
    indices: Dict[str, int]
    bound: int


def _tower(d: Derivation, v: str, bound: int) -> Iterator[RingElement]:
    """v, d(v), d^2(v), ... up to the last nonzero term; raises after
    bound + 1 applications of d that leave it nonzero.  Lazy, so that a
    long tower is never held in memory at once."""
    e = d.ring.var(v)
    applied = 0
    while not e.is_zero():
        yield e
        e = d.apply(e)
        applied += 1
        if applied > bound:
            raise NotNilpotentWithinBound(v, bound)


def nilpotency_certificate(d: Derivation, bound: int = 64) -> NilpotencyCertificate:
    indices = {v: sum(1 for _ in _tower(d, v, bound)) for v in d.ring.variables}
    return NilpotencyCertificate(indices, bound)


def is_slice(d: Derivation, s: Union[RingElement, PolyLike]) -> bool:
    return d.apply(s) == d.ring.one()


def kernel_member(d: Derivation, e: Union[RingElement, PolyLike]) -> bool:
    return d.apply(e).is_zero()


class ActionMap:
    """Substitution map from ``base`` into ``ring``, a parameter extension
    of it.

    ``params`` are the variables ``ring`` adds to ``base``, in its order, and
    ``unit_params`` those of them that ``ring`` inverts (Laurent variables).
    Images are given for every base generator; parameters map to themselves.
    Every re-expression of the map goes through ``RingElement.substitute``.
    """

    def __init__(
        self,
        base: AlgebraPresentation,
        ring: AlgebraPresentation,
        images: Mapping[str, Union[RingElement, PolyLike]],
    ):
        self.base = base
        self.ring = ring
        self.params = tuple(v for v in ring.variables if v not in base.variables)
        self.unit_params = tuple(p for p in self.params if Poly.variable(p) in ring.inverted)
        missing = set(base.variables) - set(images)
        if missing:
            raise ValueError(f"no image for generators {sorted(missing)}")
        self.images: Dict[str, RingElement] = {v: ring.element(images[v]) for v in base.variables}

    def apply_to(self, e: Union[RingElement, PolyLike]) -> RingElement:
        return self.ring.element(e).substitute(self.images)

    def transport(self, ring2: AlgebraPresentation, rename: Optional[Mapping[str, str]] = None) -> "ActionMap":
        """Re-express this map in another parameter extension of the same
        base, renaming parameters by ``rename``."""
        rename = rename or {}
        sub = {p: ring2.var(rename[p]) for p in self.params if p in rename}
        return ActionMap(self.base, ring2, {v: img.substitute(sub, ring2) for v, img in self.images.items()})

    def specialize_params(self, values: Mapping[str, Union[int, Fraction]]) -> "ActionMap":
        """Set parameters to constants; the rest stay, with their units."""
        remaining = [p for p in self.params if p not in values]
        ring2 = extend_with_params(self.base, remaining, self.unit_params)
        sub = {p: ring2.element(Fraction(v)) for p, v in values.items()}
        return ActionMap(self.base, ring2, {v: img.substitute(sub, ring2) for v, img in self.images.items()})

    def __repr__(self):
        body = "; ".join(f"{v} -> {self.images[v].render()}" for v in self.base.variables)
        return f"ActionMap(params={self.params}, {body!r})"


def extend_with_params(
    base: AlgebraPresentation, params: Sequence[str], unit_params: Sequence[str] = ()
) -> AlgebraPresentation:
    units = [p for p in params if p in set(unit_params)]
    return base.extend(list(params), extra_inverted=[Poly.variable(p) for p in units])


def exponential(d: Derivation, t: str = "t", bound: int = 64) -> ActionMap:
    """exp(t*d) as a substitution map: each image is the sum of
    d^k(v) * t^k / k! over the derivative tower of v, which must vanish
    within ``bound`` applications of d.

    The tower is streamed.  While its terms are regular, their numerators
    times t^k / k! are summed as one polynomial, which is reduced once (see
    ``Derivation.apply_poly``).  From the first term with a denominator on,
    the terms are lifted and added one at a time (the eager path)."""
    ext = extend_with_params(d.ring, [t])
    regular = (0,) * len(ext.inverted)
    images: Dict[str, RingElement] = {}
    for v in d.ring.variables:
        numer, total = Poly.variable(v), None
        for k, term in islice(enumerate(_tower(d, v, bound)), 1, None):
            scale = Fraction(1, math.factorial(k))
            if total is None and term.is_regular():
                numer = numer + term.numer.mul_monomial(mono_from_map({t: k}), scale)
                continue
            if total is None:
                total = ext._make(numer, regular)
            total = total + ext.lift(term) * ext.var(t) ** k * scale
        images[v] = ext._make(numer, regular) if total is None else total
    return ActionMap(d.ring, ext, images)


def compose_actions(first: "ActionMap", second: "ActionMap") -> Dict[str, RingElement]:
    """Images of 'act by first, then by second' (both over the same ring)."""
    if first.ring != second.ring:
        raise MismatchedPresentationsError("actions must be transported to a common ring")
    base_map = {v: first.images[v] for v in first.base.variables}
    return {v: second.images[v].substitute(base_map) for v in second.base.variables}


class GroupLaw(NamedTuple):
    """A group law on parameter tuples (lam, t), each factor present or not:
    G_a translates (t, t') -> t + t', G_m scales (lam, lam') -> lam * lam',
    and G_d = G_m x| G_a has (lam, t)(lam', t') = (lam * lam', t + lam^twist * t').

    Parameters may be ``RingElement``s, Laurent ``Poly``s or numbers; a
    scale parameter must be invertible (a unit of its ring, a single-term
    Laurent polynomial, a nonzero number).
    """

    scale: bool
    translate: bool
    twist: int = 0

    @staticmethod
    def additive() -> "GroupLaw":
        return GroupLaw(False, True)

    @staticmethod
    def multiplicative() -> "GroupLaw":
        return GroupLaw(True, False)

    @staticmethod
    def semidirect(d: int) -> "GroupLaw":
        return GroupLaw(True, True, d)

    def identity(self) -> tuple:
        return (1,) * self.scale + (0,) * self.translate

    def product(self, g: tuple, h: tuple) -> tuple:
        if not self.scale:
            return (g[0] + h[0],)
        if not self.translate:
            return (g[0] * h[0],)
        (lam1, t1), (lam2, t2) = g, h
        return (lam1 * lam2, t1 + lam1 ** self.twist * t2)

    def inverse(self, g: tuple) -> tuple:
        if not self.scale:
            return (-g[0],)
        lam = g[0]
        if isinstance(lam, RingElement):
            inv = lam.unit_inverse()
        elif isinstance(lam, Poly):
            inv = lam ** -1
        else:
            inv = invert_coeff(lam)
        if not self.translate:
            return (inv,)
        return (inv, -(inv ** self.twist) * g[1])


class ActionCheck:
    __slots__ = ("name", "passed", "residuals")

    def __init__(self, name: str, passed: bool, residuals: Optional[Dict[str, str]] = None):
        self.name = name
        self.passed = passed
        self.residuals = {} if residuals is None else residuals


class ActionReport:
    __slots__ = ("law", "checks")

    def __init__(self, law: GroupLaw, checks: List[ActionCheck]):
        self.law = law
        self.checks = checks

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> List[ActionCheck]:
        return [c for c in self.checks if not c.passed]


def residual(lhs: RingElement, rhs: RingElement) -> str:
    """The rendered difference lhs - rhs, or "" when the two are equal."""
    return "" if lhs == rhs else (lhs - rhs).render()


def _residuals(pairs: Mapping[str, Tuple[RingElement, RingElement]]) -> Dict[str, str]:
    out = {}
    for g, (lhs, rhs) in pairs.items():
        r = residual(lhs, rhs)
        if r:
            out[g] = r
    return out


def verify_action(action: ActionMap, law: GroupLaw) -> ActionReport:
    """Symbolic identity, relation-preservation, composition, and (for a
    law with both factors) twist checks, with the identity and product taken
    from the law.  Per-generator residuals are reported instead of failing
    fast.  The action's parameters must be (lam, t) for the factors the law
    has, with lam, and only lam, inverted.
    """
    checks: List[ActionCheck] = []
    base = action.base

    params1 = action.params
    if len(params1) != law.scale + law.translate or action.unit_params != params1[:law.scale]:
        shape = ("lam",) * law.scale + ("t",) * law.translate
        raise ValueError(
            f"{law} needs parameters {shape} with only lam inverted; "
            f"the action has parameters {params1} with {action.unit_params} inverted"
        )

    ident = action.specialize_params(dict(zip(params1, law.identity())))
    pairs = {
        v: (ident.images[v], ident.ring.var(v)) for v in base.variables
    }
    res = _residuals(pairs)
    checks.append(ActionCheck("identity", not res, res))

    rel_res: Dict[str, str] = {}
    for i, r in enumerate(base.relations):
        img = action.ring.substitute(r, action.images)
        if not img.is_zero():
            rel_res[f"relation[{i}]"] = img.render()
    checks.append(ActionCheck("relations-preserved", not rel_res, rel_res))

    params2 = tuple(f"{p}_2" for p in params1)
    ring_both = extend_with_params(
        base, params1 + params2, action.unit_params + tuple(f"{p}_2" for p in action.unit_params)
    )
    a1 = action.transport(ring_both)
    a2 = action.transport(ring_both, rename={p: q for p, q in zip(params1, params2)})
    composed = compose_actions(a1, a2)

    g1 = tuple(ring_both.var(p) for p in params1)
    g2 = tuple(ring_both.var(p) for p in params2)
    product = dict(zip(params1, law.product(g1, g2)))
    target = {v: a1.images[v].substitute(product) for v in base.variables}
    res = _residuals({v: (composed[v], target[v]) for v in base.variables})
    checks.append(ActionCheck("composition", not res, res))

    if law.scale and law.translate:
        lam_name, t_name = params1
        scale_part = action.specialize_params({t_name: 0})
        trans_part = action.specialize_params({lam_name: 1})
        ring_twist = extend_with_params(base, [lam_name, t_name], [lam_name])
        s_map = scale_part.transport(ring_twist)
        e_map = trans_part.transport(ring_twist)
        lhs = compose_actions(e_map, s_map)  # translate, then scale
        lam = ring_twist.var(lam_name)
        twisted_t = lam.unit_inverse() ** law.twist * ring_twist.var(t_name)
        e_twisted_images = {
            v: e_map.images[v].substitute({t_name: twisted_t}) for v in base.variables
        }
        e_twisted = ActionMap(base, ring_twist, e_twisted_images)
        rhs = compose_actions(s_map, e_twisted)  # scale, then twisted translate
        res = _residuals({v: (lhs[v], rhs[v]) for v in base.variables})
        checks.append(ActionCheck("twist-identity", not res, res))

    return ActionReport(law, checks)


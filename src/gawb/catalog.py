"""Standard presentations and actions used across the workbench.

The hypersurface family x^m v - y^n u - p(x, y) = 0 (with p = 1 as the basic
case), its translation derivation u -> x^m, v -> y^n, the scaling and
composite group actions, the two-chart trivialization data, the punctured
quotient-surface family over x^2 + y^3 + z^5 = 0, and the worked X_{2,2}
change-of-coordinates example with quotient chart (a, b).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Tuple

from .derivations import ActionMap, Derivation, compose_actions, exponential, extend_with_params
from .parse import parse_poly
from .poly import Mono, Poly, mono, mono_from_map
from .quotient import AlgebraPresentation, PolyLike, RingElement

XMN_VARS = ("x", "y", "u", "v")


@lru_cache(maxsize=1024)
def _relation_leads(m: int, n: int, fiber: str) -> Tuple[Mono, Mono]:
    """x^m * fiber and y^n * u, built once per (m, n, fiber): the affineness
    certificate builds one relation per p, over a few (m, n) only."""
    return mono_from_map({"x": m, fiber: 1}), mono_from_map({"y": n, "u": 1})


def xmnp_relation(m: int, n: int, p: Poly, fiber: str = "v") -> Poly:
    """x^m * fiber - y^n * u - p, for p free of u and the fiber variable."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    x_lead, y_lead = _relation_leads(m, n, fiber)
    terms = {mo: -c for mo, c in p.terms.items()}
    terms[x_lead] = 1
    terms[y_lead] = -1
    return Poly._raw(terms)  # no term is zero: each is -c, 1 or -1


def xmnp_presentation(
    m: int, n: int, p: PolyLike = 1, inverted: Sequence[PolyLike] = ()
) -> AlgebraPresentation:
    """C[x,y,u,v] / (x^m v - y^n u - p)."""
    pp = p if isinstance(p, Poly) else parse_poly(str(p), ("x", "y"))
    return AlgebraPresentation(
        XMN_VARS, [xmnp_relation(m, n, pp)], inverted=inverted
    )


def xmn_presentation(m: int, n: int, inverted: Sequence[PolyLike] = ()) -> AlgebraPresentation:
    return xmnp_presentation(m, n, 1, inverted)


def translation_derivation(pres: AlgebraPresentation, m: int, n: int) -> Derivation:
    """u -> x^m -> 0, v -> y^n -> 0 on any presentation containing x,y,u,v."""
    return Derivation(
        pres,
        {
            "u": Poly.monomial(mono(x=m)),
            "v": Poly.monomial(mono(y=n)),
            **{w: 0 for w in pres.variables if w not in ("u", "v")},
        },
    )


def xmn(m: int, n: int, inverted: Sequence[PolyLike] = ()) -> Tuple[AlgebraPresentation, Derivation]:
    pres = xmn_presentation(m, n, inverted)
    return pres, translation_derivation(pres, m, n)


def ga_action(m: int, n: int, t: str = "t") -> ActionMap:
    pres, d = xmn(m, n)
    return exponential(d, t)


def gm_action(m: int, n: int, lam: str = "lam", pres: Optional[AlgebraPresentation] = None) -> ActionMap:
    """(x, y, u, v) -> (lam x, lam y, lam^-n u, lam^-m v)."""
    base = pres if pres is not None else xmn_presentation(m, n)
    ring = extend_with_params(base, [lam], [lam])
    lv = ring.var(lam)
    lam_poly = Poly.variable(lam)
    images = {
        "x": lv * ring.var("x"),
        "y": lv * ring.var("y"),
        "u": ring.var("u").divide_by_inverted(lam_poly, n),
        "v": ring.var("v").divide_by_inverted(lam_poly, m),
    }
    for w in base.variables:
        if w not in images:
            images[w] = ring.var(w)
    return ActionMap(base, ring, images)


def gd_action(m: int, n: int, lam: str = "lam", t: str = "t") -> ActionMap:
    """Composite action: translate by t, then scale by lam."""
    base, d = xmn(m, n)
    ring = extend_with_params(base, [lam, t], [lam])
    e = exponential(d, t).transport(ring)
    s = gm_action(m, n, lam, pres=base).transport(ring)
    images = compose_actions(e, s)
    return ActionMap(base, ring, images)


class TrivializationCharts(NamedTuple):
    """Chart data (u_i, T_i, L_i) over the two charts of the base."""

    ring: AlgebraPresentation
    u1: RingElement
    T1: RingElement
    L1: RingElement
    u2: RingElement
    T2: RingElement
    L2: RingElement


def trivialization_charts(m: int, n: int) -> TrivializationCharts:
    ring = xmn_presentation(m, n, inverted=["x", "y"])
    return TrivializationCharts(
        ring=ring,
        u1=ring.element("y*x^-1"),
        T1=ring.element(Poly.monomial(mono(x=n)) * Poly.variable("u")),
        L1=ring.var("x"),
        u2=ring.element("x*y^-1"),
        T2=ring.element(Poly.monomial(mono(y=m)) * Poly.variable("v")),
        L2=ring.var("y"),
    )


def zmnk_presentation(m: int, n: int, k: int) -> Tuple[AlgebraPresentation, Derivation]:
    """x^m v - y^n u - z^k = 0 over the surface x^2 + y^3 + z^5 = 0."""
    if not (0 <= k <= 4):
        raise ValueError("k must lie in 0..4")
    pres = AlgebraPresentation(
        ("x", "y", "z", "u", "v"),
        [xmnp_relation(m, n, Poly.variable("z", k)), "x^2 + y^3 + z^5"],
    )
    d = translation_derivation(pres, m, n)
    return pres, d


class QuotientChartExample(NamedTuple):
    """The published X_{2,2} data: quotient chart (a, b), section w, and the
    candidate derivation images.  All identities about these are recomputed,
    never assumed."""

    ring: AlgebraPresentation
    a: Poly
    b: Poly
    w: Poly
    derivation: Derivation

    @property
    def cocycle_chart_functions(self) -> Tuple[Poly, Poly]:
        y = Poly.variable("y")
        return (y + self.a + self.a * self.b, self.w)


def a22_example() -> QuotientChartExample:
    ring = xmn_presentation(2, 2)
    a = parse_poly("x - 1/2*y", XMN_VARS)
    b = parse_poly("3/4*x*v - 1/8*y*v - 3/2*y*u + x*u", XMN_VARS)
    w = parse_poly(
        "5/16*v^2*x + 5/2*v*x*u - 1/32*v^2*y - 5/4*v*y*u + u^2*x - 5/2*u^2*y",
        XMN_VARS,
    )
    a3 = a * a * a
    third = Fraction(1, 3)
    d = Derivation(
        ring,
        {
            "x": a3.scale(third),
            "y": a3,
            "u": parse_poly("x*b - 1/4", ("x", "b")).substitute({"b": b}),
            "v": parse_poly("2*y*b - 1", ("y", "b")).substitute({"b": b}),
        },
    )
    return QuotientChartExample(ring=ring, a=a, b=b, w=w, derivation=d)

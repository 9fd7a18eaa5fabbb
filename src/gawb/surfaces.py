"""Divisor intersection arithmetic on Hirzebruch surfaces and scrolls.

Hirzebruch surface F_k: basis (C, F) with C.C = -k, C.F = 1, F.F = 0.
Scroll S(m, n) (m >= n >= 1): basis (C_u, L) with C_u.C_u = m - n,
C_u.L = 1, L.L = 0; the section C_v = C_u + (n - m) L is disjoint from C_u
and the boundary section class is mL + C_v = nL + C_u with square m + n.
Every scroll construction re-derives these identities as a self-test.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from .poly import Poly
from .resultant import NonHomogeneousError, binary_resultant


class CommonZeroError(ValueError):
    """The two forms share a projective zero, so the hypersurface hypothesis fails."""


class RuledSurface(NamedTuple):
    kind: str             # "hirzebruch" | "scroll"
    k: int = 0            # Hirzebruch index
    m: int = 0            # scroll twists, m >= n >= 1
    n: int = 0
    basis: Tuple[str, str] = ("C", "F")
    form: Tuple[Tuple[int, int], Tuple[int, int]] = ((0, 1), (1, 0))

    def name(self) -> str:
        if self.kind == "hirzebruch":
            return f"F{self.k}"
        return f"Scroll({self.m},{self.n})"

    def divisor(self, c1: int, c2: int) -> "DivisorClass":
        return DivisorClass(self, (c1, c2))


def hirzebruch(k: int) -> RuledSurface:
    if k < 0:
        raise ValueError("Hirzebruch index must be >= 0")
    return RuledSurface("hirzebruch", k=k, basis=("C", "F"), form=((-k, 1), (1, 0)))


def scroll(m: int, n: int) -> RuledSurface:
    if not (m >= n >= 1):
        raise ValueError("scroll requires m >= n >= 1")
    s = RuledSurface("scroll", m=m, n=n, basis=("C_u", "L"), form=((m - n, 1), (1, 0)))
    _scroll_self_test(s)
    return s


class DivisorClass(NamedTuple):
    surface: RuledSurface
    coeffs: Tuple[int, int]

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if other.surface != self.surface:
            raise ValueError("divisor classes live on different surfaces")
        return DivisorClass(self.surface, (self.coeffs[0] + other.coeffs[0], self.coeffs[1] + other.coeffs[1]))

    def __sub__(self, other: "DivisorClass") -> "DivisorClass":
        return self + other.scale(-1)

    def scale(self, k: int) -> "DivisorClass":
        return DivisorClass(self.surface, (k * self.coeffs[0], k * self.coeffs[1]))

    def to_json(self) -> dict:
        return {"surface": self.surface.name(), "coeffs": list(self.coeffs)}


def intersect(d1: DivisorClass, d2: DivisorClass) -> int:
    if d1.surface != d2.surface:
        raise ValueError("divisor classes live on different surfaces")
    f = d1.surface.form
    (a1, a2), (b1, b2) = d1.coeffs, d2.coeffs
    return (
        a1 * b1 * f[0][0]
        + a1 * b2 * f[0][1]
        + a2 * b1 * f[1][0]
        + a2 * b2 * f[1][1]
    )


def self_intersection(d: DivisorClass) -> int:
    return intersect(d, d)


def section_u_class(s: RuledSurface) -> DivisorClass:
    if s.kind != "scroll":
        raise ValueError("C_u lives on a scroll")
    return s.divisor(1, 0)


def fiber_class(s: RuledSurface) -> DivisorClass:
    return s.divisor(0, 1)


def section_v_class(s: RuledSurface) -> DivisorClass:
    """C_v = C_u + (n - m) L, the section disjoint from C_u."""
    if s.kind != "scroll":
        raise ValueError("C_v lives on a scroll")
    return s.divisor(1, s.n - s.m)


def delta_class(s: RuledSurface) -> DivisorClass:
    """The boundary section class mL + C_v = nL + C_u."""
    if s.kind != "scroll":
        raise ValueError("the boundary section lives on a scroll")
    return section_v_class(s) + fiber_class(s).scale(s.m)


def _scroll_self_test(s: RuledSurface):
    cu = section_u_class(s)
    cv = section_v_class(s)
    ll = fiber_class(s)
    if intersect(cu, cv) != 0:
        raise AssertionError("scroll basis broken: C_u.C_v != 0")
    if (cv - cu).coeffs != (0, s.n - s.m):
        raise AssertionError("scroll basis broken: C_v - C_u != (n - m) L")
    if (cv + ll.scale(s.m)).coeffs != (cu + ll.scale(s.n)).coeffs:
        raise AssertionError("scroll basis broken: mL + C_v != nL + C_u")
    if self_intersection(delta_class(s)) != s.m + s.n:
        raise AssertionError("scroll basis broken: boundary square != m + n")


def sdm_boundary_class(m: int, n: int) -> Tuple[DivisorClass, int]:
    """C + mF on F_(2m - d), the section removed to leave the open quotient
    surface; its self-intersection is d = m + n."""
    if not (m >= n >= 1):
        raise ValueError("requires m >= n >= 1")
    surf = hirzebruch(m - n)
    cls = surf.divisor(1, m)
    return cls, self_intersection(cls)


class XmnVerdict(NamedTuple):
    verdict: str           # "IsomorphicByTheorem" | "Inconclusive"
    d: Optional[int]
    citation: str

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "d": self.d, "citation": self.citation}


def classify_xmn(m: int, n: int, p: int, q: int) -> XmnVerdict:
    """Sufficient isomorphy criterion: equal sums of exponents.

    No converse is claimed; unequal sums yield Inconclusive, never a
    non-isomorphism verdict.
    """
    if min(m, n, p, q) < 1:
        raise ValueError("all exponents must be >= 1")
    if m + n == p + q:
        return XmnVerdict("IsomorphicByTheorem", m + n, "equal-boundary-square")
    return XmnVerdict("Inconclusive", None, "criterion-inapplicable")


class XfgClassification(NamedTuple):
    m: int
    n: int
    resultant_nonzero: bool
    delta_square: int
    surface: RuledSurface
    verdict: str

    def to_json(self) -> dict:
        return {
            "degrees": [self.m, self.n],
            "resultant_nonzero": self.resultant_nonzero,
            "delta_square": self.delta_square,
            "surface": self.surface.name(),
            "verdict": self.verdict,
            "citation": "scroll-boundary-square",
        }


def classify_xfg(f: Poly, g: Poly, x: str = "x", y: str = "y") -> XfgClassification:
    """Reduce the hypersurface fv - gu - 1 = 0 to the monomial model.

    Requires f, g to be homogeneous binary forms of positive degree meeting
    only at the origin (nonzero resultant); the conclusion is isomorphy with
    the pure-power hypersurface of the same degrees, plus the boundary-square
    datum on the associated scroll.
    """
    m = f.homogeneous_degree((x, y))
    n = g.homogeneous_degree((x, y))
    if m is None or n is None:
        raise NonHomogeneousError("f and g must be homogeneous binary forms")
    if m < 1 or n < 1:
        raise ValueError("forms must have positive degree")
    res = binary_resultant(f, g, x, y)
    if res == 0:
        raise CommonZeroError(
            "f and g share a projective zero; their common zero locus is "
            "larger than the origin"
        )
    surf = scroll(max(m, n), min(m, n))
    dsq = self_intersection(delta_class(surf))
    return XfgClassification(
        m=m, n=n, resultant_nonzero=True, delta_square=dsq, surface=surf,
        verdict=f"isomorphic to the pure-power hypersurface X_{{{m},{n}}}",
    )

"""Transition-function algebra over the two-chart cover of P^1.

The chart coordinate is u; the second chart uses u^-1.  A rank-2 bundle is
given by a 2x2 Laurent transition matrix M with monomial determinant, read as
the chart change from the u-chart to the u^-1-chart: a global section is a
pair g (polynomial in u) and h (polynomial in u^-1) with M.g = h.

Splitting types are computed two independent ways: a Birkhoff factorization
M = L * diag(u^e1, u^e2) * R with L invertible over C[u^-1] and R invertible
over C[u], and an h^0 scan of twists.  The summand twists are (-e1, -e2).

The factorization is the row-reduced form of M on u-valuations (Wolovich's
row-reduced form, read at u = 0 rather than at infinity).  While the rows'
lowest-order coefficient vectors are parallel, one loop adds a C[u^-1]
multiple of one row to the other, the row of smaller valuation, which
cancels its lowest-order vector.  Each step raises that row's valuation by
at least 1, and the two valuations sum to at most the determinant's
exponent, so the determinant bounds the number of steps.

The h^0 of a twist takes one exact solve at a proven degree bound.  Write hi
for the largest u-exponent of M and e for its determinant exponent.  A
section of E(j) has degree at most B = hi - e + j, since g = adj(M_j).h /
det(M_j) with h regular in u^-1 and det(M_j) = c u^(e - 2j).  The first twist
with a section, -a1, lies in e - hi .. e // 2: below it B < 0, and
a1 >= a2 with a1 + a2 = -e gives -a1 <= e // 2.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Dict, List, NamedTuple, Sequence, Tuple, Union

from . import catalog
from .derivations import exponential, residual
from .linalg import kernel_basis
from .parse import parse_poly
from .poly import Coeff, Poly, invert_coeff, mono, mono_exp, render_poly
from .quotient import sample_point

U = "u"


class NonMonomialDeterminantError(ValueError):
    pass


def u_poly(text: Union[str, Poly, int, Fraction]) -> Poly:
    if isinstance(text, Poly):
        p = text
    elif isinstance(text, (int, Fraction)):
        p = Poly.const(text)
    else:
        p = parse_poly(text, (U,))
    if p.variables() - {U}:
        raise ValueError("expected a Laurent polynomial in u only")
    return p


def _u_power(p: Poly, k: int) -> Poly:
    return p.mul_monomial(mono(u=k)) if k else p


# -- torsor transitions over P^1 ----------------------------------------------


class TorsorTransition:
    """T |-> u^d T + phi(u), the chart change of an O(-d)-torsor."""

    __slots__ = ("d", "phi")

    def __init__(self, d: int, phi: Poly):
        if d < 1:
            raise ValueError("d must be a positive integer")
        if phi.variables() - {U}:
            raise ValueError("phi must be a Laurent polynomial in u")
        self.d = d
        self.phi = phi


class TorsorClass(NamedTuple):
    """Class in H^1(P^1, O(-d)): coefficients of u^1 .. u^(d-1)."""

    d: int
    coefficients: Tuple[Coeff, ...]

    def is_trivial(self) -> bool:
        return all(c == 0 for c in self.coefficients)


def torsor_class(tt: TorsorTransition) -> TorsorClass:
    coeffs = [tt.phi.coeff_of(mono(u=k)) for k in range(1, tt.d)]
    return TorsorClass(tt.d, tuple(coeffs))


class SdmTransition(NamedTuple):
    """Full G_d chart change of the quotient of the hypersurface threefold:
    (L, T) |-> (u L, u^d T + u^m)."""

    m: int
    n: int

    @property
    def d(self) -> int:
        return self.m + self.n

    @property
    def torsor(self) -> TorsorTransition:
        return TorsorTransition(self.d, Poly.monomial(mono(u=self.m)))

    def matrix(self) -> "TransitionMatrix2":
        return transition_matrix(self.m, self.n)


def sdm_from_mn(m: int, n: int) -> SdmTransition:
    if m < 1 or n < 1:
        raise ValueError("m, n must be >= 1")
    return SdmTransition(m, n)


# -- rank 2 transition matrices -----------------------------------------------


class TransitionMatrix2:
    __slots__ = ("entries",)

    def __init__(self, entries: Tuple[Tuple[Poly, Poly], Tuple[Poly, Poly]]):
        for row in entries:
            for p in row:
                if p.variables() - {U}:
                    raise ValueError("matrix entries must be Laurent polynomials in u")
        if not _mat_det(entries).is_single_term():
            raise NonMonomialDeterminantError(
                "transition matrix must have a nonzero monomial determinant"
            )
        self.entries = entries

    def det(self) -> Poly:
        return _mat_det(self.entries)

    @property
    def det_exponent(self) -> int:
        m, _ = self.det().single_term()
        return mono_exp(m, U)

    def twist(self, j: int) -> "TransitionMatrix2":
        """Transition of E tensor O(j): scalar twist u^-j on the u-chart side."""
        return TransitionMatrix2(
            tuple(tuple(_u_power(p, -j) for p in row) for row in self.entries)
        )

    def to_json(self) -> list:
        return [[render_poly(p) for p in row] for row in self.entries]

    @staticmethod
    def from_json(data: Sequence[Sequence[str]]) -> "TransitionMatrix2":
        if len(data) != 2 or any(len(r) != 2 for r in data):
            raise ValueError("expected a 2x2 array of polynomial strings")
        return TransitionMatrix2(
            tuple(tuple(u_poly(s) for s in row) for row in data)
        )

    @staticmethod
    def loads(text: str) -> "TransitionMatrix2":
        return TransitionMatrix2.from_json(json.loads(text))


def transition_matrix(m: int, n: int) -> TransitionMatrix2:
    """The extension matrix [[u^(m+n), u^m], [0, 1]]."""
    return TransitionMatrix2(
        (
            (Poly.monomial(mono(u=m + n)), Poly.monomial(mono(u=m))),
            (Poly.zero(), Poly.const(1)),
        )
    )


def _mat_mul(A, B):
    return tuple(
        tuple(
            A[i][0] * B[0][j] + A[i][1] * B[1][j]
            for j in range(2)
        )
        for i in range(2)
    )


def _mat_det(A) -> Poly:
    return A[0][0] * A[1][1] - A[0][1] * A[1][0]


def _is_regular_u(A) -> bool:
    return all(p.is_regular((U,)) for row in A for p in row)


def _is_regular_uinv(A) -> bool:
    return all(p.exponent_range(U)[1] <= 0 for row in A for p in row)


class SplittingType:
    __slots__ = ("a1", "a2")

    def __init__(self, a1: int, a2: int):
        if a1 < a2:
            raise ValueError("splitting type must be sorted a1 >= a2")
        self.a1 = a1
        self.a2 = a2

    def __eq__(self, other):
        if type(other) is not SplittingType:
            return NotImplemented
        return (self.a1, self.a2) == (other.a1, other.a2)

    def __hash__(self):
        return hash((self.a1, self.a2))

    @property
    def hirzebruch_index(self) -> int:
        return self.a1 - self.a2

    def to_json(self) -> dict:
        return {"type": [self.a1, self.a2], "hirzebruch": self.hirzebruch_index}


class BirkhoffFactorization(NamedTuple):
    """matrix = left * diag(u^e1, u^e2) * right, det(left), det(right) constant.

    left is regular and invertible over C[u^-1], right over C[u]; the summand
    twists of the bundle are (-e1, -e2)."""

    matrix: TransitionMatrix2
    left: tuple
    exponents: Tuple[int, int]
    right: tuple

    @property
    def splitting(self) -> SplittingType:
        a = sorted((-self.exponents[0], -self.exponents[1]), reverse=True)
        return SplittingType(a[0], a[1])

    def diagonal(self) -> tuple:
        e1, e2 = self.exponents
        return (
            (Poly.monomial(mono(u=e1)), Poly.zero()),
            (Poly.zero(), Poly.monomial(mono(u=e2))),
        )


def birkhoff_split(M: TransitionMatrix2) -> BirkhoffFactorization:
    """Exact factorization M = left * diag(u^v0, u^v1) * right by row
    reduction on u-valuations; raises if the validity check fails.

    Row i has valuation v_i, its least u-exponent, and trailing vector t_i,
    its coefficients at u^v_i.  Once t_0 and t_1 are independent, right is
    diag(u^-v0, u^-v1) times the rows: regular in u with an invertible value
    at u = 0, so its monomial determinant is a constant.  Otherwise
    t_b = mu * t_a, where b is the row of smaller valuation (row 0 on a
    tie), and row_b += f * row_a with f = -mu * u^(v_b - v_a) in C[u^-1]
    cancels t_b, so v_b rises by at least 1.  left, the product of the
    inverse steps, stays in GL2(C[u^-1]).  The rows' valuations sum to at
    most the determinant exponent e, so the loop stops within
    e - (v0 + v1) steps of the input's valuations.
    """
    rows = [list(row) for row in M.entries]
    left = [[Poly.const(1), Poly.zero()], [Poly.zero(), Poly.const(1)]]
    while True:
        vals = [min(p.exponent_range(U)[0] for p in row if not p.is_zero()) for row in rows]
        trail = [[p.coeff_of(mono(u=v)) for p in row] for row, v in zip(rows, vals)]
        (p0, p1), (q0, q1) = trail
        if p0 * q1 != p1 * q0:
            break
        b = 0 if vals[0] <= vals[1] else 1
        a = 1 - b
        k = 0 if trail[a][0] else 1
        shift = mono(u=vals[b] - vals[a])
        c = -trail[b][k] * invert_coeff(trail[a][k])
        rows[b] = [p + q.mul_monomial(shift, c) for p, q in zip(rows[b], rows[a])]
        for row in left:  # column a of left -= f * column b
            row[a] = row[a] + row[b].mul_monomial(shift, -c)
    right = tuple(tuple(_u_power(p, -v) for p in row) for row, v in zip(rows, vals))
    fac = BirkhoffFactorization(M, tuple(map(tuple, left)), tuple(vals), right)
    _validate_factorization(fac)
    return fac


def _validate_factorization(fac: BirkhoffFactorization):
    if not _is_regular_uinv(fac.left):
        raise AssertionError("left factor is not regular in u^-1")
    if not _is_regular_u(fac.right):
        raise AssertionError("right factor is not regular in u")
    for A in (fac.left, fac.right):
        d = _mat_det(A)
        if d.is_zero() or not d.is_constant():
            raise AssertionError("factor determinant is not a nonzero constant")
    product = _mat_mul(_mat_mul(fac.left, fac.diagonal()), fac.right)
    if product != fac.matrix.entries:
        raise AssertionError("factorization does not multiply back to the matrix")
    if fac.exponents[0] + fac.exponents[1] != fac.matrix.det_exponent:
        raise AssertionError("splitting exponents do not sum to the determinant exponent")


# -- h^0 of twists --------------------------------------------------------------


def _top_exponent(M: TransitionMatrix2) -> int:
    """The largest u-exponent among M's nonzero entries."""
    return max(p.exponent_range(U)[1] for row in M.entries for p in row if not p.is_zero())


def h0_twist(M: TransitionMatrix2, j: int) -> Tuple[int, List[Tuple[Poly, Poly]]]:
    """Dimension and basis of global sections of E tensor O(j).

    Sections are pairs g in C[u]^2 with h = M_j.g polynomial in u^-1, where
    M_j = u^-j M.  As g = adj(M_j).h / det(M_j), with no power of u in
    adj(M_j) above hi - j and det(M_j) = c u^(e - 2j), deg g <= B = hi - e + j.
    B < 0 leaves no section and no solve; otherwise one solve over g1_0 ..
    g1_B, g2_0 .. g2_B, one row per positive power of u in M_j.g, gives the
    canonical kernel basis.
    """
    B = _top_exponent(M) - M.det_exponent + j
    if B < 0:
        return 0, []
    rows = []
    for row in M.entries:
        eqs: Dict[int, Dict[int, Coeff]] = {}
        for part, p in enumerate(row):
            for m, c in p.terms.items():
                ex = mono_exp(m, U) - j
                for deg in range(max(0, 1 - ex), B + 1):
                    eq = eqs.setdefault(ex + deg, {})
                    col = part * (B + 1) + deg
                    eq[col] = eq.get(col, 0) + c
        rows.extend(eqs[k] for k in sorted(eqs))
    sections = [(_u_coeffs_poly(v[:B + 1]), _u_coeffs_poly(v[B + 1:]))
                for v in kernel_basis(rows, 2 * B + 2)]
    return len(sections), sections


def _u_coeffs_poly(coeffs: Sequence[Coeff]) -> Poly:
    return Poly({mono(u=d): c for d, c in enumerate(coeffs) if c})


def splitting_by_h0_scan(M: TransitionMatrix2) -> SplittingType:
    """Infer the splitting type from the h^0 profile of twists alone.

    a1 is minus the first twist with a section; a2 follows from the
    determinant exponent e.  That twist lies in the window e - hi .. e // 2:
    below it the degree bound of ``h0_twist`` is negative, and -a1 <= e // 2
    because a1 >= a2 and a1 + a2 = -e.  The whole profile over the jump
    window is then checked against the split model.
    """
    dims: Dict[int, int] = {}

    def h0(twist: int) -> int:
        # the profile check revisits the first loop's last twists
        if twist not in dims:
            dims[twist] = h0_twist(M, twist)[0]
        return dims[twist]

    e = M.det_exponent
    for j in range(e - _top_exponent(M), e // 2 + 1):
        if h0(j):
            break
    else:
        raise RuntimeError("h0 scan found no sections within the window")
    a1 = -j
    a2 = -e - a1
    if a1 < a2:
        raise RuntimeError("h0 scan produced an unsorted splitting; determinant mismatch")
    for jj in range(-a1 - 1, -a2 + 2):
        expected = max(0, a1 + jj + 1) + max(0, a2 + jj + 1)
        got = h0(jj)
        if got != expected:
            raise RuntimeError(
                f"h0 profile disagrees with split model at twist {jj}: {got} != {expected}"
            )
    return SplittingType(a1, a2)


# -- trivialization identities ---------------------------------------------------


class TrivializationReport:
    __slots__ = ("m", "n", "identity_residuals", "invariance_residuals", "points_checked", "point_failures")

    def __init__(self, m: int, n: int, identity_residuals: Dict[str, str],
                 invariance_residuals: Dict[str, str], points_checked: int, point_failures: int):
        self.m = m
        self.n = n
        self.identity_residuals = identity_residuals
        self.invariance_residuals = invariance_residuals
        self.points_checked = points_checked
        self.point_failures = point_failures

    @property
    def passed(self) -> bool:
        return (
            not any(self.identity_residuals.values())
            and not any(self.invariance_residuals.values())
            and self.point_failures == 0
        )


def verify_trivialization(m: int, n: int, points: int = 20, seed: int = 0) -> TrivializationReport:
    """Check the chart identities L2 = u1 L1 and T2 = u1^m + u1^d T1 in the
    doubly localized ring of the hypersurface threefold, the invariance
    properties of u_i and T_i under both actions, and the same identities at
    sampled rational points."""
    d = m + n
    ch = catalog.trivialization_charts(m, n)
    ring = ch.ring

    lhs = ch.L2
    rhs = ch.u1 * ch.L1
    rhs_t = ch.u1 ** m + ch.u1 ** d * ch.T1
    ident = {
        "L2 = u1*L1": residual(lhs, rhs),
        "T2 = u1^m + u1^d*T1": residual(ch.T2, rhs_t),
    }

    inv: Dict[str, str] = {}
    deriv = catalog.translation_derivation(ring, m, n)
    ga = exponential(deriv, "t")
    gm = catalog.gm_action(m, n, pres=ring)
    tvar = ga.ring.var("t")
    for name, elem in (("1", ch.u1), ("2", ch.u2)):
        inv[f"exp(t d) fixes u{name}"] = residual(ga.apply_to(elem), ga.ring.lift(elem))
        inv[f"scaling fixes u{name}"] = residual(gm.apply_to(elem), gm.ring.lift(elem))
    for name, T, L in (("1", ch.T1, ch.L1), ("2", ch.T2, ch.L2)):
        inv[f"scaling fixes T{name}"] = residual(gm.apply_to(T), gm.ring.lift(T))
        got = ga.apply_to(T)
        want = ga.ring.lift(T) + tvar * ga.ring.lift(L) ** d
        inv[f"exp(t d) translates T{name} by t*L{name}^{d}"] = residual(got, want)

    failures = 0
    diff1 = lhs - rhs
    diff2 = ch.T2 - rhs_t
    for k in range(points):
        pt = sample_point(ring, seed=seed * 100003 + k)
        if diff1.evaluate(pt) != 0 or diff2.evaluate(pt) != 0:
            failures += 1
    return TrivializationReport(m, n, ident, inv, points, failures)


def generator_involution_check(m: int, n: int) -> bool:
    """The opposite-generator bundle composed with the fiber inversion
    Ltilde = L^-1 reproduces the original chart change (uL, u^d T + u^m)."""
    d = m + n
    L, T, u = Poly.variable("L"), Poly.variable("T"), Poly.variable(U)
    std = {
        "L": u * L,
        "T": Poly.monomial(mono(u=d)) * T + Poly.monomial(mono(u=m)),
    }
    tilde = {
        "L": _u_power(L, -1),
        "T": std["T"],
    }
    invert = {"L": L ** -1, "T": T}
    # conjugate the tilde transition by the fiber inversion on both charts
    step = {v: tilde[v].substitute(invert) for v in ("L", "T")}
    conj = {v: invert[v].substitute(step) for v in ("L", "T")}
    return conj["L"] == std["L"] and conj["T"] == std["T"]

"""Registry of machine-checkable claims for the verify-paper runner.

Every entry anchors a short verbatim quote from the source text, runs the
corresponding computation, and records pass, fail (engine error), or
discrepancy-documented (the computation contradicts the quoted text; these
are findings, not failures).  Reports are deterministic given the seed;
wall-clock data is collected but excluded from serialized output unless
explicitly requested.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import __version__
from . import catalog, cech, p1bundles, surfaces, sweeps
from .derivations import (
    GroupLaw,
    NotNilpotentWithinBound,
    descends_to_quotient,
    exponential,
    is_slice,
    kernel_member,
    nilpotency_certificate,
    verify_action,
)
from .parse import parse_poly
from .poly import Poly, mono, render_poly
from .quotient import (
    AlgebraPresentation,
    RingElement,
    sample_point,
    smoothness_check,
    unit_ideal_test,
)

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "discrepancy-documented"


@dataclass
class RunConfig:
    seed: int = 0
    nilpotency_bound: int = 64
    power_bound: int = 12
    points: int = 20


@dataclass
class ClaimRecord:
    claim_id: str
    section: str
    quote: str
    expected: str
    actual: str
    status: str
    seconds: float = 0.0
    notes: str = ""

    def to_json(self, timings: bool = False) -> dict:
        out = {
            "id": self.claim_id,
            "section": self.section,
            "quote": self.quote,
            "expected": self.expected,
            "actual": self.actual,
            "status": self.status,
        }
        if self.notes:
            out["notes"] = self.notes
        if timings:
            out["seconds"] = round(self.seconds, 4)
        return out


@dataclass
class Report:
    records: List[ClaimRecord]
    seed: int
    version: str = __version__
    total_seconds: float = 0.0

    @property
    def counts(self) -> Dict[str, int]:
        out = {PASS: 0, FAIL: 0, DISCREPANCY: 0}
        for r in self.records:
            out[r.status] = out.get(r.status, 0) + 1
        return out

    @property
    def ok(self) -> bool:
        return self.counts[FAIL] == 0

    def to_json(self, timings: bool = False) -> dict:
        out = {
            "schema": "gawb-report/1",
            "engine": self.version,
            "seed": self.seed,
            "claims": [r.to_json(timings) for r in self.records],
            "summary": self.counts,
        }
        if timings:
            out["total_seconds"] = round(self.total_seconds, 3)
        return out

    def to_table(self, timings: bool = False) -> str:
        idw = max([len(r.claim_id) for r in self.records] + [8])
        secw = max([len(r.section) for r in self.records] + [7])
        stw = len(DISCREPANCY)
        lines = [
            f"{'CLAIM':<{idw}}  {'SECTION':<{secw}}  {'STATUS':<{stw}}  DETAIL",
            "-" * (idw + secw + stw + 12),
        ]
        for r in self.records:
            detail = r.actual if len(r.actual) <= 72 else r.actual[:69] + "..."
            row = f"{r.claim_id:<{idw}}  {r.section:<{secw}}  {r.status:<{stw}}  {detail}"
            if timings:
                row += f"  [{r.seconds:.2f}s]"
            lines.append(row)
        c = self.counts
        lines.append("-" * (idw + secw + stw + 12))
        lines.append(
            f"{len(self.records)} claims: {c[PASS]} pass, "
            f"{c[DISCREPANCY]} discrepancy-documented, {c[FAIL]} fail"
        )
        return "\n".join(lines)


Outcome = Tuple[str, str, str, str]  # expected, actual, status, notes


@dataclass(frozen=True)
class Claim:
    claim_id: str
    section: str
    quote: str
    fn: Callable[[RunConfig], Outcome]


def _grid(mmax: int = 3, nmax: int = 3) -> List[Tuple[int, int]]:
    return [(m, n) for m in range(1, mmax + 1) for n in range(1, nmax + 1)]


def _identity_with_points(
    pres: AlgebraPresentation,
    diff: RingElement,
    cfg: RunConfig,
    salt: int,
) -> Tuple[bool, int, bool]:
    """(symbolically zero, number of vanishing sample points, oracles agree).

    Agreement means: symbolically zero iff the difference vanishes at every
    sampled point.  A nonzero function may still vanish at isolated samples.
    """
    symbolic = diff.is_zero()
    zeros = 0
    for k in range(cfg.points):
        pt = sample_point(pres, seed=cfg.seed * 1_000_003 + salt * 307 + k)
        if diff.evaluate(pt) == 0:
            zeros += 1
    agree = symbolic == (zeros == cfg.points)
    return symbolic, zeros, agree


def _verdict(expected: str, ok_text: str, bad: list, bad_label: str = "failures") -> Outcome:
    """Pass when no case went wrong; otherwise fail, listing the bad cases."""
    if bad:
        return expected, f"{bad_label} {bad}", FAIL, ""
    return expected, ok_text, PASS, ""


def _residual_outcome(
    pres, diff: RingElement, cfg: RunConfig, salt: int, expected: str
) -> Outcome:
    symbolic, zeros, agree = _identity_with_points(pres, diff, cfg, salt)
    if not agree:
        return (
            expected,
            f"symbolic zero={symbolic} but {zeros}/{cfg.points} points vanish",
            FAIL,
            "symbolic and evaluation oracles disagree: engine bug",
        )
    if symbolic:
        return expected, f"holds symbolically and at {cfg.points} points", PASS, ""
    return (
        expected,
        f"residual = {diff.render()}",
        DISCREPANCY,
        f"identity fails; residual vanishes at {zeros}/{cfg.points} sample points",
    )


# -- derivation / action claims -------------------------------------------------


def _c_derivation_descends(cfg: RunConfig) -> Outcome:
    bad = []
    for m, n in _grid():
        pres, d = catalog.xmn(m, n)
        if not descends_to_quotient(d):
            bad.append((m, n))
    return _verdict("descends on the whole grid", "descends for all m, n <= 3", bad, "fails at")


def _c_relation_invariant(cfg: RunConfig) -> Outcome:
    bad = []
    for m, n in _grid():
        pres, d = catalog.xmn(m, n)
        lhs = d.apply(parse_poly(f"x^{m}*v - y^{n}*u", pres.variables))
        if not lhs.is_zero():
            bad.append((m, n))
    return _verdict("delta(x^m v - y^n u) = 0", "vanishes for all m, n <= 3", bad, "nonzero at")


def _c_nilpotency_indices(cfg: RunConfig) -> Outcome:
    expected = {"x": 1, "y": 1, "u": 2, "v": 2}
    bad = []
    for m, n in _grid():
        pres, d = catalog.xmn(m, n)
        cert = nilpotency_certificate(d, bound=cfg.nilpotency_bound)
        if cert.indices != expected:
            bad.append((m, n, cert.indices))
    return _verdict("indices u:2 v:2 x:1 y:1", "indices match on the whole grid", bad, "mismatch")


def _c_exponential_formula(cfg: RunConfig) -> Outcome:
    bad = []
    for m, n in _grid():
        pres, d = catalog.xmn(m, n)
        act = exponential(d, "t")
        ring = act.ring
        t = ring.var("t")
        want = {
            "x": ring.var("x"),
            "y": ring.var("y"),
            "u": ring.var("u") + t * ring.element(Poly.monomial(mono(x=m))),
            "v": ring.var("v") + t * ring.element(Poly.monomial(mono(y=n))),
        }
        if any(act.images[g] != want[g] for g in pres.variables):
            bad.append((m, n))
    return _verdict(
        "exp(t delta) = (x, y, u + t x^m, v + t y^n)",
        "exact match on the whole grid",
        bad,
        "mismatch at",
    )


def _c_kernel_xy(cfg: RunConfig) -> Outcome:
    bad = []
    for m, n in _grid():
        pres, d = catalog.xmn(m, n)
        ok = (
            kernel_member(d, "x")
            and kernel_member(d, "y")
            and not kernel_member(d, "u")
            and not kernel_member(d, "v")
        )
        if not ok:
            bad.append((m, n))
    return _verdict(
        "x, y generate the invariants; u, v are not invariant",
        "kernel membership as expected on the grid",
        bad,
        "mismatch",
    )


def _c_slice_localized(cfg: RunConfig) -> Outcome:
    bad = []
    for m, n in _grid():
        pres = catalog.xmn_presentation(m, n, inverted=["x"])
        d = catalog.translation_derivation(pres, m, n)
        s = pres.element(f"u*x^-{m}")
        if not is_slice(d, s):
            bad.append((m, n))
        if is_slice(catalog.xmn(m, n)[1], "u"):
            bad.append((m, n, "unlocalized u is not a slice"))
    return _verdict("u / x^m is a slice after inverting x", "slice found on every chart", bad)


def _action_axioms(action_of: Callable, law: GroupLaw, expected: str) -> Outcome:
    bad = []
    for m, n in _grid():
        rep = verify_action(action_of(m, n), law)
        if not rep.passed:
            bad.append((m, n, [c.name for c in rep.failures()]))
    return _verdict(expected, "identity, relations, composition verified", bad)


def _c_ga_action_axioms(cfg: RunConfig) -> Outcome:
    return _action_axioms(catalog.ga_action, GroupLaw.additive(), "additive action axioms hold")


def _c_gm_action_axioms(cfg: RunConfig) -> Outcome:
    return _action_axioms(catalog.gm_action, GroupLaw.multiplicative(), "scaling action axioms hold")


def _c_gd_twist(cfg: RunConfig) -> Outcome:
    bad = []
    for m, n in _grid():
        rep = verify_action(catalog.gd_action(m, n), GroupLaw.semidirect(m + n))
        if not rep.passed:
            bad.append((m, n, {c.name: c.residuals for c in rep.failures()}))
    return _verdict("semidirect axioms including the twist identity", "all checks pass on the grid", bad)


def _c_gd_group_law(cfg: RunConfig) -> Outcome:
    g = [(Poly.variable(f"l{i}"), Poly.variable(f"t{i}")) for i in range(1, 4)]
    bad = []
    for d in range(1, 7):
        law = GroupLaw.semidirect(d)
        if law.product(law.product(g[0], g[1]), g[2]) != law.product(g[0], law.product(g[1], g[2])):
            bad.append((d, "associativity"))
        if law.product(g[0], law.inverse(g[0])) != law.identity():
            bad.append((d, "inverse"))
        if law.product(law.identity(), g[1]) != g[1]:
            bad.append((d, "identity"))
    return _verdict(
        "group axioms for d <= 6, symbolically", "associativity, identity, inverses verified", bad
    )


def _c_cocycle_basis(cfg: RunConfig) -> Outcome:
    bad = []
    for m, n in _grid():
        g = Poly.monomial(mono(x=-m, y=-n))
        cls = cech.class_of(g)
        if cls.as_dict() != {(m, n): 1}:
            bad.append((m, n))
        ok, _ = cech.is_coboundary(g)
        if ok:
            bad.append((m, n, "basis cocycle reported trivial"))
    return _verdict(
        "x^-m y^-n are nontrivial basis classes", "classes {(m,n): 1}, all nontrivial", bad
    )


def _c_action_cocycle(cfg: RunConfig) -> Outcome:
    bad = []
    for m, n in _grid():
        pres, d = catalog.xmn(m, n)
        rep = cech.action_cocycle(pres, d, ["u", "v"], chart_vars=("x", "y"))
        cls = rep.classes[(0, 1)]
        if cls is None or cls.as_dict() != {(m, n): Fraction(-1)}:
            bad.append((m, n, None if cls is None else cls.as_dict()))
        if not rep.invariant:
            bad.append((m, n, "difference not delta-invariant"))
    return _verdict(
        "u/x^m - v/y^n has class -x^-m y^-n",
        "computed class {(m,n): -1} with certified unit ideal",
        bad,
    )


def _c_trivialization(cfg: RunConfig) -> Outcome:
    bad = []
    for m, n in _grid():
        rep = p1bundles.verify_trivialization(m, n, points=cfg.points, seed=cfg.seed)
        if not rep.passed:
            bad.append((m, n))
    return _verdict(
        "L2 = u1 L1 and T2 = u1^m + u1^d T1, with invariances",
        f"verified symbolically and at {cfg.points} points per case",
        bad,
    )


def _c_sdm_transition(cfg: RunConfig) -> Outcome:
    bad = []
    for m, n in _grid():
        sdm = p1bundles.sdm_from_mn(m, n)
        if sdm.d != m + n or sdm.torsor.phi != Poly.monomial(mono(u=m)):
            bad.append((m, n))
    tc = p1bundles.torsor_class(p1bundles.sdm_from_mn(2, 2).torsor)
    if tc.coefficients != (0, 1, 0):
        bad.append(("class of S_{4,2}", tc.coefficients))
    return _verdict(
        "d = m + n, translation part u^m",
        "transition (uL, u^d T + u^m) reproduced; S_{4,2} class (0,1,0)",
        bad,
    )


def _c_generator_involution(cfg: RunConfig) -> Outcome:
    bad = [(m, n) for m, n in _grid() if not p1bundles.generator_involution_check(m, n)]
    return _verdict(
        "fiber inversion carries the opposite-generator bundle to the original",
        "checked on the grid",
        bad,
    )


def _c_splitting_grid(cfg: RunConfig) -> Outcome:
    bad = []
    for m in range(1, 6):
        for n in range(1, m + 1):
            M = p1bundles.transition_matrix(m, n)
            b = p1bundles.birkhoff_split(M).splitting
            h = p1bundles.splitting_by_h0_scan(M)
            if b != h or (b.a1, b.a2) != (-n, -m) or b.hirzebruch_index != m - n:
                bad.append((m, n, (b.a1, b.a2), (h.a1, h.a2)))
    return _verdict(
        "splitting (-n, -m) by factorization and by h0 scan; index 2m - d",
        "both methods agree on the whole grid",
        bad,
    )


def _c_lemma_normalization(cfg: RunConfig) -> Outcome:
    rows = []
    discrepant = []
    for m in range(1, 6):
        for n in range(1, m + 1):
            M = p1bundles.transition_matrix(m, n)
            got = p1bundles.h0_twist(M, m - 1)[0]
            rows.append(f"(m={m},n={n}): h0(E(m-1)) = {got}")
            if got != 0:
                if got != m - n:
                    return (
                        "h0(E tensor O(m-1)) = 0",
                        f"unexpected value {got} at (m={m},n={n})",
                        FAIL,
                        "",
                    )
                discrepant.append((m, n, got))
    if discrepant:
        return (
            "h0(E tensor O(m-1)) = 0",
            "; ".join(rows),
            DISCREPANCY,
            "claim fails for m > n where h0 = m - n; the normalized twist is by n, "
            "not m; the concluding surface F_(2m-d) is unaffected",
        )
    return ("h0(E tensor O(m-1)) = 0", "; ".join(rows), PASS, "")


def _c_lemma_j_equals_m_section(cfg: RunConfig) -> Outcome:
    bad = []
    for m in range(1, 6):
        for n in range(1, m + 1):
            M = p1bundles.transition_matrix(m, n).twist(m)
            g = (Poly.zero(), Poly.const(1))
            h1 = M.entries[0][0] * g[0] + M.entries[0][1] * g[1]
            h2 = M.entries[1][0] * g[0] + M.entries[1][1] * g[1]
            want_h1 = Poly.const(1)
            want_h2 = Poly.monomial(mono(u=-m))
            dim = p1bundles.h0_twist(p1bundles.transition_matrix(m, n), m)[0]
            if h1 != want_h1 or h2 != want_h2 or dim < 1:
                bad.append((m, n))
    return _verdict(
        "g = (0,1), h = (1, u^-m) is a section at twist m",
        "explicit section verified; h0(E(m)) >= 1 on the grid",
        bad,
    )


def _c_lemma_mj_display(cfg: RunConfig) -> Outcome:
    # second row of M_(m-1) applied to g is u^(1-m) g2; the displayed formula
    # u (u^(d-m) g1 + g2) disagrees for every m, n >= 1
    m, n = 3, 1
    d = m + n
    Mj = p1bundles.transition_matrix(m, n).twist(m - 1)
    g1, g2 = Poly.variable("g1"), Poly.variable("g2")
    from_matrix = Mj.entries[1][0] * g1 + Mj.entries[1][1] * g2
    displayed = Poly.variable("u") * (Poly.monomial(mono(u=d - m)) * g1 + g2)
    if from_matrix == displayed:
        return (
            "h2 = u (u^(d-m) g1 + g2)",
            "displayed formula matches the matrix row",
            PASS,
            "",
        )
    return (
        "h2 = u (u^(d-m) g1 + g2)",
        f"matrix row gives h2 = {render_poly(from_matrix)}; display gives {render_poly(displayed)}",
        DISCREPANCY,
        "the displayed pair at twist m-1 is inconsistent with the displayed "
        "twisted matrix; the h0 profile is computed from the matrix",
    )


def _c_h0_profile(cfg: RunConfig) -> Outcome:
    m, n = 3, 1
    M = p1bundles.transition_matrix(m, n)
    d = m + n
    profile = {j: p1bundles.h0_twist(M, j)[0] for j in range(-1, d + 1)}
    expected = {j: max(0, -n + j + 1) + max(0, -m + j + 1) for j in range(-1, d + 1)}
    status = PASS if profile == expected else FAIL
    return (
        "h0 profile of twists matches the split model O(-n) + O(-m)",
        f"profile j=-1..{d}: {sorted(profile.items())}",
        status,
        "",
    )


def _c_theorem_self_intersection(cfg: RunConfig) -> Outcome:
    bad = []
    for m in range(1, 6):
        for n in range(1, m + 1):
            cls, sq = surfaces.sdm_boundary_class(m, n)
            if sq != m + n:
                bad.append((m, n, sq))
            c = surfaces.hirzebruch(m - n).divisor(1, 0)
            if surfaces.self_intersection(c) != (m + n) - 2 * m:
                bad.append((m, n, "special section square"))
    return _verdict("(C + mF)^2 = d and C^2 = d - 2m on F_(2m-d)", "holds for 1 <= n <= m <= 5", bad)


def _c_scroll_delta(cfg: RunConfig) -> Outcome:
    bad = []
    for m in range(1, 6):
        for n in range(1, m + 1):
            s = surfaces.scroll(m, n)
            if surfaces.intersect(surfaces.section_v_class(s), surfaces.section_u_class(s)) != 0:
                bad.append((m, n, "C_v . C_u"))
            if surfaces.self_intersection(surfaces.delta_class(s)) != m + n:
                bad.append((m, n, "delta square"))
    return _verdict("C_v . C_u = 0 and boundary square m + n", "holds for 1 <= n <= m <= 5", bad)


def _c_three_way_consistency(cfg: RunConfig) -> Outcome:
    bad = []
    for m in range(1, 7):
        for n in range(1, m + 1):
            sq1 = surfaces.sdm_boundary_class(m, n)[1]
            sq2 = surfaces.self_intersection(surfaces.delta_class(surfaces.scroll(m, n)))
            idx = p1bundles.birkhoff_split(p1bundles.transition_matrix(m, n)).splitting.hirzebruch_index
            if not (sq1 == sq2 == m + n and idx == m - n):
                bad.append((m, n))
    return _verdict(
        "boundary squares agree and the splitting index is m - n",
        "three independent computations agree for n <= m <= 6",
        bad,
    )


def _c_classify_theorem(cfg: RunConfig) -> Outcome:
    cases = [
        ((2, 2, 3, 1), "IsomorphicByTheorem"),
        ((2, 1, 1, 2), "IsomorphicByTheorem"),
        ((2, 2, 2, 1), "Inconclusive"),
    ]
    bad = []
    for args, want in cases:
        got = surfaces.classify_xmn(*args).verdict
        if got != want:
            bad.append((*args, got))
    return _verdict(
        "equal d gives isomorphy; no converse claimed",
        "X_{2,2} ~ X_{3,1}; swap symmetry; unequal d inconclusive",
        bad,
        "mismatch",
    )


def _c_xfg_classification(cfg: RunConfig) -> Outcome:
    bad = []
    r = surfaces.classify_xfg(parse_poly("x^2 + y^2"), parse_poly("y^3"))
    if (r.m, r.n, r.resultant_nonzero, r.delta_square) != (2, 3, True, 5):
        bad.append(("x^2+y^2", "y^3", (r.m, r.n), r.resultant_nonzero, r.delta_square))
    r = surfaces.classify_xfg(parse_poly("x^3"), parse_poly("y^2"))
    if (r.m, r.n) != (3, 2):
        bad.append(("x^3", "y^2", (r.m, r.n)))
    try:
        surfaces.classify_xfg(parse_poly("x*y"), parse_poly("x^2"))
        bad.append(("x*y", "x^2", "no common-zero error"))
    except surfaces.CommonZeroError:
        pass
    return _verdict(
        "X_{f,g} reduces to the pure-power model when V(f,g) = {0}",
        "(x^2+y^2, y^3) -> degrees (2,3), boundary square 5; common-zero diagnosis raised",
        bad,
    )


def _c_affineness_base(cfg: RunConfig) -> Outcome:
    cert = cech.affineness_certificate(cech.NormalFormMNP(2, 2, Poly.const(1)))
    status = PASS if cert.outcome == "HypersurfaceInA4" and cert.steps == 0 else FAIL
    return ("p(0,0) != 0 gives the closed hypersurface", f"outcome {cert.outcome}", status, "")


def _c_affineness_case1(cfg: RunConfig) -> Outcome:
    cert = cech.affineness_certificate(cech.NormalFormMNP(2, 2, Poly.variable("x")))
    ok = (
        cert.outcome == "UnitCertificate"
        and len(cert.trace) == 1
        and cert.trace[0].a == 1
        and cert.q0 == Poly.const(1)
        and cert.trace[0].witness_power == 1
    )
    status = PASS if ok else FAIL
    return (
        "p = x: one Case 1 step with a = 1, q0 = 1",
        f"trace {describe_trace(cert)}; witness power {cert.trace[0].witness_power}",
        status,
        "",
    )


def _c_affineness_case2(cfg: RunConfig) -> Outcome:
    cert = cech.affineness_certificate(
        cech.NormalFormMNP(2, 2, parse_poly("x*y", ("x", "y")))
    )
    names = [type(s).__name__ for s in cert.trace]
    ok = (
        names == ["Case2Step", "Case1Step"]
        and cert.trace[0].b == 1
        and cert.trace[0].new_n == 1
        and cert.trace[1].a == 1
        and cert.q0 == Poly.const(1)
    )
    status = PASS if ok else FAIL
    return (
        "p = xy: Case 2 (b = 1) then Case 1 (a = 1, q0 = 1)",
        f"trace {describe_trace(cert)}",
        status,
        "",
    )


def _c_affineness_grid(cfg: RunConfig) -> Outcome:
    summary = sweeps.affineness_sweep(max_m=2, max_n=2)
    extra = sweeps.affineness_sweep_block(3, 3, limit=500)
    total = summary.total + extra.count
    return (
        "all certificates terminate with q0(0) != 0 and verified witnesses",
        f"{total} certificates verified (full grid m,n <= 2 plus a 500-case "
        f"slice of (3,3)); max trace length {max(extra.max_steps, *(b.max_steps for b in summary.blocks.values()))}",
        PASS,
        "the exhaustive m,n <= 3 sweep runs in the acceptance suite",
    )


def _c_section2_index_convention(cfg: RunConfig) -> Outcome:
    # the other convention's relation, for sample exponents (m, n) = (2, 3),
    # is exactly the uniform one with the exponent labels exchanged
    other = parse_poly("x^3*v - y^2*u - 1", catalog.XMN_VARS)
    relabeled = catalog.xmnp_relation(3, 2, Poly.const(1))
    same = other == relabeled
    return (
        "x^n v - y^m u - p(x, y)",
        "the display pairs the x-exponent with n while its normal form bounds "
        "deg_x p < m; the workbench fixes x^m v - y^n u - p throughout, and "
        "the displayed convention is this one with m and n relabeled"
        + ("" if same else " (relabeling check failed)"),
        DISCREPANCY if same else FAIL,
        "pure relabeling; all computations use the uniform convention",
    )


def _c_zmnk_family(cfg: RunConfig) -> Outcome:
    bad = []
    details = []
    for (m, n, k) in [(1, 1, 1), (2, 1, 1), (2, 2, 1), (1, 1, 2)]:
        pres, d = catalog.zmnk_presentation(m, n, k)
        desc = descends_to_quotient(d)
        rep = smoothness_check(pres, puncture=("x", "y", "z"), power_bound=cfg.power_bound)
        details.append(f"Z({m},{n},{k}): {rep.verdict.value}")
        if not desc or rep.verdict.value != "SmoothOffPuncture":
            bad.append((m, n, k, desc, rep.verdict.value))
    return _verdict("derivation descends; smooth away from the puncture", "; ".join(details), bad)


# -- the worked X_{2,2} example -------------------------------------------------


def _c_example_kernel_a(cfg: RunConfig) -> Outcome:
    ex = catalog.a22_example()
    da = ex.derivation.apply(ex.a)
    expected = "delta(a) = 0"
    a3 = ex.a * ex.a * ex.a
    candidate = ex.ring.element(a3.scale(Fraction(-1, 6)))
    outcome = _residual_outcome(ex.ring, da, cfg, salt=1, expected=expected)
    if outcome[2] == DISCREPANCY and da == candidate:
        return (
            expected,
            "delta(a) = -a^3/6 (computed exactly)",
            DISCREPANCY,
            outcome[3] + "; matches the pre-registered residual -a^3/6",
        )
    return outcome


def _c_example_kernel_b(cfg: RunConfig) -> Outcome:
    ex = catalog.a22_example()
    db = ex.derivation.apply(ex.b)
    return _residual_outcome(ex.ring, db, cfg, salt=2, expected="delta(b) = 0")


def _c_example_delta_section(cfg: RunConfig) -> Outcome:
    ex = catalog.a22_example()
    s1, _ = ex.cocycle_chart_functions
    diff = ex.derivation.apply(s1) - ex.ring.element(ex.a * ex.a * ex.a)
    return _residual_outcome(
        ex.ring, diff, cfg, salt=3, expected="delta(y + a + ab) = a^3"
    )


def _c_example_delta_w(cfg: RunConfig) -> Outcome:
    ex = catalog.a22_example()
    diff = ex.derivation.apply(ex.w) - ex.ring.element(ex.b)
    return _residual_outcome(ex.ring, diff, cfg, salt=4, expected="delta(w) = b")


def _c_example_descends(cfg: RunConfig) -> Outcome:
    ex = catalog.a22_example()
    desc = descends_to_quotient(ex.derivation)
    try:
        cert = nilpotency_certificate(ex.derivation, bound=cfg.nilpotency_bound)
        nil = f"nilpotent with indices {cert.indices}"
    except NotNilpotentWithinBound as e:
        nil = f"not nilpotent within bound {e.bound} (tower of {e.variable!r} persists)"
    if desc:
        return ("extends to a locally nilpotent derivation", f"descends; {nil}", PASS, "")
    resid = ex.derivation.apply_poly(ex.ring.relations[0])
    return (
        "extends to a locally nilpotent derivation",
        f"does not descend: delta(relation) = {resid.render()}; {nil}",
        DISCREPANCY,
        "the printed images do not map the relation into its ideal",
    )


def _c_example_unit_ideal(cfg: RunConfig) -> Outcome:
    ex = catalog.a22_example()
    a3 = ex.a * ex.a * ex.a
    cert = unit_ideal_test(ex.ring, [a3, ex.b])
    if cert.ok:
        return (
            "(a^3, b) is the unit ideal",
            "certified: explicit cofactors expand to 1",
            PASS,
            "",
        )
    return ("(a^3, b) is the unit ideal", "not the unit ideal", DISCREPANCY, "")


def _c_example_cocycle_identity(cfg: RunConfig) -> Outcome:
    ex = catalog.a22_example()
    s1, w = ex.cocycle_chart_functions
    a3 = ex.a * ex.a * ex.a
    diff = (
        ex.ring.element(ex.b) * ex.ring.element(s1)
        - ex.ring.element(a3) * ex.ring.element(w)
        - ex.ring.one()
    )
    return _residual_outcome(
        ex.ring, diff, cfg, salt=5, expected="b (y + a + ab) - a^3 w = 1"
    )


def _c_example_cocycle_class(cfg: RunConfig) -> Outcome:
    display = parse_poly("a^-3*b^-1", ("a", "b"))
    sentence = parse_poly("a^-3*b", ("a", "b"))
    cls_display = cech.class_of(display, "a", "b")
    cls_sentence = cech.class_of(sentence, "a", "b")
    ok_display = cls_display.as_dict() == {(3, 1): Fraction(1)}
    ok_sentence_trivial = cls_sentence.is_trivial()
    ex = catalog.a22_example()
    s1, w = ex.cocycle_chart_functions
    try:
        cech.action_cocycle(ex.ring, ex.derivation, [s1, w])
        construction = "cocycle construction from the printed derivation succeeded"
    except cech.ActionCocycleError as e:
        construction = f"cocycle construction from the printed derivation fails ({e})"
    if ok_display and ok_sentence_trivial:
        return (
            "the bundle class is 1/(a^3 b), also written x^-3 y",
            "class of 1/(a^3 b) is {(3,1): 1}; a^-3 b is a coboundary, so the "
            "earlier sentence names a trivial cocycle",
            DISCREPANCY,
            "the displayed fraction matches the two-chart class model; the "
            f"sentence's exponent pattern does not; {construction}",
        )
    return (
        "the bundle class is 1/(a^3 b)",
        f"display class {cls_display.as_dict()}, sentence trivial: {ok_sentence_trivial}",
        FAIL,
        construction,
    )


def describe_trace(cert: cech.AffinenessCertificate) -> str:
    parts = []
    for s in cert.trace:
        if isinstance(s, cech.Case2Step):
            parts.append(f"Case2(b={s.b}, n->{s.new_n})")
        else:
            parts.append(f"Case1(a={s.a}, q0={render_poly(s.q0)}, k={s.witness_power})")
    return " -> ".join(parts) if parts else "(empty)"


CLAIMS: List[Claim] = [
    Claim("xmn-derivation-descends", "S1-example-1", "u\\mapsto x^{m}\\mapsto 0", _c_derivation_descends),
    Claim("xmn-relation-invariant", "S1", "$x^{m}v-y^{n}u=1$ is an invariant", _c_relation_invariant),
    Claim("xmn-nilpotency-indices", "S1", "locally nilpotent derivation $\\delta $", _c_nilpotency_indices),
    Claim("xmn-exponential-formula", "S1", "t(x,y,u,v)=(x,y,u+tx^{m},v+ty^{n})", _c_exponential_formula),
    Claim("xmn-kernel-xy", "S1-example-1", "C_{0}=\\mathbb{C}[x,y]", _c_kernel_xy),
    Claim("xmn-slice-localized", "S1", "Such a function is called a slice", _c_slice_localized),
    Claim("xmn-ga-action-axioms", "S3", "(t,(x,y,u,v)) &\\longmapsto &(x,y,u+tx^{m},v+ty^{n})", _c_ga_action_axioms),
    Claim("xmn-gm-action-axioms", "S3", "^{-n}u,\\lambda ^{-m}v).", _c_gm_action_axioms),
    Claim("xmn-gd-twist", "S3", "\\theta ((\\lambda ,\\lambda ^{-(m+n)}t),(x,y,u,v))", _c_gd_twist),
    Claim("gd-group-law", "S3", "t+\\lambda ^{d}t^{\\prime }", _c_gd_group_law),
    Claim("cocycle-basis", "S1-example-1", "correspond to the \\v{C}ech 1-cocycles $x^{-m}y^{-n}$", _c_cocycle_basis),
    Claim("xmn-action-cocycle", "S1", "defines the structure of $\\pi :X\\rightarrow U$", _c_action_cocycle),
    Claim("trivialization-identities", "S3", "(u_{1},T_{1},L_{1})=(yx^{-1},x^{n}u,x)", _c_trivialization),
    Claim("sdm-transition", "S3-proposition", "(L,T)\\longmapsto (uL,u^{m+n}T+u^{m})", _c_sdm_transition),
    Claim("generator-involution", "S3", "$\\tilde{L}=L^{-1}$", _c_generator_involution),
    Claim("splitting-grid", "S3-lemma", "surface $\\mathbb{F}_{2m-d}$", _c_splitting_grid),
    Claim("lemma-normalization-claim", "S3-lemma", "which is impossible as $d>m$", _c_lemma_normalization),
    Claim("lemma-j-equals-m-section", "S3-lemma", "For $j=m$ we have, for example", _c_lemma_j_equals_m_section),
    Claim("lemma-mj-display", "S3-lemma", "h_{2} &=&u(u^{d-m}g_{1}+g_{2})", _c_lemma_mj_display),
    Claim("h0-profile", "S3-lemma", "u^{d-j} & u^{m-j}", _c_h0_profile),
    Claim("theorem-self-intersection-grid", "S3-theorem", "(C+mF)^{2}=C^{2}+2mC.F=-(2m-d)+2m=d", _c_theorem_self_intersection),
    Claim("scroll-delta-grid", "S4", "\\Delta _{f,g}^{2}=\\left( mL+C_{v}\\right) \\cdot \\left( nL+C_{u}\\right) =m+n", _c_scroll_delta),
    Claim("three-way-consistency", "S4", "\\mathbb{F}_{\\left\\vert m-n\\right\\vert }", _c_three_way_consistency),
    Claim("classify-xmn-theorem", "S3-theorem", "Let $d=p+q=m+n.$ Then $X_{m,n}\\cong X_{p,q}$ as abstract varieties.", _c_classify_theorem),
    Claim("classify-xfg", "S4-proposition", "$X_{f,g}$ is isomorphic to $X_{m,n}$", _c_xfg_classification),
    Claim("affineness-base-case", "S2", "If $p(0,0)\\neq 0$ then $X(m,n,p)$ is the zero locus", _c_affineness_base),
    Claim("affineness-case1", "S2", "be the multiplicity of $0$", _c_affineness_case1),
    Claim("affineness-case2", "S2", "Replace $A$ with $A^{\\prime }", _c_affineness_case2),
    Claim("affineness-grid", "S2", "IT_{I}(A)=T_{I}(A)", _c_affineness_grid),
    Claim("section2-index-convention", "S2", "A=\\mathbb{C}[x,y,u,v]/(x^{n}v-y^{m}u-p(x,y))", _c_section2_index_convention),
    Claim("zmnk-family", "S1-example-2", "x^{m}v-y^{n}u-z^{k}=0", _c_zmnk_family),
    Claim("example-x22-descends", "S3-example", "extends to a locally nilpotent $\\mathbb{C}$-derivation", _c_example_descends),
    Claim("example-x22-kernel-a", "S3-example", "with $a,b\\in \\ker (\\delta )$", _c_example_kernel_a),
    Claim("example-x22-kernel-b", "S3-example", "with $a,b\\in \\ker (\\delta )$", _c_example_kernel_b),
    Claim("example-x22-delta-section", "S3-example", "\\delta (y+a+ab)=a^{3}", _c_example_delta_section),
    Claim("example-x22-delta-w", "S3-example", "\\delta (w)=b", _c_example_delta_w),
    Claim("example-x22-unit-ideal", "S3-example", "(a^{3},b)A_{2,2}=A_{2,2}", _c_example_unit_ideal),
    Claim("example-x22-cocycle-identity", "S3-example", "\\frac{y+a+ab}{a^{3}}-\\frac{w}{b}=\\frac{1}{a^{3}b}", _c_example_cocycle_identity),
    Claim("example-x22-cocycle-class", "S3", "x^{-3}y", _c_example_cocycle_class),
]


def run_claims(cfg: Optional[RunConfig] = None, only: Optional[Sequence[str]] = None) -> Report:
    cfg = cfg or RunConfig()
    chosen = CLAIMS if not only else [c for c in CLAIMS if c.claim_id in set(only)]
    if only and len(chosen) != len(set(only)):
        known = {c.claim_id for c in CLAIMS}
        missing = sorted(set(only) - known)
        raise KeyError(f"unknown claim ids: {missing}")

    def run_one(claim: Claim) -> ClaimRecord:
        t0 = time.perf_counter()
        try:
            expected, actual, status, notes = claim.fn(cfg)
        except Exception as e:  # noqa: BLE001 - claim isolation is the point
            expected, actual, status, notes = (
                "(engine run)",
                f"{type(e).__name__}: {e}",
                FAIL,
                "claim computation raised",
            )
        return ClaimRecord(
            claim_id=claim.claim_id,
            section=claim.section,
            quote=claim.quote,
            expected=expected,
            actual=actual,
            status=status,
            seconds=time.perf_counter() - t0,
            notes=notes,
        )

    t0 = time.perf_counter()
    records = [run_one(c) for c in chosen]
    return Report(records=records, seed=cfg.seed, total_seconds=time.perf_counter() - t0)

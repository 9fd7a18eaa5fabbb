"""Reference checks for the benchmark, in plain Python.

Nothing here imports ``gawb``: every expected value is computed from the
plain input data (coefficient dicts, integers, text) by a closed form or a
property, never from a stored copy of the program's output.

A polynomial is a dict ``{mono: coeff}``; a monomial is a tuple of
``(variable, exponent)`` pairs sorted by variable with nonzero exponents;
coefficients are ``int`` or ``Fraction`` and never zero.  Every ``check_*``
function returns ``None`` or raises ``CheckFailed``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

Mono = Tuple[Tuple[str, int], ...]
Plain = Dict[Mono, Fraction]


class CheckFailed(AssertionError):
    pass


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# -- plain polynomial arithmetic -------------------------------------------------


def mono_of(**exps: int) -> Mono:
    return tuple(sorted((v, e) for v, e in exps.items() if e))


def mono_times(a: Mono, b: Mono) -> Mono:
    d = dict(a)
    for v, e in b:
        d[v] = d.get(v, 0) + e
    return tuple(sorted((v, e) for v, e in d.items() if e))


def padd(*polys: Plain) -> Plain:
    out: Dict[Mono, Fraction] = {}
    for p in polys:
        for m, c in p.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def pscale(p: Plain, c) -> Plain:
    return {m: k * c for m, k in p.items() if k * c}


def pmul(p: Plain, q: Plain) -> Plain:
    out: Dict[Mono, Fraction] = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = mono_times(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def exps(m: Mono, *variables: str) -> Tuple[int, ...]:
    d = dict(m)
    return tuple(d.get(v, 0) for v in variables)


def xy_dict(p: Plain) -> Dict[Tuple[int, int], Fraction]:
    """{(i, j): c} for a polynomial in x, y."""
    return {exps(m, "x", "y"): c for m, c in p.items()}


def from_xy(d: Dict[Tuple[int, int], Fraction]) -> Plain:
    return {mono_of(x=i, y=j): c for (i, j), c in d.items() if c}


def text_of(p: Plain) -> str:
    """Input text in the program's grammar, terms in the given dict order."""
    if not p:
        return "0"
    parts = []
    for m, c in p.items():
        factors = [v if e == 1 else f"{v}^{e}" for v, e in m]
        ac = abs(c)
        if not factors:
            body = str(ac)
        elif ac == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(ac)] + factors)
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(parts)


_COEFF = re.compile(r"^\d+(/\d+)?$")
_FACTOR = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(\^(-?\d+))?$")


def parse_rendered(text: str) -> Plain:
    """Parse the program's canonical rendering: ``c*x^e*... +/- ...``.

    Accepts only that form (signed terms separated by single spaces, no
    parentheses), so any drift in the rendering is reported, not absorbed.
    """
    text = text.strip()
    if text == "0":
        return {}
    toks = text.split(" ")
    items: List[Tuple[int, str]] = []
    first = toks[0]
    items.append((-1, first[1:]) if first.startswith("-") else (1, first))
    rest = toks[1:]
    expect(len(rest) % 2 == 0, f"malformed rendering {text!r}")
    for op, body in zip(rest[0::2], rest[1::2]):
        expect(op in ("+", "-"), f"malformed operator {op!r} in {text!r}")
        items.append((1 if op == "+" else -1, body))
    out: Dict[Mono, Fraction] = {}
    for sign, body in items:
        factors = body.split("*")
        coeff = Fraction(1)
        if _COEFF.match(factors[0]):
            coeff = Fraction(factors[0])
            factors = factors[1:]
        d: Dict[str, int] = {}
        for f in factors:
            mt = _FACTOR.match(f)
            expect(mt is not None, f"malformed factor {f!r} in {text!r}")
            v = mt.group(1)
            expect(v not in d, f"repeated variable {v!r} in {text!r}")
            d[v] = int(mt.group(3)) if mt.group(3) else 1
        m = tuple(sorted(d.items()))
        expect(m not in out and coeff != 0, f"repeated or zero term in {text!r}")
        out[m] = sign * coeff
    return out


def check_same_poly(got_text: str, want: Plain, what: str) -> None:
    got = parse_rendered(got_text)
    expect(got == want, f"{what}: got {got_text!r}, expected {text_of(want)!r}")


# -- affineness certificates -------------------------------------------------------


def expected_trace(m: int, n: int, p: Dict[Tuple[int, int], int]) -> List[tuple]:
    """The Case 2 / Case 1 recursion from p's coefficients alone.

    Case 2 strips y^b (b = least y-exponent) while the y-free part is 0 and
    lowers n by b; Case 1 ends with a = least x-exponent of the y-free part
    and q0 = that part divided by x^a.  Returns ``[("case2", b, new_n),
    ..., ("case1", a, q0)]`` with q0 as ``{(i, 0): c}``.
    """
    steps: List[tuple] = []
    cur = dict(p)
    cur_n = n
    while True:
        y_free = {i: c for (i, j), c in cur.items() if j == 0}
        if not y_free:
            b = min(j for (_, j) in cur)
            cur_n -= b
            cur = {(i, j - b): c for (i, j), c in cur.items()}
            steps.append(("case2", b, cur_n))
            continue
        a = min(y_free)
        steps.append(("case1", a, {(i - a, 0): c for i, c in y_free.items()}))
        return steps


def check_certificate(m: int, n: int, p: Dict[Tuple[int, int], int], cert: dict) -> None:
    """cert: {"outcome", "steps": [("case2", b, new_n) | ("case1", a, q0, power)]}
    with q0 as ``{(i, j): c}``."""
    expect(cert["outcome"] == "UnitCertificate", f"outcome {cert['outcome']} for p(0,0) = 0")
    want = expected_trace(m, n, p)
    got = cert["steps"]
    deg_y = max(j for (_, j) in p)
    expect(len(got) <= deg_y + 1, f"trace of {len(got)} steps exceeds deg_y p + 1 = {deg_y + 1}")
    expect(len(got) == len(want), f"trace {got} != expected {want}")
    for g, w in zip(got[:-1], want[:-1]):
        expect(g == w, f"Case 2 step {g} != expected {w}")
    kind, a, q0, power = got[-1]
    expect((kind, a, q0) == want[-1], f"Case 1 step {got[-1]} != expected {want[-1]}")
    expect(power == a, f"witness_power {power} != a = {a}")
    expect(q0.get((0, 0), 0) != 0, "q0(0) = 0")


# -- cocycles -----------------------------------------------------------------------


def expected_class(g: Dict[Tuple[int, int], int]) -> Dict[Tuple[int, int], int]:
    """The H^1 class: the terms with both exponents negative, as {(i, j): c}."""
    return {(-i, -j): c for (i, j), c in g.items() if i < 0 and j < 0}


def check_class(g, got: Dict[Tuple[int, int], Fraction]) -> None:
    expect(got == expected_class(g), f"class {got} != {expected_class(g)}")


def check_normal_form(g, m: int, n: int, p_text: str) -> None:
    cls = expected_class(g)
    wm = max(i for i, _ in cls)
    wn = max(j for _, j in cls)
    expect((m, n) == (wm, wn), f"normal form (m, n) = {(m, n)} != {(wm, wn)}")
    check_same_poly(p_text, from_xy({(wm - i, wn - j): c for (i, j), c in cls.items()}), "normal form p")


def check_coboundary(g, ok: bool, plus_text, minus_text) -> None:
    trivial = not expected_class(g)
    expect(ok == trivial, f"coboundary {ok} but class trivial is {trivial}")
    if not ok:
        expect(plus_text is None and minus_text is None, "witness given for a nontrivial class")
        return
    plus, minus = xy_dict(parse_rendered(plus_text)), xy_dict(parse_rendered(minus_text))
    expect(all(j >= 0 for _, j in plus), "g_plus is not regular on {x != 0}")
    expect(all(i >= 0 for i, _ in minus), "g_minus is not regular on {y != 0}")
    diff = padd(from_xy(plus), pscale(from_xy(minus), -1))
    expect(diff == from_xy(g), "g_plus - g_minus != g")


# -- bundles over P^1 ---------------------------------------------------------------


def expected_splitting(m: int, n: int) -> Tuple[int, int]:
    """transition_matrix(m, n) and its conjugates split as (-n, -m), sorted."""
    return (-min(m, n), -max(m, n))


def check_splitting(m: int, n: int, a1: int, a2: int, k: int) -> None:
    want = expected_splitting(m, n)
    expect((a1, a2) == want, f"splitting {(a1, a2)} != {want}")
    expect(k == want[0] - want[1], f"Hirzebruch index {k} != {want[0] - want[1]}")


def expected_h0(m: int, n: int, j: int) -> int:
    """h^0 of (O(-n) + O(-m))(j)."""
    return max(0, j - n + 1) + max(0, j - m + 1)


def check_h0(m: int, n: int, j: int, dim: int, nbasis: int) -> None:
    want = expected_h0(m, n, j)
    expect(dim == want and nbasis == want, f"h0 at twist {j} = {dim} ({nbasis} sections) != {want}")


def check_h0_sections(entries, j: int, sections: List[Tuple[str, str]]) -> None:
    """Each section g = (g1, g2) is polynomial in u and M.u^-j.g is
    polynomial in u^-1; entries are the plain matrix entries."""
    shift = {mono_of(u=-j): 1}
    for g_text in sections:
        g = [parse_rendered(t) for t in g_text]
        expect(any(g), "zero section")
        expect(all(e >= 0 for gi in g for m in gi for e in exps(m, "u")), f"section {g_text} not regular in u")
        for row in entries:
            h = pmul(padd(pmul(row[0], g[0]), pmul(row[1], g[1])), shift)
            expect(all(e <= 0 for m in h for e in exps(m, "u")), f"section {g_text} does not extend over u = oo")


# -- derivations on x^m v - y^n u - p -------------------------------------------------

NILPOTENCY_INDICES = {"u": 2, "v": 2, "x": 1, "y": 1}


def check_lnd(descends: bool, indices: Dict[str, int]) -> None:
    expect(descends, "translation derivation does not descend")
    expect(indices == NILPOTENCY_INDICES, f"nilpotency indices {indices} != {NILPOTENCY_INDICES}")


def check_exp(m: int, n: int, images: Dict[str, str]) -> None:
    want = {
        "x": {mono_of(x=1): 1},
        "y": {mono_of(y=1): 1},
        "u": {mono_of(u=1): 1, mono_of(t=1, x=m): 1},
        "v": {mono_of(v=1): 1, mono_of(t=1, y=n): 1},
    }
    expect(set(images) == set(want), f"images for {sorted(images)}")
    for var, text in images.items():
        check_same_poly(text, want[var], f"exp(t delta)({var})")


def check_slice(m: int, e: int, got: bool) -> None:
    """delta(u x^-e) = x^(m - e), which is 1 exactly when e = m."""
    expect(got == (e == m), f"is_slice(u*x^-{e}) = {got} with m = {m}")


# -- ruled surfaces and classification -----------------------------------------------


def expected_intersection(surface: Tuple, d1: Sequence[int], d2: Sequence[int]) -> int:
    """F_k: C^2 = -k, C.F = 1, F^2 = 0.  Scroll(m,n): C_u^2 = m - n, C_u.L = 1, L^2 = 0."""
    self_sq = -surface[1] if surface[0] == "F" else surface[1] - surface[2]
    (a1, a2), (b1, b2) = d1, d2
    return self_sq * a1 * b1 + a1 * b2 + a2 * b1


def check_intersection(surface, d1, d2, got: int) -> None:
    want = expected_intersection(surface, d1, d2)
    expect(got == want, f"intersection {got} != {want} on {surface}")


def check_classify_mn(m, n, p, q, verdict: str, d) -> None:
    if m + n == p + q:
        expect((verdict, d) == ("IsomorphicByTheorem", m + n), f"verdict {verdict}, d = {d}")
    else:
        expect((verdict, d) == ("Inconclusive", None), f"verdict {verdict}, d = {d}")


def check_classify_fg(deg_f: int, deg_g: int, got: dict) -> None:
    """Forms without a common projective zero: degrees, nonzero resultant,
    boundary square deg f + deg g."""
    expect(got["degrees"] == [deg_f, deg_g], f"degrees {got['degrees']}")
    expect(got["resultant_nonzero"] is True, "resultant reported zero")
    expect(got["delta_square"] == deg_f + deg_g, f"delta square {got['delta_square']}")


# -- verify-paper -------------------------------------------------------------------

#: The claims whose computation contradicts the quoted text.  They must stay
#: documented, each with its exact residual; ``bench/findings.py``
#: regenerates this list from a registry run.
DISCREPANCY_IDS = (
    "lemma-normalization-claim",
    "lemma-mj-display",
    "section2-index-convention",
    "example-x22-descends",
    "example-x22-kernel-a",
    "example-x22-kernel-b",
    "example-x22-delta-section",
    "example-x22-delta-w",
    "example-x22-cocycle-identity",
    "example-x22-cocycle-class",
)
CLAIM_COUNT = 39

_PROFILE = re.compile(r"profile j=(-?\d+)\.\.(-?\d+): (.*)$")
_NORMALIZATION = re.compile(r"\(m=(\d+),n=(\d+)\): h0\(E\(m-1\)\) = (\d+)")


def check_report(text: str, seed: int) -> None:
    """The ``verify-paper --json`` report: no failures, the ten findings,
    and the h^0 values it prints against the split model."""
    rep = json.loads(text)
    expect(rep["seed"] == seed, f"report seed {rep['seed']} != {seed}")
    claims = rep["claims"]
    expect(len(claims) == CLAIM_COUNT, f"{len(claims)} claims, expected {CLAIM_COUNT}")
    by_id = {c["id"]: c for c in claims}
    bad = [c["id"] for c in claims if c["status"] not in ("pass", "discrepancy-documented")]
    expect(not bad, f"claims not passing or documented: {bad}")
    documented = sorted(c["id"] for c in claims if c["status"] == "discrepancy-documented")
    expect(documented == sorted(DISCREPANCY_IDS), f"documented findings {documented}")
    expect("-a^3/6" in by_id["example-x22-kernel-a"]["actual"], "residual -a^3/6 not documented")
    expect(rep["summary"] == {"pass": CLAIM_COUNT - len(DISCREPANCY_IDS), "fail": 0,
                              "discrepancy-documented": len(DISCREPANCY_IDS)},
           f"summary {rep['summary']}")
    # h0-profile prints h^0 of transition_matrix(3, 1) at twists -1..4
    mt = _PROFILE.match(by_id["h0-profile"]["actual"])
    expect(mt is not None, "h0-profile detail not in the expected form")
    pairs = [tuple(int(s) for s in pr.split(", ")) for pr in re.findall(r"\((-?\d+, -?\d+)\)", mt.group(3))]
    want = [(j, expected_h0(3, 1, j)) for j in range(int(mt.group(1)), int(mt.group(2)) + 1)]
    expect(pairs == want, f"h0 profile {pairs} != {want}")
    # lemma-normalization prints h^0(E(m-1)) = m - n for 1 <= n <= m <= 5
    rows = [tuple(int(s) for s in r) for r in _NORMALIZATION.findall(by_id["lemma-normalization-claim"]["actual"])]
    want_rows = [(m, n, expected_h0(m, n, m - 1)) for m in range(1, 6) for n in range(1, m + 1)]
    expect(rows == want_rows, "h0(E(m-1)) rows disagree with the split model")

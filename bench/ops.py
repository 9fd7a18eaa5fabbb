"""The benchmark's operations and their checks.

Each operation takes one plain input, builds the program objects and calls
the library the way the ``gawb`` command line does (text parsed by the
library's parsers, results rendered to text or JSON), and returns plain
output.  The library is called through module attributes, so a traced run
sees every call at the name its callers look up.  ``check`` holds an output
against the reference checks in ``oracle``; it runs outside the timed region.

Importing this module imports ``gawb``; the worker times that import as part
of set-up.
"""

from __future__ import annotations

import json
from fractions import Fraction

from gawb import cech, claims, derivations, p1bundles, parse, poly, quotient, surfaces

import oracle

XY = ("x", "y")


# -- verify-paper ---------------------------------------------------------------------


def verify_paper(seed: int) -> str:
    """One registry pass with the default configuration, serialized as
    ``gawb verify-paper --json`` prints it."""
    report = claims.run_claims(claims.RunConfig(seed=seed))
    return json.dumps(report.to_json(), indent=2, sort_keys=True)


# -- affineness certificates ----------------------------------------------------------


def certificate(item):
    m, n, p = item
    terms = {poly.mono(x=i, y=j): c for (i, j), c in p.items()}
    return cech.affineness_certificate(cech.NormalFormMNP(m, n, poly.Poly(terms)))


def _xy(p) -> dict:
    return {oracle.exps(mo, "x", "y"): c for mo, c in p.terms.items()}


def certificate_data(cert) -> dict:
    steps = []
    for s in cert.trace:
        if isinstance(s, cech.Case2Step):
            steps.append(("case2", s.b, s.new_n))
        else:
            steps.append(("case1", s.a, _xy(s.q0), s.witness_power))
    return {"outcome": cert.outcome, "steps": steps}


# -- queries --------------------------------------------------------------------------


def _affine_cert(q):
    p = parse.parse_poly(q["text"], XY)
    cert = cech.affineness_certificate(cech.NormalFormMNP(q["m"], q["n"], p))
    trace = []
    for s in cert.trace:
        if isinstance(s, cech.Case2Step):
            trace.append({"case": 2, "b": s.b, "new_n": s.new_n, "new_p": poly.render_poly(s.new_p)})
        else:
            trace.append({"case": 1, "a": s.a, "q0": poly.render_poly(s.q0),
                          "witness": f"({poly.render_poly(s.witness_numer)})/y",
                          "witness_power": s.witness_power})
    return {"outcome": cert.outcome, "trace": trace}


def _cocycle(q):
    g = cech.parse_cocycle(q["text"])
    if q["action"] == "class":
        return cech.class_of(g).to_json()
    if q["action"] == "normalize":
        nf = cech.normal_form_mnp(cech.class_of(g))
        return nf.m, nf.n, poly.render_poly(nf.p)
    ok, witness = cech.is_coboundary(g)
    if not ok:
        return ok, None, None
    return ok, poly.render_poly(witness[0]), poly.render_poly(witness[1])


def _lnd(q):
    pres = quotient.AlgebraPresentation.from_text(q["presentation"])
    d = derivations.Derivation.from_text(pres, q["derivation"])
    if q["action"] == "check":
        ok = derivations.descends_to_quotient(d)
        return ok, dict(derivations.nilpotency_certificate(d, bound=64).indices)
    if q["action"] == "exp":
        act = derivations.exponential(d, "t", bound=64)
        return {v: act.images[v].render() for v in pres.variables}
    return derivations.is_slice(d, pres.element(q["element"]))


def _splitting(q):
    M = p1bundles.TransitionMatrix2.loads(q["matrix"])
    return p1bundles.birkhoff_split(M).splitting.to_json()


def _h0(q):
    M = p1bundles.TransitionMatrix2.loads(q["matrix"])
    dim, basis = p1bundles.h0_twist(M, q["j"])
    return dim, [(poly.render_poly(g1), poly.render_poly(g2)) for g1, g2 in basis]


def _surface(text: str):
    if text.startswith("F"):
        return surfaces.hirzebruch(int(text[1:]))
    m, n = (int(s) for s in text[text.index("(") + 1:-1].split(","))
    return surfaces.scroll(m, n)


def _classify(q):
    if q["action"] == "intersect":
        surf = _surface(q["surface_text"])
        c1 = [int(s) for s in q["d1_text"].split(",")]
        c2 = [int(s) for s in q["d2_text"].split(",")]
        return surfaces.intersect(surf.divisor(*c1), surf.divisor(*c2))
    if q["action"] == "mn":
        return surfaces.classify_xmn(*q["mnpq"]).to_json()
    f = parse.parse_poly(q["f"], XY)
    g = parse.parse_poly(q["g"], XY)
    return surfaces.classify_xfg(f, g).to_json()


def _eval(q):
    p = parse.parse_poly(q["text"], q["vars"])
    return poly.render_poly(p, poly.TermOrder("degrevlex", q["vars"]))


QUERY = {
    "eval": _eval,
    "cocycle": _cocycle,
    "affine-cert": _affine_cert,
    "lnd": _lnd,
    "splitting": _splitting,
    "h0": _h0,
    "classify": _classify,
}


def query(q):
    return QUERY[q["kind"]](q)


def check_query(q, out) -> None:
    kind = q["kind"]
    if kind == "eval":
        oracle.check_same_poly(out, q["want"], "eval")
    elif kind == "cocycle":
        if q["action"] == "class":
            oracle.check_class(q["g"], {(t["i"], t["j"]): Fraction(t["c"]) for t in out["terms"]})
        elif q["action"] == "normalize":
            oracle.check_normal_form(q["g"], *out)
        else:
            oracle.check_coboundary(q["g"], *out)
    elif kind == "affine-cert":
        steps = []
        for s in out["trace"]:
            if s["case"] == 2:
                steps.append(("case2", s["b"], s["new_n"]))
            else:
                q0 = oracle.xy_dict(oracle.parse_rendered(s["q0"]))
                steps.append(("case1", s["a"], q0, s["witness_power"]))
        oracle.check_certificate(q["m"], q["n"], q["p"], {"outcome": out["outcome"], "steps": steps})
    elif kind == "lnd":
        if q["action"] == "check":
            oracle.check_lnd(*out)
        elif q["action"] == "exp":
            oracle.check_exp(q["m"], q["n"], out)
        else:
            oracle.check_slice(q["m"], q["e"], out)
    elif kind == "splitting":
        oracle.check_splitting(q["m"], q["n"], *out["type"], out["hirzebruch"])
    elif kind == "h0":
        dim, sections = out
        oracle.check_h0(q["m"], q["n"], q["j"], dim, len(sections))
        oracle.check_h0_sections(q["entries"], q["j"], sections)
    elif q["action"] == "intersect":
        oracle.check_intersection(q["surface"], q["d1"], q["d2"], out)
    elif q["action"] == "mn":
        oracle.check_classify_mn(*q["mnpq"], out["verdict"], out["d"])
    else:
        oracle.check_classify_fg(*q["deg"], out)

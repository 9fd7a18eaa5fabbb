"""Outside-in tracing for the benchmark's traced mode.

``install`` rebinds public functions of ``gawb`` at every module attribute
that holds them (the names their callers look up, for example
``p1bundles.kernel_basis`` as well as ``linalg.kernel_basis``), wraps two
methods on their classes, and wraps each registry claim.  Span wrappers
record ``(name, start, end, parent, op)`` in memory; count-only wrappers
bump a counter.  ``layer_metrics`` turns one round's spans into the
per-layer metrics, and ``write_spans`` writes them out when the round ends.

Only traced worker processes import this module, so timed runs carry no
wrappers.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List

#: (module, attribute, span name) for every function that gets a span.
SPANNED = (
    ("gawb.linalg", "kernel_basis", "linalg.kernel_basis"),
    ("gawb.p1bundles", "h0_twist", "p1bundles.h0_twist"),
    ("gawb.p1bundles", "splitting_by_h0_scan", "p1bundles.splitting_by_h0_scan"),
    ("gawb.p1bundles", "birkhoff_split", "p1bundles.birkhoff_split"),
    ("gawb.groebner", "normal_form", "groebner.normal_form"),
    ("gawb.groebner", "buchberger", "groebner.buchberger"),
    ("gawb.cech", "affineness_certificate", "cech.affineness_certificate"),
    ("gawb.quotient", "sample_point", "quotient.sample_point"),
    ("gawb.quotient", "unit_ideal_test", "quotient.unit_ideal_test"),
    ("gawb.derivations", "descends_to_quotient", "derivations.descends_to_quotient"),
    ("gawb.derivations", "nilpotency_certificate", "derivations.nilpotency_certificate"),
    ("gawb.derivations", "exponential", "derivations.exponential"),
    ("gawb.derivations", "verify_action", "derivations.verify_action"),
    ("gawb.derivations", "is_slice", "derivations.is_slice"),
    ("gawb.parse", "parse_poly", "parse.parse_poly"),
    ("gawb.poly", "render_poly", "poly.render_poly"),
)
#: Functions called too often for spans: counted only.
COUNTED = (("gawb.poly", "mono_mul", "poly.mono_mul"),)

CLAIM_SPANS = ("splitting-grid", "example-x22-descends", "zmnk-family")
QUERY_KINDS = ("eval", "cocycle", "affine-cert", "lnd", "splitting", "h0", "classify")

#: Every per-layer metric: name -> unit.
METRICS = {
    "linalg.kernel_basis.calls": "count",
    "linalg.kernel_basis.self_s": "s",
    "linalg.kernel_basis.cells": "count",
    "p1bundles.h0_twist.calls": "count",
    "p1bundles.h0_twist.s": "s",
    "p1bundles.h0_twist.solves_per_call": "ratio",
    "p1bundles.h0_twist.distinct_ratio": "ratio",
    "p1bundles.splitting_by_h0_scan.s": "s",
    "p1bundles.birkhoff_split.s": "s",
    "groebner.normal_form.calls": "count",
    "groebner.normal_form.self_s": "s",
    "groebner.normal_form.per_cert": "ratio",
    "cech.affineness_certificate.self_s": "s",
    "groebner.buchberger.calls": "count",
    "groebner.buchberger.self_s": "s",
    "quotient.AlgebraPresentation.s": "s",
    "quotient.sample_point.s": "s",
    "quotient.unit_ideal_test.s": "s",
    "derivations.descends_to_quotient.s": "s",
    "derivations.nilpotency_certificate.s": "s",
    "derivations.exponential.s": "s",
    "derivations.verify_action.s": "s",
    "derivations.is_slice.s": "s",
    "poly.Poly.mul.calls": "count",
    "poly.mono_mul.calls": "count",
    "parse.parse_poly.s": "s",
    "poly.render_poly.s": "s",
    **{f"queries.{k}.p50_ms": "ms" for k in QUERY_KINDS},
    **{f"claims.{c}.s": "s" for c in CLAIM_SPANS},
    "trace.overhead": "ratio",
}


class Tracer:
    def __init__(self):
        self.spans: List[tuple] = []
        self.stack: List[int] = []
        self.op = -1
        self.counts: Dict[str, List[int]] = {}
        self.cells = 0
        self.h0_keys: List[tuple] = []

    def spanned(self, name: str, fn, note=None):
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter, self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if note is not None:
                note(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, tracer.op)

        return wrapper

    def counted(self, name: str, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args):
            cell[0] += 1
            return fn(*args)

        return wrapper

    def _note_kernel(self, matrix, ncols):
        self.cells += len(matrix) * ncols

    def _note_h0(self, M, j, *rest, **kw):
        self.h0_keys.append((json.dumps(M.to_json()), j))


def _rebind(original, wrapper) -> int:
    """Replace ``original`` by ``wrapper`` at every gawb module attribute."""
    hits = 0
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "gawb" or modname.startswith("gawb.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
                hits += 1
    return hits


def install() -> Tracer:
    from gawb import claims, poly, quotient

    tracer = Tracer()
    notes = {"linalg.kernel_basis": tracer._note_kernel, "p1bundles.h0_twist": tracer._note_h0}
    for modname, attr, name in SPANNED:
        original = getattr(sys.modules[modname], attr)
        _rebind(original, tracer.spanned(name, original, notes.get(name)))
    for modname, attr, name in COUNTED:
        original = getattr(sys.modules[modname], attr)
        _rebind(original, tracer.counted(name, original))
    mul = tracer.counted("poly.Poly.mul", poly.Poly.__mul__)
    poly.Poly.__mul__ = mul
    poly.Poly.__rmul__ = mul
    cls = quotient.AlgebraPresentation
    cls.__init__ = tracer.spanned("quotient.AlgebraPresentation", cls.__init__)
    claims.CLAIMS = [
        dataclasses.replace(c, fn=tracer.spanned(f"claims.{c.claim_id}", c.fn)) for c in claims.CLAIMS
    ]
    return tracer


def _has_ancestor(spans, idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer values of one traced round (queries' p50s and the overhead
    ratio are filled in by the caller)."""
    spans = tracer.spans
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: Counter = Counter()
    inclusive: Dict[str, float] = defaultdict(float)
    own: Dict[str, float] = defaultdict(float)
    for idx, (name, start, end, parent, _) in enumerate(spans):
        calls[name] += 1
        own[name] += (end - start) - covered[idx]
        if not _has_ancestor(spans, idx, name):
            inclusive[name] += end - start
    solves_in_h0 = sum(1 for i, s in enumerate(spans)
                       if s[0] == "linalg.kernel_basis" and _has_ancestor(spans, i, "p1bundles.h0_twist"))
    nf_in_cert = sum(1 for i, s in enumerate(spans)
                     if s[0] == "groebner.normal_form" and _has_ancestor(spans, i, "cech.affineness_certificate"))
    h0_calls = calls["p1bundles.h0_twist"]
    certs = calls["cech.affineness_certificate"]
    out = {
        "linalg.kernel_basis.calls": calls["linalg.kernel_basis"],
        "linalg.kernel_basis.self_s": own["linalg.kernel_basis"],
        "linalg.kernel_basis.cells": tracer.cells,
        "p1bundles.h0_twist.calls": h0_calls,
        "p1bundles.h0_twist.s": inclusive["p1bundles.h0_twist"],
        "p1bundles.h0_twist.solves_per_call": solves_in_h0 / h0_calls if h0_calls else 0.0,
        "p1bundles.h0_twist.distinct_ratio": len(set(tracer.h0_keys)) / h0_calls if h0_calls else 0.0,
        "p1bundles.splitting_by_h0_scan.s": inclusive["p1bundles.splitting_by_h0_scan"],
        "p1bundles.birkhoff_split.s": inclusive["p1bundles.birkhoff_split"],
        "groebner.normal_form.calls": calls["groebner.normal_form"],
        "groebner.normal_form.self_s": own["groebner.normal_form"],
        "groebner.normal_form.per_cert": nf_in_cert / certs if certs else 0.0,
        "cech.affineness_certificate.self_s": own["cech.affineness_certificate"],
        "groebner.buchberger.calls": calls["groebner.buchberger"],
        "groebner.buchberger.self_s": own["groebner.buchberger"],
        "quotient.AlgebraPresentation.s": inclusive["quotient.AlgebraPresentation"],
        "poly.Poly.mul.calls": tracer.counts["poly.Poly.mul"][0],
        "poly.mono_mul.calls": tracer.counts["poly.mono_mul"][0],
    }
    for name in ("quotient.sample_point", "quotient.unit_ideal_test", "derivations.descends_to_quotient",
                 "derivations.nilpotency_certificate", "derivations.exponential",
                 "derivations.verify_action", "derivations.is_slice", "parse.parse_poly",
                 "poly.render_poly"):
        out[f"{name}.s"] = inclusive[name]
    for c in CLAIM_SPANS:
        out[f"claims.{c}.s"] = inclusive[f"claims.{c}"]
    return out


def write_spans(tracer: Tracer, path: str) -> None:
    with open(path, "w") as fh:
        fh.write("name\tstart\tend\tparent\top\n")
        for name, start, end, parent, op in tracer.spans:
            fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


def median_metrics(rounds: List[Dict[str, float]]) -> Dict[str, float]:
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}

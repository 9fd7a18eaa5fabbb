"""Self-test of the benchmark's reference checks.

    python3 bench/selftest.py

For every operation kind it runs a few real operations, requires the checks
to accept their outputs, then corrupts each output in several ways and
requires the checks to reject every corrupted copy.  It also runs two
``verify-paper`` passes at one seed and requires byte-identical JSON.
Exits 1 on the first check that does not hold.
"""

from __future__ import annotations

import copy
import json
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import inputs  # noqa: E402
import ops  # noqa: E402
from oracle import CheckFailed, DISCREPANCY_IDS  # noqa: E402


def _edit(obj, fn):
    out = copy.deepcopy(obj)
    fn(out)
    return out


def _bump_last_case1(out, field, delta):
    step = [s for s in out["trace"] if s["case"] == 1][-1]
    step[field] += delta


#: kind (or kind:action) -> corruptions of a correct output
QUERY_CORRUPTIONS = {
    "eval": [lambda o: o + " + 7*x^9", lambda o: o.replace(" + ", " - ", 1) if " + " in o else "-" + o,
             lambda o: o.replace(" ", "", 1)],
    "cocycle:class": [lambda o: _edit(o, lambda d: d["terms"].append({"i": 9, "j": 9, "c": "1"})),
                      lambda o: _edit(o, lambda d: d["terms"].pop())],
    "cocycle:normalize": [lambda o: (o[0] + 1, o[1], o[2]), lambda o: (o[0], o[1], o[2] + " + 1")],
    "cocycle:coboundary": [lambda o: (not o[0], o[1], o[2]),
                           lambda o: (o[0], o[1] + " + x^8", o[2]) if o[0] else (True, "0", "0")],
    "affine-cert": [lambda o: _edit(o, lambda d: _bump_last_case1(d, "witness_power", 1)),
                    lambda o: _edit(o, lambda d: _bump_last_case1(d, "a", 1)),
                    lambda o: _edit(o, lambda d: [s for s in d["trace"] if s["case"] == 1][-1].update(q0="2")),
                    lambda o: _edit(o, lambda d: d.update(outcome="HypersurfaceInA4")),
                    lambda o: _edit(o, lambda d: d["trace"].insert(0, {"case": 2, "b": 1, "new_n": 1}))],
    "lnd:check": [lambda o: (False, o[1]), lambda o: (o[0], {**o[1], "u": 3})],
    "lnd:exp": [lambda o: {**o, "u": o["u"] + " + t"}, lambda o: {**o, "x": "x + t"}],
    "lnd:slice": [lambda o: not o],
    "splitting": [lambda o: {**o, "type": o["type"][::-1]} if o["type"][0] != o["type"][1]
                  else {**o, "type": [o["type"][0] + 1, o["type"][1] - 1]},
                  lambda o: {**o, "hirzebruch": o["hirzebruch"] + 1}],
    "h0": [lambda o: (o[0] + 1, o[1]), lambda o: (o[0], o[1] + [("1", "0")]),
           lambda o: (o[0], [(g1 + " + u^40", g2) for g1, g2 in o[1]]) if o[1] else (1, [("1", "0")])],
    "classify:intersect": [lambda o: o + 1],
    "classify:mn": [lambda o: {**o, "verdict": "Inconclusive" if o["verdict"] != "Inconclusive"
                               else "IsomorphicByTheorem"}],
    "classify:fg": [lambda o: {**o, "delta_square": o["delta_square"] + 1},
                    lambda o: {**o, "degrees": o["degrees"][::-1]} if o["degrees"][0] != o["degrees"][1]
                    else {**o, "resultant_nonzero": False}],
}

CERT_CORRUPTIONS = [
    lambda c: _edit(c, lambda d: d["steps"].__setitem__(-1, d["steps"][-1][:3] + (d["steps"][-1][3] + 1,))),
    lambda c: _edit(c, lambda d: d["steps"].__setitem__(-1, ("case1", d["steps"][-1][1] + 1) + d["steps"][-1][2:])),
    lambda c: _edit(c, lambda d: d["steps"][-1][2].__setitem__((0, 0), 0)),
    lambda c: _edit(c, lambda d: d["steps"].insert(0, ("case2", 1, 1))),
    lambda c: _edit(c, lambda d: d.update(outcome="HypersurfaceInA4")),
]

REPORT_CORRUPTIONS = [
    lambda r: r.replace('"status": "pass"', '"status": "fail"', 1),
    lambda r: r.replace('"status": "discrepancy-documented"', '"status": "pass"', 1),
    lambda r: r.replace("-a^3/6", "-a^3/7"),
    lambda r: r.replace("(3, 4)", "(3, 3)"),
    lambda r: r.replace("h0(E(m-1)) = 2", "h0(E(m-1)) = 0", 1),
    lambda r: r.replace(f'"id": "{DISCREPANCY_IDS[0]}"', '"id": "renamed-claim"'),
]


def rejects(check, corrupted) -> bool:
    try:
        check(corrupted)
    except CheckFailed:
        return True
    return False


def main() -> int:
    problems = []
    tried = 0

    queries = inputs.query_inputs(7, 0, 2 * len(inputs.QUERY_CYCLE))
    for q in queries:
        key = q["kind"] + (f":{q['action']}" if "action" in q and q["kind"] != "affine-cert" else "")
        out = ops.query(q)
        try:
            ops.check_query(q, out)
        except CheckFailed as e:
            problems.append(f"{key}: a correct output was rejected: {e}")
            continue
        for i, corrupt in enumerate(QUERY_CORRUPTIONS[key]):
            tried += 1
            if not rejects(lambda o: ops.check_query(q, o), corrupt(out)):
                problems.append(f"{key}: corruption {i} was accepted")

    for item in inputs.sweep_inputs(7, 0, 60):
        data = ops.certificate_data(ops.certificate(item))
        try:
            ops.oracle.check_certificate(*item, data)
        except CheckFailed as e:
            problems.append(f"certificate {item}: a correct output was rejected: {e}")
            continue
        for i, corrupt in enumerate(CERT_CORRUPTIONS):
            tried += 1
            if not rejects(lambda c: ops.oracle.check_certificate(*item, c), corrupt(data)):
                problems.append(f"certificate {item}: corruption {i} was accepted")

    seed = 11
    first, second = ops.verify_paper(seed), ops.verify_paper(seed)
    if first != second:
        problems.append("two verify-paper passes at one seed differ")
    try:
        ops.oracle.check_report(first, seed)
    except CheckFailed as e:
        problems.append(f"verify-paper: the correct report was rejected: {e}")
    for i, corrupt in enumerate(REPORT_CORRUPTIONS):
        tried += 1
        bad = corrupt(first)
        if bad == first or not rejects(lambda r: ops.oracle.check_report(r, seed), bad):
            problems.append(f"verify-paper: corruption {i} was accepted")
    if not rejects(lambda r: ops.oracle.check_report(r, seed + 1), first):
        problems.append("verify-paper: a report for another seed was accepted")

    for p in problems:
        print(p)
    print(json.dumps({"corruptions_tried": tried, "problems": len(problems),
                      "verify_paper_byte_identical": first == second}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

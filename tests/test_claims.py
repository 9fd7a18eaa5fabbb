import hashlib
import json
from types import SimpleNamespace

import pytest

from gawb import claims, surfaces
from gawb.claims import CLAIMS, DISCREPANCY, FAIL, PASS, RunConfig, run_claims
from gawb.cli import main
from gawb.derivations import ActionCheck, ActionReport, Derivation, GroupLaw, exponential
from gawb.parse import parse_poly


@pytest.fixture(scope="module")
def report():
    return run_claims(RunConfig(seed=42))


def test_registry_shape():
    ids = [c.claim_id for c in CLAIMS]
    assert len(ids) == len(set(ids))
    assert len(ids) >= 20
    assert all(c.quote for c in CLAIMS)
    assert all(c.section for c in CLAIMS)


def test_no_engine_failures(report):
    failures = [r.claim_id for r in report.records if r.status == FAIL]
    assert failures == []


def test_statuses(report):
    by_id = {r.claim_id: r for r in report.records}
    expected_pass = [
        "xmn-derivation-descends",
        "xmn-nilpotency-indices",
        "xmn-exponential-formula",
        "xmn-gd-twist",
        "trivialization-identities",
        "splitting-grid",
        "theorem-self-intersection-grid",
        "scroll-delta-grid",
        "three-way-consistency",
        "classify-xmn-theorem",
        "affineness-case2",
        "example-x22-unit-ideal",
        "zmnk-family",
    ]
    for cid in expected_pass:
        assert by_id[cid].status == PASS, (cid, by_id[cid].actual)
    expected_discrepancy = [
        "section2-index-convention",
        "lemma-normalization-claim",
        "lemma-mj-display",
        "example-x22-descends",
        "example-x22-kernel-a",
        "example-x22-kernel-b",
        "example-x22-delta-section",
        "example-x22-delta-w",
        "example-x22-cocycle-identity",
        "example-x22-cocycle-class",
    ]
    for cid in expected_discrepancy:
        assert by_id[cid].status == DISCREPANCY, (cid, by_id[cid].actual)


def test_preregistered_residual(report):
    rec = next(r for r in report.records if r.claim_id == "example-x22-kernel-a")
    assert "-a^3/6" in rec.actual


def test_lemma_discrepancy_reports_m_minus_n(report):
    rec = next(r for r in report.records if r.claim_id == "lemma-normalization-claim")
    assert "m - n" in rec.notes


def test_only_filter():
    rep = run_claims(RunConfig(seed=1), only=["cocycle-basis"])
    assert [r.claim_id for r in rep.records] == ["cocycle-basis"]
    with pytest.raises(KeyError):
        run_claims(RunConfig(), only=["missing-claim"])


def test_report_json_deterministic():
    a = json.dumps(run_claims(RunConfig(seed=9), only=["affineness-case1"]).to_json(), sort_keys=True)
    b = json.dumps(run_claims(RunConfig(seed=9), only=["affineness-case1"]).to_json(), sort_keys=True)
    assert a == b


REPORT_SHA256 = {
    0: "c697cac4ddc6607289a9a2c81b96596a545d8707718fc9eb35c23ca53da2d7fa",
    7: "cc5b3b3de4668cc937053d1d09e0746a173baa132563ca1beb964f214baa3b52",
    42: "6b5c4c21a4e1e694c710f0a11ea2eb8b274b2054748692496f60023c96c2c93b",
}


@pytest.mark.parametrize("seed", sorted(REPORT_SHA256))
def test_report_digest_pinned(seed, report):
    """The whole report at each pinned seed, as ``verify-paper --json``
    prints it, is pinned by its sha256.  A change meant to alter a claim's
    outcome, text or residual must update REPORT_SHA256 in the same commit."""
    rep = report if seed == 42 else run_claims(RunConfig(seed=seed))
    text = json.dumps(rep.to_json(), indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[seed]


def test_second_cli_pass_matches_report(report, capsys):
    """A second seed-42 pass in the same process, through ``verify-paper
    --json``, prints the fixture's report byte for byte: nothing the first
    pass leaves behind changes an answer."""
    code = main(["--json", "--seed", "42", "verify-paper"])
    assert code == (0 if report.ok else 1)
    assert capsys.readouterr().out == json.dumps(report.to_json(), indent=2, sort_keys=True) + "\n"


def test_table_rendering(report):
    table = report.to_table()
    assert "CLAIM" in table and "STATUS" in table
    assert all(r.claim_id in table for r in report.records)


GRID = [(m, n) for m in range(1, 4) for n in range(1, 4)]


def _failing_report(residuals):
    return ActionReport(GroupLaw.additive(), [ActionCheck("identity", False, residuals)])


class _WrongIndices:
    indices = {"x": 1}


@pytest.mark.parametrize(
    "claim_id, attr, fake, actual",
    [
        (
            "xmn-derivation-descends",
            "descends_to_quotient",
            lambda d: False,
            f"fails at {GRID}",
        ),
        (
            "xmn-relation-invariant",
            "parse_poly",
            lambda text, variables: parse_poly("u", variables),
            f"nonzero at {GRID}",
        ),
        (
            "xmn-nilpotency-indices",
            "nilpotency_certificate",
            lambda d, bound: _WrongIndices(),
            f"mismatch {[(m, n, {'x': 1}) for m, n in GRID]}",
        ),
        (
            "xmn-exponential-formula",
            "exponential",
            lambda d, t: exponential(Derivation(d.ring, {v: 0 for v in d.ring.variables}), t),
            f"mismatch at {GRID}",
        ),
        (
            "xmn-kernel-xy",
            "kernel_member",
            lambda d, e: True,
            f"mismatch {GRID}",
        ),
        (
            "xmn-slice-localized",
            "is_slice",
            lambda d, s: False,
            f"failures {GRID}",
        ),
        (
            "xmn-ga-action-axioms",
            "verify_action",
            lambda action, law: _failing_report({"u": "t"}),
            f"failures {[(m, n, ['identity']) for m, n in GRID]}",
        ),
        (
            "xmn-gm-action-axioms",
            "verify_action",
            lambda action, law: _failing_report({"u": "t"}),
            f"failures {[(m, n, ['identity']) for m, n in GRID]}",
        ),
        (
            "xmn-gd-twist",
            "verify_action",
            lambda action, law: _failing_report({"u": "t"}),
            f"failures {[(m, n, {'identity': {'u': 't'}}) for m, n in GRID]}",
        ),
        (
            "classify-xmn-theorem",
            "surfaces",
            SimpleNamespace(classify_xmn=lambda m, n, p, q: SimpleNamespace(verdict="Wrong")),
            f"mismatch {[(2, 2, 3, 1, 'Wrong'), (2, 1, 1, 2, 'Wrong'), (2, 2, 2, 1, 'Wrong')]}",
        ),
        (
            "classify-xfg",
            "surfaces",
            SimpleNamespace(
                classify_xfg=lambda f, g: SimpleNamespace(m=1, n=1, resultant_nonzero=False, delta_square=0),
                CommonZeroError=surfaces.CommonZeroError,
            ),
            "failures "
            f"{[('x^2+y^2', 'y^3', (1, 1), False, 0), ('x^3', 'y^2', (1, 1)), ('x*y', 'x^2', 'no common-zero error')]}",
        ),
    ],
)
def test_grid_claim_fail_branch(monkeypatch, claim_id, attr, fake, actual):
    """A claim whose check goes wrong on every case fails, and its actual
    text lists the bad cases under the claim's own label."""
    monkeypatch.setattr(claims, attr, fake)
    (rec,) = run_claims(RunConfig(seed=0), only=[claim_id]).records
    assert rec.status == FAIL
    assert rec.actual == actual
    assert rec.notes == ""

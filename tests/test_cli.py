import json

import pytest

from gawb.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval(capsys):
    code, out, _ = run(capsys, "eval", "x^2*v - y^2*u - 1", "--vars", "x,y,u,v")
    assert code == 0
    assert out.strip() == "-y^2*u + x^2*v - 1"


def test_eval_json(capsys):
    code, out, _ = run(capsys, "--json", "eval", "x + x", "--vars", "x")
    assert code == 0
    assert json.loads(out) == {"result": "2*x"}


def test_eval_undeclared_variable_is_engine_error(capsys):
    code, _, err = run(capsys, "eval", "x + q", "--vars", "x")
    assert code == 1
    assert "undeclared" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2


def test_cocycle_class(capsys):
    code, out, _ = run(capsys, "--json", "cocycle", "class", "x^-2*y^-1 + x")
    assert code == 0
    assert json.loads(out) == {"terms": [{"i": 2, "j": 1, "c": "1"}]}


def test_cocycle_normalize_and_coboundary(capsys):
    code, out, _ = run(capsys, "--json", "cocycle", "normalize", "x^-3*y^-1 + 2*x^-1*y^-1")
    assert code == 0
    assert json.loads(out) == {"m": 3, "n": 1, "p": "2*x^2 + 1"}
    code, out, _ = run(capsys, "--json", "cocycle", "coboundary", "x^-3*y")
    assert json.loads(out)["coboundary"] is True


def test_affine_cert(capsys):
    code, out, _ = run(capsys, "--json", "affine-cert", "2", "2", "x*y")
    assert code == 0
    data = json.loads(out)
    assert data["outcome"] == "UnitCertificate"
    assert [s["case"] for s in data["trace"]] == [2, 1]
    assert data["trace"][0]["b"] == 1
    assert data["trace"][1]["a"] == 1 and data["trace"][1]["q0"] == "1"


def test_classify_mn(capsys):
    code, out, _ = run(capsys, "--json", "classify", "mn", "2", "2", "3", "1")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "IsomorphicByTheorem" and data["d"] == 4


def test_classify_fg_error(capsys):
    code, _, err = run(capsys, "classify", "fg", "x*y", "x^2")
    assert code == 1
    assert "projective zero" in err


def test_lnd_roundtrip(capsys):
    pres = "vars: x,y,u,v; relations: x^2*v - y^2*u - 1"
    der = "der: u -> x^2; v -> y^2; x -> 0; y -> 0"
    code, out, _ = run(capsys, "--json", "lnd", "check", "--presentation", pres, "--derivation", der)
    assert code == 0
    data = json.loads(out)
    assert data["descends"] is True
    assert data["nilpotency_indices"] == {"u": 2, "v": 2, "x": 1, "y": 1}


def test_lnd_slice(capsys):
    pres = "vars: x,y,u,v; invert: x; relations: x^2*v - y^2*u - 1"
    der = "der: u -> x^2; v -> y^2; x -> 0; y -> 0"
    code, out, _ = run(capsys, "--json", "lnd", "slice", "--presentation", pres,
                       "--derivation", der, "--element", "u*x^-2")
    assert code == 0
    assert json.loads(out)["slice"] is True


def test_splitting_and_h0(capsys, tmp_path):
    mfile = tmp_path / "m.json"
    mfile.write_text('[["u^4","u^2"],["0","1"]]')
    code, out, _ = run(capsys, "--json", "splitting", "--matrix", str(mfile))
    assert code == 0
    assert json.loads(out) == {"type": [-2, -2], "hirzebruch": 0}
    code, out, _ = run(capsys, "--json", "h0", "--matrix", str(mfile), "--j", "2")
    assert json.loads(out)["h0"] == 2


def test_intersect(capsys):
    code, out, _ = run(capsys, "--json", "intersect", "--surface", "F2",
                       "--d1", "1,3", "--d2", "1,3")
    assert code == 0
    assert json.loads(out)["intersection"] == 4


def test_verify_paper_only(capsys):
    code, out, _ = run(capsys, "--json", "--seed", "7", "verify-paper",
                       "--only", "example-x22-kernel-a")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "gawb-report/1"
    (claim,) = data["claims"]
    assert claim["status"] == "discrepancy-documented"
    assert "-a^3/6" in claim["actual"]


def test_verify_paper_unknown_claim(capsys):
    code, _, err = run(capsys, "verify-paper", "--only", "nonexistent")
    assert code == 1
    assert "unknown claim" in err


def test_verify_paper_determinism(capsys):
    argv = ["--json", "--seed", "42", "verify-paper", "--only", "example-x22-cocycle-identity"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_paper_timings_flag(capsys):
    code, out, _ = run(capsys, "--json", "verify-paper", "--timings",
                       "--only", "cocycle-basis")
    assert code == 0
    data = json.loads(out)
    assert "seconds" in data["claims"][0]
    assert "total_seconds" in data


H0_PINS = [
    # transition_matrix(3, 1) at j = 3
    ('[["u^4","u^3"],["0","1"]]', 3,
     [["0", "1"], ["-1", "u"], ["-u", "u^2"], ["-u^2", "u^3"]]),
    ('[["u^4","u^2"],["0","1"]]', 2,
     [["0", "1"], ["-1", "u^2"]]),
    # [[1, 7], [0, 1]] * transition_matrix(3, 2): a non-unit constant left factor
    ('[["u^5","u^3 + 7"],["0","1"]]', 5,
     [["1", "0"], ["0", "1"], ["0", "u"], ["0", "u^2"], ["-u", "u^3"], ["-u^2", "u^4"],
      ["-u^3", "u^5"]]),
]


@pytest.mark.parametrize("matrix,j,basis", H0_PINS)
def test_h0_json_pinned(capsys, matrix, j, basis):
    code, out, _ = run(capsys, "--json", "h0", "--matrix", matrix, "--j", str(j))
    assert code == 0
    assert json.loads(out) == {"j": j, "h0": len(basis), "basis": basis}


def _case1(a, q0, witness, k):
    return {"case": 1, "a": a, "q0": q0, "witness": witness, "witness_power": k}


def _case2(b, new_n, new_p, fiber):
    return {"case": 2, "b": b, "new_n": new_n, "new_p": new_p,
            "substitution": f"v = y^{b}*{fiber}"}


AFFINE_CERT_PINS = [
    # Case 1 with a = 1, 2, 3 (a = 0 only follows a Case 2 step, see below)
    (3, 3, "x + y", "x + y", "1", [_case1(1, "1", "(v*x^2 - 1)/y", 1)]),
    (4, 2, "x^2 + 2*x^3", "2*x^3 + x^2", "2*x + 1",
     [_case1(2, "2*x + 1", "(v*x^2 - 2*x - 1)/y", 2)]),
    (5, 3, "x^3*y + x^3 - x^4", "-x^4 + x^3*y + x^3", "-x + 1",
     [_case1(3, "-x + 1", "(v*x^2 + x - 1)/y", 3)]),
    # Case 2 -> Case 1 chains, with a = 0, 1, 2
    (3, 3, "x*y^2 + y^2", "x*y^2 + y^2", "x + 1",
     [_case2(2, 1, "x + 1", "w"), _case1(0, "x + 1", "(w*x^3 - x - 1)/y", 0)]),
    (2, 2, "x*y", "x*y", "1",
     [_case2(1, 1, "x", "w"), _case1(1, "1", "(w*x - 1)/y", 1)]),
    (5, 5, "x^2*y^3 + 2*x^4*y^4", "2*x^4*y^4 + x^2*y^3", "1",
     [_case2(3, 2, "2*x^4*y + x^2", "w"), _case1(2, "1", "(w*x^3 - 1)/y", 2)]),
    (4, 5, "-2*y^4 + x*y^4", "x*y^4 - 2*y^4", "x - 2",
     [_case2(4, 1, "x - 2", "w"), _case1(0, "x - 2", "(w*x^4 - x + 2)/y", 0)]),
    (5, 5, "x^4*y^4 - 2*x^3*y^2 + y^2", "x^4*y^4 - 2*x^3*y^2 + y^2", "-2*x^3 + 1",
     [_case2(2, 3, "x^4*y^2 - 2*x^3 + 1", "w"), _case1(0, "-2*x^3 + 1", "(w*x^5 + 2*x^3 - 1)/y", 0)]),
    # p(0, 0) != 0: the total space is already a hypersurface in A^4
    (5, 4, "2 - x^4*y^3", "-x^4*y^3 + 2", None, []),
]


@pytest.mark.parametrize("m,n,p,rendered,q0,trace", AFFINE_CERT_PINS)
def test_affine_cert_json_pinned(capsys, m, n, p, rendered, q0, trace):
    code, out, _ = run(capsys, "--json", "affine-cert", str(m), str(n), p)
    assert code == 0
    outcome = "UnitCertificate" if trace else "HypersurfaceInA4"
    assert json.loads(out) == {"m": m, "n": n, "p": rendered, "outcome": outcome, "q0": q0,
                               "trace": trace}


PRES = "vars: x,y,u,v; relations: x^2*v - y^2*u - 1"
DER = "der: u -> x^2; v -> y^2; x -> 0; y -> 0"


@pytest.mark.parametrize("argv,inline", [
    (["splitting", "--matrix", '[["u^4","u^2"],["0","1"]]'], '[["u^4","u^2"],["0","1"]]'),
    (["h0", "--j", "2", "--matrix", '[["u^4","u^2"],["0","1"]]'], '[["u^4","u^2"],["0","1"]]'),
    (["lnd", "check", "--presentation", PRES, "--derivation", DER], PRES),
    (["lnd", "check", "--presentation", PRES, "--derivation", DER], DER),
])
def test_file_named_like_inline_text_is_ambiguous(capsys, tmp_path, monkeypatch, argv, inline):
    # a file whose name is itself valid inline text must not be read silently
    (tmp_path / inline).write_text('[["u^4","u^5"],["0","u"]]')
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "ambiguous" in err and "inline text" in err and str(tmp_path / inline) in err


def test_file_argument_that_is_not_inline_text_is_read(capsys, tmp_path, monkeypatch):
    (tmp_path / "pres.txt").write_text(PRES)
    (tmp_path / "der.txt").write_text(DER)
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "--json", "lnd", "check", "--presentation", "pres.txt",
                       "--derivation", "der.txt")
    assert code == 0
    assert json.loads(out)["descends"] is True


@pytest.mark.parametrize("name,value", [
    ("SEED", "abc"), ("GROEBNER_BUDGET", "0"), ("NILPOTENCY_BOUND", "-5"), ("POWER_BOUND", "x"),
])
def test_invalid_environment_override_is_usage_error(capsys, monkeypatch, name, value):
    monkeypatch.setenv(f"GAWB_{name}", value)
    code, out, err = run(capsys, "eval", "x")
    assert code == 2
    assert out == ""
    assert f"GAWB_{name}" in err


@pytest.mark.parametrize("argv", [
    ["intersect", "--surface", "G2", "--d1", "1,3", "--d2", "1,3"],
    ["intersect", "--surface", "Scroll(3)", "--d1", "1,3", "--d2", "1,3"],
    ["intersect", "--surface", "Scroll(1,2)", "--d1", "1,3", "--d2", "1,3"],
    ["intersect", "--surface", "F2", "--d1", "a,3", "--d2", "1,3"],
    ["intersect", "--surface", "F2", "--d1", "1,3", "--d2", "1,3,5"],
    ["lnd", "slice", "--presentation", PRES, "--derivation", DER],
])
def test_bad_command_input_is_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("gawb: error:")


@pytest.mark.parametrize("flag", ["--groebner-budget", "--nilpotency-bound", "--power-bound"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_non_positive_budget_is_usage_error(capsys, flag, value):
    with pytest.raises(SystemExit) as e:
        main(["lnd", "check", "--presentation", PRES, "--derivation", DER, flag, value])
    assert e.value.code == 2
    assert "positive integer" in capsys.readouterr().err


def test_groebner_budget_overrun(capsys):
    code, out, err = run(capsys, "--groebner-budget", "1", "lnd", "check", "--presentation",
                         "vars: x,y,u,v; relations: x^2*v - y^2*u - 1, x*u - y",
                         "--derivation", DER)
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: S-polynomial budget of 1 exceeded"]


@pytest.mark.parametrize("argv, env", [
    (["--groebner-budget", "1", "verify-paper"], None),
    (["verify-paper", "--groebner-budget", "50000"], None),
    (["verify-paper"], "1"),
])
def test_verify_paper_rejects_groebner_budget(capsys, monkeypatch, argv, env):
    """The claim registry runs under the library Groebner budget, so a budget
    that verify-paper would ignore is a usage error, as a flag or through
    GAWB_GROEBNER_BUDGET."""
    if env is not None:
        monkeypatch.setenv("GAWB_GROEBNER_BUDGET", env)
    code, out, err = run(capsys, *argv, "--only", "zmnk-family")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("gawb: error:")
    assert "library Groebner budget of 20000" in err


def test_verify_paper_accepts_the_library_budget(capsys, monkeypatch):
    monkeypatch.setenv("GAWB_GROEBNER_BUDGET", "20000")
    code, out, _ = run(capsys, "--json", "--groebner-budget", "20000", "verify-paper",
                       "--only", "zmnk-family")
    assert code == 0
    assert json.loads(out)["summary"]["pass"] == 1


def test_nilpotency_bound_overrun(capsys):
    code, out, err = run(capsys, "--nilpotency-bound", "1", "lnd", "check",
                         "--presentation", PRES, "--derivation", DER)
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: derivative tower of 'u' did not vanish within 1 iterations"]

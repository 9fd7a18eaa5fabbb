import hashlib
import importlib.util
import json
import re
import shlex
from pathlib import Path

import pytest

from gawb.cli import main

ROOT = Path(__file__).resolve().parents[1]


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


# the golden transcripts hold "", "x,y z" and "x,x"
@pytest.mark.parametrize("vars_, message", [
    ("x,", "--vars entry '' is not an identifier"),
    ("x, y ,x", "--vars entry 'x' is repeated"),
])
def test_eval_bad_vars_is_usage_error(capsys, vars_, message):
    code, out, err = run(capsys, "eval", "x", "--vars", vars_)
    assert (code, out, err) == (2, "", f"gawb: error: {message}\n")


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


# Paths whose modules each subcommand now imports itself: stdout and exit
# code pinned.

def test_lnd_exp_text(capsys):
    code, out, _ = run(capsys, "lnd", "exp", "--presentation", PRES, "--derivation", DER)
    assert (code, out) == (0, "x -> x; y -> y; u -> x^2*t + u; v -> y^2*t + v\n")


def test_classify_fg_text(capsys):
    code, out, _ = run(capsys, "classify", "fg", "x^2+y^2", "y^3")
    assert (code, out) == (
        0, "degrees (2, 3); boundary square 5; isomorphic to the pure-power hypersurface X_{2,3}\n"
    )


def test_cocycle_class_of_a_coboundary_is_trivial(capsys):
    code, out, _ = run(capsys, "cocycle", "class", "x + y^-1 + x^-1*y")
    assert (code, out) == (0, "trivial class\n")


def test_cocycle_normalize_of_a_coboundary_exits_1(capsys):
    code, out, err = run(capsys, "cocycle", "normalize", "x + y^-1 + x^-1*y")
    assert (code, out, err) == (1, "", "trivial class: no (m, n, p) normal form\n")


def test_verify_paper_default_table(capsys):
    """The default seed-0 text table, pinned by its sha256 like the JSON
    reports in ``test_claims.py``."""
    code, out, _ = run(capsys, "verify-paper")
    lines = out.splitlines()
    assert code == 0
    assert lines[0].split() == ["CLAIM", "SECTION", "STATUS", "DETAIL"]
    assert lines[-1] == "39 claims: 29 pass, 10 discrepancy-documented, 0 fail"
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2017860675618e168b0cc6568ba0fa9b285cb21d389df37ac7d8d6071469f186"
    )


# -- golden transcripts ----------------------------------------------------------------


def _golden_script():
    spec = importlib.util.spec_from_file_location("cli_golden", ROOT / "scripts" / "cli_golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_golden_transcripts():
    """Every case of ``tests/golden/cli.txt``, replayed through ``cli.main``:
    exit code, stdout and stderr byte for byte."""
    golden = _golden_script()
    cases = golden.read_cases()
    assert [argv for argv, *_ in cases] == golden.CASES
    differ = [argv for argv, *want in cases if golden.run_case(argv) != tuple(want)]
    assert differ == []


def _readme_command_lines():
    """Each ``gawb ...`` line of the README's "Command line" block as an argv,
    with ``matrix.json`` replaced by the matrix its comment shows."""
    block = (ROOT / "README.md").read_text().split("## Command line")[1].split("```")[1]
    block = block.replace("\\\n", " ")
    matrix = re.search(r"# (\[\[.*\]\])", block)[1]
    return [
        shlex.split(line, comments=True)[1:]
        for line in block.replace("matrix.json", shlex.quote(matrix)).splitlines()
        if line.startswith("gawb ")
    ]


def _expansions(tokens):
    """The argv shapes a README line allows: each optional ``[--flag ...]``
    group present or absent."""
    shapes = [[]]
    i = 0
    while i < len(tokens):
        if tokens[i].startswith("[--"):
            j = next(k for k in range(i, len(tokens)) if tokens[k].endswith("]"))
            group = " ".join(tokens[i:j + 1])[1:-1].split(" ")
            shapes = [s + extra for s in shapes for extra in ([], group)]
            i = j + 1
        else:
            shapes = [s + [tokens[i]] for s in shapes]
            i += 1
    return shapes


def _fits(shape, argv):
    """An upper-case placeholder such as ``CLAIM-ID`` stands for any value."""
    return len(shape) == len(argv) and all(
        s == a or re.fullmatch(r"[A-Z][A-Z-]+", s) for s, a in zip(shape, argv)
    )


def test_readme_command_lines_have_golden_cases():
    cases = _golden_script().CASES
    lines = _readme_command_lines()
    assert len(lines) == 15
    for tokens in lines:
        for prefix in ([], ["--json"]):
            assert any(_fits(prefix + shape, argv) for shape in _expansions(tokens) for argv in cases), (
                prefix, tokens)

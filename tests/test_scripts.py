"""Smoke runs of the layer and sweep scripts at their smallest settings, and
of the benchmark's self-test, one traced benchmark round and one untraced
affineness-sweep round.

``division_layer.py`` rebinds ``groebner.normal_form`` and ``poly.mono_mul``
by identity and wraps ``Poly.__mul__`` and ``Poly.derive``, ``parse_layer.py``
imports from it, and the benchmark's tracer finds its layers by function
name, so a rename in ``gawb`` breaks them without breaking any other test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(path, *args) -> str:
    env_path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(path), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": env_path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.parametrize(
    "script, args",
    [
        ("division_layer.py", ["--repeats", "1", "--bound", "4"]),
        ("parse_layer.py", ["--repeats", "1", "--count", "20"]),
        ("affineness_sweep.py", ["--max-m", "2", "--max-n", "2"]),
        ("splitting_grid.py", ["--max-m", "2"]),
    ],
)
def test_script_runs(script, args):
    out = _run(ROOT / "scripts" / script, *args)
    assert out
    if script == "division_layer.py":
        # one reduction per derivation step: the bound-4 tower of x applies
        # the derivation 5 times (23 normal forms when each product and
        # partial sum was reduced).  The first step, d(x) itself, returns
        # x's stored image; each of the other 4 has a multi-term p and makes
        # one Poly.derive call in the packed kernel, so none calls __mul__
        calls = {row.split()[0]: row.split()[1] for row in out.splitlines()[2:]}
        assert calls["groebner.normal_form"] == calls["Poly.derive"] == "4"
        assert calls["Poly.__mul__"] == "0"


def test_bench_selftest_passes():
    last = json.loads(_run(ROOT / "bench" / "selftest.py").splitlines()[-1])
    assert last["problems"] == 0 and last["verify_paper_byte_identical"]


def test_traced_bench_round_finds_its_layers():
    out = _run(
        ROOT / "bench" / "worker.py", "--workload", "verify-paper", "--seed", "1", "--round", "0", "--trace"
    )
    result = json.loads(out.splitlines()[-1])
    assert result["failed"] == result["wrong"] == 0
    assert result["layers"]["groebner.normal_form.calls"] > 0
    # the tracer wraps birkhoff_split and affineness_certificate by their
    # module attribute names, so a caller that bypasses one zeroes its layer
    assert result["layers"]["p1bundles.birkhoff_split.s"] > 0
    assert result["layers"]["cech.affineness_certificate.self_s"] > 0


def test_untraced_sweep_round_is_correct():
    """One untraced round of the affineness-sweep workload, the path
    its run time is measured on: 15,000 certificates, each checked against
    the benchmark's reference, with no wrapper in between."""
    out = _run(
        ROOT / "bench" / "worker.py", "--workload", "affineness-sweep", "--seed", "1", "--round", "0"
    )
    result = json.loads(out.splitlines()[-1])
    assert result["attempted"] == 15_000
    assert result["failed"] == result["wrong"] == 0, result["errors"]

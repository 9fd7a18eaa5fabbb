"""Smoke runs of the layer and sweep scripts at their smallest settings.

``division_layer.py`` rebinds ``groebner.normal_form`` and ``poly.mono_mul``
by identity and ``parse_layer.py`` imports from it, so a rename in ``gawb``
breaks them without breaking any other test.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


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
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()

"""The workbench's record classes and what importing them costs.

Only five records are dataclasses; the others are ``NamedTuple``s or plain
slotted classes, whose definition runs no generated code.  These tests pin
that split, the reason each dataclass gives for staying one, the checks the
validated constructors make, the equality and hash of the records callers
compare, and that ``gawb eval`` and ``gawb affine-cert`` import none of the
modules they do not use.
"""

import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gawb
from gawb.cech import CocycleClass
from gawb.claims import RunConfig
from gawb.derivations import ActionCheck, GroupLaw
from gawb.p1bundles import (
    NonMonomialDeterminantError,
    SplittingType,
    TorsorClass,
    TorsorTransition,
    TransitionMatrix2,
    u_poly,
)
from gawb.poly import Poly
from gawb.quotient import SmoothnessReport, SmoothnessVerdict
from gawb.surfaces import hirzebruch, scroll

SRC = Path(gawb.__file__).resolve().parents[1]

DATACLASSES = {
    "gawb.claims.Claim",
    "gawb.cech.NormalFormMNP",
    "gawb.cech.Case1Step",
    "gawb.cech.Case2Step",
    "gawb.cech.AffinenessCertificate",
}


def _gawb_classes():
    for info in pkgutil.iter_modules(gawb.__path__):
        mod = importlib.import_module(f"gawb.{info.name}")
        for cls in vars(mod).values():
            if inspect.isclass(cls) and cls.__module__ == mod.__name__:
                yield mod, cls


def test_dataclasses_are_the_documented_five():
    found = {f"{mod.__name__}.{cls.__name__}" for mod, cls in _gawb_classes()
             if dataclasses.is_dataclass(cls)}
    assert found == DATACLASSES


def test_each_dataclass_states_its_reason():
    """The comment above each ``@dataclass`` says what needs the dataclass
    machinery."""
    seen = set()
    for info in pkgutil.iter_modules(gawb.__path__):
        path = Path(gawb.__path__[0]) / f"{info.name}.py"
        lines = path.read_text().splitlines()
        for node in ast.walk(ast.parse("\n".join(lines))):
            if not isinstance(node, ast.ClassDef):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if isinstance(target, ast.Name) and target.id == "dataclass":
                    i = dec.lineno - 2
                    comment = []
                    while lines[i].lstrip().startswith("#"):
                        comment.insert(0, lines[i].strip())
                        i -= 1
                    assert "dataclass" in " ".join(comment).lower(), node.name
                    seen.add(f"gawb.{info.name}.{node.name}")
    assert seen == DATACLASSES


def test_eval_imports_no_registry_modules():
    """``gawb eval`` and ``gawb affine-cert`` import no module of the claim
    registry, the bundles or the surfaces."""
    env_path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    for argv, out in [
        (["eval", "x+1"], "x + 1"),
        (["affine-cert", "2", "2", "x*y"], "UnitCertificate: Case2(b=1, n->1) -> Case1(a=1, q0=1, k=1)"),
    ]:
        code = (
            "import sys\n"
            "from gawb import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            "print(sorted(m for m in ('gawb.claims', 'gawb.p1bundles', 'gawb.surfaces') if m in sys.modules))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": env_path}, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [out, "[]"]


@pytest.mark.parametrize("build, cls, message", [
    (lambda: TorsorTransition(0, u_poly("u")), ValueError, "d must be a positive integer"),
    (lambda: TorsorTransition(2, Poly.variable("x")), ValueError,
     "phi must be a Laurent polynomial in u"),
    (lambda: SplittingType(-3, -1), ValueError, "splitting type must be sorted a1 >= a2"),
    (lambda: TransitionMatrix2(((Poly.variable("x"), Poly.zero()), (Poly.zero(), Poly.const(1)))),
     ValueError, "matrix entries must be Laurent polynomials in u"),
    (lambda: TransitionMatrix2(((u_poly("u + 1"), Poly.zero()), (Poly.zero(), Poly.const(1)))),
     NonMonomialDeterminantError, "transition matrix must have a nonzero monomial determinant"),
])
def test_validated_constructor_raises(build, cls, message):
    with pytest.raises(cls, match=f"^{re.escape(message)}$") as e:
        build()
    assert type(e.value) is cls


@pytest.mark.parametrize("make, same, other", [
    (lambda: SplittingType(-1, -3), lambda: SplittingType(-1, -3), lambda: SplittingType(-2, -2)),
    (lambda: hirzebruch(1), lambda: hirzebruch(1), lambda: hirzebruch(2)),
    (lambda: scroll(3, 1), lambda: scroll(3, 1), lambda: scroll(2, 2)),
    (lambda: hirzebruch(1).divisor(1, 2), lambda: hirzebruch(1).divisor(1, 2),
     lambda: hirzebruch(2).divisor(1, 2)),
    (lambda: TorsorClass(3, (0, 1)), lambda: TorsorClass(3, (0, 1)), lambda: TorsorClass(3, (1, 0))),
    (lambda: CocycleClass.from_dict({(1, 2): 1}), lambda: CocycleClass.from_dict({(1, 2): 1}),
     lambda: CocycleClass.from_dict({(1, 2): 2})),
    (lambda: GroupLaw.semidirect(2), lambda: GroupLaw(True, True, 2), lambda: GroupLaw.semidirect(3)),
])
def test_compared_records_have_value_equality(make, same, other):
    a, b, c = make(), same(), other()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != c and not a == c


def test_splitting_type_is_not_a_tuple():
    assert SplittingType(-1, -3) != (-1, -3)
    assert {SplittingType(-1, -3), SplittingType(-1, -3)} == {SplittingType(-1, -3)}


def test_keyword_construction_and_fresh_defaults():
    cfg = RunConfig(seed=5)
    assert (cfg.seed, cfg.nilpotency_bound, cfg.power_bound, cfg.points) == (5, 64, 12, 20)
    a, b = ActionCheck("identity", True), ActionCheck("identity", True)
    assert a.residuals == {} and a.residuals is not b.residuals
    r, s = (SmoothnessReport(SmoothnessVerdict.SMOOTH_EVERYWHERE) for _ in range(2))
    assert r.puncture_powers == {} and r.puncture_powers is not s.puncture_powers
    assert r.detail == ""

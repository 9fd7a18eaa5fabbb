import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings

from gawb import catalog
from gawb.parse import parse_poly as pp
from gawb.poly import Poly, TermOrder
from gawb.quotient import (
    AlgebraPresentation,
    MismatchedPresentationsError,
    NotAUnitError,
    PresentationError,
    RationalPoint,
    SamplingError,
    SmoothnessVerdict,
    sample_point,
    smoothness_check,
    unit_ideal_test,
)

from conftest import polys


@pytest.fixture(scope="module")
def x22():
    return catalog.xmn_presentation(2, 2)


def test_normal_form_with_fiber_priority():
    pres = AlgebraPresentation(["v", "u", "x", "y"], ["x^2*v - y^2*u - 1"])
    e = pres.element("x^2*v")
    assert e == pres.element("y^2*u + 1")
    assert e.numer == pp("y^2*u + 1")
    assert pres.zero().numer.is_zero()
    assert pres.element("(x^2*v - y^2*u - 1)*u").is_zero()


def test_normal_form_idempotent_projection(x22):
    e = x22.element("x^2*v*u + y^2")
    again = x22._make(e.numer, e.denom)
    assert again.numer == e.numer
    a = x22.element("x^2*v")
    b = x22.element("y^2*u")
    assert (a + b).numer == a.numer + b.numer


def test_equality_modulo_relation(x22):
    assert x22.element("x^2*v") == x22.element("y^2*u + 1")
    assert x22.var("x") != x22.var("y")
    loc = catalog.xmn_presentation(1, 1, inverted=["x"])
    u1 = loc.element("y*x^-1")
    assert u1 * loc.var("x") == loc.var("y")


def test_localization_bookkeeping():
    loc = catalog.xmn_presentation(2, 2, inverted=["x", "y"])
    e = loc.element("u*x^-2")
    assert e.denom == (2, 0)
    f = e + loc.element("v*y^-2")
    assert f.denom == (2, 2)
    with pytest.raises(NotAUnitError):
        loc.element("v*u^-1")


def _pow_by_multiplying(e, k):
    """The reference power: k reducing multiplications, starting from 1."""
    out = e.ring.one()
    for _ in range(k):
        out = out * e
    return out


def _random_element(rng, pres, inverted):
    terms = []
    for _ in range(rng.randint(0, 4)):
        c = rng.choice([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
        exps = {v: rng.randint(-2 if v in inverted else 0, 2) for v in ("x", "y", "u", "v")}
        terms.append(f"({c})*" + "*".join(f"{v}^{e}" for v, e in exps.items()))
    return pres.element(" + ".join(terms) or "0")


@pytest.mark.parametrize("inverted", [(), ("x", "y")])
@pytest.mark.parametrize("m, n", [(m, n) for m in range(1, 4) for n in range(1, 4)])
def test_power_matches_repeated_multiplication(m, n, inverted):
    """One reduction of numer^k gives the same normal form, term for term and
    in the same order, as k reducing multiplications.  A coefficient may be
    an int on one side and an integral Fraction on the other; the values and
    the rendered text agree."""
    rng = random.Random(100 * m + 10 * n + len(inverted))
    pres = catalog.xmn_presentation(m, n, inverted=list(inverted))
    for _ in range(4):
        e = _random_element(rng, pres, inverted)
        for k in range(7):
            got, want = e ** k, _pow_by_multiplying(e, k)
            assert list(got.numer.terms.items()) == list(want.numer.terms.items())
            assert got.denom == want.denom
            assert got.render() == want.render()


def test_unit_ideal_certificate(x22):
    cert = unit_ideal_test(x22, ["x", "y"])
    assert cert.ok
    expanded = cert.expand([pp("x"), pp("y")], x22.relations)
    assert expanded == Poly.const(1)
    plain = AlgebraPresentation(["x", "y"])
    assert not unit_ideal_test(plain, ["x"]).ok


def test_unit_ideal_rejects_localized_elements():
    loc = catalog.xmn_presentation(2, 2, inverted=["x"])
    with pytest.raises(ValueError):
        unit_ideal_test(loc, [loc.element("u*x^-1")])


def test_smoothness_verdicts(x22):
    assert smoothness_check(x22).verdict == SmoothnessVerdict.SMOOTH_EVERYWHERE
    cusp = AlgebraPresentation(["x", "y"], ["x^2 - y^3"])
    rep = smoothness_check(cusp, puncture=("x", "y"))
    assert rep.verdict == SmoothnessVerdict.SMOOTH_OFF_PUNCTURE
    assert rep.puncture_powers == {"x": 1, "y": 2}
    double = AlgebraPresentation(["x", "y"], ["x^2"])
    assert smoothness_check(double).verdict == SmoothnessVerdict.INCONCLUSIVE


def test_smoothness_check_without_relations():
    """A polynomial ring is smooth everywhere; no Jacobian is formed."""
    rep = smoothness_check(AlgebraPresentation(["x", "y"]), puncture=("x",))
    assert rep.verdict == SmoothnessVerdict.SMOOTH_EVERYWHERE
    assert rep.detail == "no relations" and rep.puncture_powers == {}


def test_sample_point_needs_a_linear_variable():
    """No variable occurs linearly, or the only one has a coefficient that is
    not a monomial: nothing can be solved for."""
    for relation in ("x^2 - y^3", "(x + 1)*y - x^2"):
        pres = AlgebraPresentation(["x", "y"], [relation])
        with pytest.raises(SamplingError, match="^no variable occurs linearly with a monomial coefficient$"):
            sample_point(pres, seed=0)


def test_sample_point_rejection_budget(x22):
    with pytest.raises(SamplingError, match="^rejection budget of 0 exceeded$"):
        sample_point(x22, seed=1, rejection_budget=0)
    assert sample_point(x22, seed=1, rejection_budget=1).assignment == sample_point(x22, seed=1).assignment


def test_sample_point_solves_relation(x22):
    pt = sample_point(x22, seed=1)
    assert x22.element("x^2*v - y^2*u").evaluate(pt) == 1
    pt2 = sample_point(x22, seed=1)
    assert pt.assignment == pt2.assignment  # deterministic in the seed


def test_sample_point_avoids_inverted_loci():
    loc = catalog.xmn_presentation(1, 1, inverted=["x"])
    for s in range(5):
        assert sample_point(loc, seed=s).assignment["x"] != 0


def test_sample_point_reciprocal_relation():
    uv = AlgebraPresentation(["u", "v"], ["u*v - 1"])
    pt = sample_point(uv, seed=3)
    assert pt.assignment["u"] * pt.assignment["v"] == 1


def test_sample_point_needs_single_relation():
    pres, _ = catalog.zmnk_presentation(1, 1, 1)
    with pytest.raises(SamplingError):
        sample_point(pres, seed=0)


def test_rational_point_validation(x22):
    with pytest.raises(ValueError):
        RationalPoint(x22, {"x": 1, "y": 1, "u": 1, "v": 1})


def test_rational_point_missing_coordinates():
    xy = AlgebraPresentation(["x", "y"], ["x*y - 1"])
    with pytest.raises(ValueError, match=r"^missing coordinates \['y'\]$"):
        RationalPoint(xy, {"x": 1})


def test_presentation_text_roundtrip():
    text = "vars: x,y,u,v; invert: x; relations: x^2*v - y^2*u - 1"
    pres = AlgebraPresentation.from_text(text)
    assert AlgebraPresentation.from_text(pres.to_text()) == pres
    # canonical form is stable
    assert AlgebraPresentation.from_text(pres.to_text()).to_text() == pres.to_text()


def test_presentation_text_keeps_the_order():
    """``to_text`` writes the ``order:`` section for a non-default kind, so
    ``from_text`` gives back an equal presentation, extensions included.  A
    priority list other than ``vars`` has no text form: ``to_text`` raises,
    and ``repr`` names the order beside the text instead."""
    lex = AlgebraPresentation.from_text("vars: x,y,u; invert: y; relations: x^2 - y*u; order: lex")
    for pres in (lex, lex.extend(("t",), ["t + x"]), catalog.xmn_presentation(2, 2)):
        assert AlgebraPresentation.from_text(pres.to_text()) == pres
        assert repr(pres) == f"AlgebraPresentation({pres.to_text()!r})"
    assert lex.extend(("t",)).to_text().endswith("; order: lex")
    permuted = AlgebraPresentation(["x", "y"], ["x - y^2"], order=TermOrder("lex", ("y", "x")))
    with pytest.raises(ValueError, match=r"^TermOrder\('lex', \('y', 'x'\)\) ranks the variables in another order"):
        permuted.to_text()
    assert repr(permuted) == (
        "AlgebraPresentation('vars: x,y; relations: -y^2 + x', order=TermOrder('lex', ('y', 'x')))"
    )


def test_presentation_text_rejects_unknown_section():
    # "relation" is not a section: reading past it would drop the relation
    with pytest.raises(PresentationError, match="unknown presentation section 'relation'"):
        AlgebraPresentation.from_text("vars: x,y,u,v; relation: x^2*v - y^2*u - 1")


def test_presentation_text_rejects_repeated_section():
    with pytest.raises(PresentationError, match="section 'relations' given twice"):
        AlgebraPresentation.from_text("vars: x,y,u,v; relations: x^2*v - y^2*u - 1; relations: x")


def test_presentation_text_order_section():
    """``order: lex`` gives the lex basis and lex rendering; the default is
    degrevlex over the declared variables.  An order that leaves out a
    declared variable is refused."""
    text = "vars: x,y; relations: x^2 - y, y^2 - x"
    lex = AlgebraPresentation.from_text(text + "; order: lex")
    drl = AlgebraPresentation.from_text(text)
    assert lex.order == TermOrder("lex", ("x", "y")) and drl.order == TermOrder("degrevlex", ("x", "y"))
    assert lex.basis.polys == (pp("y^4 - y"), pp("x - y^2"))
    assert drl.basis.polys == (pp("y^2 - x"), pp("x^2 - y"))
    assert lex.element("x + y").render() == "y^2 + y" and drl.element("x + y").render() == "x + y"
    assert lex.to_text() == "vars: x,y; relations: x^2 - y, -x + y^2; order: lex"
    assert drl.to_text() == "vars: x,y; relations: x^2 - y, y^2 - x"
    with pytest.raises(PresentationError, match="^term order must cover exactly the declared variables$"):
        AlgebraPresentation(["x", "y"], ["x - y"], order=TermOrder("lex", ("x",)))
    with pytest.raises(ValueError, match="^unknown term order kind: 'grevlex'$"):
        AlgebraPresentation.from_text(text + "; order: grevlex")


def test_term_order_hash_and_repr():
    a, b = TermOrder("lex", ("x", "y")), TermOrder("lex", ["x", "y"])
    assert a == b and hash(a) == hash(b) and len({a, b, TermOrder("degrevlex", ("x", "y"))}) == 2
    assert a != TermOrder("lex", ("y", "x"))
    assert repr(a) == "TermOrder('lex', ('x', 'y'))" and eval(repr(a)) == a


def test_presentation_validation():
    with pytest.raises(PresentationError):
        AlgebraPresentation(["x", "x"])
    with pytest.raises(PresentationError):
        AlgebraPresentation(["x"], ["0"])
    with pytest.raises(PresentationError):
        AlgebraPresentation(["x"], ["x"], inverted=["x"])  # x is 0 mod (x)


def test_mismatched_presentations():
    a = catalog.xmn_presentation(1, 1)
    b = catalog.xmn_presentation(2, 1)
    with pytest.raises(MismatchedPresentationsError):
        a.var("x") + b.var("x")


def test_simplified_cancels_denominators():
    loc = catalog.xmn_presentation(2, 2, inverted=["x"])
    e = loc.element("x^3*u*x^-2").simplified()
    assert e.denom == (0,)
    assert e == loc.element("x*u")


@settings(max_examples=40, deadline=None)
@given(polys(variables=("x", "y", "u", "v"), max_terms=4, max_deg=2),
       polys(variables=("x", "y", "u", "v"), max_terms=3, max_deg=2))
def test_equality_soundness_on_points(p, q):
    # adding a multiple of the relation never changes equality or values
    pres = catalog.xmn_presentation(2, 2)
    rel = pres.relations[0]
    e1 = pres.element(p)
    e2 = pres.element(p + q * rel)
    assert e1 == e2
    for k in range(5):
        pt = sample_point(pres, seed=97 + k)
        assert e1.evaluate(pt) == e2.evaluate(pt)


def test_equality_soundness_100_points():
    pres = catalog.xmn_presentation(2, 2)
    rel = pres.relations[0]
    e1 = pres.element("x*u + y^2*v")
    e2 = pres.element(pp("x*u + y^2*v") + pp("x*y - 1") * rel)
    assert e1 == e2
    for k in range(100):
        pt = sample_point(pres, seed=4200 + k)
        assert e1.evaluate(pt) == e2.evaluate(pt)


def test_equality_completeness_on_points():
    # unequal elements must be separated by some sample point
    import random
    pres = catalog.xmn_presentation(2, 2)
    rng = random.Random(31)
    from conftest import seeded_poly
    for _ in range(20):
        e1 = pres.element(seeded_poly(rng, pres.variables, 3, 2))
        e2 = pres.element(seeded_poly(rng, pres.variables, 3, 2))
        equal = e1 == e2
        separated = False
        for k in range(100):
            pt = sample_point(pres, seed=9000 + k)
            if e1.evaluate(pt) != e2.evaluate(pt):
                separated = True
                break
        assert equal == (not separated)


def test_extend_appends_after_the_priority_list():
    """extend adjoins variables after the term order's priority list, not
    the declaration order, and with no new variables it only inverts."""
    pres = AlgebraPresentation(("x", "y"), ["x*y - 1"], order=TermOrder("lex", ("y", "x")))
    ext = pres.extend(["t"], ["t"])
    assert ext.variables == ("x", "y", "t")
    assert ext.order == TermOrder("lex", ("y", "x", "t"))
    assert ext.inverted == (Poly.variable("t"),)
    assert ext.element("x + t + y").render() == "y + x + t"
    assert ext.lift(pres.var("x")) * ext.var("y") == ext.one()
    loc = pres.extend((), ["x"])
    assert (loc.variables, loc.order, loc.relations) == (pres.variables, pres.order, pres.relations)
    assert loc.inverted == (Poly.variable("x"),)
    assert loc.var("x").unit_inverse() == loc.var("y")
    with pytest.raises(PresentationError):
        pres.extend(["y"])


def test_var_is_the_normal_form_of_the_variable():
    """var(v) skips the reduction only where no leading monomial of the basis
    divides v, and gives element(v) everywhere: with no relation, with
    leading monomials of degree above 1, with a variable as a leading
    monomial, and in the unit ideal."""
    cases = [
        AlgebraPresentation(("x", "y")),
        catalog.xmn_presentation(2, 3, inverted=("x",)),
        AlgebraPresentation(("x", "y", "z"), ["x - y - 1", "z^2 - y"]),
        AlgebraPresentation(("x", "y"), ["x", "x - 1"]),
    ]
    for pres in cases:
        for v in pres.variables:
            got, want = pres.var(v), pres.element(Poly.variable(v))
            assert list(got.numer.terms.items()) == list(want.numer.terms.items())
            assert got.denom == want.denom
    assert cases[2].var("x") == cases[2].element("y + 1") and cases[3].var("y").is_zero()


def test_extend_reuses_the_reduced_basis(monkeypatch):
    """``extend`` keeps the parent's reduced basis; a fresh Buchberger run
    over the extended order gives the same polynomials, leads and order.
    Checked on the ``lnd`` presentations of one benchmark queries round (with
    and without ``invert: x``), each extended by a parameter t as the
    exponential does, with t inverted or not, and on the X(m, n)
    presentations with parameter t."""
    from gawb import groebner

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import inputs

    texts = {q["presentation"] for q in inputs.query_inputs(0, 0, 2156) if q["kind"] == "lnd"}
    assert len(texts) == 588 and sum("invert: x" in t for t in texts) == 196
    bases = [AlgebraPresentation.from_text(t) for t in sorted(texts)]
    bases += [catalog.xmn_presentation(m, n, inv) for m in (1, 2, 3) for n in (1, 2, 3) for inv in ((), ("x",))]
    bases.append(AlgebraPresentation(["x", "y", "z"], ["x*y - z^2", "y^3 - x"], order=TermOrder("lex", "zyx")))
    for k, base in enumerate(bases):
        ext = base.extend(["t"], [Poly.variable("t")] if k % 2 else [])
        fresh = groebner.buchberger(list(ext.relations), ext.order)
        assert ext.basis.order == ext.order == TermOrder(base.order.kind, base.order.variables + ("t",))
        assert ext.basis.polys == fresh.polys and ext.basis.leads == fresh.leads
        assert ext.basis.generators == fresh.generators

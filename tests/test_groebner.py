import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from gawb.groebner import (
    GroebnerBudgetExceeded,
    buchberger,
    leading_term,
    normal_form,
    reduce_poly,
)
from gawb.parse import parse_poly as pp
from gawb.poly import Poly, TermOrder, mono

from conftest import polys, seeded_poly

OX = TermOrder("degrevlex", ("x", "y", "u", "v"))
OXY = TermOrder("degrevlex", ("x", "y"))


def test_single_generator():
    gb = buchberger([pp("x")], OX)
    assert [p for p in gb.polys] == [pp("x")]


def test_unit_ideal_with_relation():
    gb = buchberger([pp("x^2*v - y^2*u - 1"), pp("x"), pp("y")], OX)
    assert gb.is_unit_ideal()


def test_already_reduced_pair():
    gb = buchberger([pp("x^2"), pp("x*y")], OX)
    assert set(map(lambda p: leading_term(p, OX)[0], gb.polys)) == {mono(x=2), mono(x=1, y=1)}
    assert len(gb.polys) == 2


def test_membership_basics():
    gb = buchberger([pp("x")], OX)
    assert gb.contains(pp("x^2"))
    gbxy = buchberger([pp("x"), pp("y")], OX)
    assert not gbxy.contains(pp("1"))
    rel = pp("x^2*v - y^2*u - 1")
    assert buchberger([rel], OX).contains(rel)


def _division_inputs(count=60):
    """The fixed case, then seeded divisor lists that each hold a zero divisor."""
    yield pp("x^3*y + x*y^2 - 2*x + y"), [pp("x^2 + y"), pp("x*y - 1")]
    rng = random.Random(2024)
    for _ in range(count):
        divisors = [seeded_poly(rng, ("x", "y"), 3, 3, nonzero=True) for _ in range(rng.randint(1, 3))]
        divisors.insert(rng.randint(0, len(divisors)), Poly.zero())
        yield seeded_poly(rng, ("x", "y"), 6, 5), divisors


def test_division_certificate_exact():
    coeff_types = set()
    for p, divisors in _division_inputs():
        qs, r = reduce_poly(p, divisors, OXY)
        recombined = r
        for q, d in zip(qs, divisors):
            recombined = recombined + q * d
            if d.is_zero():
                assert q.is_zero()
            coeff_types.update(type(c) for c in d.terms.values())
        assert recombined == p
        leads = [leading_term(d, OXY)[0] for d in divisors if not d.is_zero()]
        for m in r.terms:
            assert not any(_divides(lm, m) for lm in leads)
        assert normal_form(p, divisors, OXY) == r
        gb = buchberger(divisors, OXY, budget=4000)
        assert buchberger(divisors, OXY, budget=4000, with_cofactors=True).polys == gb.polys
    assert coeff_types == {int, Fraction}


def _divides(a, b):
    db = dict(b)
    return all(0 < e <= db.get(v, 0) for v, e in a)


def test_rejects_laurent_input():
    with pytest.raises(ValueError):
        buchberger([pp("x^-1")], OXY)
    with pytest.raises(ValueError):
        normal_form(pp("x^-1"), [pp("x")], OXY)
    # a computed basis checks only the polynomial it is asked to reduce
    gb = buchberger([pp("x"), pp("y^2")], OXY)
    for p in (pp("x^-1"), pp("y^2 + x*y^-1")):
        with pytest.raises(ValueError):
            gb.normal_form(p)
        with pytest.raises(ValueError):
            gb.contains(p)


def test_budget_error():
    gens = [pp("x^3 - 2*x*y"), pp("x^2*y - 2*y^2 + x")]
    with pytest.raises(GroebnerBudgetExceeded):
        buchberger(gens, OXY, budget=0)


def test_cofactors_expand_to_basis():
    gens = [pp("x^2*v - y^2*u - 1"), pp("x^3"), pp("y^3 - x")]
    gb = buchberger(gens, OX, with_cofactors=True)
    for b, cof in zip(gb.polys, gb.cofactors):
        acc = Poly.zero()
        for c, g in zip(cof, gb.generators):
            acc = acc + c * g
        assert acc == b


@settings(max_examples=60, deadline=None)
@given(polys(max_terms=3, max_deg=3), polys(max_terms=3, max_deg=3))
def test_normal_form_idempotent_and_linear(a, b):
    gens = [g for g in (a, b) if not g.is_zero()]
    if not gens:
        return
    gb = buchberger(gens, OXY, budget=4000)
    rng = random.Random(7)
    p = seeded_poly(rng, ("x", "y"), 4, 3)
    q = seeded_poly(rng, ("x", "y"), 4, 3)
    nfp = gb.normal_form(p)
    assert gb.normal_form(nfp) == nfp
    assert gb.normal_form(p + q) == gb.normal_form(p) + gb.normal_form(q)
    assert gb.normal_form(p.scale(3)) == nfp.scale(3)


@settings(max_examples=60, deadline=None)
@given(polys(max_terms=3, max_deg=2), polys(max_terms=3, max_deg=2),
       polys(max_terms=2, max_deg=2), polys(max_terms=2, max_deg=2))
def test_random_combinations_are_members(g1, g2, c1, c2):
    gens = [g for g in (g1, g2) if not g.is_zero()]
    if not gens:
        return
    gb = buchberger(gens, OXY, budget=4000)
    combo = c1 * gens[0] + c2 * gens[-1]
    assert gb.contains(combo)


def test_cyclic3_reduced_basis():
    # the classical symmetric system has a known reduced basis under degrevlex
    o = TermOrder("degrevlex", ("x", "y", "z"))
    gb = buchberger([pp("x+y+z"), pp("x*y+y*z+z*x"), pp("x*y*z-1")], o)
    assert list(gb.polys) == [pp("x+y+z"), pp("y^2+y*z+z^2"), pp("z^3-1")]


def test_zero_generators_dropped():
    gb = buchberger([pp("0"), pp("x"), pp("0")], OXY)
    assert list(gb.polys) == [pp("x")]

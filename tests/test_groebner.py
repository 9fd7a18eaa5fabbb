import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from gawb.groebner import (
    GroebnerBudgetExceeded,
    _divide,
    buchberger,
    leading_term,
    normal_form,
    reduce_poly,
)
from gawb.parse import parse_poly as pp
from gawb.poly import Poly, TermOrder, mono, mono_div, mono_divides, mono_from_map, mono_mul

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


def _reference_divide(p, divisors, order, quotients=None, returns=None):
    """The reference division loop: each leading term comes from a max()
    scan over the working terms, and every quotient coefficient is a
    Fraction.  ``returns`` (a one-element list) counts the terms that
    cancel and later come back into the working terms."""
    key = order.key
    lead = []
    for i, d in enumerate(divisors):
        if d.terms:
            lm, lc = leading_term(d, order)
            lead.append((lm, lc, d, None if quotients is None else quotients[i]))
    remainder = {}
    work = dict(p.terms)
    cancelled = set()
    while work:
        m = max(work, key=key)
        c = work.pop(m)
        for lm, lc, d, q in lead:
            if mono_divides(lm, m):
                qm = mono_div(m, lm)
                qc = Fraction(c) / Fraction(lc)
                if q is not None:
                    q[qm] = qc
                for tm, tc in d.terms.items():
                    if tm == lm:
                        continue
                    mm = mono_mul(tm, qm)
                    n = work.get(mm, 0) - qc * tc
                    if n:
                        if returns is not None and mm not in work and mm in cancelled:
                            returns[0] += 1
                        work[mm] = n
                    elif mm in work:
                        del work[mm]
                        cancelled.add(mm)
                break
        else:
            remainder[m] = c
    return Poly(remainder)


def _small_poly(rng, variables, max_terms, max_deg, ints):
    p = Poly.zero()
    while p.is_zero():
        for _ in range(rng.randint(1, max_terms)):
            num, den = rng.choice((-3, -2, -1, 1, 2, 3)), 1 if ints else rng.choice((1, 1, 2, 3))
            c = Fraction(num, den) if den > 1 else num
            p = p + Poly.monomial(mono_from_map({v: rng.randint(0, max_deg) for v in variables}), c)
    return p


def _heap_division_inputs(count=240):
    """(p, divisors, order): a hand-built case, then seeded ones.  Each seeded
    p is a combination of its divisors plus a few terms, so that terms
    cancel during the division, and some of them come back."""
    # lex x > y: dividing x^2 by x + y cancels x*y, and dividing x*y^2 by
    # y^2 - y brings it back
    yield pp("x^2 + x*y^2 + x*y"), [pp("y^2 - y"), pp("x + y")], TermOrder("lex", ("x", "y"))
    rng = random.Random(909)
    for k in range(count):
        variables = ("x", "y", "z")[: rng.randint(2, 3)]
        order = TermOrder(("lex", "degrevlex")[k % 2], variables)
        ints = k % 4 < 2
        divisors = [_small_poly(rng, variables, 3, 2, ints) for _ in range(rng.randint(1, 3))]
        p = _small_poly(rng, variables, 3, 3, ints)
        for d in divisors:
            p = p + _small_poly(rng, variables, 3, 2, ints) * d
        if rng.random() < 0.5:
            divisors.insert(rng.randint(0, len(divisors)), Poly.zero())
        yield p, divisors, order


def test_heap_division_matches_reference():
    """The heap loop pops the monomials the max() scan pops: remainders and
    quotients agree term for term and in insertion order, and coefficients
    stay int while every leading coefficient divided by is 1 or -1."""
    returns = [0]
    seen = set()
    for p, divisors, order in _heap_division_inputs():
        ref_q = [{} for _ in divisors]
        ref_r = _reference_divide(p, divisors, order, ref_q, returns)
        heap_q = [{} for _ in divisors]
        heap_r = _divide(p, divisors, order, heap_q)
        assert list(heap_r.terms.items()) == list(ref_r.terms.items())
        assert [list(q.items()) for q in heap_q] == [list(q.items()) for q in ref_q]
        assert list(_divide(p, divisors, order).terms.items()) == list(ref_r.terms.items())
        lcs = [leading_term(d, order)[1] for d in divisors if not d.is_zero()]
        units = all(lc in (1, -1) for lc in lcs)
        ints = all(type(c) is int for d in divisors for c in d.terms.values())
        ints = ints and all(type(c) is int for c in p.terms.values())
        if units and ints:
            out = list(heap_r.terms.values()) + [c for q in heap_q for c in q.values()]
            assert all(type(c) is int for c in out)
        seen.add(order.kind)
        seen.add("int" if ints else "fraction")
        seen.add("unit leads" if units else "other leads")
        if any(d.is_zero() for d in divisors):
            seen.add("zero divisor")
    assert returns[0] > 0
    assert seen == {"lex", "degrevlex", "int", "fraction", "unit leads", "other leads", "zero divisor"}


def _irreducible_division_inputs(count=120):
    """(p, divisors, order, divisible): seeded p over 2 or 3 variables and
    divisor lists, some empty or holding a zero divisor.  Half of the p keep
    only terms that no leading monomial divides, so the division returns
    early; the other half keep one divisible term, so it runs the loop."""
    rng = random.Random(3000)
    for k in range(count):
        variables = ("x", "y", "z")[: rng.randint(2, 3)]
        order = TermOrder(("lex", "degrevlex")[k % 2], variables)
        ints = k % 4 < 2
        divisors = [_small_poly(rng, variables, 3, 3, ints) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.3:
            divisors.insert(rng.randint(0, len(divisors)), Poly.zero())
        leads = [leading_term(d, order)[0] for d in divisors if not d.is_zero()]
        p = _small_poly(rng, variables, 6, 4, ints)
        kept = {m: c for m, c in p.terms.items() if not any(mono_divides(lm, m) for lm in leads)}
        divisible = k % 2 == 1 and len(kept) < len(p.terms)
        if divisible:
            m = next(m for m in p.terms if m not in kept)
            kept[m] = p.terms[m]
        if kept:
            yield Poly(kept), divisors, order, divisible


def test_early_return_matches_heap_loop():
    """A p that nothing divides comes back at once, sorted as the loop pops
    it: the same remainder, term order and (empty) quotients as the
    reference loop; a p with a divisible term still runs the loop."""
    seen = set()
    for p, divisors, order, divisible in _irreducible_division_inputs():
        ref_q = [{} for _ in divisors]
        ref_r = _reference_divide(p, divisors, order, ref_q)
        got_q = [{} for _ in divisors]
        got_r = _divide(p, divisors, order, got_q)
        assert list(got_r.terms.items()) == list(ref_r.terms.items())
        assert [list(q.items()) for q in got_q] == [list(q.items()) for q in ref_q]
        assert list(_divide(p, divisors, order).terms.items()) == list(ref_r.terms.items())
        if not divisible:
            assert got_r == p and not any(got_q)
            assert list(got_r.terms) == order.sorted_monos(p.terms)
        seen.add("divisible" if divisible else "irreducible")
        seen.add("divisors" if any(d.terms for d in divisors) else "no divisors")
        seen.add(order.kind)
    assert seen == {"divisible", "irreducible", "no divisors", "divisors", "lex", "degrevlex"}


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


def test_unit_leads_keep_int_coefficients():
    """S-polynomials and the monic scaling divide by leading coefficients 1
    and -1 without leaving int; a non-unit lead still gives a Fraction."""
    o3 = TermOrder("degrevlex", ("x", "y", "z"))
    systems = [
        ([pp("x+y+z"), pp("x*y+y*z+z*x"), pp("x*y*z-1")], o3),
        ([pp("-x^2+y"), pp("x*y - 1")], TermOrder("lex", ("x", "y"))),
    ]
    for gens, order in systems:
        gb = buchberger(gens, order, with_cofactors=True)
        coeffs = [c for p in gb.polys for c in p.terms.values()]
        coeffs += [c for row in gb.cofactors for p in row for c in p.terms.values()]
        assert {type(c) for c in coeffs} == {int}
    assert list(buchberger([pp("2*x - 1")], OXY).polys[0].terms.values()) == [1, Fraction(-1, 2)]


def test_zero_generators_dropped():
    gb = buchberger([pp("0"), pp("x"), pp("0")], OXY)
    assert list(gb.polys) == [pp("x")]

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from gawb import poly
from gawb.poly import (
    LaurentSubstitutionError,
    Poly,
    TermOrder,
    _product_sum,
    mono,
    mono_exp,
    mono_factors,
    mono_from_map,
    mono_mul,
    render_poly,
)
from gawb.parse import parse_poly

from conftest import polys, seeded_poly


def test_product_difference_of_squares():
    x, y = Poly.variable("x"), Poly.variable("y")
    assert (x + y) * (x - y) == x * x - y * y


def test_pow_zero_is_one():
    p = parse_poly("x + y")
    assert p ** 0 == Poly.const(1)
    assert Poly.zero() ** 0 == Poly.const(1)


def test_negative_pow_requires_single_term():
    assert parse_poly("x*y") ** -2 == Poly.monomial(mono(x=-2, y=-2))
    with pytest.raises(LaurentSubstitutionError):
        parse_poly("x + y") ** -1


def test_scaling_substitution_leaves_relation_invariant():
    # x -> lam x, y -> lam y, u -> lam^-1 u, v -> lam^-1 v for exponents (1,1)
    rel = parse_poly("x*v - y*u - 1")
    lam = Poly.variable("lam")
    sub = rel.substitute({
        "x": lam * Poly.variable("x"),
        "y": lam * Poly.variable("y"),
        "u": parse_poly("lam^-1*u"),
        "v": parse_poly("lam^-1*v"),
    })
    assert sub == rel


def test_substitute_negative_exponent_needs_unit_target():
    p = parse_poly("x^-1*y")
    with pytest.raises(LaurentSubstitutionError):
        p.substitute({"x": parse_poly("x + 1")})
    assert p.substitute({"x": parse_poly("2*x")}) == parse_poly("1/2*x^-1*y")


def test_homogeneous_degree():
    assert parse_poly("x^2 + y^2").homogeneous_degree(("x", "y")) == 2
    assert parse_poly("x^2 + y^3").homogeneous_degree(("x", "y")) is None
    assert parse_poly("x*y^2 + y^3").homogeneous_degree(("x", "y")) == 3
    assert parse_poly("x^2*u + y^2*v").homogeneous_degree(("x", "y")) == 2


def test_homogeneous_degree_rejects_laurent():
    with pytest.raises(ValueError):
        parse_poly("x^-1").homogeneous_degree(("x",))


def test_differentiate():
    assert parse_poly("x^2*y").differentiate("x") == parse_poly("2*x*y")
    assert parse_poly("x^-2").differentiate("x") == parse_poly("-2*x^-3")
    assert parse_poly("y").differentiate("x").is_zero()


def _reference_differentiate(p, var):
    """The derivative through ``mono_mul``: divide each monomial by var and
    merge the terms that meet."""
    d = {}
    for m, c in p.terms.items():
        e = mono_exp(m, var)
        if e == 0:
            continue
        nm = mono_mul(m, ((var, -1),))
        n = d.get(nm, 0) + c * e
        if n:
            d[nm] = n
        elif nm in d:
            del d[nm]
    return Poly(d)


def test_differentiate_matches_mono_mul_walk():
    """The in-place exponent drop gives the reference's terms, in the same
    insertion order, on seeded Laurent polynomials with exponents in -3..3:
    the variable drops out at exponent 1 and negative exponents fall."""
    rng = random.Random(1517)
    seen = set()
    for _ in range(400):
        p = seeded_poly(rng, ("x", "y", "z"), 6, 3, laurent=True)
        for var in ("x", "y", "z", "w"):
            got, want = p.differentiate(var), _reference_differentiate(p, var)
            assert list(got.terms.items()) == list(want.terms.items())
            for m in p.terms:
                e = mono_exp(m, var)
                seen.add("drops out" if e == 1 else "negative" if e < 0 else "positive" if e else "absent")
    assert seen == {"drops out", "negative", "positive", "absent"}


def test_evaluate_exact():
    p = parse_poly("1/2*x^2 - y^-1")
    assert p.evaluate({"x": Fraction(2, 3), "y": Fraction(3)}) == Fraction(2, 9) - Fraction(1, 3)
    with pytest.raises(ZeroDivisionError):
        parse_poly("x^-1").evaluate({"x": 0})


def test_degrevlex_vs_lex():
    # under (x,y,u,v) priority the revlex tie-break puts y^2*u above x^2*v;
    # prioritizing v reverses that, which the quotient normal forms rely on
    o = TermOrder("degrevlex", ("x", "y", "u", "v"))
    assert o.key(mono(y=2, u=1)) > o.key(mono(x=2, v=1))
    ov = TermOrder("degrevlex", ("v", "u", "x", "y"))
    assert ov.key(mono(x=2, v=1)) > ov.key(mono(y=2, u=1))
    lexo = TermOrder("lex", ("x", "y"))
    assert lexo.key(mono(x=1)) > lexo.key(mono(y=4))


def test_render_canonical():
    o = TermOrder("degrevlex", ("x", "y", "u", "v"))
    p = parse_poly("x^2*v - y^2*u - 1")
    assert render_poly(p, o) == "-y^2*u + x^2*v - 1"
    assert render_poly(Poly.zero()) == "0"


# The renderer as it stood before the shared monomial tables: every call
# walks each monomial's exponent vector over the order's variables for its
# sort key and its text, and keeps nothing.

def _reference_key(order, exps):
    if order.kind == "lex":
        return tuple(exps)
    return (sum(exps), tuple(-e for e in reversed(exps)))


def _reference_render_poly(p, order=None):
    if not p.terms:
        return "0"
    if order is None:
        order = TermOrder("degrevlex", sorted(p.variables()))
    pos = {v: i for i, v in enumerate(order.variables)}
    rows = []
    for m, c in p.terms.items():
        exps = [0] * len(pos)
        for v, e in m:
            if v not in pos:
                raise ValueError(f"variable {v!r} not covered by term order")
            exps[pos[v]] = e
        text = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(order.variables, exps) if e)
        rows.append((_reference_key(order, exps), text, c))
    rows.sort(reverse=True)
    parts = []
    for _, body, c in rows:
        neg = c < 0
        ac = -c if neg else c
        if not body:
            body = str(ac)
        elif ac != 1:
            body = f"{ac}*{body}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


def _render_outcome(render, p, order):
    try:
        return render(p, order)
    except ValueError as e:
        return (type(e), str(e))


def test_render_matches_reference():
    """Seeded Laurent polynomials with int, Fraction and integral Fraction
    coefficients, constant terms and zero, under degrevlex and lex with
    shuffled priority lists, without an order, and under orders that miss a
    variable (TermOrder.key's ValueError)."""
    rng = random.Random(2203)
    names = ["x", "y", "u", "v", "w"]
    seen = set()
    for _ in range(600):
        variables = rng.sample(names, rng.randint(1, 4))
        p = seeded_poly(rng, tuple(variables), max_terms=6, max_deg=3, laurent=True)
        if rng.random() < 0.3:
            p = p + Poly.const(rng.choice((1, -1, 2, Fraction(1, 3))))
        if rng.random() < 0.2 and p.terms:
            m = rng.choice(list(p.terms))
            p = Poly._raw({**p.terms, m: Fraction(rng.choice((1, -1, 3)))})
        covered = list(variables) if rng.random() < 0.85 else variables[1:]
        covered += rng.sample([v for v in names if v not in variables], rng.randint(0, 1))
        rng.shuffle(covered)
        for order in (TermOrder("degrevlex", covered), TermOrder("lex", covered), None):
            want = _render_outcome(_reference_render_poly, p, order)
            assert _render_outcome(render_poly, p, order) == want, (p.terms, order)
            seen.add("error" if isinstance(want, tuple) else "zero" if want == "0" else "text")
        seen.update(type(c).__name__ for c in p.terms.values())
        seen.update("constant" for m in p.terms if m == ())
    assert seen == {"error", "zero", "text", "int", "Fraction", "constant"}
    with pytest.raises(ValueError, match="^variable 'y' not covered by term order$"):
        render_poly(parse_poly("x + y"), TermOrder("lex", ("x",)))


def test_shared_tables_render_like_the_reference():
    """Seeded Laurent polynomials over (x, y, z) render as the per-call
    reference does under lex and degrevlex orders built afresh for each call,
    interleaved, and without an order.  Orders of one kind over the same
    variables share one table, the two kinds never share rows, a key alone
    builds no text, and rendering more distinct monomials than
    MONOMIAL_TABLE_SIZE empties each table instead of growing it past the
    bound."""
    rng = random.Random(2611)
    variables = ("x", "y", "z")
    bound = poly.MONOMIAL_TABLE_SIZE
    shared = {kind: TermOrder(kind, variables) for kind in ("lex", "degrevlex")}
    assert TermOrder("lex", list(variables))._rows is shared["lex"]._rows
    assert shared["lex"]._rows is not shared["degrevlex"]._rows
    grid = [(i, j, k) for i in range(-12, 13) for j in range(-12, 13) for k in range(-12, 13)]
    rng.shuffle(grid)
    emptied = set()
    for start in range(0, bound + 1000, 40):
        p = Poly({mono_from_map({"x": i, "y": j, "z": k}): rng.choice((1, -1, 3, Fraction(-2, 5)))
                  for i, j, k in grid[start:start + 40]})
        for order in (TermOrder("lex", variables), TermOrder("degrevlex", variables), None):
            table = shared[order.kind if order else "degrevlex"]
            before = len(table._rows)
            assert render_poly(p, order) == _reference_render_poly(p, order)
            assert len(table._rows) <= len(table._keys) <= bound
            if len(table._rows) < before:
                emptied.add(table.kind)
        m = mono_from_map({"x": rng.randint(13, 20), "y": -1})
        for order in (TermOrder("lex", variables), TermOrder("degrevlex", variables)):
            assert order.key(m) == _reference_key(order, [mono_exp(m, v) for v in variables])
            assert m not in order._rows
    assert emptied == {"lex", "degrevlex"}


@settings(max_examples=150, deadline=None)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Poly.zero() == a
    assert a * Poly.const(1) == a


@settings(max_examples=150, deadline=None)
@given(polys(laurent=True))
def test_parse_render_roundtrip(p):
    assert parse_poly(render_poly(p)) == p


@settings(max_examples=100, deadline=None)
@given(polys(), polys())
def test_substitution_is_ring_homomorphism(a, b):
    target = {"x": parse_poly("y + 1"), "y": parse_poly("x*y")}
    assert (a * b).substitute(target) == a.substitute(target) * b.substitute(target)
    assert (a + b).substitute(target) == a.substitute(target) + b.substitute(target)


def _fraction_product(a, b, cancellations):
    """The product with every coefficient made a Fraction, visiting the term
    pairs in the order Poly.__mul__ does (the shorter operand outside).
    ``cancellations`` (a one-element list) counts terms that cancel."""
    a, b = a.terms, b.terms
    if len(a) > len(b):
        a, b = b, a
    d = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = mono_mul(m1, m2)
            n = d.get(m, 0) + Fraction(c1) * Fraction(c2)
            if n:
                d[m] = n
            elif m in d:
                del d[m]
                cancellations[0] += 1
    return d


def _as_ints(p):
    """p with each coefficient replaced by its numerator, an int."""
    return Poly({m: c.numerator for m, c in p.terms.items()})


def _product_cases(count=300):
    """Seeded operand pairs: Laurent or regular, int-only or mixed, some
    single-term, and some of the form (a, a with some terms negated), whose
    cross terms cancel."""
    rng = random.Random(4242)
    for k in range(count):
        laurent = k % 3 == 0
        a = seeded_poly(rng, ("x", "y", "z"), 5, 2, laurent=laurent)
        if k % 5 == 0:
            b = Poly({m: -c if rng.random() < 0.5 else c for m, c in a.terms.items()})
        elif k % 5 == 1:
            b = seeded_poly(rng, ("x", "y", "z"), 1, 3, laurent=laurent)
        else:
            b = seeded_poly(rng, ("x", "y", "z"), 6, 2, laurent=laurent)
        if k % 4 == 0:
            a = _as_ints(a)
        if k % 8 == 0:
            b = _as_ints(b)
        yield a, b


def test_mul_matches_fraction_product():
    """Poly.__mul__ (int arithmetic over a common denominator, and the
    single-term path) gives the plain Fraction product term for term, in the
    same insertion order, with no zero terms and int-only products in int."""
    cancellations = [0]
    seen = set()
    for a, b in _product_cases():
        expected = _fraction_product(a, b, cancellations)
        got = a * b
        assert list(got.terms.items()) == list(expected.items())
        assert all(got.terms.values())
        assert (b * a).terms == expected
        if all(type(c) is int for p in (a, b) for c in p.terms.values()):
            assert all(type(c) is int for c in got.terms.values())
            seen.add("int only")
        else:
            seen.add("mixed")
        if not (a.is_regular() and b.is_regular()):
            seen.add("laurent")
        if min(len(a.terms), len(b.terms)) == 1:
            seen.add("single term")
    assert cancellations[0] > 0
    assert seen == {"int only", "mixed", "laurent", "single term"}


def _generic_derive(p, images):
    """The sum of images[v] * dp/dv, one product and one sum per variable."""
    total = Poly.zero()
    for v, img in images.items():
        total = total + img * p.differentiate(v)
    return total


def test_derive_matches_generic_sum():
    """Poly.derive, and the packed product kernel that differentiates as it
    multiplies (called directly too, so that single-term inputs reach it),
    give the generic sum's coefficients term for term, the kernel with no
    zero terms and int-only inputs in int, over six variables whose exponent
    ranges differ (up to 40, so that fields differ in width): Laurent or
    regular p, int-only or Fraction coefficients, zero images, images in
    variables p lacks, and sums that cancel to zero, wholly or in part.
    Insertion order is not compared: apply_poly reduces the sum, and the
    normal form writes its terms in the term order."""
    variables = ("a", "b", "c", "u", "x", "y")
    degree = {"a": 1, "b": 2, "c": 40, "u": 3, "x": 40, "y": 5}
    rng = random.Random(1616)
    seen = set()

    def draw(names, terms, laurent):
        p = Poly.zero()
        for _ in range(rng.randint(1, terms)):
            exps = {v: rng.randint(-degree[v] if laurent else 0, degree[v]) for v in names}
            p = p + seeded_poly(rng, (), 1, 0, nonzero=True).mul_monomial(mono_from_map(exps))
        return p

    for k in range(300):
        laurent = k % 3 == 0
        p = draw(rng.sample(variables, rng.randint(1, 4)), 5, laurent)
        images = {v: draw(rng.sample(variables, rng.randint(1, 6)), 4, laurent) for v in p.variables()}
        for v in rng.sample(sorted(images), min(len(images), rng.randint(0, 1))):
            images[v] = Poly.zero()
            seen.add("zero image")
        if k % 4 == 0:
            p, images = _as_ints(p), {v: _as_ints(img) for v, img in images.items()}
        if k % 5 == 0:
            # g * (x d/dx - y d/dy) kills every polynomial in x*y
            f, g = draw(["x"], 4, laurent), draw(variables, 3, laurent)
            p = f.substitute({"x": Poly.monomial(mono(x=1, y=1))})
            images = {"x": g.mul_monomial(mono(x=1)), "y": -g.mul_monomial(mono(y=1))}
        want = _generic_derive(p, images)
        assert p.derive(images).terms == want.terms
        got = _product_sum(p.terms, {v: img.terms for v, img in images.items()})
        assert got.terms == want.terms
        assert all(got.terms.values())
        packed = len(p.terms) > 1 and any(len(img.terms) > 1 for img in images.values())
        seen.add("packed" if packed else "generic")
        if all(type(c) is int for q in (p, *images.values()) for c in q.terms.values()):
            assert all(type(c) is int for c in got.terms.values())
            seen.add("int only")
        else:
            seen.add("fraction")
        if any(img.variables() - p.variables() for img in images.values()):
            seen.add("foreign variables")
        if p.variables() and not got.terms:
            seen.add("cancels to zero")
        if not p.is_regular():
            seen.add("laurent")
    assert seen == {
        "zero image", "int only", "fraction", "foreign variables", "cancels to zero", "laurent", "packed", "generic",
    }


def test_integral_coefficients_come_back_as_int():
    """Products over a common denominator divide each output term back once,
    to an int whenever the quotient is integral: a product (in
    ``Poly.__mul__``) and a derivation step (in the packed kernel) of
    Fraction operands hold no Fraction(n, 1)."""
    got = parse_poly("1/2*x + 1/2") * parse_poly("2*x - 2")
    assert list(got.terms.items()) == [(mono(x=2), 1), ((), -1)]
    assert all(type(c) is int for c in got.terms.values())
    p = parse_poly("3/2*x^2 + 1/2*y^2 + 1/3*u^3 + 1/4*v^4")
    images = {v: parse_poly(text) for v, text in
              {"x": "2/3*y + 2/3*v", "y": "4*x + 2", "u": "3*x + 3", "v": "4*y + 4"}.items()}
    assert len(p.terms) > 1 and len(images["x"].terms) > 1  # the packed kernel's side
    got = p.derive(images)
    assert got == parse_poly("6*x*y + 2*x*v + 2*y + 3*x*u^2 + 3*u^2 + 4*y*v^3 + 4*v^3")
    assert all(type(c) is int for c in got.terms.values())


def test_int_and_fraction_forms_agree():
    """An int coefficient and the equal Fraction are interchangeable: the
    two forms of one polynomial compare equal, hash their terms alike,
    render alike and give equal products."""
    rng = random.Random(77)
    for _ in range(100):
        p = _as_ints(seeded_poly(rng, ("x", "y"), 5, 3, laurent=True))
        f = Poly({m: Fraction(c) for m, c in p.terms.items()})
        q = seeded_poly(rng, ("x", "y"), 4, 3)
        assert p == f and f == p
        assert [hash(t) for t in p.terms.items()] == [hash(t) for t in f.terms.items()]
        assert render_poly(p) == render_poly(f)
        assert p * q == f * q and render_poly(p * q) == render_poly(f * q)


def test_heap_key_pops_largest_first():
    rng = random.Random(3)
    for kind in ("lex", "degrevlex"):
        order = TermOrder(kind, ("x", "y", "z"))
        monos = {mono(x=rng.randint(0, 4), y=rng.randint(0, 4), z=rng.randint(0, 4)) for _ in range(60)}
        assert sorted(monos, key=order.heap_key) == order.sorted_monos(monos)


def test_accessors_match_dict_reference():
    """mono_exp, mono_factors, Poly.exponent_range, Poly.degree_in and
    Poly.select agree with a reading of each monomial through dict(m), over
    seeded Laurent polynomials, the zero polynomial and all-negative
    exponents, for variables present and absent."""
    rng = random.Random(1109)
    cases = [Poly.zero(), parse_poly("u^-2"), parse_poly("3*u^-2*x^-1 - u^-5*y^-3 + 1/2*x^-4")]
    cases += [seeded_poly(rng, ("u", "x", "y"), 6, 3, laurent=True) for _ in range(200)]
    bounds = [(lo, hi) for lo in range(-3, 4) for hi in range(lo - 1, 4)]
    seen = set()
    for p in cases:
        for m in p.terms:
            assert list(mono_factors(m)) == sorted(dict(m).items())
            assert all(e for _, e in mono_factors(m))
            assert mono_from_map(dict(mono_factors(m))) == m
            exps = {v: rng.randint(-1, 1) for v in ("y", "z", "u")}
            built = mono_from_map({**dict(m), **exps})
            assert dict(built) == {v: e for v, e in {**dict(m), **exps}.items() if e}
            assert list(mono_factors(built)) == sorted(dict(built).items())
        for var in ("u", "x", "y", "z"):
            exps = [dict(m).get(var, 0) for m in p.terms]
            assert [mono_exp(m, var) for m in p.terms] == exps
            assert p.exponent_range(var) == ((min(exps), max(exps)) if exps else (0, 0))
            assert p.degree_in(var) == max([0] + exps)
            if exps and max(exps) < 0:
                seen.add("all negative")
            items = list(p.terms.items())
            assert list(p.select(var).terms.items()) == items
            for lo, hi in bounds:
                want = [(m, c) for m, c in items if lo <= dict(m).get(var, 0) <= hi]
                assert list(p.select(var, lo, hi).terms.items()) == want
                assert list(p.select(var, lo).terms.items()) == [
                    (m, c) for m, c in items if dict(m).get(var, 0) >= lo
                ]
                assert list(p.select(var, hi=hi).terms.items()) == [
                    (m, c) for m, c in items if dict(m).get(var, 0) <= hi
                ]
    assert "all negative" in seen
    # the floor at 0 is where degree_in and the range's top differ
    assert parse_poly("u^-2").exponent_range("u") == (-2, -2)
    assert parse_poly("u^-2").degree_in("u") == 0


def test_mono_is_interned():
    """mono builds what mono_from_map builds from the same keywords, in any
    keyword order and with zero or negative exponents, returns the same
    tuple for a repeated call, and keeps a bounded table."""
    rng = random.Random(1919)
    names = ("a", "u", "v", "w", "x", "y", "z")
    seen = set()
    for _ in range(400):
        kw = {v: rng.randint(-3, 3) for v in rng.sample(names, rng.randint(1, 5))}
        if list(kw) != sorted(kw):
            seen.add("unsorted")
        seen.update("zero" if e == 0 else "negative" for e in kw.values() if e <= 0)
        got = mono(**kw)
        assert got == mono_from_map(kw)
        assert mono(**kw) is got
    assert {"unsorted", "zero", "negative"} <= seen
    maxsize = mono.cache_info().maxsize
    assert maxsize is not None and maxsize <= 4096

import math
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings

from gawb import catalog, groebner
from gawb.claims import DISCREPANCY, FAIL, PASS, RunConfig, run_claims
from gawb.derivations import (
    ActionMap,
    Derivation,
    GroupLaw,
    NotNilpotentWithinBound,
    _tower,
    compose_actions,
    descends_to_quotient,
    exponential,
    extend_with_params,
    is_slice,
    kernel_member,
    nilpotency_certificate,
    verify_action,
)
from gawb.parse import parse_poly as pp
from gawb.poly import Poly, mono_factors
from gawb.quotient import AlgebraPresentation, sample_point

from conftest import polys, seeded_poly


@pytest.fixture(scope="module")
def x22():
    return catalog.xmn(2, 2)


def test_images_on_generators(x22):
    pres, d = x22
    assert d.apply("u") == pres.element("x^2")
    assert d.apply("x^2*v - y^2*u").is_zero()
    assert d.apply("u*v") == pres.element("x^2*v + y^2*u")


def test_descends(x22):
    pres, d = x22
    assert descends_to_quotient(d)
    bad = Derivation(catalog.xmn_presentation(1, 1), {"u": 1, "v": 0, "x": 0, "y": 0})
    assert not descends_to_quotient(bad)
    zero = Derivation(catalog.xmn_presentation(1, 1), {v: 0 for v in "xyuv"})
    assert descends_to_quotient(zero)


def test_nilpotency_indices(x22):
    _, d = x22
    cert = nilpotency_certificate(d)
    assert cert.indices == {"x": 1, "y": 1, "u": 2, "v": 2}


def test_euler_not_nilpotent():
    euler = Derivation(AlgebraPresentation(["x"]), {"x": "x"})
    with pytest.raises(NotNilpotentWithinBound):
        nilpotency_certificate(euler, bound=12)


def test_tower_applies_the_derivation_once_per_step(x22, monkeypatch):
    """exponential builds each image from one derivative tower: one
    application of d per step, sum of the nilpotency indices in all (the
    last one gives 0); a tower that does not vanish stops after bound + 1."""
    _, d = x22
    indices = nilpotency_certificate(d).indices
    calls = [0]
    real = Derivation.apply

    def counting(self, e):
        calls[0] += 1
        return real(self, e)

    monkeypatch.setattr(Derivation, "apply", counting)
    act = exponential(d, "t")
    assert calls[0] == sum(indices.values()) == 6
    assert act.images["v"] == act.ring.var("v") + act.ring.var("t") * act.ring.element("y^2")
    calls[0] = 0
    euler = Derivation(AlgebraPresentation(["x"]), {"x": "x"})
    with pytest.raises(NotNilpotentWithinBound, match="within 12 iterations"):
        exponential(euler, "t", bound=12)
    assert calls[0] == 13


def test_exponential_images(x22):
    pres, d = x22
    act = exponential(d, "t")
    r = act.ring
    assert act.images["u"] == r.var("u") + r.var("t") * r.element("x^2")
    assert act.images["x"] == r.var("x")
    at_zero = act.specialize_params({"t": 0})
    assert all(at_zero.images[v] == at_zero.ring.var(v) for v in at_zero.base.variables)


def test_slice_detection():
    loc = catalog.xmn_presentation(2, 2, inverted=["x"])
    d = catalog.translation_derivation(loc, 2, 2)
    assert is_slice(d, loc.element("u*x^-2"))
    pres, dplain = catalog.xmn(2, 2)
    assert not is_slice(dplain, "u")
    zero = Derivation(pres, {v: 0 for v in "xyuv"})
    assert not is_slice(zero, "u")


def test_kernel_membership(x22):
    _, d = x22
    assert kernel_member(d, "x")
    assert kernel_member(d, "y")
    assert not kernel_member(d, "u")


def test_quotient_rule_on_localized_elements():
    loc = catalog.xmn_presentation(2, 2, inverted=["x"])
    d = catalog.translation_derivation(loc, 2, 2)
    # delta(u / x) = x^2 / x = x
    assert d.apply(loc.element("u*x^-1")) == loc.var("x")


def test_additive_law(x22):
    _, d = x22
    rep = verify_action(exponential(d, "t"), GroupLaw.additive())
    assert rep.passed, rep.failures()


def test_multiplicative_law():
    rep = verify_action(catalog.gm_action(2, 1), GroupLaw.multiplicative())
    assert rep.passed, rep.failures()


def test_semidirect_law_and_twist():
    for m, n in [(1, 1), (2, 1), (2, 2)]:
        rep = verify_action(catalog.gd_action(m, n), GroupLaw.semidirect(m + n))
        assert rep.passed, (m, n, [(c.name, c.residuals) for c in rep.failures()])
        assert {c.name for c in rep.checks} == {
            "identity", "relations-preserved", "composition", "twist-identity",
        }


def test_wrong_twist_fails():
    rep = verify_action(catalog.gd_action(2, 1), GroupLaw.semidirect(5))
    assert not rep.passed
    names = {c.name for c in rep.failures()}
    assert "composition" in names or "twist-identity" in names


def _law_axioms(law, elements):
    """Associativity, two-sided identity and two-sided inverses on all
    triples of the given parameter tuples."""
    e = law.identity()
    for g in elements:
        assert law.product(e, g) == g and law.product(g, e) == g
        assert law.product(g, law.inverse(g)) == e and law.product(law.inverse(g), g) == e
        for h in elements:
            for k in elements:
                assert law.product(law.product(g, h), k) == law.product(g, law.product(h, k))


LAWS = [GroupLaw.additive(), GroupLaw.multiplicative()] + [GroupLaw.semidirect(d) for d in (1, 2, 5)]


def test_group_law_on_numbers():
    add, mul = GroupLaw.additive(), GroupLaw.multiplicative()
    gd1, gd2 = GroupLaw.semidirect(1), GroupLaw.semidirect(2)
    assert (add.identity(), mul.identity(), gd2.identity()) == ((0,), (1,), (1, 0))
    assert add.product((3,), (4,)) == (7,) and add.inverse((3,)) == (-3,)
    assert mul.product((2,), (5,)) == (10,) and mul.inverse((2,)) == (Fraction(1, 2),)
    assert gd1.product((2, 3), (5, 7)) == (10, 17)
    assert GroupLaw.semidirect(3).product((1, 0), (4, 5)) == (4, 5)
    assert gd2.inverse((2, 3)) == (Fraction(1, 2), Fraction(-3, 4))
    # the inverse stays exact: never a float, and an int for a unit lam
    assert all(type(c) is int for c in gd2.inverse((-1, 3)))
    assert all(isinstance(c, (int, Fraction)) for c in gd2.inverse((3, 1)))
    rng = random.Random(14)
    for law in LAWS:
        ints = [tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in law.identity()) for _ in range(3)]
        fracs = [
            tuple(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 4)) for _ in law.identity())
            for _ in range(3)
        ]
        _law_axioms(law, ints + fracs)


def test_group_law_on_laurent_polys():
    lam = [Poly.variable(f"l{i}") for i in (1, 2, 3)]
    ts = [Poly.variable(f"t{i}") for i in (1, 2, 3)]
    assert GroupLaw.semidirect(2).product((lam[0], ts[0]), (lam[1], ts[1])) == (
        lam[0] * lam[1], ts[0] + lam[0] ** 2 * ts[1]
    )
    assert GroupLaw.semidirect(3).inverse((lam[0], ts[0])) == (lam[0] ** -1, -(lam[0] ** -3) * ts[0])
    for law in LAWS + [GroupLaw.semidirect(d) for d in (3, 4, 6)]:
        params = [((lam[i],) if law.scale else ()) + ((ts[i],) if law.translate else ()) for i in range(3)]
        _law_axioms(law, params)


def test_group_law_on_ring_elements():
    ring = AlgebraPresentation(["l1", "l2", "t1", "t2"], inverted=["l1", "l2"])
    l1, l2, t1, t2 = (ring.var(v) for v in ring.variables)
    law = GroupLaw.semidirect(3)
    assert law.product((l1, t1), (l2, t2)) == (l1 * l2, t1 + l1 ** 3 * t2)
    inv = law.inverse((l1, t1))
    assert inv == (ring.element("l1^-1"), ring.element("-l1^-3*t1"))
    for law in LAWS:
        params = [
            ((lam,) if law.scale else ()) + ((t,) if law.translate else ()) for lam, t in [(l1, t1), (l2, t2)]
        ]
        _law_axioms(law, params)


@pytest.mark.parametrize(
    "action_of, law",
    [
        (catalog.gm_action, GroupLaw.additive()),
        (catalog.ga_action, GroupLaw.multiplicative()),
        (catalog.gm_action, GroupLaw.semidirect(2)),
        (catalog.ga_action, GroupLaw.semidirect(2)),
        (catalog.gd_action, GroupLaw.additive()),
    ],
    ids=["additive-on-gm", "multiplicative-on-ga", "semidirect-on-gm", "semidirect-on-ga", "additive-on-gd"],
)
def test_verify_action_rejects_parameters_that_do_not_fit_the_law(action_of, law):
    with pytest.raises(ValueError, match="needs parameters"):
        verify_action(action_of(1, 1), law)


def test_exp_composition_is_addition(x22):
    _, d = x22
    act = exponential(d, "t")
    ring2 = extend_with_params(act.base, ["t", "s"])
    a1 = act.transport(ring2)
    a2 = act.transport(ring2, rename={"t": "s"})
    comp = compose_actions(a1, a2)
    total = {"t": ring2.var("t") + ring2.var("s")}
    for g in act.base.variables:
        assert comp[g] == a1.images[g].substitute(total)


def test_kernel_elements_are_fixed_by_flow(x22):
    pres, d = x22
    act = exponential(d, "t")
    for name in ("x", "y"):
        assert act.apply_to(pres.var(name)) == act.ring.var(name)


def test_action_point_concordance():
    # symbolic composition identity also holds at sampled points
    act = catalog.gd_action(2, 1)
    ring = act.ring
    rel = ring.element(pp("x^2*v - y*u", ring.variables))
    for k in range(20):
        pt = sample_point(ring, seed=500 + k)
        images_at = {g: act.images[g].evaluate(pt) for g in act.base.variables}
        lhs = (
            images_at["x"] ** 2 * images_at["v"]
            - images_at["y"] * images_at["u"]
        )
        assert lhs == 1  # the relation value is preserved by the action


@settings(max_examples=60, deadline=None)
@given(polys(variables=("x", "y", "u", "v"), max_terms=3, max_deg=2),
       polys(variables=("x", "y", "u", "v"), max_terms=3, max_deg=2))
def test_leibniz(p, q):
    pres, d = catalog.xmn(2, 2)
    pe, qe = pres.element(p), pres.element(q)
    assert d.apply(pe * qe) == d.apply(pe) * qe + pe * d.apply(qe)


def test_derivation_serialization(x22):
    pres, d = x22
    text = d.to_text()
    d2 = Derivation.from_text(pres, text)
    assert all(d.images[v] == d2.images[v] for v in pres.variables)


def test_derivation_text_rejects_repeated_generator(x22):
    pres, _ = x22
    with pytest.raises(ValueError, match="image of 'u' twice"):
        Derivation.from_text(pres, "der: u -> x^2; v -> y^2; u -> 0")


def test_failed_action_residual_visible_at_points():
    # a wrong twist exponent fails symbolically and the recorded residual is
    # a genuinely nonzero function: some sample point exposes it
    act = catalog.gd_action(2, 1)
    rep = verify_action(act, GroupLaw.semidirect(99))
    assert not rep.passed
    check = next(c for c in rep.failures() if c.residuals)
    gen, _ = next(iter(check.residuals.items()))
    ring2 = extend_with_params(act.base, ("lam", "t", "lam_2", "t_2"), ("lam", "lam_2"))
    a1 = act.transport(ring2)
    a2 = act.transport(ring2, rename={"lam": "lam_2", "t": "t_2"})
    composed = compose_actions(a1, a2)[gen]
    lam1, t1 = ring2.var("lam"), ring2.var("t")
    lam2, t2 = ring2.var("lam_2"), ring2.var("t_2")
    wrong = a1.images[gen].substitute({"lam": lam1 * lam2, "t": t1 + lam1 ** 99 * t2})
    diff = composed - wrong
    assert not diff.is_zero()
    hits = 0
    for k in range(20):
        pt = sample_point(ring2, seed=7100 + k)
        if diff.evaluate(pt) != 0:
            hits += 1
    assert hits > 0


def _reference_apply_images(p, images, ring):
    """The reference substitution of images into the raw polynomial p: each
    factor of each term multiplies the running element by its image's power,
    and a variable without an image by itself."""
    out = ring.zero()
    for m, c in p.terms.items():
        acc = ring.element(Poly.const(c))
        for v, e in mono_factors(m):
            img = images.get(v)
            if img is None:
                img = ring.var(v)
            acc = acc * img ** e
        out = out + acc
    return out


def test_substitute_matches_reference_walk():
    """AlgebraPresentation.substitute gives the reference walk's element:
    the same numerator terms in the same insertion order, and the same
    denominator.  It covers the relations of xmn(m, n) for m, n <= 3 and
    seeded raw polynomials, under the exponential and the G_m images, and
    with images for only some of the variables."""
    rng = random.Random(2011)
    seen = set()
    for m in range(1, 4):
        for n in range(1, 4):
            for action in (catalog.ga_action(m, n), catalog.gm_action(m, n)):
                ring, images = action.ring, action.images
                partial = {v: images[v] for v in ("x", "u")}
                raw = list(action.base.relations)
                raw += [seeded_poly(rng, ("x", "y", "u", "v"), 4, 2, nonzero=True) for _ in range(3)]
                for p in raw:
                    for imgs in (images, partial):
                        want = _reference_apply_images(p, imgs, ring)
                        got = ring.substitute(p, imgs)
                        assert list(got.numer.terms.items()) == list(want.numer.terms.items())
                        assert got.denom == want.denom
                        seen.add("zero" if got.is_zero() else "nonzero")
                        if any(got.denom):
                            seen.add("denominator")
    assert seen == {"zero", "nonzero", "denominator"}


def _reference_substitute(e, mapping):
    """The reference ring map inside e's ring: the numerator through the
    reference walk, and each inverted element as the substitution of its
    normal form, inverted as a unit."""
    ring = e.ring
    out = _reference_apply_images(e.numer, mapping, ring)
    for f, a in zip(ring.inverted, e.denom):
        if a:
            out = out * _reference_substitute(ring.element(f), mapping).unit_inverse() ** a
    return out


def _reference_transport(action, ring2, rename=None):
    """The reference transport: rename the parameters in each image's
    numerator, reduce it in ring2, and divide by the renamed inverted
    elements one by one."""
    poly_map = {p: Poly.variable(q) for p, q in (rename or {}).items() if p in action.params}
    images = {}
    for v, img in action.images.items():
        elem = ring2.element(img.numer.substitute(poly_map) if poly_map else img.numer)
        for f, a in zip(img.ring.inverted, img.denom):
            if a:
                elem = elem.divide_by_inverted(f.substitute(poly_map) if poly_map else f, a)
        images[v] = elem
    return images


def _reference_specialize(action, values):
    """The reference specialisation: substitute the constants inside the
    action's ring, then rebuild each image in the smaller extension."""
    remaining = [p for p in action.params if p not in values]
    ring2 = extend_with_params(action.base, remaining, action.unit_params)
    sub = {p: action.ring.element(Fraction(v)) for p, v in values.items()}
    images = {}
    for v, img in action.images.items():
        spec = _reference_substitute(img, sub)
        elem = ring2.element(spec.numer)
        for f, a in zip(action.ring.inverted, spec.denom):
            if a:
                elem = elem.divide_by_inverted(f, a)
        images[v] = elem
    return images


def _same_representation(got, want):
    assert got.ring == want.ring
    assert list(got.numer.terms.items()) == list(want.numer.terms.items())
    assert got.denom == want.denom


def _seeded_element(rng, ring):
    e = ring.element(seeded_poly(rng, ring.variables, 3, 2, nonzero=True))
    for f in ring.inverted:
        e = e.divide_by_inverted(f, rng.randint(0, 2))
    return e


def _actions(base, m, n):
    """The G_a, G_m and G_d maps over base, an xmn(m, n) presentation."""
    ga = exponential(catalog.translation_derivation(base, m, n), "t")
    gm = catalog.gm_action(m, n, pres=base)
    ring = extend_with_params(base, ["lam", "t"], ["lam"])
    gd = ActionMap(base, ring, compose_actions(ga.transport(ring), gm.transport(ring)))
    return {"ga": ga, "gm": gm, "gd": gd}


def test_one_ring_map_matches_references():
    """RingElement.substitute, transport and specialize_params give the
    reference chains' elements: the same numerator terms in the same
    insertion order, and the same denominators.  Covered: seeded elements
    over xmn(m, n) for m, n <= 3, with and without x and y inverted, under
    the G_a, G_m and G_d maps, the group laws' parameter maps, renames, and
    specialisations to 0, 1 and 3/2."""
    rng = random.Random(1013)
    seen = set()
    for m in range(1, 4):
        for n in range(1, 4):
            for inverted in ((), ("x", "y")):
                base = catalog.xmn_presentation(m, n, inverted=inverted)
                for name, action in _actions(base, m, n).items():
                    ring = action.ring
                    lam = ring.var("lam") if "lam" in ring.variables else None
                    maps = [action.images]
                    if "t" in ring.variables:
                        maps.append({"t": ring.var("t") * 2 + ring.var("x")})
                    if lam is not None:
                        maps.append({"lam": lam ** 2 * Fraction(3, 2)})
                        maps.append({"lam": lam.unit_inverse() * 5, "x": lam * ring.var("x") * 2})
                    for _ in range(2):
                        e = _seeded_element(rng, ring)
                        for mapping in maps:
                            _same_representation(e.substitute(mapping), _reference_substitute(e, mapping))
                            if any(e.denom):
                                seen.add("denominator")

                    params2 = tuple(f"{p}_2" for p in action.params)
                    units2 = tuple(f"{p}_2" for p in action.unit_params)
                    ring2 = extend_with_params(base, action.params + params2, action.unit_params + units2)
                    for rename in (None, dict(zip(action.params, params2))):
                        got = action.transport(ring2, rename)
                        want = _reference_transport(action, ring2, rename)
                        assert got.ring is ring2 and got.params == action.params + params2
                        for v in base.variables:
                            _same_representation(got.images[v], want[v])
                            if any(want[v].denom):
                                seen.add("transport denominator")

                    choices = []
                    if "t" in action.params:
                        choices += [{"t": 0}, {"t": 1}, {"t": Fraction(3, 2)}]
                    if "lam" in action.params:
                        choices += [{"lam": 1}, {"lam": Fraction(3, 2)}]
                    if len(action.params) == 2:
                        choices.append({"lam": 1, "t": 0})
                    for values in choices:
                        got = action.specialize_params(values)
                        want = _reference_specialize(action, values)
                        assert got.params == tuple(p for p in action.params if p not in values)
                        for v in base.variables:
                            _same_representation(got.images[v], want[v])
                            if any(want[v].denom):
                                seen.add("specialized denominator")
    assert seen == {"denominator", "transport denominator", "specialized denominator"}


def test_ring_map_inverts_a_product_through_its_image():
    """An inverted element that is not a variable (here x*y) maps to its
    image's unit_inverse, and the inverted variables' inverses are read off
    their images; the one product gives the reference chain's element."""
    rng = random.Random(1516)
    ring = catalog.xmn_presentation(2, 2, inverted=("x", "y", "x*y"))
    x, y, u = ring.var("x"), ring.var("y"), ring.var("u")
    maps = [{"x": x * 2}, {"x": y, "y": x ** 2 * Fraction(3, 2)}, {"u": u * x + y, "y": y.unit_inverse()}]
    for _ in range(10):
        e = _seeded_element(rng, ring).divide_by_inverted("x*y")
        for mapping in maps:
            _same_representation(e.substitute(mapping), _reference_substitute(e, mapping))


def test_cancelled_partial_sum_resets_the_denominator():
    """Terms are added one at a time, as in the reference walk: the first
    four terms of p cancel modulo x*v - y*u - 1, which resets the
    denominator, so only the last term's lam^1 remains (one reduction of
    all terms would keep lam^2)."""
    gm = catalog.gm_action(1, 1)
    p = pp("x^2*v^2 - y^2*u^2 - 2*y*u - 1 + u", gm.base.variables)
    got = gm.ring.substitute(p, gm.images)
    _same_representation(got, _reference_apply_images(p, gm.images, gm.ring))
    assert got.denom == (1,)
    assert got == gm.ring.var("u").divide_by_inverted("lam")


def _reference_apply_poly(d, p):
    """The eager walk: each product d(v) * dp/dv is reduced as it is formed
    and added to the running sum, which is reduced too."""
    out = d.ring.zero()
    for v in p.variables():
        img = d.images[v]
        if not img.is_zero():
            out = out + img * d.ring.element(p.differentiate(v))
    return out


def test_apply_poly_on_a_laurent_polynomial_takes_the_eager_path():
    """A Laurent p (x inverted) with regular images fails apply_poly's
    regularity test, so its terms are lifted and reduced one at a time; the
    result is the eager walk's, denominator x^4 included."""
    ring = catalog.xmn_presentation(2, 2, inverted=("x",))
    d = Derivation(ring, {"x": "y", "y": "x*u", "u": "x^2", "v": "y^2 + 1"})
    p = pp("x^-2*u + 3*x^-1*y*v - 1/2*x^-3*y^2 + v", ring.variables)
    assert not p.is_regular()
    got = d.apply_poly(p)
    _same_representation(got, _reference_apply_poly(d, p))
    assert got.denom == (4,)


def test_apply_poly_on_a_bare_variable_returns_its_image():
    """d(v) for a bare variable v is its stored image, already reduced, with
    or without a denominator; the eager walk gives the same element."""
    ring = catalog.xmn_presentation(2, 2, inverted=("x",))
    d = Derivation(ring, {"x": "y", "y": ring.var("u").divide_by_inverted("x"), "u": "x^2", "v": 0})
    for v, denom in (("x", (0,)), ("y", (1,))):
        got = d.apply_poly(Poly.variable(v))
        assert got is d.images[v] and got.denom == denom
        _same_representation(got, _reference_apply_poly(d, Poly.variable(v)))
    assert d.apply_poly(Poly.variable("v")).is_zero()
    with pytest.raises(ValueError, match="mentions 'w' which has no image"):
        d.apply_poly(Poly.variable("w"))


def _eager(d):
    """d with ``apply_poly`` replaced by the eager walk, which ``apply`` and
    the tower then use too."""
    ref = Derivation(d.ring, d.images)
    ref.apply_poly = lambda p: _reference_apply_poly(ref, p)
    return ref


def _reference_exponential(d, t="t", bound=64):
    """The eager exponential: every tower term is lifted and multiplied by
    t^k and 1/k!, and added to the running sum, each step reduced."""
    ext = extend_with_params(d.ring, [t])
    tvar = ext.var(t)
    images = {}
    for v in d.ring.variables:
        total, tk = ext.var(v), ext.one()
        for k, term in islice(enumerate(_tower(d, v, bound)), 1, None):
            tk = tk * tvar
            total = total + ext.lift(term) * tk * Fraction(1, math.factorial(k))
        images[v] = total
    return images


def _triangular_derivation(rng, ring, with_denominators):
    """x -> 0, y -> a(x), u and v -> polynomials in x and y, over powers of
    x when asked: triangular, so every tower vanishes."""
    def draw(variables):
        e = ring.element(seeded_poly(rng, variables, 3, 2))
        return e.divide_by_inverted("x", rng.randint(0, 2)) if with_denominators else e
    return Derivation(ring, {"x": 0, "y": draw(("x",)), "u": draw(("x", "y")), "v": draw(("x", "y"))})


def test_one_reduction_matches_eager_walks():
    """apply_poly, apply and exponential give the eager walks' elements: the
    same numerator terms in the same insertion order, the same coefficient
    values and the same denominators.  Seeded derivations and elements over
    xmn(m, n) for m, n <= 3, with and without x and y inverted; images and
    tower terms with denominators take the eager path, from the first
    term or from a later one."""
    rng = random.Random(1515)
    seen = set()
    for m in range(1, 4):
        for n in range(1, 4):
            for inverted in ((), ("x", "y")):
                ring = catalog.xmn_presentation(m, n, inverted=inverted)
                for with_denominators in (False, True) if inverted else (False,):
                    draw = _seeded_element if with_denominators else (
                        lambda rng, ring: ring.element(seeded_poly(rng, ring.variables, 3, 2, nonzero=True))
                    )
                    d = Derivation(ring, {v: draw(rng, ring) for v in ring.variables})
                    ref = _eager(d)
                    raw = list(ring.relations) + [seeded_poly(rng, ring.variables, 4, 2) for _ in range(3)]
                    for p in raw:
                        _same_representation(d.apply_poly(p), ref.apply_poly(p))
                    for _ in range(2):
                        e = _seeded_element(rng, ring)
                        _same_representation(d.apply(e), ref.apply(e))
                    seen.add("eager apply_poly" if with_denominators else "one-reduction apply_poly")

                    d = _triangular_derivation(rng, ring, with_denominators)
                    got, want = exponential(d), _reference_exponential(_eager(d))
                    for v in ring.variables:
                        _same_representation(got.images[v], want[v])
                        first = next((k for k, term in enumerate(_tower(d, v, 64)) if not term.is_regular()), 0)
                        seen.add({0: "regular tower", 1: "denominator at k=1"}.get(first, "denominator later"))
    assert seen == {
        "one-reduction apply_poly", "eager apply_poly", "regular tower", "denominator at k=1", "denominator later",
    }


def _count_normal_forms(monkeypatch, only=None):
    calls = [0]
    real = groebner.normal_form

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "normal_form", counting)
    report = run_claims(RunConfig(seed=0), only=only)
    return report, calls[0]


def test_gd_twist_normal_form_count(monkeypatch):
    """The seed-0 xmn-gd-twist claim makes at most 1,359 normal forms (5,256
    with the per-factor substitution walk, 2,385 while each inverted factor
    cost four and each var() one, 1,377 while a bare variable's image was
    derived again): one reduction per term, no reduction of zero, constants
    lifted once per specialisation, and the inverted variables' inverses
    read off their images."""
    report, calls = _count_normal_forms(monkeypatch, only=["xmn-gd-twist"])
    (rec,) = report.records
    assert rec.status == PASS
    assert 0 < calls <= 1359


def test_x22_descends_normal_form_count(monkeypatch):
    """The seed-0 example-x22-descends claim makes at most 70 normal forms
    (349 when every product and partial sum of a derivation step was
    reduced, 71 while a bare variable's image was derived again): one per
    step of the 65-step tower."""
    report, calls = _count_normal_forms(monkeypatch, only=["example-x22-descends"])
    (rec,) = report.records
    assert rec.status == DISCREPANCY
    assert 0 < calls <= 70


def test_seed0_pass_normal_form_count(monkeypatch):
    """A whole seed-0 verify-paper pass makes at most 3,480 normal forms
    (11,023 before sums skipped their zero start and zero skipped reduction,
    6,440 before a derivation step, a variable and an inverted factor of a
    substitution reduced once, 3,625 while a bare variable's image was
    derived again)."""
    report, calls = _count_normal_forms(monkeypatch)
    assert report.counts == {PASS: 29, DISCREPANCY: 10, FAIL: 0}
    assert 0 < calls <= 3480

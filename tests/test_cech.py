import dataclasses
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings

from gawb import catalog, cech, sweeps
from gawb.cech import (
    ActionCocycleError,
    AffinenessCertificate,
    Case1Step,
    Case2Step,
    CertificateError,
    CocycleClass,
    NormalFormMNP,
    action_cocycle,
    _check_case1_witness,
    affineness_certificate,
    class_of,
    is_coboundary,
    normal_form_mnp,
)
from gawb.derivations import descends_to_quotient
from gawb.groebner import buchberger, normal_form
from gawb.parse import parse_poly as pp
from gawb.poly import (
    ONE_MONO, Poly, TermOrder, mono, mono_degree, mono_exp, mono_factors, mono_from_map, mono_mul,
)
from gawb.sweeps import affineness_sweep_block, iter_sweep_polys

from conftest import polys


def test_class_projection():
    assert class_of(pp("3*x^-2*y^-1 + 5*x^-1*y + 7")).as_dict() == {(2, 1): 3}
    assert class_of(pp("x^-3*y^-2")).as_dict() == {(3, 2): 1}
    assert class_of(pp("x^2*y^-3")).is_trivial()


def test_class_linear_idempotent():
    g = pp("x^-1*y^-1 + x^-2*y^-3 + x^3")
    cls = class_of(g)
    back = Poly.zero()
    for (i, j), c in cls.coefficients:
        back = back + Poly.monomial(mono(x=-i, y=-j), c)
    assert class_of(back).as_dict() == cls.as_dict()


def test_coboundary_witness():
    ok, w = is_coboundary(pp("x^-3*y + x*y^-2"))
    assert ok
    g_plus, g_minus = w
    assert g_plus - g_minus == pp("x^-3*y + x*y^-2")
    assert g_plus.is_regular(("y",))
    assert g_minus.is_regular(("x",))
    assert not is_coboundary(pp("x^-1*y^-1"))[0]
    assert is_coboundary(Poly.zero())[0]


def test_normal_form_mnp():
    nf = normal_form_mnp(CocycleClass.from_dict({(3, 2): 1, (1, 2): 2}))
    assert (nf.m, nf.n) == (3, 2)
    assert nf.p == pp("1 + 2*x^2")
    assert class_of(nf.cocycle()).as_dict() == {(3, 2): 1, (1, 2): 2}
    single = normal_form_mnp(CocycleClass.from_dict({(2, 2): 1}))
    assert single.p == Poly.const(1)
    a31 = normal_form_mnp(class_of(pp("x^-3*y^-1")))
    assert (a31.m, a31.n, a31.p) == (3, 1, Poly.const(1))


def test_normal_form_rejects_trivial():
    with pytest.raises(ValueError):
        normal_form_mnp(CocycleClass.from_dict({}))


def test_normal_form_invariants_enforced():
    with pytest.raises(ValueError):
        NormalFormMNP(2, 2, pp("x^2"))  # deg_x p must be < m
    with pytest.raises(ValueError):
        NormalFormMNP(2, 2, Poly.zero())


_BAD_BOUNDS = "m, n must be >= 1"
_ZERO = "p must be nonzero"
_IRREGULAR = "p must be a regular polynomial"
_DEGREE = "normal form requires deg_x p < m and deg_y p < n"


@pytest.mark.parametrize("m, n, p, message", [
    (0, 2, pp("x"), _BAD_BOUNDS),
    (2, -1, pp("x"), _BAD_BOUNDS),
    (2, 2, Poly.zero(), _ZERO),
    (2, 2, pp("x*y^-1"), _IRREGULAR),
    (2, 2, pp("x + u*y + v"), "p mentions ['u', 'v']"),
    (2, 2, pp("x^2 + y"), _DEGREE),
    (3, 2, pp("x^2 + y^2"), _DEGREE),
])
def test_normal_form_invariant_messages(m, n, p, message):
    with pytest.raises(ValueError) as e:
        NormalFormMNP(m, n, p)
    assert str(e.value) == message


@pytest.mark.parametrize("m, n, p, message", [
    (0, 2, Poly.zero(), _BAD_BOUNDS),          # bounds before zero
    (2, 2, pp("u + x^-1"), _IRREGULAR),         # a negative exponent before other variables
    (2, 2, pp("x^5 + y^-1"), _IRREGULAR),       # ... and before the degree bounds
    (2, 2, pp("x^3 + u"), "p mentions ['u']"),  # other variables before the degree bounds
])
def test_normal_form_invariant_precedence(m, n, p, message):
    """Two faults at once: the earlier check's message wins."""
    with pytest.raises(ValueError) as e:
        NormalFormMNP(m, n, p)
    assert str(e.value) == message


def _reference_validate(m, n, p):
    """The normal form's checks as one walk over p's factors, without the
    cell table: a negative exponent outranks the other variables, which
    outrank the degree bounds."""
    if m < 1 or n < 1:
        raise ValueError("m, n must be >= 1")
    if p.is_zero():
        raise ValueError("p must be nonzero")
    extra = set()
    deg_x = deg_y = 0
    for mo in p.terms:
        for v, e in mono_factors(mo):
            if e < 0:
                raise ValueError("p must be a regular polynomial")
            if v == "x":
                deg_x = max(deg_x, e)
            elif v == "y":
                deg_y = max(deg_y, e)
            else:
                extra.add(v)
    if extra:
        raise ValueError(f"p mentions {sorted(extra)}")
    if deg_x >= m or deg_y >= n:
        raise ValueError("normal form requires deg_x p < m and deg_y p < n")


def _validation_samples():
    """Seeded (m, n, p): cells up to the degree edge (deg_x = m, deg_y = n),
    int and Fraction coefficients, zero p, and terms with a negative
    exponent, a variable other than x and y, or both, in any term order."""
    rng = random.Random(1919)
    for m, n in [(0, 2), (2, 0)]:
        yield m, n, pp("x")
    for k in range(600):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        terms = {}
        for _ in range(0 if k % 25 == 0 else rng.randint(1, 5)):
            exps = {"x": rng.randint(0, m - 1), "y": rng.randint(0, n - 1)}
            kind = rng.random()
            if kind < 0.06:
                exps[rng.choice("xy")] = rng.randint(-2, -1)
            elif kind < 0.12:
                exps[rng.choice("uvw")] = rng.randint(1, 2)
            elif kind < 0.15:
                exps[rng.choice("uvw")] = rng.randint(-2, -1)
            elif kind < 0.2:
                exps["x"] = m
            elif kind < 0.25:
                exps["y"] = n
            c = rng.choice((-2, -1, 1, 2, Fraction(1, 2), Fraction(-3, 4)))
            terms[mono_from_map(exps)] = c
        yield m, n, Poly(terms)


def _outcome(fn):
    try:
        fn()
    except Exception as e:  # noqa: BLE001 - the class and message are compared
        return type(e), str(e)
    return None


def test_normal_form_validation_matches_reference():
    """The table-driven constructor raises the reference walk's exception
    (class and message), or none, and keeps p's cells in term order.  Each
    p is validated twice, so the second pass reads the cached cells."""
    seen = set()
    hits = cech._cell_of.cache_info().hits
    for m, n, p in _validation_samples():
        want = _outcome(lambda: _reference_validate(m, n, p))
        seen.add(want[1].split(" [")[0] if want else "valid")
        for _ in range(2):
            assert _outcome(lambda: NormalFormMNP(m, n, p)) == want, (m, n, p)
        if want is None:
            nf = NormalFormMNP(m, n, p)
            assert nf.cells() == tuple(
                (mono_exp(mo, "x"), mono_exp(mo, "y"), c) for mo, c in p.terms.items()
            )
            assert nf.deg_y == p.degree_in("y")
            seen.update(type(c).__name__ for c in p.terms.values())
        else:
            variables = {v for mo in p.terms for v, _ in mono_factors(mo)}
            negative = any(e < 0 for mo in p.terms for _, e in mono_factors(mo))
            if negative and variables - {"x", "y"}:
                # the fault the table meets first is either kind
                first = next(mo for mo in p.terms if cech._cell_of(mo) is None)
                seen.add("negative first" if min(e for _, e in mono_factors(first)) < 0 else "foreign first")
            if want[1] == _DEGREE and any(
                mono_exp(mo, "x") == m or mono_exp(mo, "y") == n for mo in p.terms
            ):
                seen.add("at the edge")
    assert cech._cell_of.cache_info().hits > hits
    assert {
        "valid", "int", "Fraction", _BAD_BOUNDS, _ZERO, _IRREGULAR, "p mentions", _DEGREE,
        "negative first", "foreign first", "at the edge",
    } <= seen


def test_normal_form_revalidates_a_reassigned_field():
    """The records are not frozen; a field reassigned after construction is
    validated again before its cells are read."""
    nf = NormalFormMNP(3, 2, pp("x + 2*y"))
    assert nf.cells() == ((1, 0, 1), (0, 1, 2)) and nf.deg_y == 1
    nf.p = pp("x^2 - x*y")
    assert nf.cells() == ((2, 0, 1), (1, 1, -1)) and nf.deg_y == 1
    cert = affineness_certificate(nf)
    assert _as_data(cert) == _as_data(_reference_affineness_certificate(nf))
    nf.n = 1
    with pytest.raises(ValueError, match="deg_x p < m and deg_y p < n"):
        affineness_certificate(nf)
    nf.n, nf.p = 2, pp("x*u")
    with pytest.raises(ValueError, match=r"p mentions \['u'\]"):
        nf.cells()


def bundle_from_cocycle(nf):
    """Total-space presentation x^m v - y^n u - p plus its translation derivation."""
    pres = catalog.xmnp_presentation(nf.m, nf.n, nf.p)
    return pres, catalog.translation_derivation(pres, nf.m, nf.n)


def test_bundle_from_cocycle():
    pres, d = bundle_from_cocycle(NormalFormMNP(2, 2, Poly.const(1)))
    assert pres.relations[0] == pp("x^2*v - y^2*u - 1")
    assert descends_to_quotient(d)
    pres2, _ = bundle_from_cocycle(NormalFormMNP(3, 2, pp("1 + 2*x^2")))
    assert pres2.relations[0] == pp("x^3*v - y^2*u - 1 - 2*x^2")
    pres3, _ = bundle_from_cocycle(NormalFormMNP(1, 1, Poly.const(1)))
    assert pres3.relations[0] == pp("x*v - y*u - 1")


def test_certificate_base_case():
    cert = affineness_certificate(NormalFormMNP(2, 2, Poly.const(1)))
    assert cert.outcome == "HypersurfaceInA4"
    assert cert.trace == ()


def test_certificate_case1():
    cert = affineness_certificate(NormalFormMNP(2, 2, pp("x")))
    assert cert.outcome == "UnitCertificate"
    (step,) = cert.trace
    assert isinstance(step, Case1Step)
    assert step.a == 1 and step.q0 == Poly.const(1)
    assert step.witness_numer == pp("x*v - 1")
    assert step.witness_power == 1


def test_certificate_case2_then_case1():
    cert = affineness_certificate(NormalFormMNP(2, 2, pp("x*y")))
    s2, s1 = cert.trace
    assert isinstance(s2, Case2Step) and s2.b == 1 and s2.new_n == 1
    assert s2.relation == pp("x^2*w - y*u - x")
    assert isinstance(s1, Case1Step) and s1.a == 1 and s1.fiber_var == "w"
    assert cert.q0 == Poly.const(1)


def test_certificate_witness_membership_explicit():
    # re-verify the recorded witness against an independently computed basis
    cert = affineness_certificate(NormalFormMNP(2, 2, pp("x")))
    step = cert.trace[0]
    order = TermOrder("degrevlex", ("x", "y", "u", step.fiber_var))
    gb = buchberger([Poly.variable("y"), step.relation], order)
    w = step.witness_numer
    for k in range(step.witness_power):
        assert not gb.contains(w)
        w = w * Poly.variable("x")
    assert gb.contains(w)


def _reference_witness_power(step: Case1Step):
    """Least k <= a with witness * x^k in (y, relation), by Groebner normal forms.

    The membership scan the certificate used before its exact check; the
    basis comes from ``buchberger`` rather than from the coprimality argument.
    """
    order = TermOrder("degrevlex", ("x", "y", "u", step.fiber_var))
    basis = buchberger([Poly.variable("y"), step.relation], order).polys
    w = step.witness_numer
    for k in range(step.a + 1):
        if normal_form(w, basis, order).is_zero():
            return k
        w = w * Poly.variable("x")
    return None


def _witness_power_samples():
    """Seeded p for every (m, n) block with m, n <= 5, coefficients in [-2, 2].

    Per block: a few uniform draws, plus one p for each a in [0, m - 1] whose
    y-free part (after stripping y^b, b >= 1, when a = 0) is x^a times a
    polynomial with nonzero constant term.
    """
    rng = random.Random(8)
    coeffs = [-2, -1, 1, 2]
    for m in range(1, 6):
        for n in range(1, 6):
            if m * n == 1:
                continue
            cells = [(i, j) for i in range(m) for j in range(n) if (i, j) != (0, 0)]
            for _ in range(8):
                terms = {mono(x=i, y=j): rng.randint(-2, 2) for i, j in cells}
                if any(terms.values()):
                    yield m, n, Poly(terms)
            for a in range(m):
                if a:
                    b = 0
                elif n > 1:
                    b = rng.randint(1, n - 1)
                else:
                    continue  # a = 0 needs a Case 2 step, so n >= 2
                terms = {mono(x=a, y=b): rng.choice(coeffs)}
                for i, j in cells:
                    if (j > b or (j == b and i > a)) and rng.random() < 0.5:
                        terms[mono(x=i, y=j)] = rng.randint(-2, 2)
                yield m, n, Poly(terms)


def test_witness_power_matches_reference_scan():
    seen_a = {}
    for m, n, p in _witness_power_samples():
        cert = affineness_certificate(NormalFormMNP(m, n, p))
        step = cert.trace[-1]
        assert isinstance(step, Case1Step)
        assert step.witness_power == step.a
        assert _reference_witness_power(step) == step.witness_power, (m, n, p)
        seen_a.setdefault(m, set()).add(step.a)
    assert all(seen_a[m] == set(range(m)) for m in range(1, 6))


def test_case1_witness_check_rejects_bad_certificates():
    step = affineness_certificate(NormalFormMNP(3, 2, pp("x^2 + 2*x^2*y"))).trace[-1]
    assert (step.a, step.witness_numer) == (2, pp("x*v - 1"))
    _check_case1_witness(step.witness_numer, step.a, 3, step.relation, "v")
    # witnesses that break witness * x^a == y-free part of the relation
    for witness, a in [(pp("x*v - 2"), 2), (pp("x*v - 1 + y"), 2), (pp("x*v"), 2),
                       (step.witness_numer, 1), (step.witness_numer, 3)]:
        with pytest.raises(CertificateError, match="identity"):
            _check_case1_witness(witness, a, 3, step.relation, "v")
    # the identity holds, but x^4 (degree m + 2) leads the y-free part
    relation = pp("x^2*v - y*u - x - x^4")
    witness = pp("x*v - 1 - x^3")
    assert witness * Poly.variable("x") == pp("x^2*v - x - x^4")
    with pytest.raises(CertificateError, match="lead"):
        _check_case1_witness(witness, 1, 2, relation, "v")


def _reference_affineness_certificate(nf: NormalFormMNP):
    """The certificate as a sequence of whole-polynomial operations: select
    the y-free part, read exponent ranges, shift with ``mul_monomial``, and
    build the relation for each step."""
    m, n, p = nf.m, nf.n, nf.p
    if p.coeff_of(ONE_MONO) != 0:
        return AffinenessCertificate(m, n, p, (), "HypersurfaceInA4")
    trace = []
    fiber, cur_n, cur_p = "v", n, p
    if cur_p.select("y", 0, 0).is_zero():
        b = p.exponent_range("y")[0]
        fiber, cur_n, cur_p = "w", n - b, p.mul_monomial(mono(y=-b))
        trace.append(
            Case2Step(
                b=b, new_n=cur_n, new_p=cur_p,
                old_fiber_var="v", new_fiber_var=fiber,
                relation=catalog.xmnp_relation(m, cur_n, cur_p, fiber),
            )
        )
    p0 = cur_p.select("y", 0, 0)
    a = p0.exponent_range("x")[0]
    q0 = p0.mul_monomial(mono(x=-a)) if a else p0
    if q0.coeff_of(ONE_MONO) == 0:
        raise CertificateError("internal error: q0(0) = 0 after multiplicity split")
    relation = catalog.xmnp_relation(m, cur_n, cur_p, fiber)
    witness = Poly.monomial(mono_from_map({"x": m - a, fiber: 1})) - q0
    _reference_check_case1_witness(witness, a, m, relation, fiber)
    trace.append(
        Case1Step(
            a=a, q0=q0, fiber_var=fiber, relation=relation,
            witness_numer=witness, witness_power=a,
        )
    )
    return AffinenessCertificate(m, n, p, tuple(trace), "UnitCertificate", q0=q0)


def _reference_check_case1_witness(witness, a, m, relation, fiber):
    shift = mono(x=a)
    f = relation.select("y", 0, 0).terms
    if len(f) != len(witness.terms) or any(
        f.get(mono_mul(mo, shift)) != c for mo, c in witness.terms.items()
    ):
        raise CertificateError("Case 1 transform identity failed")
    lead = mono_from_map({"x": m, fiber: 1})
    if lead not in f or any(mono_degree(mo) > m for mo in f if mo != lead):
        raise CertificateError("Case 1 relation does not lead with x^m * fiber")


def _as_data(obj):
    """Every field of a certificate and of its steps; a polynomial becomes
    its term list in insertion order, with each coefficient's type."""
    if isinstance(obj, Poly):
        return [(mo, c, type(c)) for mo, c in obj.terms.items()]
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__, [(f.name, _as_data(getattr(obj, f.name))) for f in dataclasses.fields(obj)]
    if isinstance(obj, tuple):
        return [_as_data(x) for x in obj]
    return obj, type(obj)


def _certificate_samples():
    """(m, n, p) for every block with m, n <= 5: a seeded sample of the
    block's sweep polynomials, the a- and b-targeted draws of the witness
    power test, seeded draws with Fraction coefficients, and draws with a
    constant term (the base case)."""
    rng = random.Random(18)
    yield from _witness_power_samples()
    for m in range(1, 6):
        for n in range(1, 6):
            if m * n == 1:
                continue
            swept = list(itertools.islice(iter_sweep_polys(m, n), 3000))
            for p in rng.sample(swept, min(len(swept), 30)):
                yield m, n, p
            cells = [(i, j) for i in range(m) for j in range(n)]
            for k in range(12):
                terms = {}
                for i, j in cells:
                    if rng.random() < 0.4:
                        terms[mono(x=i, y=j)] = Fraction(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2, 3)))
                if k % 3 == 0:
                    terms[ONE_MONO] = rng.choice((-2, 1, Fraction(1, 2)))
                elif k % 3 == 1:
                    terms.pop(ONE_MONO, None)
                if any(terms.values()):
                    yield m, n, Poly(terms)


def test_certificate_matches_reference():
    seen = set()
    for m, n, p in _certificate_samples():
        nf = NormalFormMNP(m, n, p)
        cert = affineness_certificate(nf)
        assert _as_data(cert) == _as_data(_reference_affineness_certificate(nf)), (m, n, p)
        seen.add(cert.outcome)
        seen.update(type(s).__name__ for s in cert.trace)
        seen.update(type(c).__name__ for c in p.terms.values())
        seen.add((m, n))
    assert {"HypersurfaceInA4", "UnitCertificate", "Case1Step", "Case2Step", "int", "Fraction"} <= seen
    assert all((m, n) in seen for m in range(1, 6) for n in range(1, 6) if m * n > 1)


def test_certificate_respects_step_bound():
    for text, bound in [("x*y + y^2", 3), ("y", 2), ("x + x*y", 2)]:
        p = pp(text)
        cert = affineness_certificate(NormalFormMNP(2, 3, p))
        assert cert.steps <= p.degree_in("y") + 1
        assert cert.q0.coeff_of(()) != 0


def test_sweep_block_enforces_step_bound(monkeypatch):
    """The sweep block raises once a certificate takes more than
    deg_y(p) + 1 steps, and accepts one that takes exactly that many."""
    real = sweeps.affineness_certificate

    def padded(extra):
        def certificate(nf):
            cert = real(nf)
            steps = nf.p.degree_in("y") + 1 + extra
            return dataclasses.replace(cert, trace=cert.trace[-1:] * steps)
        return certificate

    monkeypatch.setattr(sweeps, "affineness_certificate", padded(0))
    block = affineness_sweep_block(2, 3, limit=50)
    assert block.count == 50 and block.max_steps == 3
    monkeypatch.setattr(sweeps, "affineness_certificate", padded(1))
    with pytest.raises(AssertionError, match="exceeded its step bound"):
        affineness_sweep_block(2, 3, limit=50)


def test_action_cocycle_xmn():
    for m, n in [(1, 1), (2, 2), (3, 1)]:
        pres, d = catalog.xmn(m, n)
        rep = action_cocycle(pres, d, ["u", "v"], chart_vars=("x", "y"))
        assert rep.unit_certificate.ok
        assert rep.invariant
        assert rep.classes[(0, 1)].as_dict() == {(m, n): -1}


def test_action_cocycle_slice_gives_single_chart():
    pres = catalog.xmn_presentation(2, 2, inverted=["x"])
    d = catalog.translation_derivation(pres, 2, 2)
    rep = action_cocycle(pres, d, [pres.element("u*x^-2")], chart_vars=("x", "y"))
    assert rep.differences == {}
    assert rep.unit_certificate.ok


def test_action_cocycle_rejects_zero_delta():
    pres, d = catalog.xmn(1, 1)
    with pytest.raises(ActionCocycleError):
        action_cocycle(pres, d, ["x"])  # delta(x) = 0


def test_action_cocycle_rejects_non_kernel_delta():
    pres = catalog.xmn_presentation(1, 1)
    from gawb.derivations import Derivation
    d = Derivation(pres, {"u": "u", "v": "v", "x": 0, "y": 0})
    with pytest.raises(ActionCocycleError):
        action_cocycle(pres, d, ["u"])


def test_class_json_roundtrip():
    cls = CocycleClass.from_dict({(3, 1): Fraction(5, 2), (1, 2): -1})
    assert CocycleClass.from_json(cls.to_json()).as_dict() == cls.as_dict()


@settings(max_examples=120, deadline=None)
@given(polys(laurent=True, max_deg=5), polys(laurent=True, max_deg=5))
def test_class_linearity_and_coboundary_soundness(g, h):
    lhs = class_of(g + h).as_dict()
    rhs = class_of(g).as_dict()
    for ij, c in class_of(h).coefficients:
        rhs[ij] = rhs.get(ij, 0) + c
    assert lhs == {ij: c for ij, c in rhs.items() if c}
    ok, witness = is_coboundary(g)
    assert ok == class_of(g).is_trivial()
    if ok:
        g_plus, g_minus = witness
        assert g_plus - g_minus == g


def test_action_cocycle_recovers_defining_class():
    # for normal forms with p(0,0) != 0 (closed hypersurfaces, so x^m and y^n
    # generate the unit ideal modulo the relation) the translation action's
    # two-chart cocycle is the negative of the defining class
    for nf in (NormalFormMNP(3, 2, pp("1 + 2*x^2")),
               NormalFormMNP(2, 3, pp("1 + x + y^2 - 2*x*y^2")),
               NormalFormMNP(1, 1, pp("1"))):
        pres, d = bundle_from_cocycle(nf)
        rep = action_cocycle(pres, d, ["u", "v"], chart_vars=("x", "y"))
        got = rep.classes[(0, 1)]
        want = class_of(nf.cocycle()).scale(-1)
        assert got.as_dict() == want.as_dict(), (nf.m, nf.n)
        assert rep.invariant


def test_bundle_total_spaces_smooth():
    from gawb.quotient import SmoothnessVerdict, smoothness_check
    for nf in (NormalFormMNP(2, 2, pp("x")), NormalFormMNP(3, 2, pp("1 + 2*x^2"))):
        pres, _ = bundle_from_cocycle(nf)
        assert smoothness_check(pres).verdict == SmoothnessVerdict.SMOOTH_EVERYWHERE


def test_action_cocycle_unit_ideal_needs_nonvanishing_p():
    # with p(0,0) = 0 the presented algebra still contains the fiber over the
    # origin, so x^m, y^n cannot generate the unit ideal and the witness set
    # is rightly rejected
    pres, d = bundle_from_cocycle(NormalFormMNP(2, 2, pp("x")))
    with pytest.raises(ActionCocycleError):
        action_cocycle(pres, d, ["u", "v"], chart_vars=("x", "y"))

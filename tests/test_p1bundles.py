import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gawb import p1bundles
from gawb.derivations import GroupLaw
from gawb.linalg import kernel_basis
from gawb.p1bundles import (
    NonMonomialDeterminantError,
    SplittingType,
    TorsorTransition,
    TransitionMatrix2,
    birkhoff_split,
    generator_involution_check,
    h0_twist,
    sdm_from_mn,
    splitting_by_h0_scan,
    torsor_class,
    transition_matrix,
    u_poly,
    verify_trivialization,
)
from gawb.poly import Poly, mono, mono_exp, render_poly


def test_gd_multiplication():
    # the structure group G_d of the P^1-bundle torsors: (lam, t)(lam', t') = (lam lam', t + lam^d t')
    assert GroupLaw.semidirect(1).product((2, 3), (5, 7)) == (10, 17)
    gd3 = GroupLaw.semidirect(3)
    assert gd3.product(gd3.identity(), (4, 5)) == (4, 5)


def test_gd_inverse():
    gd2 = GroupLaw.semidirect(2)
    gi = gd2.inverse((2, 3))
    assert gi == (Fraction(1, 2), Fraction(-3, 4))
    assert gd2.product((2, 3), gi) == gd2.identity()


def test_torsor_class_extraction():
    assert torsor_class(TorsorTransition(4, u_poly("u^2"))).coefficients == (0, 1, 0)
    assert torsor_class(TorsorTransition(4, u_poly("1 + u^4"))).coefficients == (0, 0, 0)
    assert torsor_class(TorsorTransition(2, u_poly("u"))).coefficients == (1,)


def test_torsor_transition_rejects_variables_other_than_u():
    """A phi with x in it has no class in H^1(P^1, O(-d)); torsor_class would
    otherwise drop the x terms and report (0,)."""
    phi = Poly.monomial(mono(u=1, x=1)) + Poly.monomial(mono(u=3, x=1))
    with pytest.raises(ValueError, match="Laurent polynomial in u"):
        TorsorTransition(2, phi)
    with pytest.raises(ValueError):
        TorsorTransition(2, Poly.variable("x"))
    assert TorsorTransition(2, u_poly("u^-1 + 2")).phi == u_poly("u^-1 + 2")


def test_torsor_witness_reconstruction():
    """A trivial class splits phi = u^d s0 - s1 with s0 regular in u and s1
    in u^-1: phi has no u^1 .. u^(d-1) terms."""
    tt = TorsorTransition(4, u_poly("3 + u^-2 + 5*u^4 + u^6"))
    assert torsor_class(tt).is_trivial()
    s0, s1 = tt.phi.select("u", tt.d) * u_poly("u^-4"), -tt.phi.select("u", hi=0)
    assert u_poly("u^4") * s0 - s1 == tt.phi
    assert s0.is_regular(("u",))


def test_sdm_from_mn():
    for (m, n, phi) in [(2, 2, "u^2"), (3, 1, "u^3"), (1, 1, "u")]:
        sdm = sdm_from_mn(m, n)
        assert sdm.d == m + n
        assert sdm.torsor.phi == u_poly(phi)
        assert sdm.matrix().entries[0][0] == u_poly(f"u^{m+n}")


def test_h0_examples():
    M = transition_matrix(2, 2)
    assert h0_twist(M, 1)[0] == 0
    dim, basis = h0_twist(M, 2)
    assert dim == 2
    M31 = transition_matrix(3, 1)
    dim3, basis3 = h0_twist(M31, 3)
    assert dim3 >= 1
    Mj = M31.twist(3)
    for g1, g2 in basis3:
        h1 = Mj.entries[0][0] * g1 + Mj.entries[0][1] * g2
        h2 = Mj.entries[1][0] * g1 + Mj.entries[1][1] * g2
        for h in (h1, h2):
            assert all(mono_exp(m, "u") <= 0 for m in h.terms)


def test_birkhoff_examples():
    assert birkhoff_split(transition_matrix(2, 2)).splitting == SplittingType(-2, -2)
    assert birkhoff_split(transition_matrix(3, 1)).splitting == SplittingType(-1, -3)
    diag = TransitionMatrix2(((u_poly("u^3"), Poly.zero()), (Poly.zero(), u_poly("u^-1"))))
    assert birkhoff_split(diag).splitting == SplittingType(1, -3)


def test_birkhoff_mixed_laurent_entry():
    """A Laurent tail in the corner entry takes several reduction steps."""
    M = TransitionMatrix2.from_json([["u^2", "u^-1 + 2*u^-2 + 2*u^-3 + 2*u^-4"], ["0", "u^2"]])
    assert birkhoff_split(M).splitting == SplittingType(-2, -2) == splitting_by_h0_scan(M)


@pytest.mark.parametrize("rows, exponents, left", [
    # row 0 has the smaller valuation and is reduced
    ([["u^-1", "1"], ["1", "2*u"]], (0, 0), [["1", "u^-1"], ["0", "1"]]),
    # row 1 has the smaller valuation and is reduced
    ([["1", "2*u"], ["u^-1", "1"]], (0, 0), [["1", "0"], ["u^-1", "1"]]),
    # equal valuations: row 0 is reduced
    ([["1", "0"], ["1", "u"]], (1, 0), [["1", "1"], ["0", "1"]]),
    # parallel trailing vectors with both entries nonzero, ratio 1/3
    ([["1", "2"], ["3", "6 + u"]], (1, 0), [["1", "1/3"], ["0", "1"]]),
    # the pivot row's trailing vector starts with 0
    ([["u", "1"], ["0", "1"]], (1, 0), [["1", "1"], ["0", "1"]]),
])
def test_birkhoff_reduction_branches(rows, exponents, left):
    M = TransitionMatrix2.from_json(rows)
    fac = birkhoff_split(M)
    assert fac.exponents == exponents
    assert [[render_poly(p) for p in row] for row in fac.left] == left
    assert fac.splitting == splitting_by_h0_scan(M)


def _sheared_extensions():
    """``(m, n, M)`` for 16 seeded M = [[1, c u^-e], [0, 1]] *
    [[u^(m+n), u^m], [0, 1]] * [[1, 0], [d u^l, 1]]."""
    rng = random.Random(4417)
    for _ in range(16):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        c = rng.choice([1, -1, 2, -3, Fraction(1, 2)])
        d = rng.choice([1, -1, 3, Fraction(-2, 3)])
        e, l = rng.randint(0, 3), rng.randint(0, 3)
        one, zero = Poly.const(1), Poly.zero()
        L = ((one, Poly.monomial(mono(u=-e), c)), (zero, one))
        R = ((one, zero), (Poly.monomial(mono(u=l), d), one))
        prod = L
        for B in (transition_matrix(m, n).entries, R):
            prod = tuple(tuple(prod[i][0] * B[0][j] + prod[i][1] * B[1][j] for j in range(2))
                         for i in range(2))
        yield m, n, TransitionMatrix2(prod)


def test_birkhoff_on_sheared_extension_grid():
    """A sheared extension matrix has the splitting type (-n, -m) of the
    middle factor."""
    for m, n, M in _sheared_extensions():
        split = birkhoff_split(M).splitting
        assert (split.a1, split.a2) == (-min(m, n), -max(m, n)), (m, n, M.to_json())
        assert split == splitting_by_h0_scan(M)


def test_splitting_sum_matches_determinant():
    M = transition_matrix(4, 2)
    fac = birkhoff_split(M)
    assert fac.exponents[0] + fac.exponents[1] == M.det_exponent


def test_non_monomial_determinant_rejected():
    with pytest.raises(NonMonomialDeterminantError):
        TransitionMatrix2(((u_poly("u + 1"), Poly.zero()), (Poly.zero(), u_poly("1"))))


def test_grid_agreement():
    for m in range(1, 6):
        for n in range(1, m + 1):
            M = transition_matrix(m, n)
            b = birkhoff_split(M).splitting
            assert b == splitting_by_h0_scan(M)
            assert (b.a1, b.a2) == (-n, -m)
            assert b.hirzebruch_index == 2 * m - (m + n)


def test_h0_scan_solves_each_twist_once(monkeypatch):
    """The scan starts at the degree bound's first twist, 0 here, and the
    profile check ends at -a2 + 1 = m + 1: m + 2 twists, each solved once."""
    twists = []
    original = p1bundles.h0_twist

    def counting(M, j):
        twists.append(j)
        return original(M, j)

    monkeypatch.setattr(p1bundles, "h0_twist", counting)
    for m in range(1, 6):
        for n in range(1, m + 1):
            twists.clear()
            assert splitting_by_h0_scan(transition_matrix(m, n)) == SplittingType(-n, -m)
            assert sorted(twists) == list(range(m + 2)), (m, n, twists)


def test_matrix_json_roundtrip():
    M = transition_matrix(3, 2)
    assert TransitionMatrix2.from_json(M.to_json()).entries == M.entries


def test_involution():
    for m, n in [(1, 1), (2, 2), (3, 1), (4, 2)]:
        assert generator_involution_check(m, n)


def test_trivialization_reports():
    for m, n in [(1, 1), (2, 2), (3, 1)]:
        rep = verify_trivialization(m, n, points=20, seed=11)
        assert rep.passed, (m, n, rep.identity_residuals, rep.invariance_residuals)
        assert rep.points_checked == 20 and rep.point_failures == 0


def _random_unit_matrix(rng, regular_in_u=True, shears=3):
    # product of elementary shears and constant scalings: invertible over
    # C[u] (or C[u^-1]) with constant determinant
    ident = [[Poly.const(1), Poly.zero()], [Poly.zero(), Poly.const(1)]]
    M = ident
    for _ in range(rng.randint(1, shears)):
        f = Poly.zero()
        for _ in range(rng.randint(1, 2)):
            e = rng.randint(0, 3) if regular_in_u else -rng.randint(0, 3)
            f = f + Poly.monomial(mono(u=e) if e else (), rng.randint(-3, 3))
        side = rng.random() < 0.5
        shear = [[Poly.const(1), f if side else Poly.zero()],
                 [Poly.zero() if side else f, Poly.const(1)]]
        M = [[M[i][0] * shear[0][j] + M[i][1] * shear[1][j] for j in range(2)] for i in range(2)]
    c = rng.choice([1, -1, 2, Fraction(1, 2)])
    M[0] = [p.scale(c) for p in M[0]]
    return M


def _random_products(seed, count, top, shears=3):
    """``(e1, e2, M)`` for ``count`` seeded M = left * diag(u^e1, u^e2) * right,
    |e1|, |e2| <= top, with left invertible over C[u^-1] and right over C[u],
    each a product of 1 .. ``shears`` shears."""
    rng = random.Random(seed)
    for _ in range(count):
        e1, e2 = rng.randint(-top, top), rng.randint(-top, top)
        L = _random_unit_matrix(rng, regular_in_u=False, shears=shears)
        R = _random_unit_matrix(rng, regular_in_u=True, shears=shears)
        D = [[Poly.monomial(mono(u=e1) if e1 else ()), Poly.zero()],
             [Poly.zero(), Poly.monomial(mono(u=e2) if e2 else ())]]
        prod = L
        for B in (D, R):
            prod = [[prod[i][0] * B[0][j] + prod[i][1] * B[1][j] for j in range(2)] for i in range(2)]
        yield e1, e2, TransitionMatrix2(tuple(tuple(row) for row in prod))


def test_birkhoff_on_random_conjugates():
    # left * diag * right with known exponents must be recovered exactly
    for e1, e2, M in _random_products(20240, 60, 3):
        fac = birkhoff_split(M)
        expected = sorted((-e1, -e2), reverse=True)
        assert (fac.splitting.a1, fac.splitting.a2) == tuple(expected)


def test_torsor_class_linear_in_phi():
    rng = random.Random(77)
    for _ in range(50):
        d = rng.randint(2, 6)
        phi1 = Poly.zero()
        phi2 = Poly.zero()
        for _ in range(4):
            phi1 = phi1 + Poly.monomial(mono(u=rng.randint(-3, d + 3)) or (), rng.randint(-4, 4))
            phi2 = phi2 + Poly.monomial(mono(u=rng.randint(-3, d + 3)) or (), rng.randint(-4, 4))
        c1 = torsor_class(TorsorTransition(d, phi1)).coefficients
        c2 = torsor_class(TorsorTransition(d, phi2)).coefficients
        csum = torsor_class(TorsorTransition(d, phi1 + phi2)).coefficients
        assert csum == tuple(a + b for a, b in zip(c1, c2))


def test_splitting_type_sorted():
    with pytest.raises(ValueError):
        SplittingType(-3, -1)


def test_birkhoff_h0_agreement_on_dense_matrices():
    # dense random products: the factorization and the independent h0 scan
    # must agree on every instance
    for e1, e2, M in _random_products(990017, 200, 2):
        fac = birkhoff_split(M)
        scan = splitting_by_h0_scan(M)
        assert fac.splitting == scan
        assert (fac.splitting.a1, fac.splitting.a2) == tuple(sorted((-e1, -e2), reverse=True))


# -- reference h^0: the degree scan with stability columns -----------------------
#
# h0_twist solves once at the proven bound B = hi - e + j and the splitting
# scan runs over e - hi .. e // 2.  The references below guess instead: a
# degree b0 = spread + |j| + 2, raised until two stability columns show no
# section of higher degree, and a first twist -(spread + |e| + 2).


def _reference_exponent_spread(M):
    ranges = [p.exponent_range("u") for row in M.entries for p in row if not p.is_zero()]
    return max(hi for _, hi in ranges) - min(lo for lo, _ in ranges) if ranges else 0


def _reference_h0_fixed_degree(Mj, D):
    """Canonical kernel basis of the conditions that M_j.g has no positive
    power of u, for g of degree <= D: columns g1 below degree D, then g2, then
    the degree-D coefficients of g1 and g2."""
    cols = [[part * D + deg for deg in range(D)] + [2 * D + part] for part in range(2)]
    rows = []
    for r in range(2):
        eqs = {}
        for part in range(2):
            for m, c in Mj[r][part].terms.items():
                e = mono_exp(m, "u")
                for deg in range(max(0, 1 - e), D + 1):
                    eq = eqs.setdefault(e + deg, {})
                    col = cols[part][deg]
                    eq[col] = eq.get(col, 0) + c
        rows.extend(eqs[k] for k in sorted(eqs))
    return kernel_basis(rows, 2 * D + 2)


def _reference_h0_twist(M, j, degree_cap=24):
    Mj = M.twist(j).entries
    b0 = _reference_exponent_spread(M) + abs(j) + 2
    for B in range(b0, b0 + degree_cap):
        basis = _reference_h0_fixed_degree(Mj, B + 1)
        if all(not v[-2] and not v[-1] for v in basis):
            sections = [(p1bundles._u_coeffs_poly(v[:B + 1]),
                         p1bundles._u_coeffs_poly(v[B + 1:2 * B + 2])) for v in basis]
            return len(sections), sections
    raise RuntimeError("h0 scan did not stabilize within the degree cap")


def _reference_splitting_by_h0_scan(M, sections, scan_cap=64):
    """The wide-window scan; ``sections`` memoizes the reference
    ``(dim, basis)`` of each twist it visits."""

    def h0(twist):
        if twist not in sections:
            sections[twist] = _reference_h0_twist(M, twist)
        return sections[twist][0]

    e = M.det_exponent
    start = -(_reference_exponent_spread(M) + abs(e) + 2)
    j = start
    while h0(j) == 0:
        j += 1
        if j - start > scan_cap:
            raise RuntimeError("h0 scan found no sections within the window")
    a1 = -j
    a2 = -e - a1
    if a1 < a2:
        raise RuntimeError("h0 scan produced an unsorted splitting; determinant mismatch")
    for jj in range(-a1 - 1, -a2 + 2):
        expected = max(0, a1 + jj + 1) + max(0, a2 + jj + 1)
        got = h0(jj)
        if got != expected:
            raise RuntimeError(
                f"h0 profile disagrees with split model at twist {jj}: {got} != {expected}"
            )
    return SplittingType(a1, a2)


def _outcome(f, *args):
    try:
        return f(*args)
    except RuntimeError as exc:
        return f"RuntimeError: {exc}"


def test_h0_matches_the_degree_scan_reference(monkeypatch):
    """``h0_twist`` gives the reference's (dim, basis), polynomial for
    polynomial and in the same order, at every twist the reference scan
    visits, and ``splitting_by_h0_scan`` the same splitting type or error
    text.  Checked on the extension matrices with m, n <= 6 (also at each
    j in [-12, 12]), the matrices of the tests above (the fixed ones also at
    each j in [-4, 4]), the splitting and h0 matrices of one benchmark
    queries round and 200 seeded random products.  The reference systems
    grow steeply with the exponent spread of M (one scan of a queries matrix
    of spread 12 takes about 0.2 s), so the sheared, conjugated and
    splitting-query matrices are compared only at spread <= 4, and the random
    products have one shear on each side."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import inputs

    cases = [(transition_matrix(m, n), range(-12, 13)) for m in range(1, 7) for n in range(1, 7)]
    fixed = [
        [["u^3", "0"], ["0", "u^-1"]],
        [["u^2", "u^-1 + 2*u^-2 + 2*u^-3 + 2*u^-4"], ["0", "u^2"]],
        [["u^-1", "1"], ["1", "2*u"]],
        [["1", "2*u"], ["u^-1", "1"]],
        [["1", "0"], ["1", "u"]],
        [["1", "2"], ["3", "6 + u"]],
        [["u", "1"], ["0", "1"]],
        [["u^3", "u^-1 + 2*u"], ["0", "u^-1"]],
    ]
    cases += [(TransitionMatrix2.from_json(rows), range(-4, 5)) for rows in fixed]
    by_spread = [M for _, _, M in _sheared_extensions()]
    by_spread += [M for _, _, M in _random_products(20240, 60, 3)]
    queries = inputs.query_inputs(0, 0, 2156)
    by_spread += [TransitionMatrix2.loads(q["matrix"]) for q in queries if q["kind"] == "splitting"]
    cases += [(M, ()) for M in by_spread if _reference_exponent_spread(M) <= 4]
    cases += [(TransitionMatrix2.loads(q["matrix"]), (q["j"],)) for q in queries if q["kind"] == "h0"]
    products = (M for _, _, M in _random_products(70001, 10 ** 6, 1, shears=1))
    cases += [(M, ()) for M in itertools.islice(
        (M for M in products if _reference_exponent_spread(M) <= 4), 200)]
    assert len(cases) == 36 + 8 + (1 + 15 + 6) + 49 + 200
    for M, twists in cases:
        sections = {j: _outcome(_reference_h0_twist, M, j) for j in twists}
        scan = _outcome(_reference_splitting_by_h0_scan, M, sections)
        assert _outcome(splitting_by_h0_scan, M) == scan, M.to_json()
        for j, want in sections.items():
            assert _outcome(h0_twist, M, j) == want, (M.to_json(), j)

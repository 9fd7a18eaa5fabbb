from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from gawb.parse import parse_poly
from gawb.poly import Poly, mono, mono_exp
from gawb.resultant import NonHomogeneousError, binary_resultant, sylvester_matrix


def test_disjoint_pure_powers():
    assert binary_resultant(parse_poly("x^2"), parse_poly("y^3")) != 0


def test_shared_factor():
    assert binary_resultant(parse_poly("x*y"), parse_poly("x^2")) == 0


def test_circle_and_cusp_line():
    assert binary_resultant(parse_poly("x^2 + y^2"), parse_poly("y^3")) != 0


def test_rejects_inhomogeneous():
    with pytest.raises(NonHomogeneousError):
        binary_resultant(parse_poly("x^2 + y"), parse_poly("y^2"))


def test_sylvester_shape():
    rows = sylvester_matrix(parse_poly("x^2"), parse_poly("y^3"))
    assert len(rows) == 5 and all(len(r) == 5 for r in rows)


# independent oracle: univariate gcd of dehomogenizations, plus the shared
# zero at [1:0] detected through vanishing top coefficients


def _gcd_degree(a, b):
    a, b = list(a), list(b)

    def deg(c):
        d = len(c) - 1
        while d >= 0 and c[d] == 0:
            d -= 1
        return d

    while deg(b) >= 0:
        da, db = deg(a), deg(b)
        if da < db:
            a, b = b, a
            continue
        lead = Fraction(a[da], b[db])
        for i in range(db + 1):
            a[da - db + i] -= lead * b[i]
        a[da] = 0
    return deg(a)


def _coeff_vectors(f, g, m, n):
    af = [Fraction(0)] * (m + 1)
    ag = [Fraction(0)] * (n + 1)
    for mo, c in f.terms.items():
        af[mono_exp(mo, "x")] += Fraction(c)
    for mo, c in g.terms.items():
        ag[mono_exp(mo, "x")] += Fraction(c)
    return af, ag


@st.composite
def binary_form(draw, deg):
    # random form of exact total degree deg (may factor arbitrarily)
    coeffs = [draw(st.integers(min_value=-4, max_value=4)) for _ in range(deg + 1)]
    if all(c == 0 for c in coeffs):
        coeffs[draw(st.integers(0, deg))] = 1
    p = Poly.zero()
    for i, c in enumerate(coeffs):
        p = p + Poly.monomial(mono(x=i, y=deg - i), c)
    return p


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_resultant_vanishes_iff_common_projective_zero(m, n, data):
    f = data.draw(binary_form(m))
    g = data.draw(binary_form(n))
    res = binary_resultant(f, g)
    af, ag = _coeff_vectors(f, g, m, n)
    common_affine = _gcd_degree(af, ag) > 0
    common_at_infinity = af[m] == 0 and ag[n] == 0
    assert (res == 0) == (common_affine or common_at_infinity)

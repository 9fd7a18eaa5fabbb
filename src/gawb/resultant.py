"""Resultants of binary forms via the Sylvester matrix.

The resultant of two homogeneous binary forms of degrees m and n is the
determinant of the (m+n) x (m+n) Sylvester matrix built from the full
coefficient vectors (including vanishing extreme coefficients).  It vanishes
exactly when the forms share a projective zero, i.e. when their common affine
zero locus is larger than the origin.
"""

from __future__ import annotations

from typing import List

from .linalg import det
from .poly import Coeff, Poly, mono_exp


class NonHomogeneousError(ValueError):
    pass


def form_coefficients(f: Poly, x: str, y: str) -> List:
    """Coefficients [a_0..a_m] of f = sum a_i x^(m-i) y^i; validates the form."""
    extra = f.variables() - {x, y}
    if extra:
        raise ValueError(f"form contains extra variables {sorted(extra)}")
    if not f.is_regular():
        raise NonHomogeneousError("form must have nonnegative exponents")
    m = f.homogeneous_degree((x, y))
    if m is None:
        raise NonHomogeneousError("polynomial is not a homogeneous binary form")
    coeffs = [0] * (m + 1)
    for mo, c in f.terms.items():
        coeffs[mono_exp(mo, y)] = c
    return coeffs


def sylvester_matrix(f: Poly, g: Poly, x: str = "x", y: str = "y") -> List[List]:
    a = form_coefficients(f, x, y)
    b = form_coefficients(g, x, y)
    m = len(a) - 1
    n = len(b) - 1
    if m < 1 or n < 1:
        raise ValueError("forms must have positive degree")
    size = m + n
    rows = []
    for i in range(n):
        rows.append([0] * i + a + [0] * (size - i - m - 1))
    for i in range(m):
        rows.append([0] * i + b + [0] * (size - i - n - 1))
    return rows

def binary_resultant(f: Poly, g: Poly, x: str = "x", y: str = "y") -> Coeff:
    """Nonzero iff V(f, g) = {0}, i.e. the forms share no projective zero."""
    return det(sylvester_matrix(f, g, x, y))

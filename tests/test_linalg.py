"""Seeded property tests of the sparse elimination kernel in ``gawb.linalg``.

The reference is dense Gauss-Jordan over ``Fraction``: the kernel bases must
agree exactly, not just span the same space.
"""

import random
from fractions import Fraction

from gawb.linalg import cofactor_det, det, kernel_basis
from gawb.poly import Poly, mono, render_poly

CASES = 300


def ref_rref(matrix):
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def ref_kernel_basis(matrix, ncols):
    if not matrix:
        return [[Fraction(int(i == j)) for j in range(ncols)] for i in range(ncols)]
    rows, pivots = ref_rref(matrix)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][f]
        basis.append(vec)
    return basis


def sparse(matrix):
    return [{c: x for c, x in enumerate(row) if x} for row in matrix]


def entry(rng, fractions):
    if rng.random() < 0.5:
        return 0
    x = rng.randint(-9, 9)
    if fractions and rng.random() < 0.5:
        return Fraction(x, rng.randint(1, 7))
    return x


def random_matrix(rng, nrows, ncols, fractions):
    """Random entries, then possibly a zero row, a row that is a multiple of
    another (rank deficiency) and a row scaled by a non-unit."""
    rows = [[entry(rng, fractions) for _ in range(ncols)] for _ in range(nrows)]
    if nrows and rng.random() < 0.3:
        rows[rng.randrange(nrows)] = [0] * ncols
    if nrows >= 2 and rng.random() < 0.4:
        a, b = rng.sample(range(nrows), 2)
        k = rng.choice([2, -3, Fraction(1, 2)] if fractions else [2, -3])
        rows[a] = [k * y for y in rows[b]]
    if nrows and rng.random() < 0.5:
        i = rng.randrange(nrows)
        rows[i] = [rng.choice([2, 5, -7]) * x for x in rows[i]]
    return rows


def apply(matrix, vec):
    return [sum(x * v for x, v in zip(row, vec)) for row in matrix]


def test_kernel_matches_dense_reference():
    rng = random.Random(6001)
    deficient = 0
    for case in range(CASES):
        nrows, ncols = rng.randint(0, 7), rng.randint(1, 8)
        matrix = random_matrix(rng, nrows, ncols, fractions=case % 2 == 1)
        got = kernel_basis(sparse(matrix), ncols)
        assert got == ref_kernel_basis(matrix, ncols), matrix
        for vec in got:
            assert all(x == 0 for x in apply(matrix, vec))
        if matrix and len(got) > ncols - min(nrows, ncols):
            deficient += 1
    assert deficient > CASES // 10


def test_kernel_of_empty_and_zero_matrices():
    assert kernel_basis([], 3) == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert kernel_basis([{}, {}], 2) == [[1, 0], [0, 1]]
    assert kernel_basis([], 0) == []


def test_kernel_full_rank_and_non_unit_pivots():
    # square and invertible: trivial kernel; 3x + 6y = 0 needs a division
    assert kernel_basis(sparse([[2, 1], [1, 1]]), 2) == []
    assert kernel_basis([{0: 3, 1: 6}], 2) == [[-2, 1]]
    assert kernel_basis([{0: 4, 1: 6}], 2) == [[Fraction(-3, 2), 1]]


def test_kernel_keeps_integers_with_unit_pivots():
    basis = kernel_basis([{0: 1, 2: -3}, {1: -1, 2: 5}], 3)
    assert basis == [[3, 5, 1]]
    assert all(type(x) is int for x in basis[0])


def test_det_matches_cofactor_expansion():
    rng = random.Random(6002)
    zeros = 0
    for case in range(CASES):
        n = rng.randint(1, 5)
        matrix = random_matrix(rng, n, n, fractions=case % 2 == 1)
        d = det(matrix)
        assert d == cofactor_det(matrix), matrix
        zeros += d == 0
    assert 0 < zeros < CASES
    assert det([]) == 1


def test_int_and_fraction_kernel_vectors_make_equal_polys():
    rng = random.Random(6003)
    int_entries = 0
    for _ in range(CASES // 3):
        ncols = rng.randint(2, 8)
        matrix = random_matrix(rng, rng.randint(1, 5), ncols, fractions=False)
        for vec, ref in zip(kernel_basis(sparse(matrix), ncols), ref_kernel_basis(matrix, ncols)):
            p = Poly({mono(u=d): c for d, c in enumerate(vec) if c})
            q = Poly({mono(u=d): c for d, c in enumerate(ref) if c})
            assert p == q
            # Poly itself is unhashable; hashing sees its term items
            assert hash(frozenset(p.terms.items())) == hash(frozenset(q.terms.items()))
            assert render_poly(p) == render_poly(q)
            int_entries += sum(type(c) is int for c in p.terms.values())
    assert int_entries > 0

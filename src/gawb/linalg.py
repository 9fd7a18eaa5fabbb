"""Exact linear algebra: one sparse elimination kernel serving right kernels
and determinants, and cofactor expansion for small polynomial matrices."""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Mapping, Sequence, Tuple

from .poly import Coeff

Row = Dict[int, Coeff]


def _subtract(row: Row, f: Coeff, other: Row) -> None:
    """row -= f * other, dropping entries that become zero."""
    for k, x in other.items():
        v = row.get(k, 0) - f * x
        if v:
            row[k] = v
        else:
            del row[k]


def _reduce(rows: Sequence[Mapping[int, Coeff]]) -> Tuple[Dict[int, Row], List[int], Coeff]:
    """Reduced row echelon form of sparse rows ``{column: entry}``.

    Rows are taken one at a time: each is cleared of the pivot columns found
    so far, takes its least remaining column as pivot, is divided by that
    entry and is then cleared from the earlier pivot rows.  Every pivot row
    keeps its support at or right of its pivot, so the result is the unique
    reduced echelon form whatever the row order.  Entries stay ``int`` until a
    pivot other than +-1 forces a division.

    Returns the pivot rows by pivot column (without their pivot entry, which
    is 1), the pivot column of each row that did not reduce to zero, in input
    order, and the product of the pivots divided out.
    """
    pivots: Dict[int, Row] = {}
    order: List[int] = []
    scale: Coeff = 1
    for given in rows:
        row = {c: x for c, x in given.items() if x}
        for c in [c for c in row if c in pivots]:
            _subtract(row, row.pop(c), pivots[c])
        if not row:
            continue
        p = min(row)
        pv = row.pop(p)
        if pv == -1:
            row = {k: -x for k, x in row.items()}
        elif pv != 1:
            row = {k: Fraction(x, pv) for k, x in row.items()}
        for prow in pivots.values():
            f = prow.pop(p, 0)
            if f:
                _subtract(prow, f, row)
        pivots[p] = row
        order.append(p)
        scale *= pv
    return pivots, order, scale


def kernel_basis(matrix: Sequence[Mapping[int, Coeff]], ncols: int) -> List[List[Coeff]]:
    """Basis of the right kernel of sparse rows ``{column: entry}`` in ncols unknowns.

    The basis is canonical, one vector per free column f in increasing order:
    1 at f, 0 at the other free columns, minus the reduced rows' entries in
    column f at the pivot columns.
    """
    pivots, _, _ = _reduce(matrix)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec: List[Coeff] = [0] * ncols
        vec[f] = 1
        for p, row in pivots.items():
            x = row.get(f)
            if x:
                vec[p] = -x
        basis.append(vec)
    return basis


def det(matrix: Sequence[Sequence[Coeff]]) -> Coeff:
    """Exact determinant of a square matrix with int or Fraction entries."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    _, order, scale = _reduce([dict(enumerate(row)) for row in matrix])
    if len(order) < n:
        return 0
    # the reduced matrix is the permutation matrix of row i -> order[i]
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    return -scale if inversions % 2 else scale


def cofactor_det(matrix: Sequence[Sequence]):
    """Determinant by cofactor expansion; generic over any commutative ring
    elements supporting * and - (used for small polynomial matrices)."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if n == 1:
        return matrix[0][0]
    if n == 2:
        return matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]
    total = None
    for j in range(n):
        minor = [[row[c] for c in range(n) if c != j] for row in matrix[1:]]
        term = matrix[0][j] * cofactor_det(minor)
        if j % 2 == 1:
            term = -term
        total = term if total is None else total + term
    return total

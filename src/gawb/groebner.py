"""Multivariate division and a small Buchberger kernel.

Only regular polynomials (nonnegative exponents) are accepted; callers that
need localization must clear denominators first.  The basis returned by
``buchberger`` is the reduced Groebner basis, so normal forms are canonical.
An optional cofactor mode tracks, for every basis element, an exact
representation in terms of the input generators; this is what powers
unit-ideal certificates.

All division runs through one loop, ``_divide``, which records quotients
only when its caller passes dicts for them: ``reduce_poly`` does, and so do
``buchberger`` and the interreduction in cofactor mode; ``normal_form``
never does.  ``_divide`` takes leading terms from a heap of the working
monomials (heap-based sparse division, after Monagan and Pearce); a heap
entry whose term has cancelled since its push is stale and skipped when
popped.  Coefficients stay ``int`` while every leading coefficient divided
by is 1 or -1 (see ``poly.invert_coeff``).  A divisor's leading monomial
and inverse leading coefficient (``_leads``) are found once where the
divisors are fixed: ``GroebnerBasis`` holds them for its elements, and
``buchberger`` keeps them as its basis grows.
"""

from __future__ import annotations

import heapq
from typing import List, Optional, Sequence, Tuple

from .poly import (
    Coeff, Mono, Poly, TermOrder, invert_coeff, mono_div, mono_divides, mono_lcm, mono_mul,
)

DEFAULT_SPAIR_BUDGET = 20_000


class GroebnerBudgetExceeded(RuntimeError):
    def __init__(self, budget: int):
        super().__init__(f"S-polynomial budget of {budget} exceeded")
        self.budget = budget


def leading_term(p: Poly, order: TermOrder) -> Tuple[Mono, Coeff]:
    if not p.terms:
        raise ValueError("zero polynomial has no leading term")
    key = order.key
    lm = max(p.terms, key=key)
    return lm, p.terms[lm]


def _check_regular(polys: Sequence[Poly]):
    for p in polys:
        if not p.is_regular():
            raise ValueError("Groebner operations require nonnegative exponents; localize explicitly")


def _leads(divisors: Sequence[Poly], order: TermOrder) -> list:
    """``(leading monomial, 1/leading coefficient)`` of each divisor, and
    None for a zero divisor: what ``_divide`` divides by."""
    out = []
    for d in divisors:
        if d.terms:
            lm, lc = leading_term(d, order)
            out.append((lm, invert_coeff(lc)))
        else:
            out.append(None)
    return out


def _divide(
    p: Poly,
    divisors: Sequence[Poly],
    order: TermOrder,
    quotients: Optional[List[dict]] = None,
    leads: Optional[Sequence] = None,
) -> Poly:
    """The division loop: the remainder of p by divisors, in order.

    The largest remaining term is popped; the first divisor whose leading
    monomial divides it cancels it, otherwise it moves to the remainder.
    When ``quotients`` (one dict per divisor) is given, the cancelling
    multiples are recorded there.  Every later term is smaller than the
    popped one, so a monomial is popped at most once and each quotient
    monomial is written once.  ``leads`` is ``_leads(divisors, order)``,
    computed here when the caller does not hold it.

    The working terms live in the dict ``work``; ``heap`` holds their
    monomials under ``order.heap_key``, so the smallest heap entry is the
    largest monomial.  A monomial is pushed whenever it enters ``work``.  A
    term that cancels leaves its entry behind, and a popped entry whose
    monomial is no longer in ``work`` is stale and skipped; a term that
    cancels and comes back has two entries, the second of them stale.

    When no leading monomial divides any term of p (no divisors at all, or a
    p already reduced), p is its own remainder and is returned before any
    heap is built, its terms in the descending order the loop pops them.
    """
    heap_key = order.heap_key
    if leads is None:
        leads = _leads(divisors, order)
    lead = [
        (li[0], li[1], d, None if quotients is None else quotients[i])
        for i, (d, li) in enumerate(zip(divisors, leads)) if li is not None
    ]
    terms = p.terms
    if not any(mono_divides(li[0], m) for li in lead for m in terms):
        return Poly._raw({m: terms[m] for m in order.sorted_monos(terms)})
    remainder: dict = {}
    work = dict(terms)
    heap = [(heap_key(m), m) for m in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while work:
        m = pop(heap)[1]
        c = work.pop(m, None)
        if c is None:
            continue  # stale: the term cancelled after its push
        for lm, inv, d, q in lead:
            if mono_divides(lm, m):
                qm = mono_div(m, lm)
                qc = c * inv
                if q is not None:
                    q[qm] = qc
                for tm, tc in d.terms.items():
                    if tm == lm:
                        continue
                    mm = mono_mul(tm, qm)
                    n = work.get(mm)
                    if n is None:
                        work[mm] = -qc * tc
                        push(heap, (heap_key(mm), mm))
                    else:
                        n -= qc * tc
                        if n:
                            work[mm] = n
                        else:
                            del work[mm]
                break
        else:
            remainder[m] = c
    return Poly._raw(remainder)  # a popped term is never zero


def reduce_poly(
    p: Poly, divisors: Sequence[Poly], order: TermOrder
) -> Tuple[List[Poly], Poly]:
    """Full multivariate division: p = sum(q_i * divisors_i) + r.

    No term of r is divisible by any divisor's leading monomial.  The
    quotients make the identity exact, which is checked by callers that need
    certificates.
    """
    _check_regular([p])
    _check_regular(divisors)
    quotients: List[dict] = [{} for _ in divisors]
    r = _divide(p, divisors, order, quotients)
    return [Poly(q) for q in quotients], r


def normal_form(
    p: Poly, basis: Sequence[Poly], order: TermOrder, check: bool = True, leads: Optional[Sequence] = None
) -> Poly:
    """Remainder of division by the basis, without quotient bookkeeping.
    ``leads`` is ``_leads(basis, order)`` when the caller holds it."""
    if check:
        _check_regular([p])
        _check_regular(basis)
    return _divide(p, basis, order, leads=leads)


def _subtract_cofactors(
    row: List[Poly], quotients: List[dict], rows: Sequence[List[Poly]]
) -> List[Poly]:
    """row - sum_i q_i * rows_i: the cofactor row of a division remainder."""
    row = list(row)
    for q, other in zip(quotients, rows):
        if not q:
            continue
        q = Poly(q)
        for j in range(len(row)):
            row[j] = row[j] - q * other[j]
    return row


class GroebnerBasis:
    """Reduced Groebner basis plus (optionally) cofactors over the inputs.
    The basis never changes, so its leading terms are found once, here."""

    __slots__ = ("polys", "order", "cofactors", "generators", "leads")

    def __init__(self, polys, order, cofactors=None, generators=None):
        self.polys = tuple(polys)
        self.order = order
        self.cofactors = cofactors
        self.generators = None if generators is None else tuple(generators)
        self.leads = tuple(_leads(self.polys, order))

    def normal_form(self, p: Poly) -> Poly:
        # buchberger checked the basis when it was built; only p is new
        _check_regular([p])
        return normal_form(p, self.polys, self.order, check=False, leads=self.leads)

    def contains(self, p: Poly) -> bool:
        return self.normal_form(p).is_zero()

    def is_unit_ideal(self) -> bool:
        return len(self.polys) == 1 and self.polys[0].is_constant() and not self.polys[0].is_zero()


def buchberger(
    gens: Sequence[Poly],
    order: TermOrder,
    budget: int = DEFAULT_SPAIR_BUDGET,
    with_cofactors: bool = False,
) -> GroebnerBasis:
    """Buchberger with normal pair selection and the coprimality criterion."""
    _check_regular(gens)
    ngens = len(gens)
    basis: List[Poly] = []
    lead: List[Tuple[Mono, Coeff]] = []  # _leads(basis, order), kept as basis grows
    cof: List[List[Poly]] = []

    def join(p: Poly, row: Optional[List[Poly]]) -> bool:
        # divide p by the basis; a nonzero remainder joins it
        quotients = [{} for _ in basis] if with_cofactors else None
        r = _divide(p, basis, order, quotients, lead)
        if r.is_zero():
            return False
        basis.append(r)
        lm, lc = leading_term(r, order)
        lead.append((lm, invert_coeff(lc)))
        if with_cofactors:
            cof.append(_subtract_cofactors(row, quotients, cof))
        return True

    for i, g in enumerate(gens):
        if g.is_zero():
            continue
        row = None
        if with_cofactors:
            row = [Poly.const(1) if j == i else Poly.zero() for j in range(ngens)]
        join(g, row)

    # normal selection: the open pair with the smallest lcm of leading
    # monomials, ties broken by (i, j); each pair's key is computed once
    key = order.key
    pairs: List[tuple] = []

    def add_pair(i: int, j: int):
        l = mono_lcm(lead[i][0], lead[j][0])
        heapq.heappush(pairs, (key(l), i, j, l))

    for j in range(len(basis)):
        for i in range(j):
            add_pair(i, j)
    spent = 0
    while pairs:
        _, i, j, l = heapq.heappop(pairs)
        (lmi, ci), (lmj, cj) = lead[i], lead[j]
        if l == mono_mul(lmi, lmj):
            continue  # coprime leading monomials: S-poly reduces to zero
        spent += 1
        if spent > budget:
            raise GroebnerBudgetExceeded(budget)
        # S(f_i, f_j) = ui*f_i - uj*f_j; its cofactor row uses the same multipliers
        ui, uj = mono_div(l, lmi), mono_div(l, lmj)
        s = basis[i].mul_monomial(ui, ci) - basis[j].mul_monomial(uj, cj)
        row = None
        if with_cofactors:
            row = [a.mul_monomial(ui, ci) - b.mul_monomial(uj, cj) for a, b in zip(cof[i], cof[j])]
        if join(s, row):
            new = len(basis) - 1
            for k in range(new):
                add_pair(k, new)

    return _interreduce(basis, lead, cof if with_cofactors else None, order, gens)


def _interreduce(basis, lead, cof, order, gens) -> GroebnerBasis:
    # drop elements whose leading monomial is divisible by another's; the
    # first of several equal leading monomials stays
    keep = [
        i for i, (lm, _) in enumerate(lead)
        if not any(
            j != i and mono_divides(lead[j][0], lm) and not (lead[j][0] == lm and j > i)
            for j in range(len(lead))
        )
    ]
    polys = [basis[i] for i in keep]
    lead = [lead[i] for i in keep]
    cofs = None if cof is None else [cof[i] for i in keep]

    # fully reduce each element against the others.  No kept leading
    # monomial divides another, so every leading term survives its division
    # and ``lead`` stays the leads of ``polys``
    changed = True
    while changed:
        changed = False
        for i in range(len(polys)):
            others = polys[:i] + polys[i + 1:]
            quotients = None if cofs is None else [{} for _ in others]
            r = _divide(polys[i], others, order, quotients, lead[:i] + lead[i + 1:])
            if r != polys[i]:
                changed = True
                if cofs is not None:
                    cofs[i] = _subtract_cofactors(cofs[i], quotients, cofs[:i] + cofs[i + 1:])
                polys[i] = r

    # normalize to monic and sort by leading monomial
    for i, (_, inv) in enumerate(lead):
        if inv != 1:
            polys[i] = polys[i].scale(inv)
            if cofs is not None:
                cofs[i] = [c.scale(inv) for c in cofs[i]]

    idx = sorted(range(len(polys)), key=lambda i: order.key(lead[i][0]))
    polys = [polys[i] for i in idx]
    if cofs is not None:
        cofs = [cofs[i] for i in idx]
    return GroebnerBasis(polys, order, cofs, gens)

"""Exhaustive parameter sweeps used by the acceptance suite and scripts."""

from __future__ import annotations

import itertools
import time
from typing import Dict, Iterator, Optional, Tuple

from .cech import Case2Step, NormalFormMNP, affineness_certificate
from .poly import ONE_MONO, Poly, mono


def iter_sweep_polys(m: int, n: int, lo: int = -2, hi: int = 2) -> Iterator[Poly]:
    """All nonzero p with deg_x p < m, deg_y p < n, p(0,0) = 0 and integer
    coefficients in [lo, hi]."""
    cells = [mono(x=i, y=j) for i in range(m) for j in range(n) if (i, j) != (0, 0)]
    values = range(lo, hi + 1)
    for combo in itertools.product(values, repeat=len(cells)):
        terms = {cell: c for cell, c in zip(cells, combo) if c}
        if terms:
            yield Poly(terms)


def count_sweep_polys(m: int, n: int, lo: int = -2, hi: int = 2) -> int:
    width = hi - lo + 1
    return width ** (m * n - 1) - 1


class SweepBlock:
    __slots__ = ("m", "n", "count", "max_steps", "case2_count", "seconds", "cert_seconds")

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        self.count = 0
        self.max_steps = 0
        self.case2_count = 0
        self.seconds = 0.0
        # the part of ``seconds`` spent in NormalFormMNP, whose constructor
        # walks p for the certificate, and in affineness_certificate
        self.cert_seconds = 0.0


class SweepSummary:
    __slots__ = ("blocks", "total", "seconds")

    def __init__(self):
        self.blocks: Dict[Tuple[int, int], SweepBlock] = {}
        self.total = 0
        self.seconds = 0.0

    def merge(self, block: SweepBlock):
        self.blocks[(block.m, block.n)] = block
        self.total += block.count
        self.seconds += block.seconds


def affineness_sweep_block(
    m: int, n: int, lo: int = -2, hi: int = 2, limit: Optional[int] = None
) -> SweepBlock:
    """Run and verify certificates for one (m, n) block.

    Raises on the first certificate violating its invariants: termination
    within deg_y(p) + 1 steps, q0(0) != 0, certified witness power.
    """
    block = SweepBlock(m, n)
    clock = time.perf_counter
    t0 = clock()
    polys = iter_sweep_polys(m, n, lo, hi)
    if limit is not None:
        polys = itertools.islice(polys, limit)
    for p in polys:
        c0 = clock()
        nf = NormalFormMNP(m, n, p)
        cert = affineness_certificate(nf)
        block.cert_seconds += clock() - c0
        steps = cert.steps
        if steps > nf.deg_y + 1:
            raise AssertionError(f"certificate for {p!r} exceeded its step bound")
        if cert.outcome != "UnitCertificate":
            raise AssertionError(f"sweep polynomial {p!r} vanishes at the origin but gave {cert.outcome}")
        if cert.q0 is None or cert.q0.coeff_of(ONE_MONO) == 0:
            raise AssertionError(f"terminal q0 vanishes at 0 for {p!r}")
        block.count += 1
        block.max_steps = max(block.max_steps, steps)
        block.case2_count += sum(1 for s in cert.trace if isinstance(s, Case2Step))
    block.seconds = clock() - t0
    return block


def affineness_sweep(
    max_m: int = 3, max_n: int = 3, lo: int = -2, hi: int = 2,
    limit_per_block: Optional[int] = None,
) -> SweepSummary:
    summary = SweepSummary()
    t0 = time.perf_counter()
    for m in range(1, max_m + 1):
        for n in range(1, max_n + 1):
            if m * n == 1:
                continue  # only p = 0 fits, which is excluded
            summary.merge(affineness_sweep_block(m, n, lo, hi, limit_per_block))
    summary.seconds = time.perf_counter() - t0
    return summary

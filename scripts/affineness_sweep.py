#!/usr/bin/env python3
"""Exhaustive affineness-certificate sweep with per-block timing.

Enumerates every nonzero p with deg_x p < m, deg_y p < n, p(0,0) = 0 and
integer coefficients in a small box, runs the Case 1 / Case 2 recursion, and
verifies each certificate (step bound, terminal q0, witness power).  Each
block reports how many certificate templates it built next to its number of
certificates (a template is built once per (m, n) and monomials of p, and
every later p with the same monomials reuses it), its wall time, and the
microseconds per certificate spent in ``NormalFormMNP(m, n, p)`` and
``affineness_certificate`` together: the constructor looks up or builds the
template that the certificate fills in, so the two are timed as one.

    PYTHONPATH=src python3 scripts/affineness_sweep.py [--max-m M] [--max-n N] [--lo L] [--hi H] [--limit K]
"""

import argparse
import sys

from gawb.sweeps import affineness_sweep, count_sweep_polys


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-m", type=int, default=3)
    ap.add_argument("--max-n", type=int, default=3)
    ap.add_argument("--lo", type=int, default=-2)
    ap.add_argument("--hi", type=int, default=2)
    ap.add_argument("--limit", type=int, default=None,
                    help="cap the number of polynomials per (m, n) block")
    args = ap.parse_args()

    expected = sum(
        count_sweep_polys(m, n, args.lo, args.hi)
        for m in range(1, args.max_m + 1)
        for n in range(1, args.max_n + 1)
        if m * n > 1
    )
    print(f"sweep over m <= {args.max_m}, n <= {args.max_n}, "
          f"coefficients in [{args.lo}, {args.hi}]: {expected} polynomials")
    summary = affineness_sweep(args.max_m, args.max_n, args.lo, args.hi, args.limit)
    for (m, n), block in sorted(summary.blocks.items()):
        rate = block.count / block.seconds if block.seconds else float("inf")
        per_cert = 1e6 * block.cert_seconds / block.count if block.count else 0.0
        print(f"  ({m},{n}): {block.count:7d} certificates from {block.templates:5d} templates, "
              f"max {block.max_steps} steps, "
              f"{block.case2_count:7d} with a Case-2 reduction, "
              f"{block.seconds:7.2f}s ({rate:8.0f}/s, {per_cert:6.1f} us/certificate)")
    print(f"total: {summary.total} certificates verified in {summary.seconds:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate the list of discrepancy-documented claims.

    python3 bench/findings.py [--seed N]

Runs the verify-paper registry once and prints each claim whose status is
``discrepancy-documented`` with the note that says why it is a finding,
then the id tuple in the form ``oracle.DISCREPANCY_IDS`` holds.  Exits 1
when the registry's list differs from ``oracle.DISCREPANCY_IDS``.
"""

from __future__ import annotations

import argparse
import os
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import oracle  # noqa: E402
from gawb import claims  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description="list the discrepancy-documented claims")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    report = claims.run_claims(claims.RunConfig(seed=args.seed))
    found = [r for r in report.records if r.status == claims.DISCREPANCY]
    for r in found:
        print(f"{r.claim_id}: {r.actual}")
        print(f"    why: {r.notes}")
    ids = tuple(r.claim_id for r in found)
    print("DISCREPANCY_IDS = (")
    for cid in ids:
        print(f'    "{cid}",')
    print(")")
    if sorted(ids) != sorted(oracle.DISCREPANCY_IDS):
        print("differs from oracle.DISCREPANCY_IDS", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

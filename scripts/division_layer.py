#!/usr/bin/env python3
"""Layer timings for products and division on the x22 tower.

The tower is the work of the ``verify-paper`` claim ``example-x22-descends``:
the derivation printed for the paper's (2,2) example is applied to each
generator of A = C[x,y,u,v]/(x^2*v - y^2*u - 1) up to ``--bound`` times, and
every image is reduced modulo the relation.  One recording pass counts the
calls to ``Poly.__mul__``, ``groebner.normal_form`` and ``mono_mul`` and keeps
the inputs of every product and every division.  Then the whole tower, the
recorded products and the recorded divisions each run ``--repeats`` times,
and the minimum time of each is printed.

    PYTHONPATH=src python3 scripts/division_layer.py [--repeats N] [--bound B]
"""

import argparse
import sys
import time

from gawb import catalog, groebner, poly
from gawb.derivations import NotNilpotentWithinBound, nilpotency_certificate


def run_tower(derivation, bound: int) -> str:
    try:
        cert = nilpotency_certificate(derivation, bound=bound)
    except NotNilpotentWithinBound as e:
        return f"tower of {e.variable!r} persists past {e.bound}"
    return f"nilpotent with indices {cert.indices}"


def _rebind(original, replacement):
    """Point every gawb module attribute that holds ``original`` at
    ``replacement`` (the names callers look up, e.g. ``groebner.mono_mul``)."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "gawb" or name.startswith("gawb.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def record(derivation, bound: int):
    """Run the tower once; return its outcome, the product operand pairs,
    the division arguments and the number of ``mono_mul`` calls."""
    products, divisions, monos = [], [], [0]
    mul, nf, mono_mul = poly.Poly.__mul__, groebner.normal_form, poly.mono_mul

    def counted_mul(a, b):
        products.append((a, b))
        return mul(a, b)

    def counted_nf(*args, **kwargs):
        divisions.append((args, kwargs))
        return nf(*args, **kwargs)

    def counted_mono_mul(a, b):
        monos[0] += 1
        return mono_mul(a, b)

    poly.Poly.__mul__ = poly.Poly.__rmul__ = counted_mul
    _rebind(nf, counted_nf)
    _rebind(mono_mul, counted_mono_mul)
    try:
        outcome = run_tower(derivation, bound)
    finally:
        poly.Poly.__mul__ = poly.Poly.__rmul__ = mul
        _rebind(counted_nf, nf)
        _rebind(counted_mono_mul, mono_mul)
    return outcome, products, divisions, monos[0]


def best_of(repeats: int, fn) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=5, help="timings per layer; the minimum is printed")
    ap.add_argument("--bound", type=int, default=64, help="applications of the derivation per generator")
    args = ap.parse_args()
    if args.repeats < 1 or args.bound < 1:
        ap.error("--repeats and --bound must be positive")

    derivation = catalog.a22_example().derivation
    outcome, products, divisions, monos = record(derivation, args.bound)
    mul, nf = poly.Poly.__mul__, groebner.normal_form

    def replay_products():
        for a, b in products:
            mul(a, b)

    def replay_divisions():
        for a, kw in divisions:
            nf(*a, **kw)

    rows = [
        ("tower", 1, best_of(args.repeats, lambda: run_tower(derivation, args.bound))),
        ("Poly.__mul__", len(products), best_of(args.repeats, replay_products)),
        ("groebner.normal_form", len(divisions), best_of(args.repeats, replay_divisions)),
    ]
    print(f"x22 tower, bound {args.bound}: {outcome}; minimum of {args.repeats} runs")
    print(f"{'layer':<22}{'calls':>8}{'min s':>10}{'us/call':>10}")
    for name, calls, seconds in rows:
        print(f"{name:<22}{calls:>8}{seconds:>10.4f}{1e6 * seconds / calls:>10.1f}")
    print(f"{'mono_mul':<22}{monos:>8}{'-':>10}{'-':>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

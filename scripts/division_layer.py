#!/usr/bin/env python3
"""Layer timings for products and division on the x22 tower.

The tower is the work of the ``verify-paper`` claim ``example-x22-descends``:
the derivation printed for the paper's (2,2) example is applied to each
generator of A = C[x,y,u,v]/(x^2*v - y^2*u - 1) up to ``--bound`` times, and
every image is reduced modulo the relation.  One recording pass counts the
calls to ``Poly.__mul__``, ``Poly.derive`` (the derivation step's product
kernel), ``groebner.normal_form`` and ``mono_mul`` and keeps the inputs of
every call but ``mono_mul``'s.  Then the whole tower and the recorded calls of
each layer run ``--repeats`` times, and the minimum time of each is printed;
a layer the tower never calls prints ``-``.

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


def _recording(calls: list, fn):
    """fn, appending the arguments of each call to ``calls``."""

    def wrapper(*args, **kwargs):
        calls.append((args, kwargs))
        return fn(*args, **kwargs)

    return wrapper


def record(derivation, bound: int):
    """Run the tower once; return its outcome, the arguments of every
    product, derivation kernel call and division, and the number of
    ``mono_mul`` calls."""
    products, derives, divisions, monos = [], [], [], [0]
    mul, derive, nf, mono_mul = poly.Poly.__mul__, poly.Poly.derive, groebner.normal_form, poly.mono_mul

    def counted_mono_mul(a, b):
        monos[0] += 1
        return mono_mul(a, b)

    recorded_nf = _recording(divisions, nf)
    poly.Poly.__mul__ = poly.Poly.__rmul__ = _recording(products, mul)
    poly.Poly.derive = _recording(derives, derive)
    _rebind(nf, recorded_nf)
    _rebind(mono_mul, counted_mono_mul)
    try:
        outcome = run_tower(derivation, bound)
    finally:
        poly.Poly.__mul__ = poly.Poly.__rmul__ = mul
        poly.Poly.derive = derive
        _rebind(recorded_nf, nf)
        _rebind(counted_mono_mul, mono_mul)
    return outcome, {"Poly.__mul__": (mul, products), "Poly.derive": (derive, derives),
                     "groebner.normal_form": (nf, divisions)}, monos[0]


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
    outcome, layers, monos = record(derivation, args.bound)

    def replay(fn, calls):
        for a, kw in calls:
            fn(*a, **kw)

    rows = [("tower", 1, best_of(args.repeats, lambda: run_tower(derivation, args.bound)))]
    for name, (fn, calls) in layers.items():
        rows.append((name, len(calls), best_of(args.repeats, lambda: replay(fn, calls))))
    print(f"x22 tower, bound {args.bound}: {outcome}; minimum of {args.repeats} runs")
    print(f"{'layer':<22}{'calls':>8}{'min s':>10}{'us/call':>10}")
    for name, calls, seconds in rows:
        if calls:
            print(f"{name:<22}{calls:>8}{seconds:>10.4f}{1e6 * seconds / calls:>10.1f}")
        else:
            print(f"{name:<22}{calls:>8}{'-':>10}{'-':>10}")
    print(f"{'mono_mul':<22}{monos:>8}{'-':>10}{'-':>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

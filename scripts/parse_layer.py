#!/usr/bin/env python3
"""Layer timing for ``parse.parse_poly`` on the text shapes the CLI reads,
and for ``poly.render_poly`` on the polynomials it parses.

A fixed seeded corpus holds ``--count`` texts of each shape:

  relation    x^m*v - y^n*u - (p(x,y)), a bundle total space
  laurent-u   a Laurent polynomial in u, a transition matrix entry
  cocycle     a sum of c*x^-i*y^-j terms (and a few regular ones)
  derivation  a derivation image: sums and products of parenthesised sums
              with rational coefficients in x, y, u, v

Each shape is parsed ``--repeats`` times and the minimum time is printed,
with the ``Poly.__mul__`` and ``mono_mul`` calls that one pass over the
shape makes.  The parsed polynomials are then rendered under a degrevlex
order over the shape's variables, built afresh for each text as the CLI's
``eval`` does: once with the shared monomial tables emptied (the first
pass, which builds each monomial's row) and ``--repeats`` times more, of
which the minimum is printed (every row read from the tables).

    PYTHONPATH=src python3 scripts/parse_layer.py [--repeats N] [--count N] [--seed S]
"""

import argparse
import random
import sys

from gawb import parse, poly

from division_layer import _rebind, best_of

XY = ("x", "y")
XYUV = ("x", "y", "u", "v")


def _sum(rng, monos, coeff) -> str:
    """Signed sum of ``coeff(rng)*monomial`` terms, as the CLI's users write them."""
    text = ""
    for m in monos:
        c = coeff(rng)
        body = c.lstrip("-")
        if m:
            body = m if body == "1" else f"{body}*{m}"
        sign = "-" if c.startswith("-") else "+"
        text += (f" {sign} " if text else sign.strip("+")) + body
    return text


def _int_coeff(rng) -> str:
    return str(rng.choice((-3, -2, -1, 1, 1, 2, 3, 5)))


def _rat_coeff(rng) -> str:
    if rng.random() < 0.4:
        return f"{rng.choice((-5, -2, -1, 1, 2, 3, 5))}/{rng.choice((2, 3, 4))}"
    return _int_coeff(rng)


def _mono(exps) -> str:
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in exps if e)


def relation(rng) -> str:
    m, n = rng.randint(1, 5), rng.randint(1, 5)
    monos = {_mono((("x", rng.randint(0, m - 1)), ("y", rng.randint(0, n - 1)))) for _ in range(rng.randint(1, 8))}
    return f"x^{m}*v - y^{n}*u - ({_sum(rng, sorted(monos), _int_coeff)})"


def laurent_u(rng) -> str:
    exps = rng.sample(range(-4, 8), rng.randint(1, 4))
    return _sum(rng, [_mono((("u", e),)) for e in sorted(exps, reverse=True)], _int_coeff)


def cocycle(rng) -> str:
    pairs = {(rng.randint(-4, 3), rng.randint(-4, 3)) for _ in range(rng.randint(2, 7))}
    return _sum(rng, [_mono((("x", i), ("y", j))) for i, j in sorted(pairs)], _int_coeff)


def derivation(rng) -> str:
    def small_sum(k):
        monos = {_mono([(v, rng.randint(0, 3)) for v in XYUV]) for _ in range(k)}
        return _sum(rng, sorted(monos), _rat_coeff)

    return (f"{rng.randint(100, 999)}*v^5 + ({small_sum(5)})"
            f" + ({small_sum(2)})*({small_sum(2)})")


SHAPES = (("relation", relation, XYUV), ("laurent-u", laurent_u, ("u",)),
          ("cocycle", cocycle, XY), ("derivation", derivation, XYUV))


def corpus(seed: int, count: int):
    rng = random.Random(seed)
    return [(name, variables, [make(rng) for _ in range(count)]) for name, make, variables in SHAPES]


def count_calls(texts, variables):
    """``Poly.__mul__`` and ``mono_mul`` calls of one pass over ``texts``."""
    counts = [0, 0]
    mul, mono_mul = poly.Poly.__mul__, poly.mono_mul

    def counted_mul(a, b):
        counts[0] += 1
        return mul(a, b)

    def counted_mono_mul(a, b):
        counts[1] += 1
        return mono_mul(a, b)

    poly.Poly.__mul__ = poly.Poly.__rmul__ = counted_mul
    _rebind(mono_mul, counted_mono_mul)
    try:
        for text in texts:
            parse.parse_poly(text, variables)
    finally:
        poly.Poly.__mul__ = poly.Poly.__rmul__ = mul
        _rebind(counted_mono_mul, mono_mul)
    return counts


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--repeats", type=int, default=5, help="timings per shape; the minimum is printed")
    ap.add_argument("--count", type=int, default=1000, help="texts per shape")
    ap.add_argument("--seed", type=int, default=0, help="seed of the corpus")
    args = ap.parse_args()
    if args.repeats < 1 or args.count < 1:
        ap.error("--repeats and --count must be positive")

    rows = []
    for name, variables, texts in corpus(args.seed, args.count):
        muls, monos = count_calls(texts, variables)

        def parse_all(texts=texts, variables=variables):
            for text in texts:
                parse.parse_poly(text, variables)

        polys = [parse.parse_poly(text, variables) for text in texts]

        def render_all(polys=polys, variables=variables):
            for p in polys:
                poly.render_poly(p, poly.TermOrder("degrevlex", variables))

        poly._TABLES.clear()
        rows.append((name, len(texts), best_of(args.repeats, parse_all), muls, monos,
                     best_of(1, render_all), best_of(args.repeats, render_all)))
    total = ("total", *(sum(r[i] for r in rows) for i in range(1, 7)))
    print(f"parse_poly and render_poly, seed {args.seed}, {args.count} texts per shape; "
          f"minimum of {args.repeats} runs, and render's first pass")
    print(f"{'shape':<12}{'texts':>7}{'min s':>9}{'us/text':>9}{'Poly.__mul__':>14}{'mono_mul':>10}"
          f"{'render 1st us':>15}{'render us':>11}")
    for name, n, seconds, muls, monos, first, rendered in rows + [total]:
        print(f"{name:<12}{n:>7}{seconds:>9.4f}{1e6 * seconds / n:>9.1f}{muls:>14}{monos:>10}"
              f"{1e6 * first / n:>15.1f}{1e6 * rendered / n:>11.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

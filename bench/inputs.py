"""Seeded benchmark inputs as plain data (text and coefficient dicts).

Input ``k`` of a run is a pure function of ``(seed, k)``.  Each round of a
run is a fresh process that takes the slice ``[round * size, (round + 1) *
size)``, so no input repeats within a run and no process has to see the
others.  Distinctness holds by construction: bounded input boxes are walked
through a seeded bijection (``Stream``), and unbounded families carry a term
whose coefficient encodes ``k``.

Nothing here imports ``gawb``.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from oracle import mono_of, padd, pmul, text_of


class Stream:
    """A seeded bijection from ``range(size)`` onto the points of a box.

    A four-round Feistel permutation of ``[0, 4^h)`` with cycle walking
    restricted to ``[0, size)``; the index is then read as mixed-radix digits.
    """

    def __init__(self, seed: int, salt: str, radices: Sequence[int], skip: int = -1):
        self.radices = tuple(radices)
        self.size = 1
        for r in self.radices:
            self.size *= r
        self.skip = skip              # an index to leave out (the zero polynomial)
        if skip >= 0:
            self.size -= 1
        self.half = max(1, (self.size.bit_length() + 1) // 2)
        self.mask = (1 << self.half) - 1
        rng = random.Random(f"gawb-bench:{seed}:{salt}")
        self.keys = [rng.getrandbits(64) for _ in range(4)]

    def _permute(self, x: int) -> int:
        half, mask = self.half, self.mask
        left, right = x >> half, x & mask
        for key in self.keys:
            f = (((right ^ key) * 0x9E3779B97F4A7C15) >> 29) & mask
            left, right = right, left ^ f
        return (left << half) | right

    def digits(self, k: int) -> List[int]:
        if not 0 <= k < self.size:
            raise IndexError(f"input stream exhausted at index {k} (size {self.size})")
        x = self._permute(k)
        while x >= self.size:
            x = self._permute(x)
        if 0 <= self.skip <= x:
            x += 1
        out = []
        for r in self.radices:
            x, d = divmod(x, r)
            out.append(d)
        return out


def _rng(seed: int, kind: str, k: int) -> random.Random:
    return random.Random(f"gawb-bench:{seed}:{kind}:{k}")


def _box_cells(m: int, n: int) -> List[Tuple[int, int]]:
    return [(i, j) for i in range(m) for j in range(n) if (i, j) != (0, 0)]


def _zero_index(ncells: int, lo: int, width: int) -> int:
    """Index of the all-zero coefficient vector in a box of digits d + lo."""
    return sum((-lo) * width ** c for c in range(ncells))


class BoxPolys:
    """Distinct nonzero p with p(0,0) = 0, deg_x p < m, deg_y p < n and
    coefficients in [lo, hi], as ``{(i, j): c}``."""

    def __init__(self, seed: int, salt: str, m: int, n: int, lo: int, hi: int):
        self.cells = _box_cells(m, n)
        self.lo = lo
        width = hi - lo + 1
        self.stream = Stream(seed, salt, [width] * len(self.cells),
                             skip=_zero_index(len(self.cells), lo, width))

    def __getitem__(self, k: int) -> Dict[Tuple[int, int], int]:
        ds = self.stream.digits(k)
        return {cell: d + self.lo for cell, d in zip(self.cells, ds) if d + self.lo}


class LeadPolys:
    """Distinct p in the (m, n) box whose y-free part has least x-exponent
    exactly a, so the certificate's witness scan runs to k = a."""

    LEADS = (-2, -1, 1, 2)

    def __init__(self, seed: int, salt: str, m: int, n: int, a: int):
        self.a = a
        self.rest = [(i, 0) for i in range(a + 1, m)] + [(i, j) for i in range(m) for j in range(1, n)]
        self.stream = Stream(seed, salt, [len(self.LEADS)] + [5] * len(self.rest))

    def __getitem__(self, k: int) -> Dict[Tuple[int, int], int]:
        ds = self.stream.digits(k)
        p = {(self.a, 0): self.LEADS[ds[0]]}
        p.update({cell: d - 2 for cell, d in zip(self.rest, ds[1:]) if d - 2})
        return p


# -- affineness-sweep -----------------------------------------------------------------

#: Every tenth certificate comes from the larger boxes; the rest from the
#: (3,3) box with coefficients in [-2, 2], which is 98% of the exhaustive sweep.
SWEEP_MINORITY_EVERY = 10
SWEEP_MINORITY = tuple((m, n, a) for m in (4, 5) for n in (4, 5) for a in range(1, m))


class SweepInputs:
    def __init__(self, seed: int):
        self.major = BoxPolys(seed, "sweep-33", 3, 3, -2, 2)
        self.minor = [LeadPolys(seed, f"sweep-{m}{n}a{a}", m, n, a) for m, n, a in SWEEP_MINORITY]

    def __getitem__(self, k: int) -> Tuple[int, int, Dict[Tuple[int, int], int]]:
        block, pos = divmod(k, SWEEP_MINORITY_EVERY)
        if pos == SWEEP_MINORITY_EVERY - 1:
            cls = block % len(SWEEP_MINORITY)
            m, n, _ = SWEEP_MINORITY[cls]
            return m, n, self.minor[cls][block // len(SWEEP_MINORITY)]
        return 3, 3, self.major[block * (SWEEP_MINORITY_EVERY - 1) + pos]


def sweep_inputs(seed: int, start: int, count: int) -> List[tuple]:
    s = SweepInputs(seed)
    return [s[k] for k in range(start, start + count)]


# -- queries ------------------------------------------------------------------------

def _shuffled_text(p, rng: random.Random) -> str:
    items = list(p.items())
    rng.shuffle(items)
    return text_of(dict(items))


def _coeff(rng: random.Random):
    c = rng.choice([1, 1, 2, 3, 5, 7, Fraction(1, 2), Fraction(2, 3), Fraction(5, 4)])
    return -c if rng.random() < 0.5 else c


def _q_eval(seed: int, k: int) -> dict:
    """A polynomial in x, y, u, v: distinct terms plus one product of binomials;
    the term (100 + k) v^5 makes every input distinct."""
    rng = _rng(seed, "eval", k)
    variables = ("x", "y", "u", "v")
    poly = {}
    while len(poly) < 5:
        m = mono_of(**{v: rng.randint(0, 3) for v in variables})
        poly.setdefault(m, _coeff(rng))
    binom = [{mono_of(**{rng.choice(variables): rng.randint(1, 2)}): _coeff(rng),
              mono_of(**{rng.choice(variables): rng.randint(0, 2)}): _coeff(rng)} for _ in range(2)]
    binom = [padd(b) for b in binom]
    tag = {mono_of(v=5): 100 + k}
    want = padd(poly, pmul(binom[0], binom[1]), tag)
    parts = [f"({_shuffled_text(poly, rng)})", f"({text_of(binom[0])})*({text_of(binom[1])})", text_of(tag)]
    rng.shuffle(parts)
    return {"kind": "eval", "vars": list(variables), "text": " + ".join(parts), "want": want}


def _q_cocycle(seed: int, k: int, action: str) -> dict:
    """A Laurent polynomial in x, y with exponents in [-4, 3]; the term
    (100 + k) x^5 makes it distinct.  Coboundary queries alternate between
    trivial and nontrivial classes; normalize queries have a nontrivial class."""
    rng = _rng(seed, "cocycle", k)
    trivial = action == "coboundary" and k % 2 == 0
    g = {}
    while len(g) < 6:
        i, j = rng.randint(-4, 3), rng.randint(-4, 3)
        if trivial and i < 0 and j < 0:
            continue
        g.setdefault((i, j), rng.choice([-3, -2, -1, 1, 2, 3]))
    if not trivial and not any(i < 0 and j < 0 for i, j in g):
        g[(rng.randint(-4, -1), rng.randint(-4, -1))] = rng.choice([-1, 1, 2])
    g[(5, 0)] = 100 + k
    return {"kind": "cocycle", "action": action, "g": g,
            "text": _shuffled_text({mono_of(x=i, y=j): c for (i, j), c in g.items()}, rng)}


#: h^0 queries: every m <= 7 with every twist j in [-1, 5], n spread over 1..7.
H0_GRID = tuple((m, 1 + (3 * m + j) % 7, j) for m in range(1, 8) for j in range(-1, 6))
AFFINE_BOXES = ((2, 3), (3, 2), (3, 3), (3, 4), (4, 3), (4, 4))
LND_BOXES = ((1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (3, 4), (4, 4))


def _lnd(seed: int, k: int, action: str) -> dict:
    """x^m v - y^n u - p with deg_x p < m, deg_y p < n; the constant term
    100 + k of p makes every presentation distinct."""
    rng = _rng(seed, "lnd", k)
    m, n = LND_BOXES[k % len(LND_BOXES)]
    p = {(0, 0): 100 + k}
    for cell in _box_cells(m, n):
        if rng.random() < 0.6:
            p[cell] = rng.randint(-3, 3) or 1
    ptext = _shuffled_text({mono_of(x=i, y=j): c for (i, j), c in p.items()}, rng)
    q = {"kind": "lnd", "action": action, "m": m, "n": n,
         "derivation": f"der: u -> x^{m}; v -> y^{n}; x -> 0; y -> 0"}
    invert = ""
    if action == "slice":
        invert = "invert: x; "
        q["e"] = m if rng.random() < 0.5 else rng.randint(0, m - 1)
        q["element"] = f"u*x^-{q['e']}" if q["e"] else "u"
    q["presentation"] = f"vars: x,y,u,v; {invert}relations: x^{m}*v - y^{n}*u - ({ptext})"
    return q


def _upoly(d: Dict[int, int]) -> dict:
    return {mono_of(u=e): c for e, c in d.items() if c}


def _conjugated(m: int, n: int, c: int, e: int, d: int, l: int) -> List[List[dict]]:
    """[[1, c u^-e], [0, 1]] * [[u^(m+n), u^m], [0, 1]] * [[1, 0], [d u^l, 1]].

    The outer factors are invertible over C[u^-1] and C[u], so the bundle,
    its splitting type and its h^0 profile are those of the extension matrix."""
    left = [[_upoly({0: 1}), _upoly({-e: c})], [{}, _upoly({0: 1})]]
    mid = [[_upoly({m + n: 1}), _upoly({m: 1})], [{}, _upoly({0: 1})]]
    right = [[_upoly({0: 1}), {}], [_upoly({l: d}), _upoly({0: 1})]]

    def mul(A, B):
        return [[padd(pmul(A[i][0], B[0][j]), pmul(A[i][1], B[1][j])) for j in range(2)] for i in range(2)]

    return mul(mul(left, mid), right)


def _signed(digit: int) -> int:
    """0, 1, 2, 3, ... -> 1, -1, 2, -2, ..."""
    return (digit // 2 + 1) * (-1 if digit % 2 else 1)


def _matrix_text(M) -> str:
    return json.dumps([[text_of(p) for p in row] for row in M])


class QueryStreams:
    def __init__(self, seed: int):
        self.seed = seed
        self.affine = [BoxPolys(seed, f"affine-{m}{n}", m, n, -3, 3) for m, n in AFFINE_BOXES]
        # splitting: m, n in 1..5, c in +-1..10, e in 1..3, d in +-1..5, l in 0..3
        self.splitting = Stream(seed, "splitting", [5, 5, 20, 3, 10, 4])
        # h0: a fixed grid of (m, n, j), one point per query in turn, and per
        # point a seeded order of the constant left factors [[1, c], [0, 1]],
        # c in +-1..50, which keep the matrix upper triangular and the single
        # solve small.  Each round of whole grid passes costs the same.
        self.h0 = [Stream(seed, f"h0-{g}", [100]) for g in range(len(H0_GRID))]
        # intersect: F_k (k <= 9) or Scroll(m, n) (n <= m <= 6), coefficients in [-9, 9]
        self.intersect = Stream(seed, "intersect", [31] + [19] * 4)
        self.classify_mn = Stream(seed, "classify-mn", [12] * 4)

    def affine_cert(self, k: int) -> dict:
        box = k % len(AFFINE_BOXES)
        m, n = AFFINE_BOXES[box]
        p = self.affine[box][k // len(AFFINE_BOXES)]
        text = _shuffled_text({mono_of(x=i, y=j): c for (i, j), c in p.items()}, _rng(self.seed, "affine", k))
        return {"kind": "affine-cert", "m": m, "n": n, "p": p, "text": text}

    def split(self, k: int) -> dict:
        mi, ni, ci, ei, di, l = self.splitting.digits(k)
        M = _conjugated(mi + 1, ni + 1, _signed(ci), ei + 1, _signed(di), l)
        m, n = mi + 1, ni + 1
        return {"kind": "splitting", "m": m, "n": n, "matrix": _matrix_text(M)}

    def h0_query(self, k: int) -> dict:
        g, i = k % len(H0_GRID), k // len(H0_GRID)
        m, n, j = H0_GRID[g]
        (ci,) = self.h0[g].digits(i)
        M = _conjugated(m, n, _signed(ci), 0, 0, 0)
        return {"kind": "h0", "m": m, "n": n, "j": j, "entries": M, "matrix": _matrix_text(M)}

    def intersect_query(self, k: int) -> dict:
        s, a1, a2, b1, b2 = self.intersect.digits(k)
        if s < 10:
            surface, text = ("F", s), f"F{s}"
        else:
            pairs = [(m, n) for m in range(1, 7) for n in range(1, m + 1)]
            m, n = pairs[s - 10]
            surface, text = ("Scroll", m, n), f"Scroll({m},{n})"
        d1, d2 = (a1 - 9, a2 - 9), (b1 - 9, b2 - 9)
        return {"kind": "classify", "action": "intersect", "surface": surface, "surface_text": text,
                "d1": d1, "d2": d2, "d1_text": f"{d1[0]},{d1[1]}", "d2_text": f"{d2[0]},{d2[1]}"}

    def classify_mn_query(self, k: int) -> dict:
        m, n, p, q = (d + 1 for d in self.classify_mn.digits(k))
        return {"kind": "classify", "action": "mn", "mnpq": (m, n, p, q)}

    def classify_fg_query(self, k: int) -> dict:
        """f = (k + 2) * prod(x - r y), g = prod(x - s y) with disjoint root
        sets, or pure powers: no common projective zero."""
        rng = _rng(self.seed, "fg", k)
        deg_f, deg_g = rng.randint(1, 3), rng.randint(1, 3)
        roots = rng.sample(range(-9, 10), deg_f + deg_g)

        def form(rs, lead):
            out = {mono_of(): lead}
            for r in rs:
                out = pmul(out, {mono_of(x=1): 1, mono_of(y=1): -r})
            return out

        if k % 4 == 3:
            f, g = {mono_of(x=deg_f): k + 2}, {mono_of(y=deg_g): 1}
        else:
            f, g = form(roots[:deg_f], k + 2), form(roots[deg_f:], 1)
        return {"kind": "classify", "action": "fg", "deg": (deg_f, deg_g),
                "f": _shuffled_text(f, rng), "g": _shuffled_text(g, rng)}


#: One cycle of the query mix.  The weights put most of the time into
#: presentation building, derivations and parse/render; the h^0 solves are
#: single twists and stay a minority.
QUERY_CYCLE = (
    ("eval",) * 9
    + ("cocycle:class", "cocycle:normalize", "cocycle:coboundary", "cocycle:coboundary") * 2
    + ("affine-cert",) * 4
    + ("lnd:check", "lnd:exp", "lnd:slice") * 4
    + ("splitting",) * 4
    + ("h0",)
    + ("classify:intersect", "classify:mn", "classify:fg") * 2
)


def query_inputs(seed: int, start: int, count: int) -> List[dict]:
    """Queries ``start .. start + count - 1``; ``start`` must be a multiple of
    the cycle length so that every round holds the same mix."""
    if start % len(QUERY_CYCLE) or count % len(QUERY_CYCLE):
        raise ValueError("query rounds must hold whole cycles")
    streams = QueryStreams(seed)
    per_kind = Counter(slot.partition(":")[0] for slot in QUERY_CYCLE)
    cycle0 = start // len(QUERY_CYCLE)
    out = []
    for c in range(cycle0, cycle0 + count // len(QUERY_CYCLE)):
        seen: Counter = Counter()
        for slot in QUERY_CYCLE:
            kind, _, action = slot.partition(":")
            k = c * per_kind[kind] + seen[kind]
            seen[kind] += 1
            if kind == "eval":
                q = _q_eval(seed, k)
            elif kind == "cocycle":
                q = _q_cocycle(seed, k, action)
            elif kind == "affine-cert":
                q = streams.affine_cert(k)
            elif kind == "lnd":
                q = _lnd(seed, k, action)
            elif kind == "splitting":
                q = streams.split(k)
            elif kind == "h0":
                q = streams.h0_query(k)
            elif action == "intersect":
                q = streams.intersect_query(k)
            elif action == "mn":
                q = streams.classify_mn_query(k)
            else:
                q = streams.classify_fg_query(k)
            out.append(q)
    return out

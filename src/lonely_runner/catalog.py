"""Enumeration of 2-dimensional planes attaining a prescribed exact distance."""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

from ._kernels import UnsupportedRequest
from .exact import minors2
from .torus import canonicalize_symmetry, d_plane

Vec = tuple[int, ...]


def _tied(p: int, rest_u: Vec, q: int, rest_v: Vec) -> tuple[Vec, Vec]:
    """Basis with tied leading pair: (p, p, *rest_u) and (q, -q, *rest_v)."""
    return (p, p, *rest_u), (q, -q, *rest_v)


def tight_pairs(threshold) -> list[tuple[int, int]]:
    """Coprime speed pairs whose two-speed distance is at least the threshold."""
    t = Fraction(threshold)
    if not 0 < t <= Fraction(1, 2):
        raise ValueError("threshold must lie in (0, 1/2]")
    pairs = []
    r = 1
    while 4 * r + 2 <= 1 / t:
        pairs.extend((x, 2 * r + 1 - x) for x in range(1, r + 1))
        r += 1
    return pairs


def _signed_assignments(pair):
    """Both orderings of a pair with independent signs."""
    x, y = pair
    return [
        (sp * p, sq * q)
        for p, q in ((x, y), (y, x))
        for sp in (1, -1)
        for sq in (1, -1)
    ]


def _signed_triples():
    """Signed permutations of the tight triple {1, 2, 3}."""
    return [
        tuple(s * p for s, p in zip(signs, perm))
        for perm in permutations((1, 2, 3))
        for signs in product((1, -1), repeat=3)
    ]


def _reduced_ratio(p: int, q: int) -> tuple[int, int]:
    """Coprime representative of the ratio p : q with positive first entry."""
    g = math.gcd(p, q)
    p, q = p // g, q // g
    return (p, q) if p > 0 else (-p, -q)


def _candidates_dim3(pairs) -> list[tuple[Vec, Vec]]:
    cands = []
    for pa in pairs:
        for a, b in _signed_assignments(pa):
            if a < 0:
                continue
            for pc in pairs:
                for c, d in _signed_assignments(pc):
                    cands.append(_tied(a, (b,), c, (d,)))
    # one vanishing entry: the free coordinate of the tied generator is zero
    for pc in pairs:
        for c, d in _signed_assignments(pc):
            cands.append(_tied(1, (0,), c, (d,)))
    return cands


def _candidates_dim4() -> list[tuple[Vec, Vec]]:
    triples = _signed_triples()
    cands = []
    for a, b, c in triples:
        if a < 0:
            continue
        for d, e, f in triples:
            if d < 0:
                continue
            cands.append(_tied(a, (b, c), d, (e, f)))
    # one zero entry: rebasing mixes the pair (a, c) with (d, e, f); a new
    # zero entry forces one of four ratios for a : c
    for d, e, f in triples:
        for num, den in ((d, e - f), (d, f - e), (d, e + f), (d, -e - f)):
            a, c = _reduced_ratio(num, den)
            cands.append(_tied(a, (0, c), d, (e, f)))
    # two zero entries in one generator
    for d, e, f in triples:
        if d > 0:
            cands.append(_tied(1, (0, 0), d, (e, f)))
    # two zero entries split across the generators with matching ratios
    for c in (1, -1, 2, -2):
        cands.append(_tied(1, (0, c), 1, (c, 0)))
    return cands


def enumerate_2d_subtori(n: int, d) -> list[tuple[Vec, Vec]]:
    """Orbit representatives of the planes in the n-torus at exact distance d."""
    return list(_enumerate_cached(n, Fraction(d)))


@lru_cache(maxsize=None)
def _enumerate_cached(n: int, d: Fraction) -> tuple:
    if d <= 0:
        raise ValueError("threshold must be positive")
    if n == 2:
        return ()
    if n == 3:
        cands = _candidates_dim3(tight_pairs(d)) if d < Fraction(1, 2) else []
    elif n == 4 and d == Fraction(1, 4):
        cands = _candidates_dim4()
    else:
        raise UnsupportedRequest("tight-instance data unavailable")
    seen = set()
    for u, v in cands:
        if all(m == 0 for m in minors2(u, v)):
            continue
        seen.add(canonicalize_symmetry(u, v))
    out = []
    for u, v in sorted(seen):
        try:
            if d_plane(u, v) == d:
                out.append((u, v))
        except ValueError:
            continue
    return tuple(out)

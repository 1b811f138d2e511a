"""Enumeration of 2-dimensional planes attaining a prescribed exact distance."""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

from ._kernels import UnsupportedRequest
from .exact import Vec, minors2, orient
from .torus import canonicalize_symmetry, d_plane

# most candidate bases one enumeration may build: 1,200 at n = 3, d = 1/14 (1.3 s on a
# 2-vCPU VM), and 3,280 at 1/18 (3.8 s), the largest it keeps, against 7,320 at 1/22 (12 s)
# and 48,029,800 at 1/200; every enumeration must fit before its first candidate is built
CANDIDATE_BUDGET = 4_000


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
            g = math.gcd(num, den)
            a, c = orient(num // g, den // g)
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
        # tight_pairs(d) holds r pairs for each r <= r_max, and from its p pairs
        # _candidates_dim3 builds 4p tied first generators times 8p second ones, plus 8p
        r_max = max(0, math.floor((1 / d - 2) / 4))
        p = r_max * (r_max + 1) // 2
        if 32 * p * p + 8 * p > CANDIDATE_BUDGET:
            raise UnsupportedRequest(f"enumeration needs more than {CANDIDATE_BUDGET} candidate bases")
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
    return tuple((u, v) for u, v in sorted(seen) if d_plane(u, v) == d)

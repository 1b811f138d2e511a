"""Exact zero locus of a plane in its parameter torus, and the segment-direction finiteness test."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import Vec, gcd_ext, orient, saturate_plane
from .pwl import dist_to_half
from .torus import d_plane


@dataclass(frozen=True)
class LocusElement:
    """Maximal point or segment of the zero locus, in (a, b) coordinates with x = a*u + b*v."""

    kind: str
    start: tuple[Fraction, Fraction]
    end: tuple[Fraction, Fraction] | None = None
    direction: tuple[int, int] | None = None


@dataclass(frozen=True)
class FinitenessReport:
    """Verdict on finiteness of the order-1 spectrum, with the locus segments that decide it."""

    verdict: str
    witness_segments: tuple
    common_direction: tuple[int, int] | None
    note: str


def _band_arcs(c0: Fraction, s: int, d: Fraction) -> list | None:
    """t-intervals in [0, 1] keeping frac(c0 + t*s) inside [1/2 - d, 1/2 + d]; None when unconstrained."""
    if s == 0:
        return None if dist_to_half(c0) <= d else []
    lo_v = Fraction(1, 2) - d
    hi_v = Fraction(1, 2) + d
    vmin, vmax = (c0, c0 + s) if s > 0 else (c0 + s, c0)
    arcs = []
    for i in range(math.floor(vmin - hi_v), math.ceil(vmax - lo_v) + 1):
        t1 = (lo_v + i - c0) / s
        t2 = (hi_v + i - c0) / s
        if s < 0:
            t1, t2 = t2, t1
        lo = max(t1, Fraction(0))
        hi = min(t2, Fraction(1))
        if lo <= hi:
            arcs.append((lo, hi))
    return arcs


def _intersect_arcs(a1: list, a2: list) -> list:
    out = []
    i = j = 0
    while i < len(a1) and j < len(a2):
        lo = max(a1[i][0], a2[j][0])
        hi = min(a1[i][1], a2[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a1[i][1] <= a2[j][1]:
            i += 1
        else:
            j += 1
    return out


def _circle_arcs(u: Vec, v: Vec, d: Fraction, base: tuple, w: tuple) -> list:
    """Admissible t-arcs on the circle base + t*w, glued across the seam t = 0."""
    arcs = [(Fraction(0), Fraction(1))]
    for um, vm in zip(u, v):
        band = _band_arcs(um * base[0] + vm * base[1], um * w[0] + vm * w[1], d)
        if band is None:
            continue
        arcs = _intersect_arcs(arcs, band)
        if not arcs:
            return []
    if len(arcs) >= 2 and arcs[0][0] == 0 and arcs[-1][1] == 1:
        first = arcs.pop(0)
        last = arcs.pop()
        arcs.append((last[0], first[1] + 1))
    return arcs


def _segment_contains(seg: LocusElement, pt: tuple) -> bool:
    wa, wb = seg.direction
    da = pt[0] - seg.start[0]
    db = pt[1] - seg.start[1]
    if (wb * da - wa * db) % 1 != 0:
        return False
    _, x, y = gcd_ext(wa, wb)
    t = (x * da + y * db) % 1
    if wa != 0:
        length = (seg.end[0] - seg.start[0]) / wa
    else:
        length = (seg.end[1] - seg.start[1]) / wb
    return t <= length


def zero_locus(u: Vec, v: Vec) -> list[LocusElement]:
    """Decompose the set of plane points at the plane's own distance into maximal points and segments."""
    d = d_plane(u, v)
    # coordinates below refer to the saturated basis; a saturated one comes back unchanged
    u, v = saturate_plane(u, v)
    circles = {}
    for uk, vk in zip(u, v):
        g, p, q = gcd_ext(uk, vk)
        w = orient(-(vk // g), uk // g)
        for eps in (1, -1):
            for j in range(g):
                lift = (Fraction(1, 2) + eps * d + j) / g
                base = (lift * p, lift * q)
                offset = (w[1] * base[0] - w[0] * base[1]) % 1
                circles.setdefault((w, offset), (base, w))
    segments = []
    points = set()
    for base, w in circles.values():
        for lo, hi in _circle_arcs(u, v, d, base, w):
            start = ((base[0] + lo * w[0]) % 1, (base[1] + lo * w[1]) % 1)
            if lo == hi:
                points.add(start)
            else:
                end = (start[0] + (hi - lo) * w[0], start[1] + (hi - lo) * w[1])
                segments.append(LocusElement("segment", start, end, w))
    out = [
        LocusElement("point", pt)
        for pt in points
        if not any(_segment_contains(s, pt) for s in segments)
    ]
    out.extend(segments)
    out.sort(key=lambda e: (e.kind, e.start, e.end or e.start, e.direction or (0, 0)))
    return out


def finiteness(u: Vec, v: Vec) -> FinitenessReport:
    """Decide finiteness of the order-1 spectrum from non-parallel zero-locus segments."""
    if len(u) < 3:
        raise ValueError("ambient dimension must be at least 3")
    segments = [e for e in zero_locus(u, v) if e.kind == "segment"]
    for s in segments[1:]:
        if s.direction != segments[0].direction:
            return FinitenessReport(
                "finite", (segments[0], s), None, "non-parallel locus segments"
            )
    if segments:
        return FinitenessReport(
            "infinite", (), segments[0].direction, "all locus segments parallel"
        )
    return FinitenessReport("infinite", (), None, "zero locus has no segments")

"""Pointwise references for the tests: evaluation of circle piecewise-linear functions,
which restrictions and coset minima are checked against, their construction from
samples, the coset minimum and the sector and half-line winners in Fraction arithmetic,
and the coordinates of a lattice vector in a plane basis."""

import bisect
import math
from fractions import Fraction

from lonely_runner.pwl import CirclePWL


def evaluate(f, t):
    """Value of the CirclePWL f at t, by interpolating between the breakpoints around t mod 1."""
    t = Fraction(t) % 1
    bps, vals = f.breakpoints, f.values
    n = len(bps)
    if n == 1:
        return vals[0]
    i = bisect.bisect_right(bps, t) - 1
    if i < 0:
        # t before the first breakpoint: wraparound segment from the last one
        i = n - 1
        t0, v0 = bps[i] - 1, vals[i]
    else:
        t0, v0 = bps[i], vals[i]
    j = (i + 1) % n
    t1 = bps[j] if bps[j] > t0 else bps[j] + 1
    v1 = vals[j]
    return v0 + (v1 - v0) * (t - t0) / (t1 - t0)


def make_pwl(points):
    """Build a CirclePWL from (t, value) samples, deduplicating and removing collinear points."""
    seen = {}
    for t, v in points:
        t = Fraction(t) % 1
        if t in seen and seen[t] != v:
            raise ValueError("conflicting samples at one breakpoint")
        seen[t] = Fraction(v)
    pts = sorted(seen.items())
    if len({v for _, v in pts}) == 1:
        return CirclePWL((Fraction(0),), (pts[0][1],))
    # a point stays iff the slope changes there; dropping a collinear point
    # leaves its neighbours' slopes unchanged, so one pass finds them all
    n = len(pts)
    kept = []
    for i in range(n):
        t0, v0 = pts[i - 1]
        t1, v1 = pts[i]
        t2, v2 = pts[(i + 1) % n]
        if i == 0:
            t0 -= 1
        if i == n - 1:
            t2 += 1
        if (v1 - v0) * (t2 - t1) != (v2 - v1) * (t1 - t0):
            kept.append((t1, v1))
    return CirclePWL(tuple(t for t, _ in kept), tuple(v for _, v in kept))


def coset_min_fraction(f, b, q):
    """Minimum of f over the grid (b + Z)/q by the breakpoint walk of pwl.coset_min_direct,
    in Fractions: in s = q*t - b each piece [s0, s1] offers ceil(s0) if it rises and
    floor(s1) if it falls, and a piece with both ends at or above the best is skipped."""
    if q < 1:
        raise ValueError("q must be positive")
    bps, vals = f.breakpoints, f.values
    n = len(bps)
    best = max(vals)
    for i in range(n):
        j = (i + 1) % n
        v0, v1 = vals[i], vals[j]
        if min(v0, v1) >= best:
            continue
        s0 = q * bps[i] - b
        s1 = q * (bps[j] + (j == 0)) - b
        r = math.ceil(s0) if v1 >= v0 else math.floor(s1)
        if s0 <= r <= s1:
            best = min(best, v0 + (v1 - v0) * (r - s0) / (s1 - s0))
    return best


def mediant_winner(forms, da, db):
    """The form (E, F, gamma, ...) of forms with the least (gamma/q, gamma, E, F) over those
    with q = E*da + F*db > 0, gamma/q a Fraction."""
    cands = []
    for form in forms:
        E, F, g = form[:3]
        q = E * da + F * db
        if q > 0:
            cands.append(((g / q, g, E, F), form))
    return min(cands, key=lambda c: c[0])[1]


def halfline_winner(cands):
    """The first candidate (c, gamma, slope, q, q0) of cands with the greatest
    (slope/gamma, q/gamma), gamma > 0 a Fraction, as max keeps the first on ties."""
    return max(cands, key=lambda t: (t[2] / t[1], t[3] / t[1]))


def plane_coords(w, u, v):
    """Integer coordinates (a, b) with w = a*u + b*v, from the first nonzero 2x2 minor of
    (u, v); raises ValueError if there are none."""
    n = len(u)
    for i in range(n):
        for j in range(i + 1, n):
            det = u[i] * v[j] - u[j] * v[i]
            if det != 0:
                na = w[i] * v[j] - w[j] * v[i]
                nb = u[i] * w[j] - u[j] * w[i]
                if na % det or nb % det:
                    raise ValueError("coordinates are not integral")
                a, b = na // det, nb // det
                if any(w[k] != a * u[k] + b * v[k] for k in range(n)):
                    raise ValueError("vector outside the plane")
                return a, b
    raise ValueError("not a plane")

"""Pointwise references for the tests: evaluation of circle piecewise-linear functions,
which restrictions and coset minima are checked against, their construction from
samples, and the coordinates of a lattice vector in a plane basis."""

import bisect
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

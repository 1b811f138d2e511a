"""Point evaluation of circle piecewise-linear functions, the reference that the tests
check restrictions and coset minima against."""

import bisect
from fractions import Fraction


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


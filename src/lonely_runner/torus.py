"""Distance-to-half-center computations for points, lines, and planes in the n-torus."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations, product
from types import MappingProxyType

from . import _kernels
from .exact import Vec, gcd_ext, orient, saturate_plane
from .pwl import dist_to_half
from .slices import check_plane_budget, diagonals, slice_structure


def d_point(x: tuple[Fraction | int, ...]) -> Fraction:
    """L-infinity circle distance from the point x to (1/2, ..., 1/2)."""
    if not x:
        raise ValueError("empty point")
    return max(dist_to_half(c) for c in x)


def d_two_speeds(a: int, b: int) -> Fraction:
    """Exact distance of the line with two integer speeds in the 2-torus."""
    if a <= 0 or b <= 0:
        raise ValueError("speeds must be positive")
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if a % 2 == 1 and b % 2 == 1:
        return Fraction(0)
    return Fraction(1, 2 * (a + b))


def d_line_oracle(w: Vec) -> Fraction:
    """Exact distance of the line through w to the half-center: closed form for two
    distinct speeds, bounded enumeration otherwise. The line through g*w is the line
    through w, so the speeds are divided by their gcd first."""
    if not w or any(c == 0 for c in w):
        raise ValueError("improper subtorus")
    g = math.gcd(*w)
    speeds = _kernels.dedup_speeds(c // g for c in w)
    if len(speeds) == 1:
        return Fraction(0)
    if len(speeds) == 2:
        return d_two_speeds(*speeds)
    num, den = _kernels.d_line_raw(speeds)
    return Fraction(num, den)


def plane_proper(u: Vec, v: Vec) -> bool:
    """True unless some coordinate vanishes on the whole plane."""
    return all((a, b) != (0, 0) for a, b in zip(u, v))


def normal_plane(u: Vec, v: Vec) -> tuple[Vec, Vec]:
    """Saturate span(u, v), reject an improper plane, and keep the first coordinate of
    each class on which the plane satisfies x_i = +-x_j identically."""
    u, v = saturate_plane(u, v)
    if not plane_proper(u, v):
        raise ValueError("improper subtorus")
    cols: dict[tuple[int, int], tuple[int, int]] = {}
    for a, b in zip(u, v):
        cols.setdefault(orient(a, b), (a, b))
    return tuple(a for a, _ in cols.values()), tuple(b for _, b in cols.values())


def d_plane(u: Vec, v: Vec) -> Fraction:
    """Exact distance of the saturated plane span(u, v) to the half-center."""
    u, v = normal_plane(u, v)
    check_plane_budget(u, v)
    return min(f.minimum for d in diagonals(len(u)) for f in slice_structure(u, v, *d).restrictions)


def _hnf_2rows(r1: list[int], r2: list[int]) -> tuple[Vec, Vec]:
    """Row Hermite normal form of a rank-2 integer 2 x n matrix."""
    n = len(r1)
    piv = next(k for k in range(n) if r1[k] or r2[k])
    g, x, y = gcd_ext(r1[piv], r2[piv])
    a = [x * r1[k] + y * r2[k] for k in range(n)]
    b = [
        (-r2[piv] // g) * r1[k] + (r1[piv] // g) * r2[k] for k in range(n)
    ]
    piv2 = next(k for k in range(n) if b[k])
    if b[piv2] < 0:
        b = [-c for c in b]
    t = a[piv2] // b[piv2]
    a = [a[k] - t * b[k] for k in range(n)]
    return tuple(a), tuple(b)


def canonicalize_symmetry(u: Vec, v: Vec) -> tuple[Vec, Vec]:
    """Canonical representative of the plane's orbit under signed coordinate permutations."""
    u, v = saturate_plane(u, v)
    n = len(u)
    best = None
    for perm in permutations(range(n)):
        pu = [u[perm[k]] for k in range(n)]
        pv = [v[perm[k]] for k in range(n)]
        for signs in product((1, -1), repeat=n):
            su = [signs[k] * pu[k] for k in range(n)]
            sv = [signs[k] * pv[k] for k in range(n)]
            key = _hnf_2rows(su, sv)
            if best is None or key < best:
                best = key
    return best


_SWEEP_CACHE: dict = {}  # (u, v) -> (largest bound swept, its values)


def oracle_sweep(
    u: Vec, v: Vec, bound: int
) -> MappingProxyType[tuple[int, int], Fraction | None]:
    """Map (A, B) over the coprime parameter box to D of the line through A*u + B*v.

    A in [0, bound], |B| <= bound, gcd(A, B) = 1, excluding (0, 0) and (0, -1);
    None marks an improper line. Each plane keeps one cache entry, its largest box
    swept so far: a smaller box is filtered from it, and a larger one sweeps only the
    new shell. The read-only view returned holds exactly the requested box.
    """
    swept, values = _SWEEP_CACHE.get((u, v), (0, {}))
    if bound > swept:
        rows = _kernels.sweep_raw(u, v, bound, inner=swept)
        values = dict(values)  # a new dict: views of the smaller box keep their contents
        values.update(((A, B), None if den == 0 else Fraction(num, den)) for A, B, num, den in rows)
        _SWEEP_CACHE[(u, v)] = bound, values
    elif bound < swept:
        values = {k: x for k, x in values.items() if max(k[0], abs(k[1])) <= bound}
    return MappingProxyType(values)

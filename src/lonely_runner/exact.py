"""Exact integer-lattice primitives: extended gcd, orientation, kernels, saturation."""

from __future__ import annotations

import math

Vec = tuple[int, ...]


def gcd_ext(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b) >= 0; (0, 0) maps to (0, 0, 0)."""
    if a == 0 and b == 0:
        return 0, 0, 0
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def orient(a: int, b: int) -> tuple[int, int]:
    """Return whichever of (a, b) and (-a, -b) has its first nonzero entry positive."""
    if a < 0 or (a == 0 and b < 0):
        return -a, -b
    return a, b


def primitive_kernel(alpha: int, beta: int) -> tuple[int, int]:
    """Return the primitive integer solution (A0, B0) of alpha*A0 + beta*B0 = 0, first nonzero entry positive."""
    if alpha == 0 and beta == 0:
        raise ValueError("degenerate constraint")
    g = math.gcd(alpha, beta)
    return orient(beta // g, -alpha // g)


def minors2(u: Vec, v: Vec) -> list[int]:
    """Return all 2x2 minors u[i]*v[j] - u[j]*v[i] for i < j."""
    n = len(u)
    return [u[i] * v[j] - u[j] * v[i] for i in range(n) for j in range(i + 1, n)]


def saturate_plane(u: Vec, v: Vec) -> tuple[Vec, Vec]:
    """Return a basis of the saturation of the rank-2 lattice spanned by integer vectors u, v."""
    if len(u) != len(v):
        raise ValueError("not a plane")
    mins = minors2(u, v)
    if all(m == 0 for m in mins):
        raise ValueError("not a plane")
    cu = math.gcd(*u)
    u1 = tuple(c // cu for c in u)
    m = math.gcd(*minors2(u1, v))
    if m == 1:
        return u1, tuple(v)
    # the minors vanish mod m and u1 is primitive, so v = c * u1 mod m; with
    # sum x_k * u1_k = 1 that c is sum x_k * v_k, and v - c * u1 is the unique shift
    g, x = 0, []
    for c in u1:
        g, a, b = gcd_ext(g, c)
        x = [a * xk for xk in x] + [b]
    t = -sum(xk * vk for xk, vk in zip(x, v)) % m
    shifted = [v[k] + t * u1[k] for k in range(len(v))]
    assert g == 1 and all(c % m == 0 for c in shifted)
    v1 = tuple(c // m for c in shifted)
    assert math.gcd(*minors2(u1, v1)) == 1
    return u1, v1

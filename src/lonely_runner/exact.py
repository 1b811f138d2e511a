"""Exact integer-lattice primitives: extended gcd, orientation, kernels, saturation, plane coordinates, basis completion."""

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


def vec_content(u: Vec) -> int:
    """Return the gcd of the entries of u (0 for the zero vector)."""
    return math.gcd(*u) if u else 0


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
    cu = vec_content(u)
    if cu == 0:
        # u = 0 contradicts a nonzero minor, but guard anyway
        raise ValueError("not a plane")
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


def plane_coords(w: Vec, u: Vec, v: Vec) -> tuple[int, int]:
    """Integer coordinates (a, b) with w = a*u + b*v; raises ValueError if there are none."""
    n = len(u)
    if len(w) != n:
        raise ValueError("vector length differs from the plane's")
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


def complete_to_basis(w: Vec, basis: tuple[Vec, Vec]) -> Vec:
    """Extend the primitive lattice vector w to a basis (w, v2) of the saturated plane spanned by basis."""
    u, v = basis
    try:
        a, b = plane_coords(w, u, v)
    except ValueError:
        raise ValueError("not primitive") from None
    g, x, y = gcd_ext(a, b)
    if g != 1:
        raise ValueError("not primitive")
    v2 = tuple(-y * u[k] + x * v[k] for k in range(len(u)))
    for c in v2:
        if c != 0:
            if c < 0:
                v2 = tuple(-t for t in v2)
            break
    return v2

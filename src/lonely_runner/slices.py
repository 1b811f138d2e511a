"""Intersections of a 2-dimensional subtorus with the diagonal subspaces x_i = eps*x_j."""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from ._kernels import UnsupportedRequest
from .exact import Vec, gcd_ext, primitive_kernel, saturate_plane
from .pwl import CirclePWL, build_restriction, restriction_steps

# most sample steps all slices of one plane may take, counted before any slice is built: 4x
# the 30,024 of 1,0,500;0,1,500, whose spectrum must reach its class-budget refusal, and 11x
# the benchmark's largest plane (10,896 on FINITE_THREE_TENTHS); on a 2-vCPU VM
# 1,0,2000;0,1,0 (76,022 steps, 20,002 in each of two slices) answers in 4 s and
# 700,1,2,3;0,1,1,1 (117,780) in 5.4 s, and a 24-coordinate plane of 552 slices and
# 2,544,810 steps, which took 35 s, is refused
PLANE_BUDGET = 120_000


@dataclass(frozen=True)
class SliceStructure:
    """One diagonal slice of a plane: identity component, component count, adapted coordinates."""

    i: int
    j: int
    eps: int
    u_prime: Vec
    v_prime: Vec
    K: int
    z: tuple[int, int, int, int]
    restrictions: tuple[CirclePWL, ...]


def diagonals(n: int) -> Iterator[tuple[int, int, int]]:
    """The diagonal hyperplanes x_i = eps*x_j of n coordinates as (i, j, eps): i ascending,
    then j, then +1 before -1. This order fixes the order of a plane's slice components."""
    return ((i, j, eps) for i in range(n) for j in range(i + 1, n) for eps in (1, -1))


def slice_kernel(u: Vec, v: Vec, i: int, j: int, eps: int) -> tuple[int, int, Vec, int]:
    """(a0, b0, u', K) of the slice x_i = eps*x_j of span(u, v): the primitive kernel
    (a0, b0) of (alpha, beta) = (u_i - eps*u_j, v_i - eps*v_j), u' = a0*u + b0*v, which
    spans the slice's lattice, and the component count K = gcd(alpha, beta)."""
    alpha, beta = u[i] - eps * u[j], v[i] - eps * v[j]
    a0, b0 = primitive_kernel(alpha, beta)
    return a0, b0, tuple(a0 * a + b0 * b for a, b in zip(u, v)), math.gcd(alpha, beta)


def check_plane_budget(u: Vec, v: Vec) -> None:
    """Refuse the normal plane span(u, v) if building the restrictions of all its slices
    would pass PLANE_BUDGET steps, counted from each slice's u' and K before any slice
    is built."""
    steps = sum(
        restriction_steps(u_prime) * (K // 2 + 1)
        for _, _, u_prime, K in (slice_kernel(u, v, *d) for d in diagonals(len(u)))
    )
    if steps > PLANE_BUDGET:
        raise UnsupportedRequest(f"the plane's slice restrictions need more than {PLANE_BUDGET} steps")


def slice_structure(u: Vec, v: Vec, i: int, j: int, eps: int) -> SliceStructure:
    """Structure of span(u, v) intersected with {x_i = eps * x_j}; indices 0-based, i < j.

    The slice has K components, ell = 0..K-1, but restrictions holds f_ell only for
    ell <= K // 2: component K - ell is the mirror image, f_{K-ell}(t) = f_ell(-t).
    """
    if eps not in (1, -1):
        raise ValueError("eps must be +1 or -1")
    if not 0 <= i < j < len(u):
        raise ValueError("need 0 <= i < j < n")
    u, v = saturate_plane(u, v)
    if u[i] == eps * u[j] and v[i] == eps * v[j]:
        raise ValueError("degenerate slice; normalise with torus.normal_plane first")
    # u' = a0*u + b0*v spans the slice's lattice; with a0*x + b0*y = 1 the matrix
    # [[a0, b0], [-s*y, s*x]] is unimodular, so v' = s*(x*v - y*u) completes the basis and
    # its inverse gives u = x*u' - s*b0*v', v = y*u' + s*a0*v'
    a0, b0, u_prime, K = slice_kernel(u, v, i, j, eps)
    _, x, y = gcd_ext(a0, b0)
    assert a0 * x + b0 * y == 1
    w = tuple(x * b - y * a for a, b in zip(u, v))
    s = 1 if next(c for c in w if c) > 0 else -1
    v_prime = tuple(s * c for c in w)
    # v'_i - eps*v'_j = s*(x*beta - y*alpha), and (alpha, beta) = +-K*(-b0, a0), so the
    # slice has K components
    restrictions = tuple(
        build_restriction(
            tuple(Fraction(ell * c, K) for c in v_prime), u_prime
        )
        for ell in range(K // 2 + 1)
    )
    return SliceStructure(i, j, eps, u_prime, v_prime, K, (x, -s * b0, y, s * a0), restrictions)

"""Intersections of a 2-dimensional subtorus with the diagonal subspaces x_i = eps*x_j."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ._kernels import UnsupportedRequest
from .exact import Vec, complete_to_basis, plane_coords, primitive_kernel, saturate_plane
from .pwl import CirclePWL, build_restriction, restriction_steps

# most sample steps one slice's restrictions may take to build: 40x the largest slice of
# the test suite and the benchmark (488, on FINITE_THREE_TENTHS); the plane 1000,1,2;0,1,1
# (12,006 steps, 1.5 s on a 2-vCPU VM) stays in, and 10000,1,2;0,1,1 (120,006, 16 s) is refused
RESTRICTION_BUDGET = 20_000


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
    alpha = u[i] - eps * u[j]
    beta = v[i] - eps * v[j]
    if alpha == 0 and beta == 0:
        raise ValueError("degenerate slice; normalise with torus.normal_plane first")
    a0, b0 = primitive_kernel(alpha, beta)
    u_prime = tuple(a0 * u[k] + b0 * v[k] for k in range(len(u)))
    v_prime = complete_to_basis(u_prime, (u, v))
    K = abs(v_prime[i] - eps * v_prime[j])
    assert K >= 1
    if restriction_steps(u_prime) * (K // 2 + 1) > RESTRICTION_BUDGET:
        raise UnsupportedRequest(f"slice restrictions need more than {RESTRICTION_BUDGET} steps")
    z1, z2 = plane_coords(u, u_prime, v_prime)
    z3, z4 = plane_coords(v, u_prime, v_prime)
    if abs(z1 * z4 - z2 * z3) != 1:
        raise RuntimeError("adapted basis change is not unimodular")
    restrictions = tuple(
        build_restriction(
            tuple(Fraction(ell * c, K) for c in v_prime), u_prime
        )
        for ell in range(K // 2 + 1)
    )
    return SliceStructure(i, j, eps, u_prime, v_prime, K, (z1, z2, z3, z4), restrictions)

"""Tests for the diagonal-slice structure of 2-dimensional subtori."""

import math
import random
from fractions import Fraction

import pytest

from goldens import FINITE_THREE_TENTHS
from pointwise import evaluate
from lonely_runner import slices
from lonely_runner._kernels import UnsupportedRequest
from lonely_runner.exact import minors2, saturate_plane
from lonely_runner.pwl import restriction_steps
from lonely_runner.slices import check_plane_budget, diagonals, slice_structure

F = Fraction

PLANE_0123 = ((0, 1, 2, 3), (1, 0, 0, 0))
PLANE_1011 = ((1, 0, 1, 1), (1, 1, 0, 2))


def q_form(s, A, B):
    """Transverse coordinate of A*u + B*v in the slice's adapted basis."""
    return s.z[1] * A + s.z[3] * B


def a_form(s, A, B):
    """Longitudinal coordinate of A*u + B*v in the slice's adapted basis."""
    return s.z[0] * A + s.z[2] * B


def line_offsets(s, A, B):
    """(q, a, offsets): the line through A*u + B*v meets component ell at x = (offsets[ell] + r)/q."""
    qf = q_form(s, A, B)
    delta = 1 if qf > 0 else -1
    a = (delta * a_form(s, A, B)) % s.K
    return abs(qf), a, tuple(F(a * ell, s.K) % 1 for ell in range(s.K))


def component_points(s, A, B, ell):
    """Torus points where the line through A*u + B*v meets component ell of the slice."""
    q, _, offsets = line_offsets(s, A, B)
    return [
        tuple(
            (F(offsets[ell] + r, q) * s.u_prime[k] + F(ell, s.K) * s.v_prime[k]) % 1
            for k in range(len(s.u_prime))
        )
        for r in range(q)
    ]


def test_structure_0123_slice_24_minus():
    s = slice_structure(*PLANE_0123, 1, 3, -1)
    assert s.K == 4
    assert s.u_prime == (1, 0, 0, 0)
    assert s.v_prime == (0, 1, 2, 3)
    # psi of A*u + B*v is (B, A)
    assert all(q_form(s, A, B) == A for A in range(-3, 4) for B in range(-3, 4))
    assert all(a_form(s, A, B) == B for A in range(-3, 4) for B in range(-3, 4))


def test_structure_1011_slice_34_plus():
    s = slice_structure(*PLANE_1011, 2, 3, 1)
    assert s.K == 2
    # a is congruent to A mod 2, independently of the orientation sign
    for A, B in ((1, 0), (1, 2), (3, 4), (2, 1), (0, 1)):
        if math.gcd(A, B) != 1 or q_form(s, A, B) == 0:
            continue
        _, a, _ = line_offsets(s, A, B)
        assert a % 2 == A % 2


def test_structure_0123_slice_12_plus_k1():
    s = slice_structure(*PLANE_0123, 0, 1, 1)
    assert s.K == 1
    for A, B in ((1, 2), (2, 5), (1, -3)):
        q, _, offsets = line_offsets(s, A, B)
        assert q == abs(B - A)
        assert offsets == (F(0),)


def test_degenerate_slice_rejected():
    with pytest.raises(
        ValueError, match="degenerate slice; normalise with torus.normal_plane first"
    ):
        slice_structure((1, 1, 2), (0, 0, 1), 0, 1, 1)


def test_slice_points_offset_example():
    # q_form = A, so q = 1 when A = 1; component 1 offset is (B mod 4)/4
    s = slice_structure(*PLANE_0123, 1, 3, -1)
    q, _, offsets = line_offsets(s, 1, 8)
    assert q == 1
    assert offsets[1] == F(8 % 4, 4)
    q, a, _ = line_offsets(s, 2, 1)
    assert q == 2
    assert a == 1


def _random_saturated_plane(rng, n):
    while True:
        u = tuple(rng.randint(-4, 4) for _ in range(n))
        v = tuple(rng.randint(-4, 4) for _ in range(n))
        if all(m == 0 for m in minors2(u, v)):
            continue
        u, v = saturate_plane(u, v)
        if all((a, b) != (0, 0) for a, b in zip(u, v)):
            return u, v


def test_unimodularity_and_coprimality_random():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(2, 5)
        u, v = _random_saturated_plane(rng, n)
        for i in range(n):
            for j in range(i + 1, n):
                for eps in (1, -1):
                    if u[i] == eps * u[j] and v[i] == eps * v[j]:
                        continue
                    s = slice_structure(u, v, i, j, eps)
                    z1, z2, z3, z4 = s.z
                    assert abs(z1 * z4 - z2 * z3) == 1
                    # (u, v) in the adapted basis (u', v'), entry by entry
                    for k in range(n):
                        assert u[k] == z1 * s.u_prime[k] + z2 * s.v_prime[k]
                        assert v[k] == z3 * s.u_prime[k] + z4 * s.v_prime[k]
                    alpha, beta = u[i] - eps * u[j], v[i] - eps * v[j]
                    assert s.K == math.gcd(alpha, beta)
                    # the q-form (E, F) = (z2, z4) is +-(alpha, beta)/K
                    assert (z2, z4) in ((alpha // s.K, beta // s.K), (-alpha // s.K, -beta // s.K))
                    assert next(c for c in s.v_prime if c) > 0
                    for _ in range(4):
                        A = rng.randint(-6, 6)
                        B = rng.randint(-6, 6)
                        if math.gcd(A, B) != 1:
                            continue
                        qf = q_form(s, A, B)
                        af = a_form(s, A, B)
                        if qf != 0:
                            assert math.gcd(qf, af) == 1


def test_intersection_points_match_direct_scan():
    rng = random.Random(43)
    for _ in range(25):
        n = rng.randint(2, 4)
        u, v = _random_saturated_plane(rng, n)
        A = rng.randint(-5, 5)
        B = rng.randint(-5, 5)
        if math.gcd(A, B) != 1:
            continue
        w = tuple(A * a + B * b for a, b in zip(u, v))
        for i in range(n):
            for j in range(i + 1, n):
                for eps in (1, -1):
                    if u[i] == eps * u[j] and v[i] == eps * v[j]:
                        continue
                    s = slice_structure(u, v, i, j, eps)
                    delta = abs(w[i] - eps * w[j])
                    if q_form(s, A, B) == 0:
                        assert delta == 0
                        continue
                    q, _, _ = line_offsets(s, A, B)
                    assert delta == q * s.K
                    direct = {
                        tuple((F(k, delta) * c) % 1 for c in w)
                        for k in range(delta)
                    }
                    produced = set()
                    for ell in range(s.K):
                        for pt in component_points(s, A, B, ell):
                            assert pt[i] == (eps * pt[j]) % 1
                            produced.add(pt)
                    assert produced == direct


def test_restrictions_match_distance_along_components():
    from lonely_runner.pwl import dist_to_half

    rng = random.Random(47)
    s = slice_structure(*PLANE_0123, 1, 3, -1)
    # only ell <= K // 2 is stored; component K - ell is f_ell mirrored, t -> -t
    assert len(s.restrictions) == s.K // 2 + 1
    for ell in range(s.K):
        for _ in range(20):
            t = F(rng.randint(0, 60), rng.randint(1, 30))
            pt = [
                (t * s.u_prime[k] + F(ell, s.K) * s.v_prime[k]) % 1
                for k in range(4)
            ]
            if ell <= s.K // 2:
                got = evaluate(s.restrictions[ell], t)
            else:
                got = evaluate(s.restrictions[s.K - ell], -t)
            assert got == max(dist_to_half(c) for c in pt)


def test_plane_budget_counts_every_slice(monkeypatch):
    # the budget's total, read off the kernels, equals the steps of the slices as built
    u, v = FINITE_THREE_TENTHS
    built = sum(
        restriction_steps(s.u_prime) * (s.K // 2 + 1)
        for s in (slice_structure(u, v, *d) for d in diagonals(len(u)))
    )
    assert built == 10_896
    monkeypatch.setattr(slices, "PLANE_BUDGET", built - 1)
    with pytest.raises(UnsupportedRequest, match="slice restrictions"):
        check_plane_budget(u, v)
    monkeypatch.setattr(slices, "PLANE_BUDGET", built)
    check_plane_budget(u, v)

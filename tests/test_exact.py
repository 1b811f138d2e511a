"""Tests for the exact integer-lattice primitives."""

import math
import random
import time

import pytest

from lonely_runner.exact import (
    gcd_ext,
    minors2,
    primitive_kernel,
    saturate_plane,
)


def test_gcd_ext_zero_zero():
    assert gcd_ext(0, 0) == (0, 0, 0)


def test_gcd_ext_literal_cases():
    assert gcd_ext(8, 12) == (4, -1, 1)
    assert gcd_ext(1, 0) == (1, 1, 0)


def test_gcd_ext_bezout_random():
    rng = random.Random(7)
    for _ in range(500):
        a = rng.randint(-10**6, 10**6)
        b = rng.randint(-10**6, 10**6)
        g, x, y = gcd_ext(a, b)
        assert g == math.gcd(a, b)
        assert a * x + b * y == g


def test_primitive_kernel_literal_cases():
    assert primitive_kernel(1, -1) == (1, 1)
    assert primitive_kernel(2, 4) == (2, -1)
    assert primitive_kernel(0, 3) == (1, 0)


def test_primitive_kernel_degenerate():
    with pytest.raises(ValueError, match="degenerate constraint"):
        primitive_kernel(0, 0)


def test_primitive_kernel_random():
    rng = random.Random(11)
    for _ in range(300):
        a = rng.randint(-50, 50)
        b = rng.randint(-50, 50)
        if a == 0 and b == 0:
            continue
        a0, b0 = primitive_kernel(a, b)
        assert a * a0 + b * b0 == 0
        assert math.gcd(a0, b0) == 1
        lead = a0 if a0 != 0 else b0
        assert lead > 0


def test_saturate_plane_literal_case():
    assert saturate_plane((2, 0, 0), (0, 2, 0)) == ((1, 0, 0), (0, 1, 0))


def test_saturate_plane_index_two_case():
    # content-1 rows whose lattice still has index 2 in its saturation
    u1, v1 = saturate_plane((2, 1, 1), (0, 1, -1))
    assert math.gcd(*minors2(u1, v1)) == 1
    # (1, 0, 1) lies in the saturation and must be an integer combination
    assert u1 == (2, 1, 1)
    assert v1 == (1, 1, 0)


def test_saturate_plane_rejects_rank_deficient():
    with pytest.raises(ValueError, match="not a plane"):
        saturate_plane((1, 2, 3), (2, 4, 6))
    with pytest.raises(ValueError, match="not a plane"):
        saturate_plane((0, 0, 0), (1, 2, 3))


def test_saturate_plane_preserves_span_random():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(2, 5)
        u = tuple(rng.randint(-9, 9) for _ in range(n))
        v = tuple(rng.randint(-9, 9) for _ in range(n))
        if all(m == 0 for m in minors2(u, v)):
            continue
        u1, v1 = saturate_plane(u, v)
        assert math.gcd(*minors2(u1, v1)) == 1
        # original generators must lie in the integer span of the output
        for w in (u, v):
            a = complete_ok = None
            # solve w = a*u1 + b*v1 through a nonzero minor
            done = False
            for i in range(n):
                for j in range(i + 1, n):
                    det = u1[i] * v1[j] - u1[j] * v1[i]
                    if det:
                        num_a = w[i] * v1[j] - w[j] * v1[i]
                        num_b = u1[i] * w[j] - u1[j] * w[i]
                        assert num_a % det == 0 and num_b % det == 0
                        a, b = num_a // det, num_b // det
                        assert all(
                            w[k] == a * u1[k] + b * v1[k] for k in range(n)
                        )
                        done = True
                        break
                if done:
                    break
            assert done


def _saturate_by_search(u, v):
    """The shift search saturate_plane once ran: the least t in range(m) with v + t * u1 = 0 mod m."""
    cu = math.gcd(*u)
    u1 = tuple(c // cu for c in u)
    m = math.gcd(*minors2(u1, v))
    for t in range(m):
        shifted = [v[k] + t * u1[k] for k in range(len(v))]
        if all(c % m == 0 for c in shifted):
            return u1, tuple(c // m for c in shifted)


def test_saturate_plane_matches_shift_search_random():
    rng = random.Random(29)
    for _ in range(2000):
        n = rng.randint(2, 6)
        u = tuple(rng.randint(-9, 9) for _ in range(n))
        scale = rng.choice((1, 2, 3, 6))
        v = tuple(scale * rng.randint(-9, 9) for _ in range(n))
        if all(m == 0 for m in minors2(u, v)):
            continue
        assert saturate_plane(u, v) == _saturate_by_search(u, v), (u, v)


def test_saturate_plane_huge_index_in_closed_form():
    t0 = time.perf_counter()
    assert saturate_plane((1, 0, 0), (1, 10**9, 10**9)) == ((1, 0, 0), (1, 1, 1))
    assert time.perf_counter() - t0 < 1

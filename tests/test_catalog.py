"""Tests for the plane catalog: tight pairs, two-speed distances, enumeration."""

import math
from fractions import Fraction as Fr

import pytest

from goldens import (
    SECTOR_QUARTER,
    SECTOR_TENTH_A,
    SECTOR_TENTH_B,
    STRIP_QUARTER,
    STRIP_TENTH_A,
    STRIP_TENTH_B,
    TENTH_PLANES,
)
from lonely_runner.catalog import enumerate_2d_subtori, tight_pairs
from lonely_runner.torus import canonicalize_symmetry, d_plane, d_two_speeds, plane_proper


def test_tight_pairs():
    assert tight_pairs(Fr(1, 10)) == [(1, 2), (1, 4), (2, 3)]
    assert tight_pairs(Fr(1, 6)) == [(1, 2)]
    assert tight_pairs(Fr(1, 2)) == []
    assert tight_pairs(Fr(1, 14)) == [(1, 2), (1, 4), (2, 3), (1, 6), (2, 5), (3, 4)]


def test_tight_pairs_domain():
    for bad in (0, Fr(-1, 3), Fr(2, 3), 1):
        with pytest.raises(ValueError):
            tight_pairs(bad)


def test_tight_pairs_match_two_speed_distance():
    threshold = Fr(1, 14)
    pairs = tight_pairs(threshold)
    for x, y in pairs:
        assert math.gcd(x, y) == 1
        assert d_two_speeds(x, y) >= threshold
    # anything coprime below the bound misses the threshold
    for x in range(1, 10):
        for y in range(x + 1, 12):
            if math.gcd(x, y) == 1 and (x, y) not in pairs:
                assert d_two_speeds(x, y) < threshold


def test_d_two_speeds():
    assert d_two_speeds(1, 2) == Fr(1, 6)
    assert d_two_speeds(1, 1) == 0
    assert d_two_speeds(2, 3) == Fr(1, 10)
    assert d_two_speeds(3, 5) == 0
    assert d_two_speeds(2, 4) == Fr(1, 6)
    assert d_two_speeds(6, 10) == 0
    assert d_two_speeds(4, 6) == Fr(1, 10)


def test_d_two_speeds_domain():
    for a, b in [(0, 1), (1, 0), (-2, 3)]:
        with pytest.raises(ValueError):
            d_two_speeds(a, b)


def test_enumerate_tenth_planes():
    out = enumerate_2d_subtori(3, Fr(1, 10))
    golden = {canonicalize_symmetry(*p) for p in TENTH_PLANES}
    assert set(out) == golden
    assert len(out) == 4


def test_enumerate_quarter_planes():
    out = enumerate_2d_subtori(4, Fr(1, 4))
    golden = {canonicalize_symmetry(*p) for p in (STRIP_QUARTER, SECTOR_QUARTER)}
    assert set(out) == golden
    assert len(out) == 2


def test_enumerate_sixth_planes():
    out = enumerate_2d_subtori(3, Fr(1, 6))
    assert canonicalize_symmetry((1, 2, 0), (0, 0, 1)) in out
    assert len(out) == 2


def test_enumerate_trivial_and_unsupported():
    assert enumerate_2d_subtori(2, Fr(1, 7)) == []
    assert enumerate_2d_subtori(3, Fr(1, 2)) == []
    for n, d in [(4, Fr(1, 5)), (5, Fr(1, 10)), (1, Fr(1, 4))]:
        with pytest.raises(ValueError, match="tight-instance data unavailable"):
            enumerate_2d_subtori(n, d)
    with pytest.raises(ValueError):
        enumerate_2d_subtori(3, Fr(-1, 10))


def test_enumerate_outputs_are_canonical_and_exact():
    for n, d in [(3, Fr(1, 10)), (3, Fr(1, 6)), (4, Fr(1, 4))]:
        for u, v in enumerate_2d_subtori(n, d):
            assert canonicalize_symmetry(u, v) == (u, v)
            assert plane_proper(u, v)
            assert d_plane(u, v) == d


def _grid_upper_bound(u, v, q):
    """Min over the q-grid of the max coordinate distance, an upper bound for d_plane."""
    best = q
    for i in range(q):
        for j in range(q):
            m = 0
            for uk, vk in zip(u, v):
                r = (i * uk + j * vk) % q
                t = abs(2 * r - q)
                if t > m:
                    m = t
            if m < best:
                best = m
    return Fr(best, 2 * q)


def test_soundness_sweep_dim3():
    # every symmetrized basis within the entry bound either misses 1/10 or
    # lands in an orbit the enumeration already reports
    target = Fr(1, 10)
    orbits = set(enumerate_2d_subtori(3, target))
    checked = 0
    for a in range(0, 5):
        for b in range(-4, 5):
            if math.gcd(a, abs(b)) != 1:
                continue
            for c in range(0, 5):
                for d in range(-4, 5):
                    if math.gcd(c, abs(d)) != 1:
                        continue
                    u, v = (a, a, b), (c, -c, d)
                    if not plane_proper(u, v):
                        continue
                    if a * (-c) - a * c == 0 and a * d - b * c == 0 and a * d + b * c == 0:
                        continue
                    if _grid_upper_bound(u, v, 20) < target:
                        continue
                    try:
                        exact = d_plane(u, v)
                    except ValueError:
                        continue
                    checked += 1
                    if exact == target:
                        assert canonicalize_symmetry(u, v) in orbits
    assert checked > 20

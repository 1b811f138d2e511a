"""Tests for the zero-locus decomposition and the finiteness verdict."""

import math
from fractions import Fraction as Fr

import pytest

from goldens import (
    FINITE_THREE_TENTHS,
    SECTOR_QUARTER,
    SECTOR_THIRD,
    STRIP_QUARTER,
    TENTH_PLANES,
)
from lonely_runner.exact import gcd_ext
from lonely_runner.locus import LocusElement, finiteness, zero_locus
from lonely_runner.spectrum import relative_spectrum
from lonely_runner.torus import d_plane, d_point


def seg(start, end, direction):
    return LocusElement("segment", start, end, direction)


def pt(a, b):
    return LocusElement("point", (Fr(a), Fr(b)))


def test_zero_locus_finite_example():
    expected = {pt(Fr(k, 5), Fr(k, 5)) for k in (1, 2, 3, 4)}
    for a in (Fr(2, 5), Fr(3, 5)):
        for lo, hi in ((Fr(1, 5), Fr(4, 15)), (Fr(11, 15), Fr(4, 5))):
            expected.add(seg((a, lo), (a, hi), (0, 1)))
            expected.add(seg((lo, a), (hi, a), (1, 0)))
    assert set(zero_locus(*FINITE_THREE_TENTHS)) == expected


def test_zero_locus_full_torus():
    assert zero_locus((1, 0), (0, 1)) == [pt(Fr(1, 2), Fr(1, 2))]


def test_zero_locus_strip_quarter():
    got = zero_locus(*STRIP_QUARTER)
    assert got == [
        seg((Fr(1, 4), Fr(1, 4)), (Fr(1, 4), Fr(3, 4)), (0, 1)),
        seg((Fr(3, 4), Fr(1, 4)), (Fr(3, 4), Fr(3, 4)), (0, 1)),
    ]


def test_zero_locus_product_plane():
    got = zero_locus((1, 2, 0), (0, 0, 1))
    assert got == [
        seg((Fr(1, 3), Fr(1, 3)), (Fr(1, 3), Fr(2, 3)), (0, 1)),
        seg((Fr(2, 3), Fr(1, 3)), (Fr(2, 3), Fr(2, 3)), (0, 1)),
    ]


def test_zero_locus_center_plane():
    assert zero_locus((1, 1, 0), (0, 0, 1)) == [pt(Fr(1, 2), Fr(1, 2))]


def test_zero_locus_rejects_degenerate_input():
    with pytest.raises(ValueError):
        zero_locus((1, 2, 3), (2, 4, 6))
    with pytest.raises(ValueError):
        zero_locus((1, 0, 0), (0, 1, 0))


def _evaluate(u, v, a, b):
    return tuple(a * uk + b * vk for uk, vk in zip(u, v))


def test_elements_lie_at_plane_distance():
    planes = [STRIP_QUARTER, SECTOR_QUARTER, SECTOR_THIRD, FINITE_THREE_TENTHS]
    planes += list(TENTH_PLANES)
    for u, v in planes:
        d = d_plane(u, v)
        for e in zero_locus(u, v):
            samples = [e.start]
            if e.kind == "segment":
                mid = (
                    (e.start[0] + e.end[0]) / 2,
                    (e.start[1] + e.end[1]) / 2,
                )
                samples += [e.end, mid]
                assert math.gcd(*e.direction) == 1
                da, db = e.direction
                assert da > 0 or (da == 0 and db > 0)
            for a, b in samples:
                assert d_point(_evaluate(u, v, a, b)) == d


def _on_element(e, a, b):
    da, db = a - e.start[0], b - e.start[1]
    if e.kind == "point":
        return (da % 1, db % 1) == (0, 0)
    wa, wb = e.direction
    if (wb * da - wa * db) % 1 != 0:
        return False
    _, x, y = gcd_ext(wa, wb)
    t = (x * da + y * db) % 1
    length = (e.end[0] - e.start[0]) / wa if wa else (e.end[1] - e.start[1]) / wb
    return t <= length


def test_locus_covers_bounded_denominator_sweep():
    cases = [(FINITE_THREE_TENTHS, 30), (STRIP_QUARTER, 8), (SECTOR_QUARTER, 24)]
    for (u, v), q in cases:
        d = d_plane(u, v)
        elements = zero_locus(u, v)
        hits = 0
        for i in range(q):
            for j in range(q):
                a, b = Fr(i, q), Fr(j, q)
                if d_point(_evaluate(u, v, a, b)) == d:
                    hits += 1
                    assert any(_on_element(e, a, b) for e in elements)
        assert hits > 0


@pytest.mark.xfail(
    strict=True,
    reason="known defect: locus._band_arcs returns arcs in decreasing t when s < 0, "
    "and _intersect_arcs assumes increasing t",
)
def test_zero_locus_sector_third_holds_half_third():
    u, v = SECTOR_THIRD
    a, b = Fr(1, 2), Fr(1, 3)
    assert d_point(_evaluate(u, v, a, b)) == d_plane(u, v) == Fr(1, 3)
    assert any(_on_element(e, a, b) for e in zero_locus(u, v))


@pytest.mark.xfail(
    strict=True,
    reason="known defect: locus._band_arcs returns arcs unsorted (decreasing t when s < 0), "
    "so finiteness misses crossing segments and says infinite",
)
@pytest.mark.parametrize(
    "u, v",
    [
        ((1, 1, 0, -3, 0, 0), (0, 1, -3, -3, 1, 1)),
        ((1, 1, 1, -3, 0, 0), (-1, 0, 0, 0, -1, -3)),
        ((-1, -3, -3, -1, 0, -2, 0), (0, 0, 0, 3, 3, -2, 1)),
    ],
    ids=["n6_a", "n6_b", "n7"],
)
def test_finiteness_finite_route_planes(u, v):
    # each plane takes the finite route of the spectrum analysis
    assert finiteness(u, v).verdict == "finite"


def test_finiteness_verdicts():
    fin = finiteness(*FINITE_THREE_TENTHS)
    assert fin.verdict == "finite"
    s1, s2 = fin.witness_segments
    assert s1.direction != s2.direction
    strip = finiteness(*STRIP_QUARTER)
    assert (strip.verdict, strip.common_direction) == ("infinite", (0, 1))
    prod = finiteness((1, 2, 0), (0, 0, 1))
    assert prod.verdict == "infinite"
    center = finiteness((1, 1, 0), (0, 0, 1))
    assert (center.verdict, center.note) == ("infinite", "zero locus has no segments")


def test_finiteness_requires_ambient_dimension():
    with pytest.raises(ValueError):
        finiteness((1, 0), (0, 1))


def test_finiteness_matches_spectrum_progressions():
    planes = [STRIP_QUARTER, SECTOR_QUARTER, SECTOR_THIRD, FINITE_THREE_TENTHS]
    planes += list(TENTH_PLANES)
    for u, v in planes:
        desc = relative_spectrum(u, v, certify_bound=60)
        has_progressions = bool(desc.progressions)
        assert finiteness(u, v).verdict == ("infinite" if has_progressions else "finite")


def test_verdict_invariant_under_rebasing():
    u, v = FINITE_THREE_TENTHS
    u2 = tuple(a + b for a, b in zip(u, v))
    rebased = zero_locus(u2, v)
    original = zero_locus(u, v)
    for kind in ("point", "segment"):
        assert sum(1 for e in rebased if e.kind == kind) == sum(
            1 for e in original if e.kind == kind
        )
    assert finiteness(u2, v).verdict == "finite"
    s1, s2 = STRIP_QUARTER
    assert finiteness(tuple(a + b for a, b in zip(s1, s2)), s2).verdict == "infinite"

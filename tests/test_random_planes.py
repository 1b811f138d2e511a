"""Seeded differential suite: random small planes on every analysis route against the oracle."""

import math
import random

import pytest

from goldens import (
    FINITE_THREE_TENTHS,
    SECTOR_QUARTER,
    STRIP_QUARTER,
    STRIP_TENTH_A,
    STRIP_TENTH_B,
)
from lonely_runner.exact import orient
from lonely_runner.spectrum import SpectrumAnalysis, certify, class_setup, halfline_analysis
from lonely_runner.torus import d_line_oracle, normal_plane, oracle_sweep

SEED = 1
BOUND = 12
PER_ROUTE = 4
ROUTES = ("sector", "lines", "finite")
PICKS = 2  # family or base records checked at their thresholds on each random half-line


def route_of(u, v):
    """The route a plane's flat critical components ask for (none, one form, or more)."""
    forms = {orient(c.E, c.F) for c in class_setup(u, v).flats}
    return ROUTES[min(len(forms), 2)]


def uniform_planes(rng):
    """Uniform draws with n in 3..5 and entries in -3..3, skipping every basis that does
    not span a proper plane."""
    while True:
        n = rng.randint(3, 5)
        u = tuple(rng.randint(-3, 3) for _ in range(n))
        v = tuple(rng.randint(-3, 3) for _ in range(n))
        try:
            normal_plane(u, v)
        except ValueError:  # not a plane, or a coordinate vanishes on it
            continue
        yield u, v


def finite_images(rng):
    """Signed coordinate permutations of FINITE_THREE_TENTHS, then three unimodular
    basis changes (u, v) -> (v, u + k*v). Uniform draws almost never take the finite
    route (none in 977 draws)."""
    u0, v0 = FINITE_THREE_TENTHS
    n = len(u0)
    while True:
        perm = rng.sample(range(n), n)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        u = [signs[k] * u0[perm[k]] for k in range(n)]
        v = [signs[k] * v0[perm[k]] for k in range(n)]
        for _ in range(3):
            k = rng.randint(-2, 2)
            u, v = v, [a + k * b for a, b in zip(u, v)]
        yield tuple(u), tuple(v)


@pytest.fixture(scope="module")
def planes():
    """The first PER_ROUTE draws of each route, in draw order."""
    rng = random.Random(SEED)
    drawn = {route: [] for route in ROUTES}
    for u, v in uniform_planes(rng):
        route = route_of(u, v)
        if len(drawn[route]) < PER_ROUTE:
            drawn[route].append((u, v))
        if len(drawn["sector"]) == len(drawn["lines"]) == PER_ROUTE:
            break
    images = finite_images(rng)
    while len(drawn["finite"]) < PER_ROUTE:
        drawn["finite"].append(next(images))
    return drawn


def coprime_pairs(bound):
    """Number of (A, B) in the oracle box: 0 <= A <= bound, |B| <= bound, gcd 1, A > 0 or B > 0."""
    return sum(
        1
        for A in range(bound + 1)
        for B in range(-bound, bound + 1)
        if (A > 0 or B > 0) and math.gcd(A, B) == 1
    )


def check_thresholds(setup, lines, pick):
    """Compare the oracle at s = s0 and s = s0 + 1 of the family and base records that pick
    selects from the residues of each half-line (c, base, direction, records) in lines,
    pairs that mostly lie past the sweep box, with the record's value d + gamma/(slope*s +
    const), or d for a base record. Returns the number of pairs compared."""
    checked = 0
    for _, base, dd, recs in lines:
        for res in pick([i for i, r in enumerate(recs) if r.outcome in ("family", "base")]):
            r = recs[res]
            for k in (r.s0, r.s0 + 1):
                t = res + len(recs) * k
                A, B = base[0] + t * dd[0], base[1] + t * dd[1]
                want = setup.d_value
                if r.outcome == "family":
                    want += r.gamma / (r.slope * k + r.const)
                got = d_line_oracle(tuple(A * a + B * b for a, b in zip(setup.u, setup.v)))
                assert got == want, (setup.u, setup.v, base, dd, res, k)
                checked += 1
    return checked


@pytest.mark.parametrize(
    "plane, checked",
    [(STRIP_QUARTER, 4), (STRIP_TENTH_A, 28), (STRIP_TENTH_B, 28)],
    ids=["quarter", "tenth_a", "tenth_b"],
)
def test_strip_golden_thresholds(plane, checked):
    ana = SpectrumAnalysis(*plane)
    assert check_thresholds(ana.setup, ana.flat_lines, list) == checked


def test_base_record_thresholds():
    # no strip golden's own half-line holds a base record; this one of SECTOR_QUARTER does
    s = class_setup(*SECTOR_QUARTER)
    recs = halfline_analysis(s, (1, 0), (0, 1))
    assert [(r.outcome, r.s0) for r in recs] == [
        ("family", 16), ("base", 1), ("base", 1), ("family", 15),
    ]
    assert check_thresholds(s, [(1, (1, 0), (0, 1), recs)], list) == 8


@pytest.mark.parametrize("k", range(PER_ROUTE))
@pytest.mark.parametrize("route", ROUTES)
def test_random_plane_against_oracle(planes, route, k):
    u, v = planes[route][k]
    ana = SpectrumAnalysis(u, v)
    assert ana.route == route, (u, v)
    s = ana.setup
    if route == "lines":
        # a seeded sample of the half-line thresholds, most of them past the box below
        rng = random.Random(SEED)
        pick = lambda res: rng.sample(res, min(PICKS, len(res)))
        assert check_thresholds(s, ana.flat_lines, pick) > 0
    sweep = oracle_sweep(s.u, s.v, BOUND)
    for (A, B), val in sweep.items():
        got = ana.predict(A, B)
        assert got is None or got == val, (u, v, A, B)
    desc = ana.description(BOUND)
    for p in desc.progressions:
        for idx, A, B in p.witnesses:
            assert sweep[(A, B)] == desc.d_value + 1 / (p.alpha * idx + p.beta), (u, v, A, B)
    report = certify(u, v, desc, BOUND)
    exceptional = {val for val, _ in report.exceptional}
    exceptional_pairs = sum(1 for val in sweep.values() if val in exceptional)
    labelled = (
        report.improper + report.base_count + sum(report.progression_counts) + exceptional_pairs
    )
    assert report.total == labelled == coprime_pairs(BOUND), (u, v)
    assert report.exceptional == desc.exceptional_values, (u, v)

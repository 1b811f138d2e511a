"""Seeded differential suite: random small planes on every analysis route against the oracle."""

import math
import random

import pytest

from goldens import FINITE_THREE_TENTHS
from lonely_runner.exact import orient
from lonely_runner.spectrum import SpectrumAnalysis, certify, class_setup
from lonely_runner.torus import normal_plane, oracle_sweep

SEED = 1
BOUND = 12
PER_ROUTE = 4
ROUTES = ("sector", "lines", "finite")


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


@pytest.mark.parametrize("k", range(PER_ROUTE))
@pytest.mark.parametrize("route", ROUTES)
def test_random_plane_against_oracle(planes, route, k):
    u, v = planes[route][k]
    ana = SpectrumAnalysis(u, v)
    assert ana.route == route, (u, v)
    s = ana.setup
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

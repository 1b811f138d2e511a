"""Seeded differential suite: random small planes on every analysis route against the oracle."""

import functools
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
from lonely_runner._kernels import UnsupportedRequest
from lonely_runner.exact import orient
from lonely_runner.spectrum import SpectrumAnalysis, certify, class_setup, halfline_analysis
from lonely_runner.torus import d_line_oracle, d_plane, normal_plane, oracle_sweep

SEED = 1
BOUND = 12
PER_ROUTE = 4
ROUTES = ("sector", "lines", "finite")
PICKS = 2  # family or base records checked at their thresholds on each random half-line
# sector planes whose largest critical q0 (63,961, 32,737 and 37,008) puts every pair
# predict covers far outside any sweep box
LARGE_Q0_PLANES = (
    ((5, -3, 2), (1, 4, -3)),
    ((3, 4, 1), (-4, 3, -1)),
    ((4, -5, -4), (-4, -1, 5)),
)
LARGE_Q0_DRAWS = 150  # seeded pairs drawn on each of them
LARGE_Q0_CHECKED = 85  # pairs of those draws compared with the oracle when the floor was set
# a finite-route plane (n = 5, d = 1/4) from block draws, where each coordinate is mostly in
# u or mostly in v; uniform draws give none
BLOCK_FINITE = ((-1, -1, 3, 0, 0), (0, -1, 0, 1, 3))
IMAGE_BOUND = 6  # box of the descriptions compared across images


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


def signed_permutation(rng, u, v):
    """(u, v) with its coordinates permuted and sign-flipped by one seeded draw."""
    n = len(u)
    perm = rng.sample(range(n), n)
    signs = [rng.choice((1, -1)) for _ in range(n)]
    return (
        tuple(signs[k] * u[perm[k]] for k in range(n)),
        tuple(signs[k] * v[perm[k]] for k in range(n)),
    )


def basis_change(rng, u, v):
    """Three unimodular basis changes (u, v) -> (v, u + k*v), k drawn in -2..2."""
    for _ in range(3):
        k = rng.randint(-2, 2)
        u, v = v, tuple(a + k * b for a, b in zip(u, v))
    return u, v


def finite_images(rng):
    """Signed coordinate permutations of FINITE_THREE_TENTHS, then basis changes.
    Uniform draws almost never take the finite route (none in 977 draws)."""
    while True:
        yield basis_change(rng, *signed_permutation(rng, *FINITE_THREE_TENTHS))


@pytest.fixture(scope="module")
def analysis():
    """SpectrumAnalysis of a plane, built once for the tests of this module."""
    return functools.cache(SpectrumAnalysis)


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
def test_random_plane_against_oracle(planes, analysis, route, k):
    u, v = planes[route][k]
    ana = analysis(u, v)
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


def past_every_q0(setup, A, B):
    """Whether every critical component's |q| at (A, B) is at least its table's q0."""
    for c in setup.critical:
        q = c.q_of(A, B)
        if q == 0 or abs(q) < setup.coset(c, A, B, 1 if q > 0 else -1)[1]:
            return False
    return True


def test_large_q0_planes_predict_lines():
    # pairs (A, B) with 0 < A <= R and |B| <= R, R the plane's largest q0, past every
    # critical q0; lines whose oracle scan is refused are skipped
    rng = random.Random(SEED)
    checked = 0
    for u, v in LARGE_Q0_PLANES:
        ana = SpectrumAnalysis(u, v)
        s = ana.setup
        tables = [s.table(c, a) for c in s.critical for a in range(c.K)]
        assert s.m_prime == math.lcm(*(c.K for c in s.critical), *(t.modulus for t in tables))
        R = max(t.q0 for t in tables)
        for _ in range(LARGE_Q0_DRAWS):
            A, B = rng.randint(1, R), rng.randint(-R, R)
            w = tuple(A * a + B * b for a, b in zip(s.u, s.v))
            if math.gcd(A, B) != 1 or 0 in w or not past_every_q0(s, A, B):
                continue
            try:
                want = d_line_oracle(w)
            except UnsupportedRequest:
                continue
            assert ana.predict(A, B) == want, (u, v, A, B)
            checked += 1
    assert checked >= LARGE_Q0_CHECKED


def invariants(analysis, u, v):
    """What a plane's image must keep: d, the route, base reachability and the families."""
    ana = analysis(u, v)
    families = [(p.alpha, p.beta) for p in ana.description(IMAGE_BOUND).progressions]
    return d_plane(u, v), ana.route, ana.base_reachable, families


@pytest.mark.parametrize("route", ROUTES)
def test_invariants_under_plane_images(planes, analysis, route):
    # a signed coordinate permutation of each plane maps it onto an isomorphic subtorus, and
    # a unimodular basis change of that image spans the same one
    rng = random.Random(SEED)
    for u, v in planes[route] + ([BLOCK_FINITE] if route == "finite" else []):
        want = invariants(analysis, u, v)
        assert want[1] == route, (u, v)
        image = signed_permutation(rng, u, v)
        assert invariants(analysis, *image) == want, (u, v, image)
        image = basis_change(rng, *image)
        assert invariants(analysis, *image) == want, (u, v, image)

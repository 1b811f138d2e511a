"""Tests for circle piecewise-linear machinery: envelopes, approx residues, gamma tables."""

import math
import random
from fractions import Fraction

import pytest

from goldens import (
    FINITE_THREE_TENTHS,
    SECTOR_QUARTER,
    SECTOR_THIRD,
    STRIP_QUARTER,
    TENTH_PLANES,
)
from pointwise import coset_min_fraction, evaluate, make_pwl
from lonely_runner import pwl
from lonely_runner._kernels import UnsupportedRequest
from lonely_runner.pwl import (
    CirclePWL,
    approx,
    build_restriction,
    coset_min_direct,
    dist_to_half,
    gamma_table,
)
from lonely_runner.slices import diagonals, slice_structure
from lonely_runner.spectrum import class_setup
from lonely_runner.torus import normal_plane

F = Fraction

GOLDEN_PLANES = (STRIP_QUARTER, SECTOR_QUARTER, SECTOR_THIRD, FINITE_THREE_TENTHS, *TENTH_PLANES)


def argmin_pieces(f):
    """Exhaustive argmin as ('interval', a, b) and ('point', t) entries, sorted by start."""
    pieces = [("interval", a, b) for a, b in f.flat_pieces_at_min()]
    pieces += [("point", t) for t, _, _, _ in f.isolated_argmins()]
    return sorted(pieces, key=lambda p: p[1])


def test_dist_to_half():
    assert dist_to_half(F(1, 2)) == 0
    assert dist_to_half(0) == F(1, 2)
    assert dist_to_half(F(9, 4)) == F(1, 4)
    assert dist_to_half(F(-1, 3)) == F(1, 6)


def test_make_pwl_compresses_collinear():
    f = make_pwl([(0, F(1, 2)), (F(1, 4), F(1, 4)), (F(1, 2), 0), (F(3, 4), F(1, 4))])
    assert f.breakpoints == (F(0), F(1, 2))
    assert f.values == (F(1, 2), F(0))


def test_make_pwl_constant_normalizes():
    f = make_pwl([(F(1, 3), F(1, 5)), (F(2, 3), F(1, 5))])
    assert f.breakpoints == (F(0),)
    assert f.minimum == F(1, 5)
    assert argmin_pieces(f) == [("interval", F(0), F(1))]


def test_make_pwl_drops_collinear_points_random():
    # insert extra samples on the pieces of random circle PWLs: the result is
    # the same function, with a breakpoint exactly where the slope changes
    rng = random.Random(29)
    for _ in range(300):
        n = rng.randint(1, 6)
        ts = sorted({F(rng.randint(0, 47), 48) for _ in range(n)})
        vals = [F(rng.randint(0, 6), 12) for _ in ts]
        f = CirclePWL(tuple(ts), tuple(vals))
        samples = list(zip(ts, vals))
        for _ in range(rng.randint(0, 8)):
            t = F(rng.randint(0, 479), 480)
            samples.append((t, evaluate(f, t)))
        rng.shuffle(samples)
        g = make_pwl(samples)
        for k in range(96):
            assert evaluate(g, F(k, 96)) == evaluate(f, F(k, 96))
        for t, _ in samples:
            assert evaluate(g, t) == evaluate(f, t)
        if len(set(vals)) == 1:
            assert (g.breakpoints, g.values) == ((F(0),), (vals[0],))
            continue
        bps = g.breakpoints
        m = len(bps)
        assert m >= 2
        for i in range(m):
            t0 = bps[i - 1] - (1 if i == 0 else 0)
            t2 = bps[(i + 1) % m] + (1 if i == m - 1 else 0)
            left = (g.values[i] - g.values[i - 1]) / (bps[i] - t0)
            right = (g.values[(i + 1) % m] - g.values[i]) / (t2 - bps[i])
            assert left != right
            assert bps[i] in {t for t, _ in samples}


def test_evaluate_wraparound():
    f = CirclePWL((F(1, 4), F(3, 4)), (F(0), F(1, 2)))
    assert evaluate(f, F(1, 4)) == 0
    assert evaluate(f, F(1, 2)) == F(1, 4)
    assert evaluate(f, 0) == F(1, 4)
    assert evaluate(f, F(7, 8)) == F(3, 8)


def test_build_restriction_speeds_1123():
    f = build_restriction((0, 0, 0, 0), (1, 1, 2, 3))
    assert f.minimum == F(1, 4)
    assert argmin_pieces(f) == [("point", F(1, 4)), ("point", F(3, 4))]
    iso = {t: (lm, lp) for t, lm, lp, _ in f.isolated_argmins()}
    assert iso[F(1, 4)] == (F(1), F(3))
    assert iso[F(3, 4)] == (F(3), F(1))


def test_build_restriction_with_half_offsets():
    f = build_restriction((F(1, 2), F(1, 2), 0, 0), (1, 0, 1, 1))
    iso = {t: (lm, lp) for t, lm, lp, _ in f.isolated_argmins()}
    assert iso[F(1, 4)] == (F(1), F(1))
    assert f.minimum == F(1, 4)


def test_build_restriction_constant_coordinate_interval():
    f = build_restriction((0, F(1, 4), F(2, 4), F(3, 4)), (1, 0, 0, 0))
    assert f.minimum == F(1, 4)
    assert argmin_pieces(f) == [("interval", F(1, 4), F(3, 4))]


def test_build_restriction_zero_coordinate_caps_at_half():
    # the constant coordinate sits at 0, distance 1/2 from the half-center,
    # so the envelope is the constant 1/2
    f = build_restriction((0, 0), (1, 0))
    assert f.minimum == F(1, 2)
    assert argmin_pieces(f) == [("interval", F(0), F(1))]


def test_build_restriction_matches_pointwise_random():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 4)
        base = tuple(F(rng.randint(0, 7), 8) for _ in range(n))
        direction = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n))
        f = build_restriction(base, direction)
        for _ in range(40):
            t = F(rng.randint(0, 200), rng.randint(1, 40) * 5)
            expect = max(
                dist_to_half(base[k] + t * direction[k]) for k in range(n)
            )
            assert evaluate(f, t) == expect


def interval_walk_restriction(base, direction):
    """Reference envelope: sample at every coordinate kink and at every crossing of
    two coordinates' linear pieces inside a kink interval."""
    base = tuple(F(b) % 1 for b in base)
    n = len(base)

    def coord(k, t):
        return dist_to_half(base[k] + t * direction[k])

    kinks = set()
    for k, d in enumerate(direction):
        if d == 0:
            continue
        period = F(1, abs(d))
        for h in (F(0), F(1, 2)):
            t0 = ((h - base[k]) / d) % period
            kinks.update(t0 + i * period for i in range(abs(d)))
    bps = sorted(kinks)
    cross = set()
    for idx, t1 in enumerate(bps):
        t2 = bps[idx + 1] if idx + 1 < len(bps) else bps[0] + 1
        if t1 == t2:
            continue
        vals1 = [coord(k, t1) for k in range(n)]
        vals2 = [coord(k, t2) for k in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                sa = (vals2[a] - vals1[a]) / (t2 - t1)
                sb = (vals2[b] - vals1[b]) / (t2 - t1)
                if sa == sb:
                    continue
                ts = t1 + (vals1[b] - vals1[a]) / (sa - sb)
                if t1 < ts < t2:
                    cross.add(ts % 1)
    return make_pwl(
        [(t, max(coord(k, t) for k in range(n))) for t in sorted(kinks | cross)]
    )


def test_build_restriction_matches_interval_walk_random():
    rng = random.Random(19)
    for _ in range(300):
        n = rng.randint(1, 6)
        direction = (0,) * n
        while not any(direction):
            direction = tuple(rng.randint(-4, 4) for _ in range(n))
        base = tuple(F(rng.randint(0, 24), rng.randint(1, 12)) for _ in range(n))
        want = interval_walk_restriction(base, direction)
        assert build_restriction(base, direction) == want, (base, direction)


def restriction_denominator(base, direction):
    """D = 2*Q*lcm(|d|) over which build_restriction samples: Q the lcm of the base's
    denominators, d over the nonzero slopes of the events x_k = 0, 1/2 and x_a = +-x_b."""
    q = math.lcm(*(F(c).denominator for c in base))
    slopes = [*direction]
    slopes += [a + s * b for i, a in enumerate(direction) for b in direction[i + 1 :] for s in (1, -1)]
    return 2 * q * math.lcm(*(abs(d) for d in slopes if d))


def test_build_restriction_matches_interval_walk_big_denominators():
    # cases where the common denominator D is large: the slices of two planes with big
    # slopes, long directions with entries up to +-40 (n = 1 needs the x_k = 1/2 events,
    # which a pair event x_a = +-x_b supplies as soon as there are two coordinates), bases
    # over pairwise coprime denominators, and directions with zero entries
    cases = []
    for u, v in (((1, 0, 500), (0, 1, 500)), ((2, -2, 3), (0, -1, -3))):
        u, v = normal_plane(u, v)
        for i, j, eps in diagonals(len(u)):
            s = slice_structure(u, v, i, j, eps)
            cases += [(tuple(F(ell * c, s.K) for c in s.v_prime), s.u_prime) for ell in range(s.K)]
    rng = random.Random(31)
    for k in range(42):
        n = 1 + k % 7
        direction = (0,) * n
        while not any(direction):
            direction = tuple(rng.randint(-40, 40) for _ in range(n))
        cases.append((tuple(F(rng.randint(-30, 30), rng.randint(1, 15)) for _ in range(n)), direction))
    for _ in range(30):
        dens = rng.choice(((7, 9, 11), (4, 9, 25), (8, 15, 77), (13, 17, 19, 23)))
        base = tuple(F(rng.randrange(den), den) for den in dens)
        cases.append((base, tuple(rng.choice((-1, 1)) * rng.randint(1, 12) for _ in dens)))
    for _ in range(30):
        n = rng.randint(2, 6)
        zeros = rng.randint(1, n - 1)
        direction = [0] * zeros + [rng.choice((-1, 1)) * rng.randint(1, 25) for _ in range(n - zeros)]
        rng.shuffle(direction)
        cases.append((tuple(F(rng.randrange(24), rng.choice((2, 5, 6, 7))) for _ in range(n)), tuple(direction)))
    for base, direction in cases:
        assert build_restriction(base, direction) == interval_walk_restriction(base, direction), (base, direction)
    dens = [restriction_denominator(base, direction) for base, direction in cases]
    assert sum(d > 2**63 for d in dens) >= 3


def runwalk_minimum_structure(f):
    """Reference (flat pieces, isolated argmins) that assumes no canonical form: flat
    pieces are maximal runs of segments with both ends at the minimum, and an isolated
    minimum is a breakpoint at the minimum with neither adjacent segment flat."""
    bps, vals, m = f.breakpoints, f.values, f.minimum
    n = len(bps)
    flat = [True] if n == 1 else [vals[i] == m and vals[(i + 1) % n] == m for i in range(n)]
    pieces = [(F(0), F(1))] if all(flat) else []
    for i in range(n):
        if flat[i] and not flat[i - 1]:
            j = i
            while flat[j % n]:
                j += 1
            a, b = bps[i], bps[j % n]
            pieces.append((a, b + 1 if b <= a else b))
    iso = []
    for i in range(n):
        if vals[i] != m or flat[i] or flat[i - 1]:
            continue
        j = (i + 1) % n
        t, t_prev, t_next = bps[i], bps[i - 1] - (1 if i == 0 else 0), bps[j] + (1 if j == 0 else 0)
        lam_minus = (vals[i - 1] - m) / (t - t_prev)
        lam_plus = (vals[j] - m) / (t_next - t)
        iso.append((t, lam_minus, lam_plus, min(t - t_prev, t_next - t)))
    return pieces, iso


def assert_canonical(f):
    """The slope changes at every breakpoint, and a constant is the single breakpoint 0."""
    bps, vals = f.breakpoints, f.values
    n = len(bps)
    if n == 1:
        assert bps == (F(0),)
        return
    for i in range(n):
        t0 = bps[i - 1] - (1 if i == 0 else 0)
        t2 = bps[(i + 1) % n] + (1 if i == n - 1 else 0)
        left = (vals[i] - vals[i - 1]) * (t2 - bps[i])
        assert left != (vals[(i + 1) % n] - vals[i]) * (bps[i] - t0), (f, i)


def random_samples_pwl(rng):
    """make_pwl of random samples on a few levels, so that flat runs at the minimum,
    pieces across t = 0 and constants are common, with collinear samples added."""
    den = rng.choice([12, 48])
    ts = sorted({F(rng.randrange(den), den) for _ in range(rng.randint(1, 12))})
    levels = [F(k, 12) for k in rng.sample(range(7), rng.choice([1, 2, 2, 3]))]
    rough = CirclePWL(tuple(ts), tuple(rng.choice(levels) for _ in ts))
    samples = list(zip(rough.breakpoints, rough.values))
    for _ in range(rng.randint(0, 6)):
        t = F(rng.randrange(4 * den), 4 * den)
        samples.append((t, evaluate(rough, t)))
    rng.shuffle(samples)
    return make_pwl(samples)


def test_minimum_structure_matches_runwalk_random():
    rng = random.Random(41)
    seen = dict.fromkeys(["constant", "across_zero", "several_flats", "isolated", "both"], 0)
    for _ in range(3000):
        f = random_samples_pwl(rng)
        assert_canonical(f)
        flats, iso = f.flat_pieces_at_min(), f.isolated_argmins()
        assert (flats, iso) == runwalk_minimum_structure(f), f
        seen["constant"] += len(f.breakpoints) == 1
        seen["across_zero"] += any(b > 1 for _, b in flats)
        seen["several_flats"] += len(flats) > 1
        seen["isolated"] += bool(iso)
        seen["both"] += bool(flats and iso)
    assert min(seen.values()) >= 100, seen


def test_build_restriction_matches_interval_walk_golden_slices():
    for u, v in GOLDEN_PLANES:
        u, v = normal_plane(u, v)
        for i in range(len(u)):
            for j in range(i + 1, len(u)):
                for eps in (1, -1):
                    s = slice_structure(u, v, i, j, eps)
                    for ell in range(s.K):
                        base = tuple(F(ell * c, s.K) for c in s.v_prime)
                        want = interval_walk_restriction(base, s.u_prime)
                        got = build_restriction(base, s.u_prime)
                        assert got == want, (u, v, i, j, eps, ell)
                        # the minimum structure read off the canonical form is the run walk's
                        assert_canonical(got)
                        minima = (got.flat_pieces_at_min(), got.isolated_argmins())
                        assert minima == runwalk_minimum_structure(got), (u, v, i, j, eps, ell)


def test_restriction_steps_sums_build_restriction_events():
    # build_restriction samples |d| points of each event c + t*d: two per coordinate (x_k = 0
    # and 1/2) and two per pair of coordinates (x_a = x_b and x_a = -x_b)
    rng = random.Random(23)
    lengths = [rng.randint(1, 7) for _ in range(200)]
    directions = [tuple(rng.choice((0, rng.randint(-12, 12))) for _ in range(n)) for n in lengths]
    for u, v in (normal_plane(*plane) for plane in GOLDEN_PLANES):
        pairs = [(i, j) for i in range(len(u)) for j in range(i + 1, len(u))]
        directions += [slice_structure(u, v, *ij, eps).u_prime for ij in pairs for eps in (1, -1)]
    for d in directions:
        events = [*d, *d]
        events += [a + s * b for i, a in enumerate(d) for b in d[i + 1 :] for s in (1, -1)]
        assert pwl.restriction_steps(d) == sum(map(abs, events)), d


def test_reflect_matches_negated_direction():
    rng = random.Random(9)
    for _ in range(20):
        n = rng.randint(1, 4)
        base = tuple(F(rng.randint(0, 5), 6) for _ in range(n))
        direction = tuple(rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(n))
        neg = tuple(-d for d in direction)
        f = build_restriction(base, direction)
        reflected = make_pwl([(-t, v) for t, v in zip(f.breakpoints, f.values)])
        assert build_restriction(base, neg) == reflected


def approx_distances(tau, b, q):
    rm, rp, modulus = approx(tau, b, q)
    return F(rm, modulus * q), F(rp, modulus * q)


def test_approx_literals():
    assert approx_distances(F(1, 6), F(1, 3), 4) == (F(1, 12), F(1, 6))
    assert approx_distances(F(1, 2), F(0), 3) == (F(1, 6), F(1, 6))


def test_approx_equal_target_needs_integrality():
    # tau = b gives (0, 0) exactly when (q-1)*tau is an integer
    assert approx_distances(F(1, 3), F(1, 3), 4) == (0, 0)
    assert approx_distances(F(1, 3), F(1, 3), 2) == (F(1, 6), F(1, 3))


def test_approx_matches_direct_search_random():
    rng = random.Random(13)
    for _ in range(300):
        tau = F(rng.randint(0, 30), rng.randint(1, 12))
        b = F(rng.randint(0, 30), rng.randint(1, 12))
        q = rng.randint(1, 15)
        down, up = approx_distances(tau, b, q)
        assert down == ((q * tau - b) % 1) / q
        assert up == ((b - q * tau) % 1) / q
        assert down + up in (0, F(1, q))
        rm, rp, modulus = approx(tau, b, q)
        assert (rm + rp) in (0, modulus)


def test_coset_min_direct_constant():
    f = CirclePWL((F(0),), (F(1, 3),))
    assert coset_min_direct(f, F(1, 7), 5) == F(1, 3)


def grid_min(f, b, q):
    """Brute-force coset minimum: f evaluated at every one of the q points (b + r)/q."""
    return min(evaluate(f, (b + r) / F(q)) for r in range(q))


def hand_built_pwl(rng):
    """A CirclePWL built without make_pwl: random breakpoints and values, often with
    collinear breakpoints added on its pieces, or a single breakpoint anywhere."""
    den = rng.choice([5, 12, 60])
    if rng.random() < 0.15:
        return CirclePWL((F(rng.randrange(den), den),), (F(rng.randint(0, 6), 12),))
    ts = sorted({F(rng.randrange(den), den) for _ in range(rng.randint(2, 8))})
    f = CirclePWL(tuple(ts), tuple(F(rng.randint(0, 6), 12) for _ in ts))
    extra = {F(rng.randrange(7 * den), 7 * den) for _ in range(rng.randint(0, 4))} - set(ts)
    if not extra:
        return f
    pts = sorted([*zip(ts, f.values), *((t, evaluate(f, t)) for t in extra)])
    return CirclePWL(tuple(t for t, _ in pts), tuple(v for _, v in pts))


def test_coset_min_direct_matches_full_grid_random():
    rng = random.Random(53)
    seen = dict.fromkeys(
        ["restriction", "make_pwl", "hand_built", "collinear", "single", "b_negative", "b_den_big", "q_past_3n"], 0
    )
    for k in range(3300):
        kind = ("restriction", "make_pwl", "hand_built")[k % 3]
        if kind == "restriction":
            n = rng.randint(1, 3)
            direction = (0,) * n
            while not any(direction):
                direction = tuple(rng.randint(-3, 3) for _ in range(n))
            f = build_restriction(tuple(F(rng.randint(0, 11), 12) for _ in range(n)), direction)
        elif kind == "make_pwl":
            f = random_samples_pwl(rng)
        else:
            f = hand_built_pwl(rng)
        nb = len(f.breakpoints)
        den = rng.choice([1, 2, 7, 60, 10**6 + 3, 2**40])
        b = F(rng.randint(-3 * den, 3 * den), den)
        q = rng.randint(1, 4 * nb + 4)
        assert coset_min_direct(f, b, q) == grid_min(f, b, q), (f, b, q)
        seen[kind] += 1
        seen["collinear"] += nb > 1 and make_pwl(list(zip(f.breakpoints, f.values))) != f
        seen["single"] += nb == 1
        seen["b_negative"] += b < 0
        seen["b_den_big"] += b.denominator > 10**5
        seen["q_past_3n"] += q > 3 * nb
    assert min(seen.values()) >= 100, seen


def test_coset_min_direct_matches_full_grid_golden_windows():
    # every slice restriction of the goldens, against each offset it is read at: at every
    # q of that table's window equal to the Fraction walk, and at its q0 and last q to
    # the full grid; the critical ones are the tables built
    qs = 0
    for plane in GOLDEN_PLANES:
        setup = class_setup(*plane)
        windows = {c._coset_key(a): c.f for c in setup.comps for a in range(c.K)}
        tables = {c._coset_key(a) for c in setup.critical for a in range(c.K)}
        for key, f in windows.items():
            b = F(key[1], key[2])
            try:
                table = gamma_table(f, b)
            except UnsupportedRequest:
                assert key not in tables
                continue
            q0, last = table.q0, table.q0 + pwl.CHECK_PERIODS * table.modulus
            for q in range(q0, last + 1):
                assert coset_min_direct(f, b, q) == coset_min_fraction(f, b, q), (plane, key, q)
                qs += 1
            for q in (q0, last):
                assert coset_min_direct(f, b, q) == grid_min(f, b, q), (plane, key, q)
    assert qs >= 2000, qs


def test_coset_min_direct_matches_fraction_walk_big_denominators():
    # hand-built functions whose breakpoints have denominators up to 2^40 and beyond,
    # against offsets b with large or negative numerators and denominators and q up to
    # 10^9; the minimum must also be the wrap piece's least grid value in enough cases,
    # that piece's ends read pointwise (f is linear on it)
    rng = random.Random(67)
    dens = (2**40, 2**40 - 87, 3**25, 10**12 + 39, 720720)
    seen = dict.fromkeys(["den_2^40", "b_negative", "b_den_big", "q_big", "wrap_min", "single"], 0)
    for k in range(1500):
        den = rng.choice(dens)
        if k % 10 == 0:
            f = CirclePWL((F(rng.randrange(den), den),), (F(rng.randrange(den), 2 * den),))
        else:
            ts = sorted({F(rng.randrange(den), den) for _ in range(rng.randint(2, 9))})
            vden = rng.choice((12, den, 2**41 + 1))
            f = CirclePWL(tuple(ts), tuple(F(rng.randrange(vden // 2 + 1), vden) for _ in ts))
        bden = rng.choice((1, 3, 10**6 + 3, 2**40, 3**25 + 2))
        b = F(rng.randint(-5 * bden, 5 * bden), bden)
        q = rng.choice((rng.randint(1, 50), rng.randint(1, 10**9)))
        want = coset_min_fraction(f, b, q)
        assert coset_min_direct(f, b, q) == want, (f, b, q)
        bps = f.breakpoints
        first, last = math.ceil(q * bps[-1] - b), math.floor(q * (bps[0] + 1) - b)
        wrap = [evaluate(f, (r + b) / q) for r in {first, last} if first <= last]
        seen["den_2^40"] += max(t.denominator for t in bps) >= 2**40
        seen["b_negative"] += b < 0
        seen["b_den_big"] += b.denominator >= 10**6
        seen["q_big"] += q > 10**6
        seen["wrap_min"] += len(bps) > 1 and min(wrap, default=None) == want
        seen["single"] += len(bps) == 1
    assert min(seen.values()) >= 100, seen


def test_gamma_table_speeds_1123():
    f = build_restriction((0, 0, 0, 0), (1, 1, 2, 3))
    table = gamma_table(f, F(0))
    assert table.modulus == 4
    assert table.gamma[0] == 0
    assert table.gamma[1] == F(1, 4)
    assert table.gamma[3] == F(3, 4)


def test_gamma_table_flat_route():
    f = build_restriction((0, F(1, 4), F(2, 4), F(3, 4)), (1, 0, 0, 0))
    table = gamma_table(f, F(0))
    assert (table.modulus, table.gamma, table.q0) == (1, (F(0),), 2)
    for q in (2, 3, 7):
        assert coset_min_direct(f, F(0), q) == F(1, 4)


def test_gamma_table_selfcheck_budget_counts_piece_reads(monkeypatch):
    # each q of q0 .. q0 + CHECK_PERIODS * modulus reads every piece once, whatever q is
    f = build_restriction((0, 0, 0, 0), (1, 1, 2, 3))
    table = gamma_table(f, F(0))
    reads = (pwl.CHECK_PERIODS * table.modulus + 1) * len(f.breakpoints)
    real = pwl.approx
    monkeypatch.setattr(pwl, "SELFCHECK_BUDGET", reads - 1)
    monkeypatch.setattr(pwl, "approx", None)  # refused before any gamma is computed
    with pytest.raises(UnsupportedRequest, match="piece reads"):
        gamma_table(f, F(0))
    monkeypatch.setattr(pwl, "approx", real)
    monkeypatch.setattr(pwl, "SELFCHECK_BUDGET", reads)
    assert gamma_table(f, F(0)) == table


@pytest.mark.parametrize("residue, corrupt", [(r, "larger") for r in range(4)] + [(r, "zero") for r in (1, 2, 3)])
def test_gamma_table_selfcheck_rejects_one_wrong_residue(monkeypatch, residue, corrupt):
    # the table of speeds 1,1,2,3 has modulus 4 and gamma (0, 1/4, 1/2, 3/4); wrong
    # approx residues at one q mod 4, making that gamma larger or 0, fail the self-check
    f = build_restriction((0, 0, 0, 0), (1, 1, 2, 3))
    real = pwl.approx

    def wrong(tau, b, q):
        rm, rp, mod = real(tau, b, q)
        if q % 4 != residue:
            return rm, rp, mod
        return (rm + 1, rp + 1, mod) if corrupt == "larger" else (0, 0, mod)

    monkeypatch.setattr(pwl, "approx", wrong)
    with pytest.raises(RuntimeError, match="^gamma table self-check failed$"):
        gamma_table(f, F(0))


SMALLEST_STEP_TABLES = [
    ("speeds-1123", ((0, 0, 0, 0), (1, 1, 2, 3)), F(0)),
    ("offset-2/7", ((F(1, 2), F(1, 2), 0, 0), (1, 0, 1, 1)), F(2, 7)),
    ("sector-third", None, None),
]


@pytest.mark.parametrize("name, restriction, b", SMALLEST_STEP_TABLES, ids=[t[0] for t in SMALLEST_STEP_TABLES])
@pytest.mark.parametrize("k", [1, 2**40])
def test_gamma_table_selfcheck_rejects_smallest_gamma_step(monkeypatch, name, restriction, b, k):
    # approx residues scaled with their modulus by k, plus 1, raise one residue's gamma by
    # at most max(lambda)/(k*modulus), the least step over the table's denominators; the
    # self-check must see it at every residue
    if restriction is None:
        setup = class_setup(*SECTOR_THIRD)
        c = next(c for c in setup.critical if not c.f.flat_pieces_at_min() and c.K > 1)
        f, b = c.f, F(c.ell % c.K, c.K)
    else:
        f = build_restriction(*restriction)
    table = gamma_table(f, b)
    assert table.modulus > 1
    real = pwl.approx
    for residue in range(table.modulus):

        def nudged(tau, b, q):
            rm, rp, mod = real(tau, b, q)
            if q % table.modulus != residue:
                return rm, rp, mod
            return k * rm + 1, k * rp + 1, k * mod

        monkeypatch.setattr(pwl, "approx", nudged)
        with pytest.raises(RuntimeError, match="^gamma table self-check failed$"):
            gamma_table(f, b)
    monkeypatch.setattr(pwl, "approx", real)
    assert gamma_table(f, b) == table


def test_gamma_table_random_restrictions_certify():
    # construction self-checks a window; re-verify extra residues independently
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randint(1, 3)
        base = tuple(F(rng.randint(0, 3), 4) for _ in range(n))
        direction = tuple(rng.choice([-2, -1, 1, 2, 3]) for _ in range(n))
        f = build_restriction(base, direction)
        b = F(rng.randint(0, 5), rng.randint(1, 4))
        table = gamma_table(f, b)
        m = f.minimum
        for _ in range(5):
            q = rng.randint(table.q0, table.q0 + 6 * table.modulus)
            expect = m + table.gamma[q % table.modulus] / q
            assert coset_min_direct(f, b, q) == expect

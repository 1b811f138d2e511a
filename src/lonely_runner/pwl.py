"""Exact piecewise-linear functions on the circle: envelopes, minima, approximation residues, coset tables."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations

from ._kernels import UnsupportedRequest

HALF = Fraction(1, 2)
CHECK_PERIODS = 4  # a gamma table is compared with direct coset minima over this many periods past q0

# most pieces one gamma table's self-check may read, (CHECK_PERIODS * modulus + 1) times
# its breakpoints, counted before any gamma is computed: the benchmark's largest table
# reads 3,036 (2,-2,3;0,-1,-3, modulus 17, 44 pieces), the test suite's 36,640 and the
# largest of 600 seeded planes (n 3-4, entries -5..5) 95,790. On a 2-vCPU VM (Python
# 3.11) tables near the cap take 0.23 s with 82 pieces (modulus 3,600) and 1.0 s with 8
# (modulus 37,496), and one with 4 pieces and modulus 24,999 0.5 s: besides its pieces
# each q costs a call, one Fraction and the cross-multiplied check, and each residue an
# approx call, so few pieces make a read dearer
SELFCHECK_BUDGET = 1_200_000


def dist_to_half(y: Fraction | int) -> Fraction:
    """Circle distance from y to 1/2, i.e. |frac(y) - 1/2|."""
    return abs(Fraction(y) % 1 - HALF)


@dataclass(frozen=True)
class CirclePWL:
    """Continuous piecewise-linear function on R/Z given by sorted breakpoints and values."""

    breakpoints: tuple[Fraction, ...]
    values: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.breakpoints:
            raise ValueError("empty function")
        if len(self.breakpoints) != len(self.values):
            raise ValueError("breakpoint/value length mismatch")
        if any(not (0 <= t < 1) for t in self.breakpoints):
            raise ValueError("breakpoints must lie in [0,1)")
        if any(
            self.breakpoints[i] >= self.breakpoints[i + 1]
            for i in range(len(self.breakpoints) - 1)
        ):
            raise ValueError("breakpoints must be strictly increasing")

    @cached_property  # stored in __dict__, past the frozen __setattr__; eq and hash read fields
    def minimum(self) -> Fraction:
        return min(self.values)

    @cached_property
    def scaled(self) -> tuple[int, tuple[int, ...], int, tuple[int, ...]]:
        """(L, P, W, V): breakpoint i is P[i]/L and its value V[i]/W, over the lcm L of the
        breakpoints' denominators and the lcm W of the values'."""
        big = math.lcm(*(t.denominator for t in self.breakpoints))
        w = math.lcm(*(v.denominator for v in self.values))
        return (
            big,
            tuple(t.numerator * (big // t.denominator) for t in self.breakpoints),
            w,
            tuple(v.numerator * (w // v.denominator) for v in self.values),
        )

    def flat_pieces_at_min(self) -> list[tuple[Fraction, Fraction]]:
        """Maximal closed intervals (a, b), b <= a+1, on which f equals its minimum.

        Reads the canonical form build_restriction builds, with a breakpoint exactly where
        the slope changes: each piece is then one segment whose two ends sit at the minimum,
        and a constant is its single breakpoint 0, so the piece (0, 1). On a hand-built
        function with collinear breakpoints the pieces come unmerged, segment by segment.
        """
        bps, vals, m = self.breakpoints, self.values, self.minimum
        n = len(bps)
        return [
            (bps[i], bps[(i + 1) % n] + (i + 1 == n))
            for i in range(n)
            if vals[i] == m == vals[(i + 1) % n]
        ]

    def isolated_argmins(self) -> list[tuple[Fraction, Fraction, Fraction, Fraction]]:
        """Entries (t, lambda_minus, lambda_plus, rho) for each isolated minimum point:
        a breakpoint at the minimum whose two neighbours lie above it."""
        bps, vals, m = self.breakpoints, self.values, self.minimum
        n = len(bps)
        out = []
        for i in range(n):
            j = (i + 1) % n
            if vals[i] != m or vals[i - 1] == m or vals[j] == m:
                continue
            t = bps[i]
            t_prev = bps[i - 1] - (i == 0)
            t_next = bps[j] + (j == 0)
            rho = min(t - t_prev, t_next - t)
            out.append((t, (vals[i - 1] - m) / (t - t_prev), (vals[j] - m) / (t_next - t), rho))
        return out


def build_restriction(
    base: tuple[Fraction | int, ...], direction: tuple[int, ...]
) -> CirclePWL:
    """Upper envelope of t -> |{base_k + t*dir_k} - 1/2| over all coordinates.

    The envelope can bend only where some x_k = 0 or 1/2 mod 1 (a coordinate's own
    kinks) or x_a = +-x_b mod 1 (two coordinates tie). Each such event is c + t*d in Z;
    with d != 0 its solutions mod 1 are t = (m - c)/d, m = 0..|d|-1. With Q the lcm of
    the base's denominators, D = 2*Q*lcm(|d|) makes every solution T/D and the envelope
    there V/(2D) for integers T and V, so the samples are sorted and compressed as
    integer pairs, and only the breakpoints kept, where the slope changes, become Fractions.
    """
    if len(base) != len(direction):
        raise ValueError("base/direction length mismatch")
    if all(d == 0 for d in direction):
        raise ValueError("degenerate direction")
    base = [Fraction(c) for c in base]
    q = math.lcm(*(c.denominator for c in base))
    coords = [(c.numerator * (q // c.denominator), d) for c, d in zip(base, direction)]
    # (N, d) of each event N/(2Q) + t*d in Z
    events = [(2 * c - h, d) for c, d in coords for h in (0, q)]
    events += [
        (2 * (ca + s * cb), da + s * db)
        for (ca, da), (cb, db) in combinations(coords, 2)
        for s in (1, -1)
    ]
    events = [(n, d) for n, d in events if d]
    big = 2 * q * math.lcm(*(abs(d) for _, d in events))
    ts = set()
    for n, d in events:
        # the T = (2Q*m - N)*(D // (2Q*d)) mod D, m = 0..|d|-1, are the residues of
        # -N*(D // (2Q*d)) mod D // |d|
        step = big // abs(d)
        ts.update(range(-n * (big // (2 * q * d)) % step, big, step))
    # V = |2*x_k*D mod 2D - D|, with 2*x_k*D = 2*C_k*D/Q + 2*T*d_k and C_k = base_k*Q
    lines = [(2 * c * (big // q), 2 * d) for c, d in coords]
    ts = sorted(ts)
    vs = [max(abs((a + t * d) % (2 * big) - big) for a, d in lines) for t in ts]
    if len(set(vs)) == 1:
        return CirclePWL((Fraction(0),), (Fraction(vs[0], 2 * big),))
    # a point stays iff the slope changes there, its neighbours across t = 0 shifted by a
    # period; dropping a collinear point leaves its neighbours' slopes unchanged
    ts, vs = [ts[-1] - big, *ts, ts[0] + big], [vs[-1], *vs, vs[0]]
    kept = [
        i for i in range(1, len(ts) - 1)
        if (vs[i] - vs[i - 1]) * (ts[i + 1] - ts[i]) != (vs[i + 1] - vs[i]) * (ts[i] - ts[i - 1])
    ]
    return CirclePWL(tuple(Fraction(ts[i], big) for i in kept), tuple(Fraction(vs[i], 2 * big) for i in kept))


def restriction_steps(direction: tuple[int, ...]) -> int:
    """Samples build_restriction takes along direction, the sum of |d| over its events: 2*|d_k|
    per coordinate and |d_a + d_b| + |d_a - d_b| = 2*max(|d_a|, |d_b|) per pair of them."""
    return 2 * sum((k + 1) * c for k, c in enumerate(sorted(map(abs, direction))))


def approx(tau: Fraction, b: Fraction, q: int) -> tuple[int, int, int]:
    """Residues (r_minus, r_plus, modulus): the nearest points of (b + Z)/q lie
    r_minus/(modulus*q) below tau and r_plus/(modulus*q) above it. Both residues are
    taken mod modulus, so tau and b count only mod 1."""
    if q < 1:
        raise ValueError("q must be positive")
    w, x = tau.numerator, tau.denominator
    y, z = b.numerator, b.denominator
    g = math.gcd(x, z)
    mod = x * z // g
    rm = ((w * z * q - x * y) // g) % mod
    rp = (-((w * z * q - x * y) // g)) % mod
    return rm, rp, mod


def coset_min_direct(f: CirclePWL, b: Fraction, q: int) -> Fraction:
    """Exact minimum of f over the grid (b + Z)/q, q points mod 1.

    In the coordinate s = q*t - b the grid points are the integers, and f is linear on
    each piece [s0, s1] between adjacent breakpoints (the last piece wraps past 1). A
    piece's least grid value sits at its first integer ceil(s0) when it rises and at its
    last integer floor(s1) when it falls, so each piece gives at most one candidate, and
    none when that integer lies outside it or both its ends lie at or above the best so
    far: O(breakpoints) work, whatever q is. With L and W the denominators of f.scaled
    and M = lcm(L, den b), every s is an integer over M and each candidate, a value
    times W, is num/den with den > 0, so the walk runs in integers and compares
    candidates by cross-multiplication; only the result becomes a Fraction.
    """
    if q < 1:
        raise ValueError("q must be positive")
    big, ps, w, vs = f.scaled
    big_m = math.lcm(big, b.denominator)
    step, off = q * (big_m // big), b.numerator * (big_m // b.denominator)
    # no grid value lies above max(vs), so a piece flat at it needs no visit
    best_n, best_d = max(vs), 1
    for p0, p1, v0, v1 in zip(ps, (*ps[1:], ps[0] + big), vs, (*vs[1:], vs[0])):
        if (v0 if v0 < v1 else v1) * best_d >= best_n:
            continue
        s0, s1 = step * p0 - off, step * p1 - off
        if v1 >= v0:
            r = -(-s0 // big_m) * big_m
            if r > s1:
                continue
        else:
            r = s1 // big_m * big_m
            if r < s0:
                continue
        den = s1 - s0
        num = v0 * den + (v1 - v0) * (r - s0)
        if num * best_d < best_n * den:
            best_n, best_d = num, den
    return Fraction(best_n, best_d * w)


@dataclass(frozen=True)
class GammaTable:
    """Coset-minimum table: min of f over (b+Z)/q equals min + gamma[q % modulus]/q for q >= q0."""

    modulus: int
    gamma: tuple[Fraction, ...]
    q0: int


def gamma_table(f: CirclePWL, b: Fraction) -> GammaTable:
    """Build the coset-minimum table of f against the family (b + Z)/q, certified by the
    direct coset minimum at every q of q0 .. q0 + CHECK_PERIODS * modulus. A table whose
    self-check would read more than SELFCHECK_BUDGET pieces is refused before any gamma
    is computed; that count also bounds the modulus * |argmins| approx calls."""
    m = f.minimum
    b = Fraction(b) % 1
    flats = f.flat_pieces_at_min()
    if flats:
        q0, mod = math.ceil(1 / max(bb - aa for aa, bb in flats)), 1
    else:
        iso = f.isolated_argmins()
        mod = math.lcm(b.denominator, *[t.denominator for t, _, _, _ in iso])
        rho_min = min(rho for _, _, _, rho in iso)
        lam_max = max(max(lm, lp) for _, lm, lp, _ in iso)
        # every minimum is isolated here, so the breakpoints above the minimum are
        # exactly those outside the argmin neighbourhoods
        d0 = min(v for v in f.values if v > m) - m
        q0 = max(math.ceil(1 / rho_min), math.floor(lam_max / d0) + 1)
    if (CHECK_PERIODS * mod + 1) * len(f.breakpoints) > SELFCHECK_BUDGET:
        raise UnsupportedRequest(f"gamma table self-check needs more than {SELFCHECK_BUDGET} piece reads")
    if flats:
        gammas = [Fraction(0)]
    else:
        # over the lcm lam of the slopes' denominators, argmin t gives gamma candidates
        # min(sm*rm, sp*rp)/(lam*res_mod), and each residue's least becomes one Fraction
        lam = math.lcm(*(x.denominator for _, lm, lp, _ in iso for x in (lm, lp)))
        slopes = [
            (t, lm.numerator * (lam // lm.denominator), lp.numerator * (lam // lp.denominator))
            for t, lm, lp, _ in iso
        ]
        gammas = []
        for res_q in range(mod):
            gn = gd = None
            for t, sm, sp in slopes:
                rm, rp, res_mod = approx(t, b, res_q or mod)  # residue 0 is read at q = mod
                n = min(sm * rm, sp * rp)
                if gn is None or n * gd < gn * res_mod:
                    gn, gd = n, res_mod
            gammas.append(Fraction(gn, gd * lam))
    table = GammaTable(mod, tuple(gammas), q0)
    # direct == m + gamma/q, with m = mn/md and gamma = gn/gd, cross-multiplied as
    # direct.numerator * md*gd*q == direct.denominator * (mn*gd*q + gn*md)
    mn, md = m.numerator, m.denominator
    ints = [(g.numerator * md, g.denominator) for g in gammas]
    for q in range(q0, q0 + CHECK_PERIODS * mod + 1):
        direct = coset_min_direct(f, b, q)
        gn, gd = ints[q % mod]
        if direct.numerator * md * gd * q != direct.denominator * (mn * gd * q + gn):
            raise RuntimeError("gamma table self-check failed")
    return table

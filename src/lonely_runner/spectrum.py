"""Order-1 relative spectrum pipeline: residue classes, sectors, half-lines, certification."""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cmp_to_key
from fractions import Fraction
from itertools import combinations

from ._kernels import UnsupportedRequest
from .exact import Vec, gcd_ext, orient, primitive_kernel
from .pwl import CirclePWL, coset_min_direct, gamma_table
from .slices import check_plane_budget, diagonals, slice_structure
from .torus import normal_plane, oracle_sweep

WITNESS_RANGE = 11  # progression indices 0..10 are checked for witnesses
DEFAULT_BOUND = 200  # certification box bound when none is given

# most class records one analysis may build: 3.1x the test suite's most (79,800 half-line
# records on 1,1,-3,0,-2;-1,-3,-2,1,2) and 868x the benchmark's (288); on a 2-vCPU VM a
# half-line record takes about 8 us and a sector class about 35 us (3,3,3,-3;3,4,-3,1), so
# the largest analysis allowed builds its records in about 9 s
CLASS_BUDGET = 250_000


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


@dataclass(frozen=True)
class Component:
    """Connected component of a diagonal slice with its transverse linear forms."""

    i: int
    j: int
    eps: int
    ell: int
    K: int
    E: int
    F: int
    A1: int
    A3: int
    f: CirclePWL
    rid: int  # number of f among the setup's distinct restrictions

    def _coset_key(self, a: int) -> tuple[int, int, int]:
        """(rid, numerator, denominator) of the coset offset a*ell/K mod 1 in lowest terms."""
        g = math.gcd(a * self.ell, self.K)
        return self.rid, a * self.ell % self.K // g, self.K // g

    def q_of(self, A: int, B: int) -> int:
        return self.E * A + self.F * B

    def a_of(self, A: int, B: int) -> int:
        return self.A1 * A + self.A3 * B

    @property
    def key(self) -> tuple[int, int, int, int]:
        return self.i, self.j, self.eps, self.ell


@dataclass
class ClassSetup:
    """Per-subtorus slice data shared by every spectrum route."""

    u: Vec
    v: Vec
    d_value: Fraction
    comps: tuple[Component, ...]
    critical: tuple[Component, ...]
    m2: Fraction | None
    flats: tuple[Component, ...]
    _tables: dict = field(default_factory=dict, repr=False)
    _minima: dict = field(default_factory=dict, repr=False)
    _m_prime: int | None = field(default=None, repr=False)

    def table(self, comp: Component, a: int):
        """Certified gamma table for one component at parameter residue a, shared by every
        component with the same restriction and offset."""
        key = comp._coset_key(a)
        if key not in self._tables:
            self._tables[key] = gamma_table(comp.f, Fraction(key[1], key[2]))
        return self._tables[key]

    def minimum(self, comp: Component, A: int, B: int) -> Fraction:
        """Direct coset minimum of comp at (A, B), shared by equal (restriction, offset, |q|)."""
        q = comp.q_of(A, B)
        assert q != 0, "constant form vanishing off the origin line"
        key = (*comp._coset_key(_sign(q) * comp.a_of(A, B)), abs(q))
        if key not in self._minima:
            self._minima[key] = coset_min_direct(comp.f, Fraction(key[1], key[2]), abs(q))
        return self._minima[key]

    def coset(self, comp: Component, A: int, B: int, sign: int) -> tuple[Fraction, int]:
        """(gamma, q0) of comp's coset minima at the pair sign*(A, B)."""
        tab = self.table(comp, sign * comp.a_of(A, B))
        return tab.gamma[sign * comp.q_of(A, B) % tab.modulus], tab.q0

    @property
    def m_prime(self) -> int:
        """Common residue modulus: the lcm of every critical gamma table's modulus, that is of
        the critical K values and the argmin denominators of the critical restrictions not
        flat at their minimum, since each offset's denominator divides its K. No table is
        built here."""
        if self._m_prime is None:
            fs = [c.f for c in self.critical if not c.f.flat_pieces_at_min()]
            dens = [t.denominator for f in fs for t, _, _, _ in f.isolated_argmins()]
            self._m_prime = math.lcm(*(c.K for c in self.critical), *dens)
        return self._m_prime


def class_setup(u: Vec, v: Vec) -> ClassSetup:
    """Normalise the plane and collect every slice component ell <= K // 2 (component
    K - ell mirrors it and has the same coset minima) with its linear forms, numbering
    the distinct restrictions so that equal ones share their gamma tables."""
    u, v = normal_plane(u, v)
    check_plane_budget(u, v)
    comps: list[Component] = []
    rids: dict[CirclePWL, int] = {}
    for i, j, eps in diagonals(len(u)):
        s = slice_structure(u, v, i, j, eps)
        z1, z2, z3, z4 = s.z
        for ell, f in enumerate(s.restrictions):
            rid = rids.setdefault(f, len(rids))
            comps.append(Component(i, j, eps, ell, s.K, z2, z4, z1, z3, f, rid))
    minima = [c.f.minimum for c in comps]
    d = min(minima)
    critical = tuple(c for c, m in zip(comps, minima) if m == d)
    rest = [m for m in minima if m > d]
    m2 = min(rest) if rest else None
    flats = tuple(c for c in critical if c.f.flat_pieces_at_min())
    return ClassSetup(u, v, d, tuple(comps), critical, m2, flats)


@dataclass(frozen=True)
class LineClassRecord:
    """Outcome of one residue class along a half-line; the class is the record's index in
    its half-line's list, and the modulus is the list's length."""

    outcome: str  # noncoprime | hit | constant | base | family
    gamma: Fraction | None = None
    slope: int | None = None
    const: int | None = None
    s0: int = 0
    winner: tuple | None = None


@dataclass(frozen=True)
class SectorRecord:
    """Winning offset form on one merged sector, shared by the residue classes with equal
    coset gammas."""

    start_ray: tuple[int, int]
    end_ray: tuple[int, int]
    kappa: int
    gamma: Fraction | None = None
    form: tuple[int, int] | None = None
    winner: tuple | None = None


@dataclass(frozen=True)
class Progression:
    """Values d + 1/(alpha*s + beta) for s = 0, 1, 2, ... with oracle-checked witnesses."""

    alpha: Fraction
    beta: Fraction
    witnesses: tuple = ()
    unwitnessed: tuple = ()


@dataclass(frozen=True)
class SpectrumDescription:
    """Certified structure of the order-1 relative spectrum of one subtorus."""

    d_value: Fraction
    progressions: tuple[Progression, ...]
    base_value_attained: bool
    exceptional_values: tuple
    certified_bound: int


def halfline_analysis(
    setup: ClassSetup, base: tuple[int, int], direction: tuple[int, int]
) -> list[LineClassRecord]:
    """Classify every residue class along base + t*direction, t >= 0: one record per
    residue mod lcm(m', det), in residue order."""
    bA, bB = base
    dA, dB = direction
    det = abs(bA * dB - bB * dA)
    if det == 0:
        # line through the origin: at most one primitive parameter pair
        return []
    d = setup.d_value
    # non-critical constant-q components are floored by m2, so only critical
    # ones need exact coset values; their K already divides m_prime
    const_comps = [c for c in setup.critical if c.q_of(dA, dB) == 0]
    mt = math.lcm(setup.m_prime, det)
    # a growing component's q, signed to grow, is ch = qb + res*step at t = res and
    # ch + ph*s at t = res + mt*s, with slope ph = step*mt
    growing = []
    for c in setup.critical:
        qd = c.q_of(dA, dB)
        if qd != 0:
            sg = _sign(qd)
            growing.append((c, sg, sg * c.q_of(bA, bB), abs(qd), abs(qd) * mt))
    # the floor m2 - d as (numerator, denominator), when there is an m2
    dn, dd = d.numerator, d.denominator
    m2 = setup.m2
    m2_floor = [] if m2 is None else [(m2.numerator * dd - dn * m2.denominator, m2.denominator * dd)]
    # (q0 - ch) * (ph_lcm // ph) orders the thresholds (q0 - ch) / ph in integers
    ph_lcm = math.lcm(*(g[4] for g in growing))
    records = []
    for res in range(mt):
        A0, B0 = bA + res * dA, bB + res * dB
        if math.gcd(A0, B0) != 1:
            records.append(LineClassRecord("noncoprime"))
            continue
        consts = [setup.minimum(c, A0, B0) for c in const_comps]
        if consts and min(consts) == d:
            records.append(LineClassRecord("hit"))
            continue
        if not growing:
            records.append(LineClassRecord("constant"))
            continue
        cands = []
        for c, sg, qb, step, ph in growing:
            gam, q0 = setup.coset(c, A0, B0, sg)
            cands.append((c, gam, ph, qb + res * step, q0))
        zero = [t for t in cands if t[1] == 0]
        if zero:
            c, gam, ph, ch, q0 = min(zero, key=lambda t: (t[4] - t[3]) * (ph_lcm // t[2]))
            s0 = max(0, -((ch - q0) // ph))
            records.append(LineClassRecord("base", s0=s0, winner=c.key))
            continue
        # every gamma is now n/m > 0, so the comparisons below cross-multiply integers
        cw, gw, pw, c0w, _ = _halfline_winner(cands)
        wn, wm = gw.numerator, gw.denominator
        s0 = 0
        for c, gam, ph, ch, q0 in cands:
            s0 = max(s0, -((ch - q0) // ph))
            if c is cw:
                continue
            n, m = gam.numerator, gam.denominator
            # coeff = gw*ph - gam*pw and gam*c0w - gw*ch are k and (n*c0w*wm - wn*ch*m)
            # over wm*m, so the ceiling of their ratio is a floor division by k
            k = wn * ph * m - n * pw * wm
            if k < 0:
                s0 = max(s0, -((wn * ch * m - n * c0w * wm) // k))
        # each floor fa/fb = v - d, and (gw/fl - c0w)/pw = (wn*fb - c0w*wm*fa)/(wm*fa*pw)
        floors = [(v.numerator * dd - dn * v.denominator, v.denominator * dd) for v in consts] + m2_floor
        for fa, fb in floors:
            s0 = max(s0, -((c0w * wm * fa - wn * fb) // (wm * fa * pw)))
        rec = LineClassRecord("family", gamma=gw, slope=pw, const=c0w, s0=s0, winner=cw.key)
        records.append(rec)
    return records


def _halfline_winner(cands: list[tuple]) -> tuple:
    """The first of cands (c, gamma, slope, q, q0), each gamma n/m > 0, with the greatest
    (slope/gamma, q/gamma), compared by cross-multiplication."""
    win = cands[0]
    wn, wm = win[1].numerator, win[1].denominator
    for t in cands[1:]:
        n, m = t[1].numerator, t[1].denominator
        by_slope = t[2] * m * wn - win[2] * wm * n
        if by_slope > 0 or (by_slope == 0 and t[3] * m * wn > win[3] * wm * n):
            win, wn, wm = t, n, m
    return win


def _clockwise(r1: tuple[int, int], r2: tuple[int, int]) -> int:
    """Negative when ray r1 comes before r2 clockwise from (0, 1); both have A > 0."""
    return r1[0] * r2[1] - r1[1] * r2[0]


def _mediant_winner(forms: list[tuple], da: int, db: int) -> tuple:
    """The (E, F, g, n, m) of forms, gamma g = n/m, whose (g/q, g, E, F) is least over
    those with q = E*da + F*db > 0, compared by cross-multiplication."""
    best = None
    for form in forms:
        E, F, _, n, m = form
        q = E * da + F * db
        assert q != 0, "kernel ray crosses a sector interior"
        if q <= 0:
            continue
        if best is not None:
            # n/(m*q) against bn/(bm*bq), then n/m against bn/bm, then (E, F)
            if (n * bm * bq - bn * m * q, n * bm - bn * m, (E, F)) > (0, 0, best[:2]):
                continue
        best, bn, bm, bq = form, n, m, q
    return best


def sector_decomposition(setup: ClassSetup, gammas: tuple) -> tuple[SectorRecord, ...]:
    """Merged sector records of the residue classes mod m_prime whose coset gammas are
    gammas, one per critical component and sign (+1, then -1). Each distinct signed offset
    form (E, F, gamma) is labelled by the first component giving it."""
    forms: dict[tuple, tuple] = {}
    for (c, dl), g in zip(((c, dl) for c in setup.critical for dl in (1, -1)), gammas):
        forms.setdefault((dl * c.E, dl * c.F, g), c.key)
    # primitive_kernel orients its ray into A > 0, or gives (0, 1)
    rays = {(0, 1), (0, -1)} | {primitive_kernel(c.E, c.F) for c in setup.critical}
    live = [(E, F, g.numerator, g.denominator) for E, F, g in forms if g]
    for (E1, F1, n1, m1), (E2, F2, n2, m2) in combinations(live, 2):
        # the forms tie where (gamma2 * (E1, F1) - gamma1 * (E2, F2)) . (A, B) = 0
        pe, pf = n2 * m1 * E1 - n1 * m2 * E2, n2 * m1 * F1 - n1 * m2 * F2
        if pe or pf:
            rays.add(primitive_kernel(pe, pf))
    # (0, 1) and (0, -1) bound the half-plane A >= 0 that holds every other ray
    ordered = [(0, 1), *sorted((r for r in rays if r[0]), key=cmp_to_key(_clockwise)), (0, -1)]
    cands = [(E, F, g, g.numerator, g.denominator) for E, F, g in forms]
    recs = []
    for r1, r2 in zip(ordered, ordered[1:]):
        E, F, gw, _, _ = _mediant_winner(cands, r1[0] + r2[0], r1[1] + r2[1])
        if gw == 0:
            recs.append(SectorRecord(r1, r2, 0, winner=forms[E, F, gw]))
        else:
            recs.append(SectorRecord(r1, r2, 1, gamma=gw, form=(E, F), winner=forms[E, F, gw]))
    merged = [recs[0]]
    for r in recs[1:]:
        p = merged[-1]
        if (p.kappa, p.gamma, p.form) == (r.kappa, r.gamma, r.form):
            merged[-1] = replace(p, end_ray=r.end_ray)
        else:
            merged.append(r)
    if len({r.kappa for r in merged}) != 1:
        raise RuntimeError("kappa dichotomy violated within a residue class")
    return tuple(merged)


def normalize_beta(alpha: Fraction, beta: Fraction, d: Fraction) -> Fraction:
    """Smallest offset congruent to beta mod alpha whose value stays below 1/2."""
    bar = 2 / (1 - 2 * d)
    r = beta % alpha
    if r == 0:
        r = alpha
    if r <= bar:
        r += alpha * (math.floor((bar - r) / alpha) + 1)
    return r


def progression_index(
    d: Fraction, alpha: Fraction, beta: Fraction, value: Fraction
) -> int | None:
    """Index s with value = d + 1/(alpha*s + beta), or None when value is not a member."""
    if value <= d:
        return None
    s = (1 / (value - d) - beta) / alpha
    return int(s) if s.denominator == 1 and s >= 0 else None


def classify_value(
    d: Fraction, fams: list[tuple[Fraction, Fraction]], value: Fraction | None
) -> str:
    """Part of a description holding value: improper (None), base, the first listed
    progression(alpha,beta) that contains it, or exceptional."""
    if value is None:
        return "improper"
    if value == d:
        return "base"
    for a, b in fams:
        if progression_index(d, a, b, value) is not None:
            return f"progression({a},{b})"
    return "exceptional"


def _absorb(fams: list[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    """Drop families whose value sets are contained in another listed family. (a1, b1)
    holds (a2, b2) exactly when a2/a1 is a positive integer and b1 <= b2 with b1 = b2 mod
    a1, so for each listed a1 dividing a2 only the least listed b1 of b2's class counts."""
    least: dict = {}
    by_num: dict = {}
    for a, b in fams:
        least[a, b % a] = min(least.get((a, b % a), b), b)
        by_num.setdefault(a.numerator, set()).add(a)
    # a1 = n1/d1 divides a2 = n2/d2, both in lowest terms, exactly when n1 | n2 and d2 | d1
    divisors = {}
    for a2 in {a for a, _ in fams}:
        n2, d2 = a2.numerator, a2.denominator
        nums = {k for j in range(1, math.isqrt(n2) + 1) if n2 % j == 0 for k in (j, n2 // j)}
        divisors[a2] = [a1 for n in nums for a1 in by_num.get(n, ()) if a1.denominator % d2 == 0]
    # a1 <= a2, so (b1, a1) < (b2, a2) unless the family is (a2, b2) itself
    return [
        (a2, b2)
        for a2, b2 in fams
        if not any((least.get((a1, b2 % a1), b2 + 1), a1) < (b2, a2) for a1 in divisors[a2])
    ]


def _value_index(sweep: dict) -> dict:
    """Least in-box pair of each swept value."""
    index: dict = {}
    for pair, val in sweep.items():
        if val is not None:
            index[val] = min(pair, index.get(val, pair))
    return index


def _witnesses(d: Fraction, alpha: Fraction, beta: Fraction, index: dict):
    wit = []
    unwit = []
    for s in range(WITNESS_RANGE):
        val = d + 1 / (alpha * s + beta)
        if val in index:
            wit.append((s, *index[val]))
        else:
            unwit.append((s, "no witness within certification bound"))
    return tuple(wit), tuple(unwit)


def _coprime_classes(m: int) -> int:
    """Classes (aleph, beth) mod m with gcd(aleph, beth, m) = 1: J_2(m) = m^2 * prod(1 - p^-2)."""
    n, p = m * m, 2
    while m > 1:
        if p * p > m:
            p = m  # no factor of m is below p, so m is prime
        if m % p == 0:
            n = n // (p * p) * (p * p - 1)
            while m % p == 0:
                m //= p
        p += 1
    return n


class SpectrumAnalysis:
    """One pass of the finite calculation: flat strips, the half-lines inside the strip,
    then sector residue classes. route names the stage whose records the plane needs:
    lines (one flat direction), finite (two flat directions pin the exceptional region
    in a box) or sector (no flat component). classes is the number of records the pass
    builds, counted in closed form before any is built."""

    def __init__(self, u: Vec, v: Vec):
        self.setup = s = class_setup(u, v)
        self.flat_lines: list = []
        self.sector_records: dict = {}
        self.flat_form: tuple[int, int] | None = None
        forms = {orient(c.E, c.F) for c in s.flats}
        self.route = ("sector", "lines", "finite")[min(len(forms), 2)]
        if self.route == "lines":
            E, F = self.flat_form = forms.pop()
            # the strip |E*A + F*B| < q0 holds every pair no flat component settles
            strip = min(s.table(c, 0).q0 for c in s.flats)
            # the two half-lines at level c hold one record per residue mod lcm(m', c)
            self.classes = 2 * sum(math.lcm(s.m_prime, c) for c in range(1, strip))
        else:
            self.classes = _coprime_classes(s.m_prime) if self.route == "sector" else 0
        if self.classes > CLASS_BUDGET:
            raise UnsupportedRequest(f"analysis needs more than {CLASS_BUDGET} class records")
        # every family record gives (alpha, beta) = (slope, const) / gamma: (slope, const)
        # on a half-line, (m', c0) on a sector of class (aleph, beth), where c0 = form .
        # (aleph, beth) mod m', or m' when that is 0. They are collected as integers (gamma's
        # numerator and denominator, slope, const), so each distinct family is divided once
        raw: set[tuple[int, int, int, int]] = set()
        # a formula reaches d on a flat component's strip or on a kappa-0 sector
        self.base_reachable = bool(s.flats)
        if self.route == "lines":
            g, x, y = gcd_ext(E, F)
            assert g == 1
            dirv = primitive_kernel(E, F)
            for c in range(1, strip):
                base = (x * c, y * c)
                for dd in (dirv, (-dirv[0], -dirv[1])):
                    recs = halfline_analysis(s, base, dd)
                    self.flat_lines.append((c, base, dd, recs))
                    for r in recs:
                        if r.outcome == "family":
                            raw.add((r.gamma.numerator, r.gamma.denominator, r.slope, r.const))
        elif self.route == "sector":
            mp = s.m_prime
            # the sectors depend on a class only through its coset gammas
            shared: dict[tuple, tuple[SectorRecord, ...]] = {}
            for aleph in range(mp):
                for beth in range(mp):
                    if math.gcd(math.gcd(aleph, beth), mp) != 1:
                        continue
                    gams = tuple(
                        s.coset(c, aleph, beth, dl)[0] for c in s.critical for dl in (1, -1)
                    )
                    recs = shared.get(gams)
                    if recs is None:
                        recs = shared[gams] = sector_decomposition(s, gams)
                        # the kappa dichotomy: every record of a class shares its kappa
                        self.base_reachable |= recs[0].kappa == 0
                    self.sector_records[(aleph, beth)] = recs
                    for r in recs:
                        if r.kappa == 1:
                            c0 = (r.form[0] * aleph + r.form[1] * beth) % mp or mp
                            raw.add((r.gamma.numerator, r.gamma.denominator, mp, c0))
        self.families = {(Fraction(a * gd, gn), Fraction(b * gd, gn)) for gn, gd, a, b in raw}

    def description(self, certify_bound: int = DEFAULT_BOUND) -> SpectrumDescription:
        s = self.setup
        d = s.d_value
        fams = sorted({(a, normalize_beta(a, b, d)) for a, b in self.families})
        fams = _absorb(fams)
        # every line of the box lies in the plane, so its scan may stop at the plane's d
        sweep = oracle_sweep(s.u, s.v, certify_bound, floor=d)
        index = _value_index(sweep)
        progs = []
        for a, b in fams:
            wit, unwit = _witnesses(d, a, b, index)
            progs.append(Progression(a, b, wit, unwit))
        base_att = d in index or self.base_reachable
        exceptional = [
            (val, index[val])
            for val in sorted(index)
            if classify_value(d, fams, val) == "exceptional"
        ]
        return SpectrumDescription(d, tuple(progs), base_att, tuple(exceptional), certify_bound)

    def predict(self, A: int, B: int) -> Fraction | None:
        """Formula value of D at (A, B) when above every validity threshold, else None:
        a flat strip's base value, then the strip half-line record, then the sector record."""
        s = self.setup
        d = s.d_value
        if A < 0 or math.gcd(A, B) != 1:
            return None
        if any(A * a + B * b == 0 for a, b in zip(s.u, s.v)):
            return None
        for c in s.flats:
            if abs(c.q_of(A, B)) >= s.table(c, 0).q0:
                return d
        if self.flat_lines:
            E, F = self.flat_form
            qf = E * A + F * B
            if qf != 0:
                # (sg*A, sg*B) - base lies in the kernel of (E, F), so it is t*dirv
                sg = _sign(qf)
                i = 2 * (abs(qf) - 1)
                _, (bA, bB), (da, db), _ = self.flat_lines[i]
                t = (sg * A - bA) // da if da else (sg * B - bB) // db
                recs = self.flat_lines[i + (t < 0)][3]
                sidx, res = divmod(abs(t), len(recs))
                rec = recs[res]
                if rec.outcome == "hit" or (rec.outcome == "base" and sidx >= rec.s0):
                    return d
                if rec.outcome == "family" and sidx >= rec.s0:
                    return d + rec.gamma / (rec.slope * sidx + rec.const)
                return None
        if A == 0 or not self.sector_records:
            return None
        for c in s.critical:
            q = c.q_of(A, B)
            if q == 0:
                return None
            if abs(q) < s.coset(c, A, B, _sign(q))[1]:
                return None
        mp = s.m_prime
        recs = self.sector_records.get((A % mp, B % mp))
        if recs is None:
            return None
        for r in recs:
            r1, r2 = r.start_ray, r.end_ray
            if r1[0] * B - r1[1] * A <= 0 and A * r2[1] - B * r2[0] <= 0:
                if r.kappa == 0:
                    return d
                qw = r.form[0] * A + r.form[1] * B
                off = r.gamma / qw
                if s.m2 is not None and off > s.m2 - d:
                    return None
                return d + off
        return None


def relative_spectrum(u: Vec, v: Vec, certify_bound: int = DEFAULT_BOUND) -> SpectrumDescription:
    """Certified description of the order-1 relative spectrum of span(u, v)."""
    return SpectrumAnalysis(u, v).description(certify_bound)


@dataclass(frozen=True)
class CertifyReport:
    """Classification of every in-box oracle value against a spectrum description."""

    bound: int
    total: int
    improper: int
    base_count: int
    progression_counts: tuple[int, ...]
    exceptional: tuple


def classify_pairs(u: Vec, v: Vec, description: SpectrumDescription, bound: int):
    """Yield (A, B, value, label) for every in-box pair; label names the matching description
    part, and depends only on the value, so each distinct value is classified once."""
    sweep = oracle_sweep(*normal_plane(u, v), bound)
    fams = [(p.alpha, p.beta) for p in description.progressions]
    labels: dict = {}
    for (A, B), val in sorted(sweep.items()):
        if val not in labels:
            labels[val] = classify_value(description.d_value, fams, val)
        yield A, B, val, labels[val]


def certify(u: Vec, v: Vec, description: SpectrumDescription, bound: int) -> CertifyReport:
    """Sweep the parameter box and classify each exact D value against the description."""
    counts: Counter = Counter()
    exceptional: dict = {}
    for A, B, val, label in classify_pairs(u, v, description, bound):
        counts[label] += 1
        if label == "exceptional":
            exceptional.setdefault(val, (A, B))
    progression_counts = tuple(
        counts[f"progression({p.alpha},{p.beta})"] for p in description.progressions
    )
    return CertifyReport(
        bound,
        counts.total(),
        counts["improper"],
        counts["base"],
        progression_counts,
        tuple(sorted(exceptional.items())),
    )

"""End-to-end acceptance checks: one PASS or FAIL line per numbered criterion."""

import math
import random
from fractions import Fraction as Fr

from goldens import (
    FAMILY_SHALLOW,
    FAMILY_STEEP,
    FINITE_THREE_TENTHS,
    SECTOR_QUARTER,
    SECTOR_TENTH_A,
    SECTOR_TENTH_B,
    SECTOR_THIRD,
    STRIP_QUARTER,
    STRIP_TENTH_A,
    STRIP_TENTH_B,
    TENTH_PLANES,
)
from pointwise import plane_coords
from lonely_runner.catalog import enumerate_2d_subtori
from lonely_runner.exact import saturate_plane
from lonely_runner.locus import LocusElement, finiteness, zero_locus
from lonely_runner.pwl import approx, coset_min_direct, gamma_table, make_pwl
from lonely_runner.slices import slice_structure
from lonely_runner.spectrum import (
    SpectrumAnalysis,
    certify,
    normalize_beta,
    progression_index,
)
from lonely_runner.torus import (
    canonicalize_symmetry,
    d_line_oracle,
    d_plane,
    oracle_sweep,
    plane_proper,
)

FAILS = 0


def ok_line(ok, label, detail=""):
    global FAILS
    tag = "PASS" if ok else "FAIL"
    if not ok:
        FAILS += 1
    left = f"{label:<76}"
    tail = f"  {detail}" if detail else ""
    print(f"{tag:4}  {left}{tail}")
    return ok


_ANALYSES = {}
_DESCRIPTIONS = {}


def analysis(plane):
    if plane not in _ANALYSES:
        _ANALYSES[plane] = SpectrumAnalysis(*plane)
    return _ANALYSES[plane]


def description_at(plane, bound):
    key = (plane, bound)
    if key not in _DESCRIPTIONS:
        _DESCRIPTIONS[key] = analysis(plane).description(bound)
    return _DESCRIPTIONS[key]


def box_values(plane, bound):
    ana = analysis(plane)
    sweep = oracle_sweep(ana.setup.u, ana.setup.v, bound)
    return {v for v in sweep.values() if v is not None}


def scaled_type(d, p, q, r):
    """Normalized family type whose values are d + p/(5*(q*t + r))."""
    alpha, beta = Fr(5 * q, p), Fr(5 * r, p)
    return alpha, normalize_beta(alpha, beta, d)


# Progression rows on the flat half-lines, keyed by (level, residue of the
# running coordinate mod 5*level); the value (p, q, r) encodes the scaled
# progression p/(q*t + r) of 5*(D - 1/10) along that residue class.
FLAT_ROWS = {
    STRIP_TENTH_A: {
        (1, 0): (2, 5, 1),
        (1, 2): (1, 5, 3),
        (1, 3): (3, 5, 4),
        (2, 1): (1, 10, 3),
        (2, 9): (2, 10, 11),
        (3, 5): (1, 15, 8),
        (3, 10): (1, 15, 13),
    },
    STRIP_TENTH_B: {
        (1, 0): (4, 5, 2),
        (1, 1): (3, 5, 4),
        (1, 4): (2, 5, 6),
        (2, 3): (3, 10, 9),
        (2, 7): (2, 10, 11),
        (3, 5): (2, 15, 11),
        (3, 10): (2, 15, 16),
    },
}

# Scaled progressions emitted per residue class mod 5, one row per class, as
# an unordered multiset of rows; each row is a set of (p, r) with scaled
# progression p/(5t + r).  Matched content-wise, not by class key.
SECTOR_ROWS = {
    SECTOR_TENTH_A: [((2, 1), (3, 4))] * 10 + [((1, 3), (3, 4))] * 10 + [()] * 4,
    SECTOR_TENTH_B: [((1, 3), (2, 1))] * 10
    + [((2, 1), (3, 4), (4, 2))] * 10
    + [()] * 4,
}


def flat_row_types(plane):
    """Map (level, residue) of each flat-line family to its normalized type."""
    ana = analysis(plane)
    s = ana.setup
    rows = {}
    for _, base, dd, recs in ana.flat_lines:
        mt = len(recs)
        for res, rec in enumerate(recs):
            if rec.outcome != "family":
                continue
            alpha, beta = rec.slope / rec.gamma, rec.const / rec.gamma
            typ = (alpha, normalize_beta(alpha, beta, s.d_value))
            # sample two points of the class to pin level and residue; the
            # rows cover the side with positive running coordinate, and the
            # mirror side repeats the same lines reflected
            for t in (res + mt * rec.s0, res + mt * (rec.s0 + 1)):
                pair = (base[0] + t * dd[0], base[1] + t * dd[1])
                w = tuple(pair[0] * a + pair[1] * b for a, b in zip(s.u, s.v))
                ap, bp = plane_coords(w, *plane)
                if ap < 0 or (ap == 0 and bp < 0):
                    ap, bp = -ap, -bp
                if ap <= 0:
                    return None
                if bp < 0:
                    continue
                key = (ap, bp % (5 * ap))
                if rows.setdefault(key, typ) != typ:
                    return None
    return rows


def criterion_1():
    for n in range(1, 9):
        if d_line_oracle(tuple(range(1, n + 1))) != Fr(1, 2) - Fr(1, n + 1):
            return False, f"consecutive speeds fail at n={n}"
    for s in range(1, 51):
        got = d_line_oracle((8, 4 * s + 3, 4 * s + 11, 4 * s + 19))
        if got != Fr(1, 4) + Fr(1, 16 * s + 60):
            return False, f"four-speed family fails at s={s}"
    return True, "58 exact line identities"


def criterion_2():
    notes = []
    cases = (
        (STRIP_QUARTER, (Fr(16), Fr(20)), ()),
        (SECTOR_QUARTER, (Fr(8), Fr(12)), (0, 2)),
    )
    for plane, fam, unwit_ok in cases:
        desc = description_at(plane, 300)
        if desc.d_value != Fr(1, 4) or not desc.base_value_attained:
            return False, "base value wrong or unattained"
        fams = tuple((p.alpha, p.beta) for p in desc.progressions)
        if fams != (fam,):
            return False, f"progression set {fams}"
        prog = desc.progressions[0]
        seen = {s for s, _, _ in prog.witnesses} | {s for s, _ in prog.unwitnessed}
        if not seen or seen != set(range(len(seen))):
            return False, "certified indices not contiguous from 0"
        if {s for s, _ in prog.unwitnessed} - set(unwit_ok):
            return False, f"unexpected unwitnessed indices {prog.unwitnessed}"
        for v in box_values(plane, 300):
            if v != Fr(1, 4) and progression_index(Fr(1, 4), *fam, v) is None:
                notes.append(f"flag: stray value {v}")
        rep = certify(*plane, desc, 300)
        if rep.exceptional:
            notes.append(f"flag: {len(rep.exceptional)} exceptional values")
        elif rep.total != rep.improper + rep.base_count + sum(rep.progression_counts):
            return False, "certification partition leaks"
        if rep.base_count == 0 or not all(rep.progression_counts):
            return False, "certification misses base or family values"
    detail = "; ".join(notes) if notes else "both spectra certified to 300"
    return True, detail


def criterion_3():
    d = Fr(1, 10)
    want = {
        STRIP_TENTH_A: {FAMILY_SHALLOW, (Fr(25, 2), Fr(15))},
        STRIP_TENTH_B: {FAMILY_STEEP, FAMILY_SHALLOW},
        SECTOR_TENTH_A: {FAMILY_SHALLOW, (Fr(25, 2), Fr(15))},
        SECTOR_TENTH_B: {FAMILY_STEEP, FAMILY_SHALLOW},
    }
    flags = set()
    above = set()
    for plane in TENTH_PLANES:
        desc = description_at(plane, 300)
        fams = {(p.alpha, p.beta) for p in desc.progressions}
        if fams != want[plane]:
            return False, f"family set {sorted(fams)} for plane {plane}"
        flags |= {str(val) for val, _ in desc.exceptional_values}
        above |= {v for v in box_values(plane, 300) if v > d}
    for v in sorted(above):
        if progression_index(d, *FAMILY_STEEP, v) is None and (
            progression_index(d, *FAMILY_SHALLOW, v) is None
        ):
            return False, f"value {v} escapes both maximal families"
    for s in range(41):
        for scale, q, r in ((Fr(4, 5), 5, 7), (Fr(3, 5), 5, 9)):
            if d + scale / (q * s + r) not in above:
                return False, f"family value at index {s} not realized in the box"
    for plane, rows in FLAT_ROWS.items():
        got = flat_row_types(plane)
        wanted = {k: scaled_type(d, p, q, r) for k, (p, q, r) in rows.items()}
        if got != wanted:
            return False, f"flat-line rows differ for plane {plane}"
    for plane, rows in SECTOR_ROWS.items():
        ana = analysis(plane)
        mp = ana.setup.m_prime
        mine = []
        for (aleph, beth), recs in ana.sector_records.items():
            row = set()
            for r in recs:
                if r.kappa == 1:
                    # (alpha, beta) = (m', c0) / gamma, c0 = form . (aleph, beth) mod m'
                    c0 = (r.form[0] * aleph + r.form[1] * beth) % mp or mp
                    row.add((mp / r.gamma, normalize_beta(mp / r.gamma, c0 / r.gamma, d)))
            mine.append(tuple(sorted(row)))
        mine.sort()
        wanted = sorted(
            tuple(sorted({scaled_type(d, p, 5, r) for p, r in row})) for row in rows
        )
        if mine != wanted:
            return False, f"sector rows differ for plane {plane}"
    detail = "14 flat-line rows, 48 sector rows, union certified to 300"
    if flags:
        detail += f"; flagged exceptional values {sorted(flags)}"
    return True, detail


def criterion_4():
    third = Fr(1, 3)
    desc = description_at(SECTOR_THIRD, 150)
    fams = {(p.alpha, p.beta) for p in desc.progressions}
    # the two families scaled by 1/6: denominators 6*(6s+11) and 6*(6s+7)
    expected = {
        (Fr(36), normalize_beta(Fr(36), Fr(66), third)),
        (Fr(36), normalize_beta(Fr(36), Fr(42), third)),
    }
    if fams != expected:
        return False, f"family set {sorted(fams)}"
    ana = analysis(SECTOR_THIRD)
    sweep = oracle_sweep(ana.setup.u, ana.setup.v, 150)
    for pair, val in (((5, 1), third + Fr(1, 66)), ((6, 5), third + Fr(1, 102))):
        w = tuple(pair[0] * a + pair[1] * b for a, b in zip(*SECTOR_THIRD))
        ap, bp = plane_coords(w, ana.setup.u, ana.setup.v)
        if ap < 0 or (ap == 0 and bp < 0):
            ap, bp = -ap, -bp
        if sweep.get((ap, bp)) != val:
            return False, f"certified value at {pair} is {sweep.get((ap, bp))}"
        if all(progression_index(third, a, b, val) is None for a, b in fams):
            return False, f"value at {pair} not covered by the families"
    return True, "both spot values found; both 1/6-scaled families emitted"


def criterion_5():
    got3 = set(enumerate_2d_subtori(3, Fr(1, 10)))
    want3 = {canonicalize_symmetry(*p) for p in TENTH_PLANES}
    got4 = set(enumerate_2d_subtori(4, Fr(1, 4)))
    want4 = {canonicalize_symmetry(*p) for p in (STRIP_QUARTER, SECTOR_QUARTER)}
    if got3 != want3:
        return False, "tight planes at 1/10 differ"
    if got4 != want4:
        return False, "tight planes at 1/4 differ"
    return True, f"{len(got3)} planes at 1/10, {len(got4)} planes at 1/4"


def criterion_6():
    u, v = FINITE_THREE_TENTHS
    expected = {
        LocusElement("point", (Fr(k, 5), Fr(k, 5))) for k in (1, 2, 3, 4)
    }
    for a in (Fr(2, 5), Fr(3, 5)):
        for lo, hi in ((Fr(1, 5), Fr(4, 15)), (Fr(11, 15), Fr(4, 5))):
            expected.add(LocusElement("segment", (a, lo), (a, hi), (0, 1)))
            expected.add(LocusElement("segment", (lo, a), (hi, a), (1, 0)))
    got = set(zero_locus(u, v))
    if got != expected:
        return False, f"zero locus has {len(got)} elements, expected 12"
    rep = finiteness(u, v)
    if rep.verdict != "finite":
        return False, f"finiteness verdict {rep.verdict}"
    vals_200 = box_values(FINITE_THREE_TENTHS, 200)
    vals_100 = box_values(FINITE_THREE_TENTHS, 100)
    need = {Fr(3, 10), Fr(7, 22), Fr(11, 34), Fr(17, 54), Fr(23, 74)}
    if not need <= vals_200:
        return False, f"missing certified values {sorted(need - vals_200)}"
    if vals_200 != vals_100:
        return False, f"new values in the last half: {sorted(vals_200 - vals_100)}"
    return True, f"12 locus elements; {len(vals_200)} values stable from 100 to 200"


def _random_fraction(rng, num_span, den_max):
    return Fr(rng.randrange(-num_span, num_span + 1), rng.randrange(1, den_max + 1))


def _suite_approx(rng, trials):
    for _ in range(trials):
        q = rng.randrange(1, 25)
        tau = _random_fraction(rng, 40, 24)
        b = _random_fraction(rng, 40, 24)
        pts = [Fr(b + r, q) for r in range(q)]
        down = min((tau - p) % 1 for p in pts)
        up = min((p - tau) % 1 for p in pts)
        rm, rp, modulus = approx(tau, b, q)
        if (Fr(rm, modulus * q), Fr(rp, modulus * q)) != (down, up):
            return f"approx distances differ at tau={tau} b={b} q={q}"
        if (q * tau - Fr(rm, modulus) - b) % 1 != 0:
            return f"lower residue wrong at tau={tau} b={b} q={q}"
        if (q * tau + Fr(rp, modulus) - b) % 1 != 0:
            return f"upper residue wrong at tau={tau} b={b} q={q}"
    return None


def _suite_gamma(rng, trials):
    for _ in range(trials):
        k = rng.randrange(2, 5)
        xs = sorted(rng.sample(range(6), k))
        f = make_pwl([(Fr(x, 6), Fr(rng.randrange(0, 9), 4)) for x in xs])
        b = rng.choice((Fr(0), Fr(1, 2), Fr(1, 3), Fr(2, 3)))
        gt = gamma_table(f, b)
        for q in range(gt.q0, gt.q0 + 4 * gt.modulus + 1):
            want = f.minimum + gt.gamma[q % gt.modulus] / q
            if coset_min_direct(f, b, q) != want:
                return f"gamma table wrong at q={q} for {f.breakpoints}"
    return None


def _suite_unimodular(rng, planes):
    done = 0
    while done < planes:
        n = rng.randrange(3, 6)
        u = tuple(rng.randrange(-4, 5) for _ in range(n))
        v = tuple(rng.randrange(-4, 5) for _ in range(n))
        try:
            su, sv = saturate_plane(u, v)
        except ValueError:
            continue
        if not plane_proper(su, sv):
            continue
        done += 1
        for i in range(n):
            for j in range(i + 1, n):
                for eps in (1, -1):
                    try:
                        s = slice_structure(su, sv, i, j, eps)
                    except ValueError:
                        continue
                    z1, z2, z3, z4 = s.z
                    if abs(z1 * z4 - z2 * z3) != 1:
                        return f"non-unimodular slice {(i, j, eps)} of {(su, sv)}"
    return None


def _suite_symmetry(rng, transforms):
    planes = [
        STRIP_QUARTER,
        SECTOR_QUARTER,
        SECTOR_THIRD,
        FINITE_THREE_TENTHS,
    ] + list(TENTH_PLANES)
    for u, v in planes:
        base = d_plane(u, v)
        n = len(u)
        for _ in range(transforms):
            perm = list(range(n))
            rng.shuffle(perm)
            signs = [rng.choice((1, -1)) for _ in range(n)]
            pu = tuple(signs[k] * u[perm[k]] for k in range(n))
            pv = tuple(signs[k] * v[perm[k]] for k in range(n))
            if d_plane(pu, pv) != base:
                return f"distance changed under signed permutation of {(u, v)}"
    return None


def _suite_predict():
    covered = proper = 0
    for plane in (STRIP_QUARTER, SECTOR_QUARTER, SECTOR_TENTH_A, SECTOR_TENTH_B):
        ana = analysis(plane)
        sweep = oracle_sweep(ana.setup.u, ana.setup.v, 300)
        for (A, B), val in sweep.items():
            if val is not None:
                proper += 1
            pred = ana.predict(A, B)
            if pred is None:
                continue
            if pred != val:
                return f"formula value {pred} vs oracle {val} at {(A, B)}", 0, 0
            covered += 1
    return None, covered, proper


def criterion_7():
    rng = random.Random(70301)
    bad = _suite_approx(rng, 10_000)
    if bad:
        return False, bad
    bad = _suite_gamma(rng, 1_000)
    if bad:
        return False, bad
    bad = _suite_unimodular(rng, 100)
    if bad:
        return False, bad
    bad = _suite_symmetry(rng, 3)
    if bad:
        return False, bad
    bad, covered, proper = _suite_predict()
    if bad:
        return False, bad
    if covered == 0:
        return False, "formula covers no in-box pairs"
    return True, f"all suites pass; formulas cover {covered}/{proper} proper pairs"


CRITERIA = (
    ("criterion 1: line oracle identities", criterion_1),
    ("criterion 2: quarter-base spectra certified to 300", criterion_2),
    ("criterion 3: tenth-base union and every table row", criterion_3),
    ("criterion 4: third-base spot values and families", criterion_4),
    ("criterion 5: tight-plane enumeration", criterion_5),
    ("criterion 6: zero locus, finiteness, stable value set", criterion_6),
    ("criterion 7: property suites", criterion_7),
)


def _run(index):
    label, fn = CRITERIA[index]
    ok, detail = fn()
    assert ok_line(ok, label, detail), detail


def test_criterion_1():
    _run(0)


def test_criterion_2():
    _run(1)


def test_criterion_3():
    _run(2)


def test_criterion_4():
    _run(3)


def test_criterion_5():
    _run(4)


def test_criterion_6():
    _run(5)


def test_criterion_7():
    _run(6)


def main():
    for label, fn in CRITERIA:
        ok, detail = fn()
        ok_line(ok, label, detail)
    return 1 if FAILS else 0


if __name__ == "__main__":
    raise SystemExit(main())

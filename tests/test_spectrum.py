"""Tests for residue-class analysis and relative spectrum descriptions."""

import hashlib
import math
import random
import time
from fractions import Fraction as Fr

import pytest

from goldens import (
    FINITE_THREE_TENTHS,
    SECTOR_QUARTER,
    SECTOR_TENTH_A,
    SECTOR_TENTH_B,
    SECTOR_THIRD,
    STRIP_QUARTER,
    STRIP_TENTH_A,
    STRIP_TENTH_B,
)
from pointwise import halfline_winner, mediant_winner
from lonely_runner import spectrum
from lonely_runner._kernels import UnsupportedRequest
from lonely_runner.pwl import build_restriction, coset_min_direct, gamma_table
from lonely_runner.slices import slice_structure
from lonely_runner.spectrum import (
    SpectrumAnalysis,
    SpectrumDescription,
    _absorb,
    certify,
    class_setup,
    classify_pairs,
    classify_value,
    halfline_analysis,
    normalize_beta,
    progression_index,
    relative_spectrum,
)
from lonely_runner.torus import normal_plane, oracle_sweep

GENERIC = ((2, -2, 3), (0, -1, -3))

GOLDEN_PLANES = (
    STRIP_QUARTER,
    SECTOR_QUARTER,
    STRIP_TENTH_A,
    STRIP_TENTH_B,
    SECTOR_TENTH_A,
    SECTOR_TENTH_B,
    SECTOR_THIRD,
    FINITE_THREE_TENTHS,
)


def sector_rows(records, cls, m_prime):
    """Project the sector records of residue class cls onto the fields that define the
    winning offsets: kappa, gamma, form and c0 = form . cls mod m_prime (m_prime for 0)."""
    rows = []
    for r in records:
        c0 = None
        if r.kappa == 1:
            c0 = (r.form[0] * cls[0] + r.form[1] * cls[1]) % m_prime or m_prime
        rows.append((r.kappa, r.gamma, r.form, c0))
    return rows


def line_family(rec):
    """Unnormalized (alpha, beta) of a half-line family record."""
    return rec.slope / rec.gamma, rec.const / rec.gamma


def interior_rays(records):
    """Boundary rays between merged sectors, excluding the vertical half-plane edges."""
    return [r.start_ray for r in records if r.start_ray[0] != 0]


def miss_residues(records):
    """Residues (record indices) along a flat half-line that no direct hit settles."""
    return tuple(i for i, r in enumerate(records) if r.outcome in ("family", "base", "constant"))


def halfline_modulus(setup, base, direction):
    """lcm(m', det): the modulus of the residue classes along a half-line."""
    return math.lcm(setup.m_prime, abs(base[0] * direction[1] - base[1] * direction[0]))


def test_class_setup_base_values():
    cases = [
        (STRIP_QUARTER, Fr(1, 4), 4),
        (SECTOR_QUARTER, Fr(1, 4), 4),
        (STRIP_TENTH_A, Fr(1, 10), 5),
        (STRIP_TENTH_B, Fr(1, 10), 5),
        (SECTOR_TENTH_A, Fr(1, 10), 5),
        (SECTOR_TENTH_B, Fr(1, 10), 5),
        (SECTOR_THIRD, Fr(1, 3), 6),
    ]
    for (u, v), d, m_prime in cases:
        s = class_setup(u, v)
        assert s.d_value == d
        assert s.m_prime == m_prime
    assert class_setup(*FINITE_THREE_TENTHS).d_value == Fr(3, 10)


def test_class_setup_rejects_improper_plane():
    with pytest.raises(ValueError):
        class_setup((1, 0, 0), (0, 1, 0))


def test_classify_pairs_rejects_improper_plane():
    desc = SpectrumDescription(Fr(1, 4), (), True, (), 5)
    with pytest.raises(ValueError, match="improper subtorus"):
        next(classify_pairs((1, 2, 0), (2, 3, 0), desc, 5))


def test_routes():
    assert SpectrumAnalysis(*STRIP_QUARTER).route == "lines"
    assert SpectrumAnalysis(*SECTOR_QUARTER).route == "sector"
    assert SpectrumAnalysis(*STRIP_TENTH_A).route == "lines"
    assert SpectrumAnalysis(*SECTOR_TENTH_B).route == "sector"
    assert SpectrumAnalysis(*SECTOR_THIRD).route == "sector"
    assert SpectrumAnalysis(*FINITE_THREE_TENTHS).route == "finite"


def test_flat_shortcut_shapes():
    ana = SpectrumAnalysis(*STRIP_QUARTER)
    lines = ana.flat_lines
    assert [(base, dd, len(recs), miss_residues(recs)) for _, base, dd, recs in lines] == [
        ((1, 0), (0, 1), 4, (0,)),
        ((1, 0), (0, -1), 4, (0,)),
    ]
    for _, base, dd, recs in lines:
        assert len(recs) == halfline_modulus(ana.setup, base, dd)
    assert SpectrumAnalysis(*SECTOR_QUARTER).flat_lines == []
    assert SpectrumAnalysis(*FINITE_THREE_TENTHS).flat_lines == []


def test_flat_shortcut_miss_residues():
    expect_a = {1: (0, 2, 3), 2: (1, 9), 3: (5, 10), 4: ()}
    expect_b = {1: (0, 1, 4), 2: (3, 7), 3: (5, 10), 4: ()}
    for (u, v), expect in [(STRIP_TENTH_A, expect_a), (STRIP_TENTH_B, expect_b)]:
        ana = SpectrumAnalysis(u, v)
        lines = ana.flat_lines
        assert len(lines) == 8
        for c, base, dd, recs in lines:
            assert abs(base[0]) == c
            assert len(recs) == 5 * c == halfline_modulus(ana.setup, base, dd)
            assert miss_residues(recs) == expect[c]


def test_halfline_records_strip_quarter():
    s = class_setup(*STRIP_QUARTER)
    recs = halfline_analysis(s, (1, 0), (0, 1))
    assert [r.outcome for r in recs] == ["family", "hit", "hit", "hit"]
    fam = recs[0]
    assert line_family(fam) == (16, 4)
    assert (fam.gamma, fam.slope, fam.const) == (Fr(1, 4), 4, 1)
    assert normalize_beta(*line_family(fam), s.d_value) == 20


def test_halfline_records_sector_third():
    s = class_setup(*SECTOR_THIRD)
    recs = halfline_analysis(s, (6, 5), (0, 1))
    assert [r.outcome for r in recs] == [
        "family", "noncoprime", "family", "noncoprime", "noncoprime", "noncoprime",
    ]
    assert line_family(recs[0]) == (36, 102)
    assert line_family(recs[2]) == (36, 186)
    assert normalize_beta(36, 102, Fr(1, 3)) == 30
    assert normalize_beta(36, 186, Fr(1, 3)) == 42


def test_halfline_zero_direction_rejected():
    s = class_setup(*STRIP_QUARTER)
    assert halfline_analysis(s, (1, 0), (2, 0)) == []


SECTOR_QUARTER_TABLE = {
    (0, 1): ([(4, -3)], [(1, Fr(1, 4), (2, 1), 1), (1, Fr(1, 4), (-1, -3), 1)]),
    (0, 3): ([(4, -1)], [(1, Fr(1, 4), (2, 3), 1), (1, Fr(1, 4), (1, -1), 1)]),
    (1, 0): (
        [(1, 0), (1, -4)],
        [(1, Fr(1, 4), (1, 3), 1), (1, Fr(1, 4), (1, -1), 1), (1, Fr(1, 2), (-2, -3), 2)],
    ),
    (1, 3): (
        [(1, 3), (1, -1)],
        [(1, Fr(1, 2), (1, 3), 2), (1, Fr(1, 4), (2, 1), 1), (1, Fr(1, 4), (-2, -3), 1)],
    ),
    (2, 1): (
        [(2, 1), (2, -1), (2, -3)],
        [
            (1, Fr(1, 4), (1, 3), 1),
            (1, Fr(1, 4), (2, 1), 1),
            (1, Fr(1, 4), (1, -1), 1),
            (1, Fr(1, 4), (-2, -3), 1),
        ],
    ),
    (2, 3): ([(2, -1)], [(1, Fr(1, 4), (2, 3), 1), (1, Fr(1, 4), (-1, -3), 1)]),
    (3, 0): (
        [(1, 0), (7, -4)],
        [(1, Fr(1, 2), (2, 3), 2), (1, Fr(1, 2), (2, 1), 2), (1, Fr(1, 4), (-1, -3), 1)],
    ),
    (3, 1): (
        [(7, -3), (1, -1)],
        [(1, Fr(1, 4), (2, 3), 1), (1, Fr(1, 2), (1, -1), 2), (1, Fr(1, 2), (-1, -3), 2)],
    ),
}


@pytest.mark.parametrize(
    "plane, route, classes",
    [
        (SECTOR_QUARTER, "sector", 12),
        (STRIP_QUARTER, "lines", 8),
        (STRIP_TENTH_A, "lines", 100),
        (GENERIC, "sector", 288),
        (FINITE_THREE_TENTHS, "finite", 0),
    ],
)
def test_class_count_matches_records(plane, route, classes):
    ana = SpectrumAnalysis(*plane)
    assert ana.route == route
    built = len(ana.sector_records) + sum(len(recs) for *_, recs in ana.flat_lines)
    assert ana.classes == built == classes


@pytest.mark.parametrize("plane", [SECTOR_QUARTER, STRIP_TENTH_A], ids=["sector", "lines"])
def test_class_budget_refuses_before_any_record(plane, monkeypatch):
    classes = SpectrumAnalysis(*plane).classes
    monkeypatch.setattr(spectrum, "CLASS_BUDGET", classes)
    assert SpectrumAnalysis(*plane).classes == classes

    def no_records(*args):
        raise AssertionError("record built past the class budget")

    monkeypatch.setattr(spectrum, "CLASS_BUDGET", classes - 1)
    monkeypatch.setattr(spectrum, "halfline_analysis", no_records)
    monkeypatch.setattr(spectrum, "sector_decomposition", no_records)
    with pytest.raises(UnsupportedRequest, match=f"more than {classes - 1} class records"):
        SpectrumAnalysis(*plane)


def test_halfline_minima_one_per_distinct_read(monkeypatch):
    # the 100 half-line records of STRIP_TENTH_A read 60 direct minima of their
    # constant components, 20 of them distinct; gamma tables call pwl's own name
    calls = []

    def counting(f, b, q):
        calls.append((f, b, q))
        return coset_min_direct(f, b, q)

    monkeypatch.setattr(spectrum, "coset_min_direct", counting)
    ana = SpectrumAnalysis(*STRIP_TENTH_A)
    s = ana.setup
    reads = []
    for _, (bA, bB), (dA, dB), recs in ana.flat_lines:
        assert len(recs) == halfline_modulus(s, (bA, bB), (dA, dB))
        for res, r in enumerate(recs):
            if r.outcome == "noncoprime":
                continue
            A, B = bA + res * dA, bB + res * dB
            for c in s.critical:
                if c.q_of(dA, dB) == 0:
                    q, a = c.q_of(A, B), c.a_of(A, B)
                    sg = 1 if q > 0 else -1
                    reads.append((c.f, Fr(sg * a * c.ell % c.K, c.K), abs(q)))
    assert len(reads) == 60
    assert sorted(calls, key=repr) == sorted(set(reads), key=repr)
    assert len(calls) == len(s._minima) == 20


def test_sector_table_quarter():
    ana = SpectrumAnalysis(*SECTOR_QUARTER)
    assert set(ana.sector_records) == {
        (a, b) for a in range(4) for b in range(4) if math.gcd(a, b, 4) == 1
    }
    for cls, (rays, rows) in SECTOR_QUARTER_TABLE.items():
        recs = ana.sector_records[cls]
        assert interior_rays(recs) == rays, cls
        assert sector_rows(recs, cls, 4) == rows, cls
    for cls in [(1, 1), (1, 2), (3, 2), (3, 3)]:
        recs = ana.sector_records[cls]
        assert [r.kappa for r in recs] == [0]


def test_sector_groups_tenth_a():
    ana = SpectrumAnalysis(*SECTOR_TENTH_A)
    group = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    expect = [(1, Fr(2, 5), (4, 1), 1), (1, Fr(3, 5), (1, -1), 4)]
    for cls in group:
        recs = ana.sector_records[cls]
        assert interior_rays(recs) == [(1, -2)], cls
        assert sector_rows(recs, cls, 5) == expect, cls
    for cls in [(1, 1), (2, 2), (3, 3), (4, 4)]:
        assert [r.kappa for r in ana.sector_records[cls]] == [0]


def test_sector_groups_tenth_b():
    ana = SpectrumAnalysis(*SECTOR_TENTH_B)
    recs = ana.sector_records[(0, 1)]
    assert interior_rays(recs) == [(1, -1)]
    assert sector_rows(recs, (0, 1), 5) == [(1, Fr(2, 5), (3, 1), 1), (1, Fr(1, 5), (-1, -2), 3)]
    recs = ana.sector_records[(1, 4)]
    assert interior_rays(recs) == [(1, 1), (1, -1)]
    assert sector_rows(recs, (1, 4), 5) == [
        (1, Fr(3, 5), (1, 2), 4),
        (1, Fr(4, 5), (3, 1), 2),
        (1, Fr(2, 5), (-1, -2), 1),
    ]
    for cls in [(1, 2), (2, 4), (3, 1), (4, 3)]:
        assert [r.kappa for r in ana.sector_records[cls]] == [0]


def test_sector_offsets_match_oracle():
    u, v = SECTOR_TENTH_B
    sweep = oracle_sweep(u, v, 40)
    d = Fr(1, 10)
    for (A, B), form in [((11, 4), (3, 1)), ((6, -1), (3, 1)), ((1, -6), (-1, -2)), ((1, 9), (1, 2))]:
        assert (A % 5, B % 5) == (1, 4)
        gamma = {(3, 1): Fr(4, 5), (-1, -2): Fr(2, 5), (1, 2): Fr(3, 5)}[form]
        assert sweep[(A, B)] == d + gamma / (form[0] * A + form[1] * B)


# directions checked, and the SHA-256 of repr(sorted(sector_records.items())) recorded
# before sector_decomposition compared signed offset forms instead of component pairs
SECTOR_ENVELOPE_CASES = [
    (SECTOR_QUARTER, 74, "bff265da1adef82e5a03eb55d4f494a41004acbf1f07f22d9cd1a94a72aca577"),
    (SECTOR_TENTH_A, 152, "717a39f354399fd2d63605528d1ba5e76b8735fbe662de4eae282369323cf2da"),
    (SECTOR_TENTH_B, 182, "d9f7973e03ab4aecd68fafab2d344aac4b3de441516b19dea7974736d53a48e4"),
    (SECTOR_THIRD, 97, "c2dc777ffe66cc227406535cfd595c57087f7762209c2b8f35f516db6fcda923"),
    (GENERIC, 2598, "71b68228ceda5de356566c966f2ed461c36105455e6e43882852c5314fca2d9c"),
]


@pytest.mark.parametrize(
    "plane, directions, digest",
    SECTOR_ENVELOPE_CASES,
    ids=["sector_quarter", "sector_tenth_a", "sector_tenth_b", "sector_third", "generic"],
)
def test_sector_records_are_the_lower_envelope(plane, directions, digest):
    # inside each merged sector the record's offset is the least gamma(c, sign q) / |q|
    # over the critical components; kappa 0 means the least is 0
    ana = SpectrumAnalysis(*plane)
    s = ana.setup
    records = sorted(ana.sector_records.items())
    assert hashlib.sha256(repr(records).encode()).hexdigest() == digest
    checked = 0
    for (aleph, beth), recs in records:
        for r in recs:
            for k1, k2 in [(1, 1), (1, 3), (3, 1), (2, 5)]:
                A = k1 * r.start_ray[0] + k2 * r.end_ray[0]
                B = k1 * r.start_ray[1] + k2 * r.end_ray[1]
                qs = [c.q_of(A, B) for c in s.critical]
                if 0 in qs:
                    continue
                least = min(
                    s.coset(c, aleph, beth, 1 if q > 0 else -1)[0] / abs(q)
                    for c, q in zip(s.critical, qs)
                )
                got = 0 if r.kappa == 0 else r.gamma / (r.form[0] * A + r.form[1] * B)
                assert got == least, ((aleph, beth), r, (A, B))
                checked += 1
    assert checked == directions


def seeded_sector_planes(count, seed):
    """count planes (n 3-4, entries -3..3) that take the sector route, none flat at d."""
    rng = random.Random(seed)
    planes = []
    while len(planes) < count:
        n = rng.randint(3, 4)
        u, v = (tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(2))
        try:
            setup = class_setup(u, v)
        except (ValueError, UnsupportedRequest):
            continue
        if not setup.flats and setup.m_prime <= 60:
            planes.append((u, v))
    return planes


def test_mediant_winner_matches_fraction_reference(monkeypatch):
    # every mediant sector_decomposition reads on the sector goldens, the generic plane and
    # seeded sector-route planes: the integer winner is the Fraction one, ties on gamma/q
    # included, and the records built with the Fraction winner are the library's
    planes = [SECTOR_QUARTER, SECTOR_TENTH_A, SECTOR_TENTH_B, SECTOR_THIRD, GENERIC]
    planes += seeded_sector_planes(30, 71)
    real = spectrum._mediant_winner
    counts = {"mediants": 0, "tie_on_ratio": 0, "tie_broken_by_gamma": 0}

    def checked(forms, da, db):
        got = real(forms, da, db)
        assert got == mediant_winner(forms, da, db), (forms, da, db)
        ratios = [(g / q, g) for E, F, g, *_ in forms if (q := E * da + F * db) > 0]
        least = min(r for r, _ in ratios)
        tied = {g for r, g in ratios if r == least}
        counts["mediants"] += 1
        counts["tie_on_ratio"] += sum(r == least for r, _ in ratios) > 1
        counts["tie_broken_by_gamma"] += len(tied) > 1
        return got

    for plane in planes:
        monkeypatch.setattr(spectrum, "_mediant_winner", checked)
        records = SpectrumAnalysis(*plane).sector_records
        monkeypatch.setattr(spectrum, "_mediant_winner", mediant_winner)
        assert SpectrumAnalysis(*plane).sector_records == records, plane
    # the planes tie only forms with gamma 0, which (E, F) orders; proportional forms
    # c*(E, F, gamma) tie with different gammas, so seeded form lists add those
    assert counts["mediants"] >= 3000 and counts["tie_on_ratio"] >= 500, counts
    rng = random.Random(73)
    for _ in range(1000):
        da, db = rng.randint(1, 9), rng.randint(-9, 9)
        forms = {}
        for _ in range(rng.randint(1, 4)):
            E, F, g = rng.randint(-3, 3), rng.randint(-3, 3), Fr(rng.randint(0, 4), rng.randint(1, 4))
            for c in rng.sample((1, 2, 3, -1, -2), 3):
                if E * da + F * db != 0:
                    forms.setdefault((c * E, c * F, abs(c) * g), None)
        forms = [(E, F, g, g.numerator, g.denominator) for E, F, g in forms]
        if any(E * da + F * db > 0 for E, F, *_ in forms):
            checked(forms, da, db)
    assert counts["tie_broken_by_gamma"] >= 100, counts


def test_halfline_winner_matches_fraction_reference(monkeypatch):
    # every half-line winner of the strip goldens and of seeded lines-route planes of at
    # most 3,000 records: the integer winner is the candidate max picks by Fraction keys,
    # the first one on full ties, and the records built with the Fraction winner are equal
    monkeypatch.setattr(spectrum, "CLASS_BUDGET", 20_000)
    real = spectrum._halfline_winner
    counts = {"winners": 0, "full_tie": 0}

    def checked(cands):
        got = real(cands)
        assert got is halfline_winner(cands), cands
        keys = [(ph / gam, ch / gam) for _, gam, ph, ch, _ in cands]
        counts["winners"] += 1
        counts["full_tie"] += keys.count(max(keys)) > 1
        return got

    def planes():
        yield from (STRIP_QUARTER, STRIP_TENTH_A, STRIP_TENTH_B)
        rng = random.Random(71)
        while True:
            n = rng.randint(3, 4)
            yield tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(2))

    checked_planes = 0
    for plane in planes():
        monkeypatch.setattr(spectrum, "_halfline_winner", checked)
        try:
            records = SpectrumAnalysis(*plane).flat_lines
        except (ValueError, UnsupportedRequest):
            continue
        if not records:
            continue
        monkeypatch.setattr(spectrum, "_halfline_winner", halfline_winner)
        assert SpectrumAnalysis(*plane).flat_lines == records, plane
        checked_planes += 1
        if checked_planes == 12:
            break
    assert counts["winners"] >= 3000 and counts["full_tie"] >= 300, counts


def test_normalize_beta():
    assert normalize_beta(Fr(16), Fr(4), Fr(1, 4)) == 20
    assert normalize_beta(Fr(8), Fr(4), Fr(1, 4)) == 12
    assert normalize_beta(Fr(25, 3), Fr(20, 3), Fr(1, 10)) == Fr(20, 3)
    assert normalize_beta(Fr(25, 2), Fr(5, 2), Fr(1, 10)) == 15
    assert normalize_beta(Fr(36), Fr(102), Fr(1, 3)) == 30
    # offsets exactly on the properness bar move up one step
    assert normalize_beta(Fr(16), Fr(20), Fr(1, 4)) == 20
    assert normalize_beta(Fr(16), Fr(36), Fr(1, 4)) == 20


def test_absorb():
    assert _absorb([(Fr(8), Fr(12)), (Fr(16), Fr(20)), (Fr(16), Fr(12))]) == [(Fr(8), Fr(12))]
    assert _absorb([(Fr(25, 4), Fr(35, 4)), (Fr(25, 2), Fr(15))]) == [(Fr(25, 4), Fr(35, 4))]
    both = [(Fr(25, 4), Fr(35, 4)), (Fr(25, 3), Fr(20, 3))]
    assert _absorb(list(both)) == both


def absorb_pairwise(fams):
    """Reference rule: drop (a2, b2) when another listed (a1, b1) has a2/a1 a positive
    integer and (b2 - b1)/a1 a nonnegative integer."""
    out = []
    for f2 in fams:
        held = False
        for f1 in fams:
            if f1 == f2:
                continue
            q = f2[0] / f1[0]
            r = (f2[1] - f1[1]) / f1[0]
            held = held or (q.denominator == 1 and q >= 1 and r.denominator == 1 and r >= 0)
        if not held:
            out.append(f2)
    return out


def test_absorb_matches_pairwise_rule():
    # unnormalized lists, shuffled, with duplicates, drawn so that divisors and equal
    # residues are common
    rng = random.Random(7)
    dropping = duplicated = 0
    for _ in range(3000):
        pool = []
        for _ in range(rng.randint(1, 8)):
            alpha = Fr(rng.choice((1, 2, 3, 4, 6, 8, 12, 24)), rng.choice((1, 2, 4)))
            pool.append((alpha, Fr(rng.randint(0, 40), rng.choice((1, 2)))))
        fams = [rng.choice(pool) for _ in range(rng.randint(1, 14))]
        rng.shuffle(fams)
        want = absorb_pairwise(fams)
        assert _absorb(fams) == want, fams
        dropping += len(want) < len(fams)
        duplicated += len(set(fams)) < len(fams)
    assert dropping > 1000 and duplicated > 1000


def check_description(desc, families, unwitnessed, exceptional):
    assert [(p.alpha, p.beta) for p in desc.progressions] == families
    assert [tuple(s for s, _ in p.unwitnessed) for p in desc.progressions] == unwitnessed
    assert [v for v, _ in desc.exceptional_values] == exceptional
    assert desc.base_value_attained


def test_description_strip_quarter():
    desc = relative_spectrum(*STRIP_QUARTER, certify_bound=120)
    check_description(desc, [(16, 20)], [()], [])
    assert desc.d_value == Fr(1, 4)
    assert len(desc.progressions[0].witnesses) == 11


def test_description_sector_quarter():
    desc = relative_spectrum(*SECTOR_QUARTER, certify_bound=120)
    check_description(desc, [(8, 12)], [(0, 2)], [])


def test_description_tenth_planes():
    desc = relative_spectrum(*STRIP_TENTH_A, certify_bound=120)
    check_description(desc, [(Fr(25, 3), Fr(20, 3)), (Fr(25, 2), 15)], [(0,), ()], [Fr(3, 14)])
    assert desc.exceptional_values[0][1] == (1, -3)
    desc = relative_spectrum(*STRIP_TENTH_B, certify_bound=120)
    check_description(desc, [(Fr(25, 4), Fr(35, 4)), (Fr(25, 3), Fr(20, 3))], [(), ()], [])
    desc = relative_spectrum(*SECTOR_TENTH_A, certify_bound=120)
    check_description(desc, [(Fr(25, 3), Fr(20, 3)), (Fr(25, 2), 15)], [(0,), ()], [])
    desc = relative_spectrum(*SECTOR_TENTH_B, certify_bound=120)
    check_description(desc, [(Fr(25, 4), Fr(35, 4)), (Fr(25, 3), Fr(20, 3))], [(), (0,)], [])


def test_description_sector_third():
    desc = relative_spectrum(*SECTOR_THIRD, certify_bound=150)
    check_description(desc, [(36, 30), (36, 42)], [(0,), (0,)], [])
    assert desc.d_value == Fr(1, 3)


def test_description_finite_route():
    desc = relative_spectrum(*FINITE_THREE_TENTHS, certify_bound=60)
    assert desc.progressions == ()
    assert desc.base_value_attained
    values = {v for v, _ in desc.exceptional_values}
    assert values == {Fr(7, 22), Fr(11, 34), Fr(17, 54), Fr(23, 74), Fr(1, 3)}


def test_witnesses_check_against_oracle():
    desc = relative_spectrum(*SECTOR_QUARTER, certify_bound=120)
    sweep = oracle_sweep((1, 0, 1, 1), (1, 1, 0, 2), 120)
    for p in desc.progressions:
        for s, A, B in p.witnesses:
            assert sweep[(A, B)] == desc.d_value + 1 / (p.alpha * s + p.beta)
        assert {s for s, _, _ in p.witnesses} | {s for s, _ in p.unwitnessed} == set(range(11))


def test_certify_counts():
    u, v = SECTOR_QUARTER
    desc = relative_spectrum(u, v, certify_bound=80)
    report = certify(u, v, desc, 80)
    assert report.exceptional == ()
    assert report.base_count > 0
    assert report.improper > 0
    assert sum(report.progression_counts) > 0
    assert report.total == report.improper + report.base_count + sum(report.progression_counts)


# min_checked is the number of proper pairs predict covered when the floor was set
# (of 7,862, 4,406, 4,405 and 4,405); sharper validity thresholds may only raise it
@pytest.mark.parametrize(
    "plane, bound, route, min_checked",
    [
        (STRIP_QUARTER, 80, "lines", 7832),
        (STRIP_TENTH_A, 60, "lines", 4294),
        (SECTOR_TENTH_B, 60, "sector", 1717),
        (FINITE_THREE_TENTHS, 60, "finite", 4152),
    ],
    ids=["strip-quarter", "strip-tenth-a", "sector-tenth-b", "finite-three-tenths"],
)
def test_predict_matches_oracle(plane, bound, route, min_checked):
    u, v = plane
    ana = SpectrumAnalysis(u, v)
    assert ana.route == route
    sweep = oracle_sweep(u, v, bound)
    checked = 0
    for (A, B), val in sweep.items():
        got = ana.predict(A, B)
        if got is not None:
            assert got == val, (A, B)
            checked += 1
    assert checked >= min_checked


def test_predict_covers_every_class():
    for u, v in [SECTOR_QUARTER, SECTOR_TENTH_A, SECTOR_TENTH_B]:
        ana = SpectrumAnalysis(u, v)
        mp = ana.setup.m_prime
        sweep = oracle_sweep(u, v, 80)
        covered = set()
        for (A, B), val in sweep.items():
            got = ana.predict(A, B)
            if got is None or val is None:
                continue
            assert got == val, (u, v, A, B)
            covered.add((A % mp, B % mp))
        assert covered == set(ana.sector_records)


def test_tilted_line_family_values():
    u, v = SECTOR_QUARTER
    sweep = oracle_sweep(u, v, 40)
    ana = SpectrumAnalysis(u, v)
    for s in range(1, 10):
        val = Fr(1, 4) + Fr(1, 16 * s + 60)
        assert sweep[(4 * s + 3, 8)] == val
        got = ana.predict(4 * s + 3, 8)
        assert got in (None, val)


def test_description_invariant_under_signed_permutation():
    base = relative_spectrum(*SECTOR_TENTH_A, certify_bound=60)
    moved = relative_spectrum((-3, 0, -1), (-1, 1, 0), certify_bound=60)
    assert moved == base


def test_mirror_components_dropped_exactly():
    # class_setup keeps component ell <= K - ell only: f_{K-ell}(t) = f_ell(-t) and
    # the coset offsets are negatives, so the mirror's gamma tables are the same
    for u, v in GOLDEN_PLANES:
        s = class_setup(u, v)
        for c in s.comps:
            assert c.ell <= c.K - c.ell, (u, v, c.key)
        for c in s.critical:
            if not 0 < c.ell < c.K - c.ell:
                continue
            sl = slice_structure(s.u, s.v, c.i, c.j, c.eps)
            mirror = build_restriction(
                tuple(Fr((c.K - c.ell) * x, c.K) for x in sl.v_prime), sl.u_prime
            )
            for a in range(c.K):
                want = gamma_table(mirror, Fr(a * (c.K - c.ell), c.K) % 1)
                assert want == s.table(c, a), (u, v, c.key, a)
    # components with the same restriction and offset share one table object: SECTOR_THIRD
    # reads 27 (component, residue) pairs and builds 9 tables
    s = class_setup(*SECTOR_THIRD)
    assert s.m_prime == 6
    assert s._tables == {}
    reads = {}
    for c in s.critical:
        for a in range(c.K):
            reads.setdefault((c.rid, Fr(a * c.ell % c.K, c.K)), []).append(s.table(c, a))
    assert sum(len(tabs) for tabs in reads.values()) == 27
    assert len(reads) == len(s._tables) == 9
    for tabs in reads.values():
        assert all(t is tabs[0] for t in tabs)


def test_progression_index():
    d = Fr(1, 4)
    assert progression_index(d, Fr(16), Fr(20), d + Fr(1, 20)) == 0
    assert progression_index(d, Fr(16), Fr(20), d + Fr(1, 52)) == 2
    assert progression_index(d, Fr(16), Fr(20), d + Fr(1, 4)) is None
    assert progression_index(d, Fr(16), Fr(20), d + Fr(1, 30)) is None
    assert progression_index(d, Fr(16), Fr(20), d) is None


def test_classify_value_sector_quarter():
    d, fams = Fr(1, 4), [(Fr(8), Fr(12))]
    assert classify_value(d, fams, None) == "improper"
    assert classify_value(d, fams, d) == "base"
    assert classify_value(d, fams, d + Fr(1, 28)) == "progression(8,12)"
    assert classify_value(d, fams, d + Fr(1, 13)) == "exceptional"
    # a value in two listed families goes to the first one
    both = fams + [(Fr(16), Fr(20))]
    assert classify_value(d, both, d + Fr(1, 20)) == "progression(8,12)"
    assert classify_value(d, both[::-1], d + Fr(1, 20)) == "progression(16,20)"


def test_certify_classifies_each_distinct_value_once(monkeypatch):
    # a label depends only on the value, so certify classifies each distinct box value once
    u, v = SECTOR_QUARTER
    bound = 60
    desc = relative_spectrum(u, v, bound)
    calls = []
    real = spectrum.classify_value
    monkeypatch.setattr(spectrum, "classify_value", lambda *a: calls.append(a) or real(*a))
    report = certify(u, v, desc, bound)
    values = set(oracle_sweep(*normal_plane(u, v), bound).values())
    assert len(calls) == len(values) < report.total


def test_large_m_prime_plane_shares_sectors():
    # m' = 140: 13,824 coprime classes with only 2 distinct coset-gamma vectors
    u, v = (4, 3, 2, 4), (-3, -4, -1, -1)
    bound = 12
    t0 = time.perf_counter()
    ana = SpectrumAnalysis(u, v)
    assert ana.route == "sector"
    assert ana.setup.m_prime == 140
    assert len(ana.sector_records) == ana.classes == 13824
    assert len({id(recs) for recs in ana.sector_records.values()}) == 2
    desc = ana.description(bound)
    sweep = oracle_sweep(u, v, bound)
    d = desc.d_value
    for p in desc.progressions:
        for s, A, B in p.witnesses:
            assert sweep[(A, B)] == d + 1 / (p.alpha * s + p.beta)
    for (A, B), val in sweep.items():
        got = ana.predict(A, B)
        assert got is None or got == val, (A, B)
    report = certify(u, v, desc, bound)
    coprime = sum(
        1 for A in range(bound + 1) for B in range(-bound, bound + 1) if math.gcd(A, B) == 1
    ) - 1  # (0, -1) is the same line as (0, 1)
    exc_values = {val for val, _ in report.exceptional}
    exc_pairs = sum(1 for val in sweep.values() if val in exc_values)
    assert report.total == coprime
    assert (
        report.improper + report.base_count + sum(report.progression_counts) + exc_pairs
        == coprime
    )
    assert report.exceptional == desc.exceptional_values
    assert time.perf_counter() - t0 < 15

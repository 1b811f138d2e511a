"""Benchmark the gamma tables and sector records of the spectrum analysis on the golden
planes and the generic plane 2,-2,3;0,-1,-3, and recheck every table's window.

For each plane, every critical gamma table the analysis reads (one per distinct
restriction and offset) is built by pwl.gamma_table, its self-check included, and the
sector route's sector_decomposition runs once on each distinct coset-gamma vector of the
residue classes mod m'. Each is timed as the best of --repeats, and the script prints
tables/s, self-check q/s (q0 .. q0 + CHECK_PERIODS * modulus per table) and sector
decompositions/s. Every table is then rechecked at every q of its window against the
Fraction walk of tests/pointwise.py: min + gamma[q % modulus]/q must equal
coset_min_fraction(f, b, q), else the script exits 1."""

import argparse
import json
import math
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import goldens  # noqa: E402
from pointwise import coset_min_fraction  # noqa: E402
from lonely_runner.pwl import CHECK_PERIODS, gamma_table  # noqa: E402
from lonely_runner.spectrum import class_setup, sector_decomposition  # noqa: E402

PLANES = [
    (name, getattr(goldens, name))
    for name in (
        "STRIP_QUARTER", "SECTOR_QUARTER", "STRIP_TENTH_A", "STRIP_TENTH_B",
        "SECTOR_TENTH_A", "SECTOR_TENTH_B", "SECTOR_THIRD", "FINITE_THREE_TENTHS",
    )
] + [("2,-2,3;0,-1,-3", ((2, -2, 3), (0, -1, -3)))]


def best_of(repeats, fn):
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, out


def gamma_vectors(setup):
    """Distinct coset-gamma vectors of the coprime residue classes mod m', in first-seen
    order, as SpectrumAnalysis reads them on the sector route."""
    mp = setup.m_prime
    vectors = {}
    for aleph in range(mp):
        for beth in range(mp):
            if math.gcd(aleph, beth, mp) == 1:
                gams = tuple(setup.coset(c, aleph, beth, dl)[0] for c in setup.critical for dl in (1, -1))
                vectors.setdefault(gams, None)
    return list(vectors)


def recheck(f, b, table):
    """The q of table's window at which min + gamma/q differs from the Fraction walk."""
    q0, mod = table.q0, table.modulus
    return [
        q for q in range(q0, q0 + CHECK_PERIODS * mod + 1)
        if coset_min_fraction(f, b, q) != f.minimum + table.gamma[q % mod] / q
    ]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    env = {"python": sys.version.split()[0], "nproc": os.cpu_count()}
    print("env " + json.dumps(env, sort_keys=True))
    total = {"tables": 0, "tables_s": 0.0, "qs": 0, "sectors": 0, "sectors_s": 0.0}
    failed = False
    for name, plane in PLANES:
        setup = class_setup(*plane)
        keys = {c._coset_key(a): c.f for c in setup.critical for a in range(c.K)}
        reads = [(f, Fraction(key[1], key[2])) for key, f in keys.items()]
        tables_s, tables = best_of(args.repeats, lambda: [gamma_table(f, b) for f, b in reads])
        qs = sum(CHECK_PERIODS * t.modulus + 1 for t in tables)
        line = f"{name:>19}: {len(tables):3d} tables {len(tables) / tables_s:8.0f}/s  {qs:5d} q {qs / tables_s:9.0f}/s"
        sectors, sectors_s = 0, 0.0
        if not setup.flats:
            vectors = gamma_vectors(setup)
            sectors = len(vectors)
            sectors_s, _ = best_of(args.repeats, lambda: [sector_decomposition(setup, g) for g in vectors])
            line += f"  {sectors:3d} sector vectors {sectors / sectors_s:8.0f}/s"
        print(line)
        for (f, b), table in zip(reads, tables):
            for q in recheck(f, b, table):
                print(f"{name}: table of offset {b} differs from the Fraction walk at q = {q}")
                failed = True
        for key, x in zip(total, (len(tables), tables_s, qs, sectors, sectors_s)):
            total[key] += x
    print(f"{'all':>19}: {total['tables']:3d} tables {total['tables'] / total['tables_s']:8.0f}/s  "
          f"{total['qs']:5d} q {total['qs'] / total['tables_s']:9.0f}/s  "
          f"{total['sectors']:3d} sector vectors {total['sectors'] / total['sectors_s']:8.0f}/s")
    if failed:
        return 1
    print(f"all {total['tables']} tables agree with the Fraction walk on their {total['qs']} window q")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

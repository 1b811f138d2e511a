"""Benchmark the slice restrictions d_plane builds on the golden planes and check them
pointwise against torus.d_point.

For each golden plane, d_plane is timed (best of --repeats) and the restrictions it
builds per second and their sample steps per second are printed; the steps are what
slices.check_plane_budget charges, pwl.restriction_steps of the slice's u' for each of
its K // 2 + 1 restrictions. Restriction ell of a slice with adapted basis (u', v') and
K components is t -> d_point(t*u' + (ell/K)*v'); its value at every breakpoint and at
the midpoint of every piece must equal d_point there, else the script exits 1."""

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import goldens  # noqa: E402
from lonely_runner.pwl import restriction_steps  # noqa: E402
from lonely_runner.slices import diagonals, slice_structure  # noqa: E402
from lonely_runner.torus import d_plane, d_point, normal_plane  # noqa: E402

PLANES = (
    "STRIP_QUARTER", "SECTOR_QUARTER", "STRIP_TENTH_A", "STRIP_TENTH_B",
    "SECTOR_TENTH_A", "SECTOR_TENTH_B", "SECTOR_THIRD", "FINITE_THREE_TENTHS",
)


def time_d_plane(u, v, repeats):
    d_plane(u, v)  # warm up
    best = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        d_plane(u, v)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def check_slice(s):
    """Points of the slice's restrictions, as (t, ell, value) with t a breakpoint or a piece
    midpoint, at which the restriction differs from d_point, and the number of points read."""
    bad, points = [], 0
    for ell, f in enumerate(s.restrictions):
        bps, vals = f.breakpoints, f.values
        n = len(bps)
        for i in range(n):
            j = (i + 1) % n
            mid = (bps[i] + bps[j] + (j == 0)) / 2
            for t, value in ((bps[i], vals[i]), (mid, (vals[i] + vals[j]) / 2)):
                points += 1
                x = tuple(t * a + Fraction(ell * b, s.K) for a, b in zip(s.u_prime, s.v_prime))
                if d_point(x) != value:
                    bad.append((t, ell, value))
    return bad, points


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    env = {"python": sys.version.split()[0], "nproc": os.cpu_count()}
    print("env " + json.dumps(env, sort_keys=True))
    total = {"s": 0.0, "restrictions": 0, "steps": 0, "points": 0}
    failed = False
    for name in PLANES:
        u, v = normal_plane(*getattr(goldens, name))
        best = time_d_plane(u, v, args.repeats)
        slices = [slice_structure(u, v, *d) for d in diagonals(len(u))]
        count = sum(len(s.restrictions) for s in slices)
        steps = sum(restriction_steps(s.u_prime) * len(s.restrictions) for s in slices)
        points = 0
        for s in slices:
            bad, read = check_slice(s)
            points += read
            for t, ell, value in bad:
                print(f"{name}: slice ({s.i}, {s.j}, {s.eps}) component {ell} is {value} at t = {t}, "
                      "d_point differs")
                failed = True
        for key, x in zip(total, (best, count, steps, points)):
            total[key] += x
        print(f"{name:>19}: {best:8.4f} s  {count:4d} restrictions {count / best:9.0f}/s  "
              f"{steps:6d} steps {steps / best:10.0f}/s")
    s = total["s"]
    print(f"{'all':>19}: {s:8.4f} s  {total['restrictions']:4d} restrictions "
          f"{total['restrictions'] / s:9.0f}/s  {total['steps']:6d} steps {total['steps'] / s:10.0f}/s")
    if failed:
        return 1
    print(f"all {total['points']} breakpoints and piece midpoints agree with d_point")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

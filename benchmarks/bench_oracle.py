"""Benchmark the box-sweep kernel on the python and numpy backends and check they agree.

Besides each backend, the numpy backend runs twice more with _kernels.ROW_CUTOFF set
so that every row is looped (numpy-loop) and every row is vectorized (numpy-vector);
comparing those two with numpy at the chosen cutoff measures the cutoff again."""

import argparse
import json
import os
import sys
import time

import numpy

from lonely_runner import _kernels
from lonely_runner._kernels import backend, sweep_raw

PLANES = {
    "strip-quarter": ((0, 1, 2, 3), (1, 0, 0, 0)),
    "sector-tenth": ((0, 1, 3), (1, 0, 1)),
    "sector-third": ((1, 0, 1, 2, 3, 3), (0, 1, 1, 1, 1, 2)),
    "finite-three-tenths": ((1, 2, 3, 2, 0, 0, 0), (0, 0, 0, 2, 1, 2, 3)),
}


def run_backend(mode, cutoff, u, v, bound, repeats):
    os.environ["LONELY_RUNNER_KERNEL"] = mode
    _kernels.ROW_CUTOFF = cutoff
    sweep_raw(u, v, 5)  # warm up
    best = None
    rows = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        rows = sweep_raw(u, v, bound)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best, rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--plane", choices=sorted(PLANES), default="sector-third")
    ap.add_argument("--bound", type=int, default=150)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--cutoff", type=int, default=_kernels.ROW_CUTOFF,
                    help="ROW_CUTOFF of the numpy run (default: the package's)")
    args = ap.parse_args()
    u, v = PLANES[args.plane]
    cutoff = args.cutoff
    # label -> (backend, ROW_CUTOFF)
    runs = {
        "python": ("python", cutoff),
        "numpy": ("numpy", cutoff),
        "numpy-loop": ("numpy", 10**18),
        "numpy-vector": ("numpy", 0),
    }
    env = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "kernel_backend": backend(),
        "nproc": os.cpu_count(),
        "row_cutoff": cutoff,
    }
    print("env " + json.dumps(env, sort_keys=True))
    saved = os.environ.get("LONELY_RUNNER_KERNEL")
    times = {}
    reference = None
    try:
        for mode in runs:
            best, rows = run_backend(*runs[mode], u, v, args.bound, args.repeats)
            if reference is None:
                reference = rows
            if rows != reference:
                print(f"{mode:>12}: rows disagree with the python backend")
                return 1
            times[mode] = best
            rate = len(rows) / best
            print(f"{mode:>12}: {best:8.3f} s  {len(rows)} rows  {rate:12.0f} rows/s")
    finally:
        if saved is None:
            os.environ.pop("LONELY_RUNNER_KERNEL", None)
        else:
            os.environ["LONELY_RUNNER_KERNEL"] = saved
    print(f"all {len(runs)} runs agree row for row")
    for mode in list(runs)[1:]:
        print(f"{mode} speedup over python: {times['python'] / times[mode]:.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

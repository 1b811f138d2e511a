"""Brute-force line-minimum kernels: one modulus loop whose rows run as a python loop or,
on the numpy backend, vectorized over the sample index."""

from __future__ import annotations

import math
import os

import numpy as np

# only perfbench/spans.py's python_fallbacks counter reads this; the next benchmark change
# deletes both
MAX_ABS = 500_000_000

# under the numpy backend a row of more than this many (d // 2) * n steps is vectorized and a
# smaller one loops, where numpy's per-call overhead costs more; on bench_oracle.py's four
# planes at bounds 60 and 150 (2-vCPU VM, best of 3) no cutoff among 0, 50, 100, 200, 400,
# 800 and every row looped beat it on every plane; benchmarks/bench_oracle.py --cutoff
# measures it again
ROW_CUTOFF = 200

# most steps one line of n speeds may take, n * (n - 1) for its pair moduli and (d // 2) * n
# for each scanned modulus d: 14x the most any line of the test suite takes (69,832, on 7
# speeds) and 196x the benchmark's (5,082), and small enough that the numpy row's
# (d // 2) x n arrays stay in memory and a python scan ends in seconds; it also bounds the
# modulus d of any row that runs, which keeps the numpy row exact in int64
WORK_BUDGET = 1_000_000

# most (A, B) points one sweep box may hold, so bound <= 999: 11x the largest box of the
# test suite (bound 300) and 121x the benchmark's (bound 90); a sweep keeps every row in
# memory, so an unlimited box grows until memory runs out
BOX_BUDGET = 2_000_000

# only perfbench/child.py's backend_rates reads this; the next benchmark change deletes both
HAVE_NUMBA = False


class UnsupportedRequest(ValueError):
    """A request the package declines: no tight-instance catalog data for the dimension
    and distance, an enumeration past catalog.CANDIDATE_BUDGET candidate bases, a plane
    whose slice restrictions together would pass slices.PLANE_BUDGET steps, a line whose
    oracle scan would pass WORK_BUDGET steps, a sweep box of more than BOX_BUDGET points, a
    gamma table whose self-check would read more than pwl.SELFCHECK_BUDGET pieces, or a
    spectrum analysis that would build more than spectrum.CLASS_BUDGET class records."""


def backend() -> str:
    """Return the active kernel backend from LONELY_RUNNER_KERNEL: python, or numpy (unset)."""
    mode = os.environ.get("LONELY_RUNNER_KERNEL", "numpy")
    if mode not in ("numpy", "python"):
        raise ValueError(f"unknown kernel backend {mode!r}")
    return mode


def dedup_speeds(w) -> list[int]:
    """Absolute values of w with duplicates removed, first occurrence kept."""
    return list(dict.fromkeys(map(abs, w)))


def _pair_moduli(w: list[int]) -> list[int]:
    mods = set()
    for i in range(len(w)):
        for j in range(i + 1, len(w)):
            mods.add(abs(w[i] - w[j]))
            mods.add(w[i] + w[j])
    mods.discard(0)
    return sorted(mods)


def _row(w, d, best_n, best_d):
    """Best (num, den) after the row of modulus d: (num, 2 * d) if the least num over
    k = 1..d//2 of max_m |2 * (k * w_m % d) - d| puts num / (2 * d) below best_n / best_d,
    else (best_n, best_d)."""
    for k in range(1, d // 2 + 1):
        num = 0
        full = True
        for wm in w:
            v = 2 * ((k * wm) % d) - d
            if v < 0:
                v = -v
            if v > num:
                num = v
                if num * best_d >= 2 * d * best_n:
                    full = False
                    break
        if full:
            best_n, best_d = num, 2 * d
            if best_n == 0:
                break
    return best_n, best_d


def _row_numpy(w, d, best_n, best_d):
    """_row vectorized over k."""
    # a row runs only within WORK_BUDGET, so d <= 10**6 + 1: with each speed reduced mod d
    # first, every product k * (w_m % d) stays below 5 * 10**11, exact in int64 at any speeds
    ks = np.arange(1, d // 2 + 1, dtype=np.int64)
    r = (ks[:, None] * np.array([wm % d for wm in w], dtype=np.int64)[None, :]) % d
    cand = int(np.abs(2 * r - d).max(axis=1).min())
    return (cand, 2 * d) if cand * best_d < 2 * d * best_n else (best_n, best_d)


def _d_line(vectorize: bool, w: list[int], floor: tuple[int, int] = (0, 1)) -> tuple[int, int]:
    """Unreduced (num, den) of the line minimum of w, positive deduplicated speeds
    (n = len(w) >= 2), scanning each distinct nonzero pairwise sum and difference d
    in increasing order. The scan stops once the best value reaches floor, a lower bound
    (num, den) on the line's minimum: 0 by default, or the distance of a plane holding the
    line, since no later modulus can go below it. A best value strictly below floor means
    the floor was not a lower bound, and raises RuntimeError. The work counts n * (n - 1)
    steps for the pair moduli, then (d // 2) * n for each scanned modulus d up to the
    exit; a line that would pass WORK_BUDGET is refused, before its pair moduli are built
    if they alone would pass it."""
    n = len(w)
    steps = n * (n - 1)
    best_n, best_d = 1, 2
    for d in _pair_moduli(w) if steps <= WORK_BUDGET else ():
        if best_n * floor[1] <= floor[0] * best_d:
            break
        if d < 2 or (d % 2 == 1 and best_d >= 2 * d * best_n):
            continue
        size = (d // 2) * n
        steps += size
        if steps > WORK_BUDGET:
            break
        row = _row_numpy if vectorize and size > ROW_CUTOFF else _row
        best_n, best_d = row(w, d, best_n, best_d)
    if steps > WORK_BUDGET:
        raise UnsupportedRequest(f"line oracle needs more than {WORK_BUDGET} scan steps")
    if best_n * floor[1] < floor[0] * best_d:
        raise RuntimeError(
            f"line of speeds {w} has minimum {best_n}/{best_d} below the floor "
            f"{floor[0]}/{floor[1]}"
        )
    return int(best_n), int(best_d)


def d_line_raw(w: list[int]) -> tuple[int, int]:
    """Dispatch the per-line kernel; w positive deduplicated speeds, len >= 2."""
    return _d_line(backend() == "numpy", w)


def sweep_raw(
    u: tuple[int, ...],
    v: tuple[int, ...],
    bound: int,
    *,
    inner: int = 0,
    floor: tuple[int, int] = (0, 1),
) -> list[tuple[int, int, int, int]]:
    """Rows (A, B, num, den) over the parameter box, skipping every pair with
    max(A, |B|) <= inner; den = 0 marks an improper line.

    floor (num, den) is handed to every line scan. Every line of the box lies in the plane
    span(u, v), so the plane's distance is a lower bound on each line's minimum and, passed
    as floor, returns the same rows as the default 0 with fewer moduli scanned.

    Each distinct set of absolute speeds is scanned once per call: _d_line's result, its
    steps and any refusal depend only on that set (the moduli are sorted, each row takes a
    max over the speeds, and vectorize and floor are fixed for the call), so a line whose
    set was already scanned reuses its (num, den)."""
    if (bound + 1) * (2 * bound + 1) > BOX_BUDGET:
        raise UnsupportedRequest(f"sweep box of bound {bound} holds more than {BOX_BUDGET} points")
    vectorize = backend() == "numpy"
    seen = {}  # sorted absolute speeds -> raw (num, den)
    out = []
    for A in range(bound + 1):
        for B in range(-bound, bound + 1):
            if (A == 0 and B <= 0) or max(A, abs(B)) <= inner or math.gcd(A, B) != 1:
                continue
            w = [A * a + B * b for a, b in zip(u, v)]
            if any(c == 0 for c in w):
                out.append((A, B, 0, 0))
                continue
            wd = dedup_speeds(w)
            if len(wd) == 1:
                out.append((A, B, 0, 1))
            else:
                key = tuple(sorted(wd))
                raw = seen.get(key)
                if raw is None:
                    raw = seen[key] = _d_line(vectorize, wd, floor)
                out.append((A, B, *raw))
    return out

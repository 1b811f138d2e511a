"""Brute-force line-minimum kernels: one modulus loop whose rows run as a scalar loop,
in python or compiled by numba, or vectorized over the sample index by numpy."""

from __future__ import annotations

import math
import os

import numpy as np

# keeps every int64 product inside the numba and numpy rows overflow-safe
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
# (d // 2) x n arrays stay in memory and a python scan ends in seconds
WORK_BUDGET = 1_000_000

# most (A, B) points one sweep box may hold, so bound <= 999: 11x the largest box of the
# test suite (bound 300) and 121x the benchmark's (bound 90); a sweep keeps every row in
# memory, so an unlimited box grows until memory runs out
BOX_BUDGET = 2_000_000

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    HAVE_NUMBA = False


class UnsupportedRequest(ValueError):
    """A request the package declines: no tight-instance catalog data for the dimension
    and distance, an enumeration past catalog.CANDIDATE_BUDGET candidate bases, a slice
    whose restrictions would pass slices.RESTRICTION_BUDGET steps, a line whose oracle
    scan would pass WORK_BUDGET steps, a sweep box of more than BOX_BUDGET points, a
    gamma table whose self-check would pass pwl.SELFCHECK_BUDGET grid points, or a
    spectrum analysis that would build more than spectrum.CLASS_BUDGET class records."""


def backend() -> str:
    """Return the active kernel backend from LONELY_RUNNER_KERNEL (auto, numba, numpy, python)."""
    mode = os.environ.get("LONELY_RUNNER_KERNEL", "auto")
    if mode not in ("auto", "numba", "numpy", "python"):
        raise ValueError(f"unknown kernel backend {mode!r}")
    if mode == "auto":
        return "numba" if HAVE_NUMBA else "numpy"
    if mode == "numba" and not HAVE_NUMBA:
        raise RuntimeError("numba backend requested but numba is unavailable")
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
    else (best_n, best_d).

    Written in numba's nopython subset: the numba backend compiles this function.
    """
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
    ks = np.arange(1, d // 2 + 1, dtype=np.int64)
    r = (ks[:, None] * np.asarray(w, dtype=np.int64)[None, :]) % d
    cand = int(np.abs(2 * r - d).max(axis=1).min())
    return (cand, 2 * d) if cand * best_d < 2 * d * best_n else (best_n, best_d)


if HAVE_NUMBA:  # pragma: no cover
    _row_jit = njit(cache=True)(_row)


def _row_numba(w, d, best_n, best_d):  # pragma: no cover - needs numba
    return _row_jit(np.asarray(w, dtype=np.int64), d, best_n, best_d)


def _rows_for(scale: int):
    """(fast, cutoff): a row of more than cutoff steps runs as fast, the rest as _row.
    numba compiles every row, numpy vectorizes those past ROW_CUTOFF, and python loops
    them all, as every backend does where int64 could overflow."""
    mode = backend()
    if mode == "python" or scale > MAX_ABS:
        return _row, 0
    if mode == "numpy":
        return _row_numpy, ROW_CUTOFF
    return _row_numba, 0  # pragma: no cover - needs numba


def _d_line(rows, w: list[int]) -> tuple[int, int]:
    """Unreduced (num, den) of the line minimum of w, positive deduplicated speeds
    (n = len(w) >= 2), scanning each distinct nonzero pairwise sum and difference d
    in increasing order. The work counts n * (n - 1) steps for the pair moduli, then
    (d // 2) * n for each scanned modulus d; a line that would pass WORK_BUDGET is
    refused, before its pair moduli are built if they alone would pass it."""
    fast, cutoff = rows
    n = len(w)
    steps = n * (n - 1)
    best_n, best_d = 1, 2
    for d in _pair_moduli(w) if steps <= WORK_BUDGET else ():
        if best_n == 0:
            break
        if d < 2 or (d % 2 == 1 and best_d >= 2 * d * best_n):
            continue
        size = (d // 2) * n
        steps += size
        if steps > WORK_BUDGET:
            break
        best_n, best_d = (fast if size > cutoff else _row)(w, d, best_n, best_d)
    if steps > WORK_BUDGET:
        raise UnsupportedRequest(f"line oracle needs more than {WORK_BUDGET} scan steps")
    return int(best_n), int(best_d)


def d_line_raw(w: list[int]) -> tuple[int, int]:
    """Dispatch the per-line kernel; w positive deduplicated speeds, len >= 2."""
    return _d_line(_rows_for(max(w)), w)


def sweep_raw(
    u: tuple[int, ...], v: tuple[int, ...], bound: int, *, inner: int = 0
) -> list[tuple[int, int, int, int]]:
    """Rows (A, B, num, den) over the parameter box, skipping every pair with
    max(A, |B|) <= inner; den = 0 marks an improper line.

    Each distinct set of absolute speeds is scanned once per call: _d_line's result, its
    steps and any refusal depend only on that set (the moduli are sorted, each row takes a
    max over the speeds, and rows is fixed for the call), so a line whose set was already
    scanned reuses its (num, den)."""
    if (bound + 1) * (2 * bound + 1) > BOX_BUDGET:
        raise UnsupportedRequest(f"sweep box of bound {bound} holds more than {BOX_BUDGET} points")
    rows = _rows_for(bound * max(abs(a) + abs(b) for a, b in zip(u, v)))
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
                    raw = seen[key] = _d_line(rows, wd)
                out.append((A, B, *raw))
    return out

"""Brute-force line-minimum kernels: one scalar scan, run as python or compiled by numba,
and a numpy scan vectorized over the sample index."""

from __future__ import annotations

import math
import os

import numpy as np

# keeps every int64 product inside the numba and numpy scans overflow-safe
MAX_ABS = 500_000_000

# most steps one line of n speeds may take, n * (n - 1) for its pair moduli and (d // 2) * n
# for each scanned modulus d: 14x the most any line of the test suite takes (69,832, on 7
# speeds) and 196x the benchmark's (5,082), and small enough that the numpy scan's
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
    scan would pass WORK_BUDGET steps, or a sweep box of more than BOX_BUDGET points."""


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


def _scan(w, mods):
    """Unreduced (num, den) of the line minimum, or (-1, 0) once the work passes
    WORK_BUDGET steps: n * (n - 1) for the pair moduli, then (d // 2) * n for each
    scanned modulus d; w positive deduplicated speeds (n = len(w) >= 2), mods their
    distinct nonzero pairwise sums and differences in increasing order.

    Written in numba's nopython subset: the numba backend compiles this function.
    """
    n = len(w)
    best_n, best_d = 1, 2
    steps = n * (n - 1)
    for d in mods:
        if best_n == 0:
            break
        if d < 2:
            continue
        if d % 2 == 1 and best_d >= 2 * d * best_n:
            continue
        steps += (d // 2) * n
        if steps > WORK_BUDGET:
            return -1, 0
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


def _scan_numpy(w, mods):
    """Same contract as _scan, vectorized over k; it beats the python scan on large moduli."""
    arr = np.asarray(w, dtype=np.int64)
    n = len(w)
    best_n, best_d = 1, 2
    steps = n * (n - 1)
    for d in mods:
        if best_n == 0:
            break
        if d < 2:
            continue
        if d % 2 == 1 and best_d >= 2 * d * best_n:
            continue
        steps += (d // 2) * n
        if steps > WORK_BUDGET:
            return -1, 0
        ks = np.arange(1, d // 2 + 1, dtype=np.int64)
        r = (ks[:, None] * arr[None, :]) % d
        nums = np.abs(2 * r - d).max(axis=1)
        cand = int(nums.min())
        if cand * best_d < 2 * d * best_n:
            best_n, best_d = cand, 2 * d
    return best_n, best_d


if HAVE_NUMBA:  # pragma: no cover
    _scan_jit = njit(cache=True)(_scan)


def _scan_numba(w, mods):  # pragma: no cover - needs numba
    return _scan_jit(np.asarray(w, dtype=np.int64), np.asarray(mods, dtype=np.int64))


_SCANS = {"python": _scan, "numpy": _scan_numpy, "numba": _scan_numba}


def _scan_for(scale: int):
    """The active backend's scan, or the python scan where int64 could overflow."""
    mode = backend()
    return _SCANS["python" if scale > MAX_ABS else mode]


def _d_line(scan, w: list[int]) -> tuple[int, int]:
    """Run a scan on w, refusing a line that would pass WORK_BUDGET steps; a line whose
    pair moduli alone would pass it is refused before they are built."""
    n = len(w)
    num, den = scan(w, _pair_moduli(w)) if n * (n - 1) <= WORK_BUDGET else (-1, 0)
    if den == 0:
        raise UnsupportedRequest(f"line oracle needs more than {WORK_BUDGET} scan steps")
    return int(num), int(den)


def d_line_raw(w: list[int]) -> tuple[int, int]:
    """Dispatch the per-line kernel; w positive deduplicated speeds, len >= 2."""
    return _d_line(_scan_for(max(w)), w)


def sweep_raw(
    u: tuple[int, ...], v: tuple[int, ...], bound: int, *, inner: int = 0
) -> list[tuple[int, int, int, int]]:
    """Rows (A, B, num, den) over the parameter box, skipping every pair with
    max(A, |B|) <= inner; den = 0 marks an improper line."""
    if (bound + 1) * (2 * bound + 1) > BOX_BUDGET:
        raise UnsupportedRequest(f"sweep box of bound {bound} holds more than {BOX_BUDGET} points")
    scan = _scan_for(bound * max(abs(a) + abs(b) for a, b in zip(u, v)))
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
                out.append((A, B, *_d_line(scan, wd)))
    return out

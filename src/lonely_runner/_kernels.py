"""Brute-force line-minimum kernels: one modulus scan, run line by line in plain Python
(the reference) or, on the numpy backend, over many lines at once, one modulus per round."""

from __future__ import annotations

import math
import os

import numpy as np

# only perfbench/spans.py's python_fallbacks counter reads this; the next benchmark change
# deletes both
MAX_ABS = 500_000_000

# most steps one line of n speeds may take, n * (n - 1) for its pair moduli and (d // 2) * n
# for each scanned modulus d: 14x the most any line of the test suite takes (69,832, on 7
# speeds) and 196x the benchmark's (5,082), and small enough that a python scan ends in
# seconds; it also bounds the modulus d of any row that runs, d <= WORK_BUDGET + 1, which
# keeps the numpy scan's row products exact in int64
WORK_BUDGET = 1_000_000

# most elements of any temporary array of the numpy scan: a block of speed sets holds at
# most this many pair moduli (or one set's, at most WORK_BUDGET), and a batch of row samples
# at most this many (sample, speed) products. On a 2-vCPU VM, at 4,096, 8,192, 16,384 and
# 32,768, bench_oracle.py --bound 60 read 67k, 76k, 82k and 69k numpy rows/s on
# strip-quarter and 13k, 17k, 20k and 16k on finite-three-tenths, and perfbench's
# certify-ladder jobs, run in one process, peaked at 41.3, 41.3, 41.2 and 41.5 MB RSS
# (40.9 MB scanning line by line)
BATCH_ELEMENTS = 16_384

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


def _checked(w, raw, floor):
    """raw, the (num, den) a scan of w ended with, or None if the scan was refused; raises
    the refusal, or a RuntimeError for a value strictly below floor."""
    if raw is None:
        raise UnsupportedRequest(f"line oracle needs more than {WORK_BUDGET} scan steps")
    if raw[0] * floor[1] < floor[0] * raw[1]:
        raise RuntimeError(
            f"line of speeds {w} has minimum {raw[0]}/{raw[1]} below the floor "
            f"{floor[0]}/{floor[1]}"
        )
    return raw


def _d_line(w: list[int], floor: tuple[int, int] = (0, 1)) -> tuple[int, int]:
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
        steps += (d // 2) * n
        if steps > WORK_BUDGET:
            break
        best_n, best_d = _row(w, d, best_n, best_d)
    return _checked(w, None if steps > WORK_BUDGET else (best_n, best_d), floor)


def _least_nums(w: np.ndarray, d: np.ndarray) -> np.ndarray:
    """For each row i, the least over k = 1..d_i//2 of max_m |2 * (k * w[i, m] % d_i) - d_i|,
    which is d_i - 2 * max_k min_m min(r, d_i - r) with r = k * w[i, m] % d_i.

    The samples (i, k) of all rows are laid end to end and taken BATCH_ELEMENTS // n at a
    time, so each temporary holds at most BATCH_ELEMENTS products. w is each row's n speeds
    already reduced mod d_i, in int64, and d_i <= WORK_BUDGET + 1, so every product
    k * w[i, m] stays below 5 * 10**11."""
    half = d // 2
    ends = np.cumsum(half)
    starts = ends - half
    total = int(ends[-1])
    speeds = np.ascontiguousarray(w.T)
    top = np.zeros(len(d), dtype=np.int64)
    step = max(1, BATCH_ELEMENTS // len(speeds))
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        a, b = np.searchsorted(ends, (lo, hi - 1), side="right") + (0, 1)  # rows a..b-1
        count = np.minimum(ends[a:b], hi) - np.maximum(starts[a:b], lo)
        k = np.arange(lo + 1, hi + 1) - np.repeat(starts[a:b], count)
        dd = np.repeat(d[a:b], count)
        r = k * np.repeat(speeds[:, a:b], count, axis=1) % dd
        acc = np.minimum(r, dd - r).min(axis=0)
        top[a:b] = np.maximum(top[a:b], np.maximum.reduceat(acc, np.cumsum(count) - count))
    return d - 2 * top


def _scan_block(lines: list[list[int]], floor: tuple[int, int]) -> list[tuple[int, int] | None]:
    """_d_line's (num, den) of each line, or None where it is refused; every line has the
    same n speeds, with n * (n - 1) <= WORK_BUDGET.

    Each line's distinct pair moduli (_pair_moduli, as _d_line lists them) fill one row of
    a matrix, padded with 0, and the scan walks the matrix column by column. Each round
    applies _d_line's rules to every line as array masks, in its order: stop a line whose
    best value reached the floor; skip d < 2 (the padding too) and an odd d that cannot beat
    the best; refuse a line whose steps would pass WORK_BUDGET; then run the rows of all
    lines left in one _least_nums batch, each replacing its line's best only when strictly
    better, as _row does.

    Speeds of 2**63 or more are kept as Python ints (dtype object) until each is reduced
    mod its row's d. A modulus above 2 * WORK_BUDGET + 1 is clipped to 2 * WORK_BUDGET + 2
    or + 3, keeping its parity: the line's best value has den <= 2 * WORK_BUDGET + 2, so the
    clipped d is skipped or refused exactly when the true one is, and no row runs with it."""
    n = len(lines[0])
    w = np.array(lines, dtype=np.int64 if max(map(max, lines)) < 2**63 else object)
    cap = 2 * WORK_BUDGET + 2
    moduli = [_pair_moduli(x) for x in lines]
    moduli = [m if m[-1] <= cap else [min(d, cap + d % 2) for d in m] for m in moduli]
    width = max(map(len, moduli))
    mods = np.array([m + [0] * (width - len(m)) for m in moduli], dtype=np.int64)
    # best values have num <= WORK_BUDGET + 1 and den <= 2 * WORK_BUDGET + 2, so products
    # with a floor below 2**40 stay exact in int64
    f0, f1 = np.array(floor, dtype=np.int64 if max(map(abs, floor)) < 2**40 else object)[:, None]
    best_n = np.ones(len(lines), dtype=np.int64)
    best_d = np.full(len(lines), 2, dtype=np.int64)
    steps = np.full(len(lines), n * (n - 1), dtype=np.int64)
    live = np.ones(len(lines), dtype=bool)
    refused = np.zeros(len(lines), dtype=bool)
    for c in range(mods.shape[1]):
        live &= best_n * f1 > f0 * best_d
        if not live.any():
            break
        d = mods[:, c]
        go = live & (d >= 2) & ~((d % 2 == 1) & (2 * d * best_n <= best_d))
        over = go & ((d // 2) * n > WORK_BUDGET - steps)
        refused |= over
        live &= ~over
        rows = np.flatnonzero(go & ~over)
        if not rows.size:
            continue
        dr = d[rows]
        steps[rows] += (dr // 2) * n
        reduced = (w[rows] % dr[:, None].astype(w.dtype)).astype(np.int64)
        num = _least_nums(reduced, dr)
        better = num * best_d[rows] < 2 * dr * best_n[rows]
        best_n[rows[better]] = num[better]
        best_d[rows[better]] = 2 * dr[better]
    return [
        None if r else (bn, bd)
        for r, bn, bd in zip(refused.tolist(), best_n.tolist(), best_d.tolist())
    ]


def _scan(lines: list[list[int]], floor: tuple[int, int] = (0, 1)) -> list[tuple[int, int]]:
    """_d_line(w, floor) of each line w, on the active backend; raises the error _d_line
    raises for the first line that fails. The numpy backend scans the lines grouped by
    length, in blocks of at most BATCH_ELEMENTS pair moduli."""
    if backend() == "python":
        return [_d_line(w, floor) for w in lines]
    raws = [None] * len(lines)
    groups = {}
    for k, w in enumerate(lines):
        groups.setdefault(len(w), []).append(k)
    for n, ks in groups.items():
        if n * (n - 1) > WORK_BUDGET:
            continue  # refused before its pair moduli are built
        size = max(1, BATCH_ELEMENTS // (n * (n - 1)))
        for lo in range(0, len(ks), size):
            block = ks[lo : lo + size]
            raws_block = _scan_block([lines[k] for k in block], floor)
            for k, raw in zip(block, raws_block):
                raws[k] = raw
    return [_checked(w, raw, floor) for w, raw in zip(lines, raws)]


def d_line_raw(w: list[int]) -> tuple[int, int]:
    """Scan one line on the active backend; w positive deduplicated speeds, len >= 2."""
    return _scan([w])[0]


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

    Each distinct set of absolute speeds is scanned once per call, all of them together
    after the box is walked: _d_line's result, its steps and any refusal depend only on
    that set (the moduli are sorted, each row takes a max over the speeds, and floor is
    fixed for the call), so a line whose set was already met reuses its (num, den). The
    sets are scanned in the order the box first meets them, and the first that fails
    raises, as a line by line sweep would."""
    if (bound + 1) * (2 * bound + 1) > BOX_BUDGET:
        raise UnsupportedRequest(f"sweep box of bound {bound} holds more than {BOX_BUDGET} points")
    index = {}  # sorted absolute speeds -> position of their (num, den) in raws
    lines = []  # deduplicated speeds of the first line of each distinct set
    out = []  # (A, B, position in raws), then (A, B, num, den)
    for A in range(bound + 1):
        for B in range(-bound, bound + 1):
            if (A == 0 and B <= 0) or max(A, abs(B)) <= inner or math.gcd(A, B) != 1:
                continue
            w = [A * a + B * b for a, b in zip(u, v)]
            if 0 in w:
                out.append((A, B, 0))
                continue
            wd = dedup_speeds(w)
            if len(wd) == 1:
                out.append((A, B, 1))
                continue
            key = tuple(sorted(wd))
            at = index.get(key)
            if at is None:
                at = index[key] = len(lines) + 2
                lines.append(wd)
            out.append((A, B, at))
    raws = [(0, 0), (0, 1), *_scan(lines, floor)]
    for k, (A, B, at) in enumerate(out):
        out[k] = (A, B, *raws[at])
    return out

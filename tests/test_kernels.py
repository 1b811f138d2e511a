"""Backend agreement tests for the brute-force line kernels."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from goldens import FINITE_THREE_TENTHS, SECTOR_QUARTER, SECTOR_THIRD, STRIP_QUARTER, TENTH_PLANES
from lonely_runner import _kernels
from lonely_runner.torus import d_line_oracle, d_plane, normal_plane
from test_random_planes import BLOCK_FINITE, ROUTES, finite_images, route_of, uniform_planes

BACKENDS = ["python", "numpy"]
GOLDEN_PLANES = (STRIP_QUARTER, SECTOR_QUARTER, *TENTH_PLANES, SECTOR_THIRD, FINITE_THREE_TENTHS)
FLOOR_SEED = 22
FLOOR_PER_ROUTE = 3  # seeded random planes of each route swept with and without the floor
FLOOR_BOUND = 12
# the goldens, BLOCK_FINITE and FLOOR_PER_ROUTE draws of each route; every one is compared
FLOOR_PLANES_REQUIRED = len(GOLDEN_PLANES) + 1 + FLOOR_PER_ROUTE * len(ROUTES)


def test_dedup_speeds():
    assert _kernels.dedup_speeds((3, -3, 2, 3, -2)) == [3, 2]


@pytest.mark.parametrize("mode", BACKENDS)
def test_d_line_raw_literals(monkeypatch, mode):
    monkeypatch.setenv("LONELY_RUNNER_KERNEL", mode)
    num, den = _kernels.d_line_raw([1, 2, 3])
    assert Fraction(num, den) == Fraction(1, 4)
    num, den = _kernels.d_line_raw([8, 7, 15, 23])
    assert Fraction(num, den) == Fraction(5, 19)


@pytest.mark.parametrize("batch", [0, 10**18])
def test_numpy_rows_match_python_raw(monkeypatch, batch):
    # speeds up to 300 give moduli up to 599: one-line scans and golden sweeps. BATCH_ELEMENTS
    # 0 scans every block as one set and every batch as one row sample, 10**18 all sets of a
    # length in one block and all of a round's samples in one batch. A numpy round per sample
    # is slow, so batch 0 scans the first quarter of the lines
    rng = random.Random(202)
    lines = [sorted({rng.randint(1, 300) for _ in range(rng.randint(2, 6))}) for _ in range(80)]
    lines = [w for w in lines if len(w) >= 2][: None if batch else 20]
    monkeypatch.setenv("LONELY_RUNNER_KERNEL", "python")
    expect = [_kernels.d_line_raw(w) for w in lines]
    sweeps = [_kernels.sweep_raw(u, v, 8) for u, v in GOLDEN_PLANES]
    monkeypatch.setenv("LONELY_RUNNER_KERNEL", "numpy")
    monkeypatch.setattr(_kernels, "BATCH_ELEMENTS", batch)
    assert [_kernels.d_line_raw(w) for w in lines] == expect
    assert [_kernels.sweep_raw(u, v, 8) for u, v in GOLDEN_PLANES] == sweeps


def test_numpy_rows_exact_at_big_speeds(monkeypatch):
    # speeds near 10**9, 10**12, 10**17 and 10**30 whose pair differences are small moduli;
    # a line finishes when one of them takes it to 0 and is refused at its first pair sum.
    # The numpy scan keeps such speeds as Python ints and reduces each mod d before its
    # integer products, so it equals the python scan at any speeds
    rng = random.Random(404)
    lines = []
    for _ in range(400):
        base = rng.choice((10**9, 10**12, 10**17, 10**30))
        lines.append([base + x for x in rng.sample(range(1, 1001), rng.randint(2, 5))])

    def outcomes():
        out = []
        for w in lines:
            try:
                out.append(_kernels.d_line_raw(w))
            except _kernels.UnsupportedRequest:
                out.append(None)
        return out

    monkeypatch.setenv("LONELY_RUNNER_KERNEL", "python")
    expect = outcomes()
    assert sum(x is not None for x in expect) >= 30
    batched = _kernels._scan_block
    biggest = []

    def spy(block, *args):
        biggest.append(max(map(max, block)))
        return batched(block, *args)

    monkeypatch.setattr(_kernels, "_scan_block", spy)
    monkeypatch.setenv("LONELY_RUNNER_KERNEL", "numpy")
    assert outcomes() == expect
    assert max(biggest) > 2**63


def test_importable_numba_changes_nothing(monkeypatch, tmp_path):
    # a numba stub first on a child's path: unset still means numpy, and the sweep is python's
    (tmp_path / "numba.py").write_text("njit = lambda *a, **k: a[0] if a else lambda f: f\n")
    src = str(Path(_kernels.__file__).resolve().parents[1])
    env = {k: x for k, x in os.environ.items() if k != "LONELY_RUNNER_KERNEL"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(tmp_path), src, env.get("PYTHONPATH")]))
    u, v = SECTOR_QUARTER
    script = "import numba\nfrom lonely_runner._kernels import backend, sweep_raw\n"
    script += f"print(numba.__file__, backend(), sweep_raw({u}, {v}, 8), sep='\\n')"
    out = subprocess.check_output([sys.executable, "-c", script], env=env, text=True)
    stub, mode, rows = out.splitlines()
    assert stub.startswith(str(tmp_path))
    assert mode == "numpy"
    monkeypatch.setenv("LONELY_RUNNER_KERNEL", "python")
    assert rows == str(_kernels.sweep_raw(u, v, 8))


@pytest.mark.parametrize("mode", ["python", "numpy"])
def test_work_budget_counted_per_scanned_modulus(monkeypatch, mode):
    # [1, 2, 3, 4] takes 4 * 3 = 12 steps for its pair moduli, then scans the moduli 2..7
    # in full, (1 + 1 + 2 + 2 + 3 + 3) * 4 = 48 steps: 60 in all
    monkeypatch.setenv("LONELY_RUNNER_KERNEL", mode)
    monkeypatch.setattr(_kernels, "WORK_BUDGET", 59)
    with pytest.raises(_kernels.UnsupportedRequest, match="scan steps"):
        _kernels.d_line_raw([1, 2, 3, 4])
    monkeypatch.setattr(_kernels, "WORK_BUDGET", 60)
    assert _kernels.d_line_raw([1, 2, 3, 4]) == (3, 10)


@pytest.mark.parametrize("mode", BACKENDS)
def test_sweep_raw_matches_per_line(monkeypatch, mode):
    for u, v in GOLDEN_PLANES:
        monkeypatch.setenv("LONELY_RUNNER_KERNEL", mode)
        rows = _kernels.sweep_raw(u, v, 8)
        monkeypatch.setenv("LONELY_RUNNER_KERNEL", "python")
        assert rows == _kernels.sweep_raw(u, v, 8), (u, v)
        for A, B, num, den in rows:
            w = tuple(A * a + B * b for a, b in zip(u, v))
            if den == 0:
                assert 0 in w
            else:
                assert Fraction(num, den) == d_line_oracle(w), (u, v, A, B)


def test_sweep_raw_box_shape(monkeypatch):
    monkeypatch.setenv("LONELY_RUNNER_KERNEL", "python")
    rows = _kernels.sweep_raw((1, 2), (0, 1), 4)
    keys = {(A, B) for A, B, _, _ in rows}
    assert (0, 0) not in keys
    assert (0, -1) not in keys
    assert (0, 1) in keys
    assert all(0 <= A <= 4 and -4 <= B <= 4 for A, B in keys)
    import math

    assert all(math.gcd(A, B) == 1 for A, B in keys)


@pytest.mark.parametrize("mode,batch", [("python", None), ("numpy", None), ("numpy", 0)])
def test_sweep_raw_scans_each_speed_set_once(monkeypatch, mode, batch):
    # python scans line by line through _d_line, numpy in blocks through _scan_block;
    # BATCH_ELEMENTS 0 puts each set in a block of its own and each row sample in a batch of
    # its own, so that case sweeps only the two 4-speed quarter planes
    monkeypatch.setenv("LONELY_RUNNER_KERNEL", mode)
    if batch is not None:
        monkeypatch.setattr(_kernels, "BATCH_ELEMENTS", batch)
    cold = _kernels._d_line
    calls = []
    if mode == "python":

        def counting(w, floor=(0, 1)):
            calls.append(tuple(sorted(w)))
            return cold(w, floor)

        monkeypatch.setattr(_kernels, "_d_line", counting)
    else:
        batched = _kernels._scan_block

        def counting(block, floor):
            calls.extend(tuple(sorted(w)) for w in block)
            return batched(block, floor)

        monkeypatch.setattr(_kernels, "_scan_block", counting)
    for u, v in GOLDEN_PLANES if batch is None else (STRIP_QUARTER, SECTOR_QUARTER):
        for inner in (0, 6):
            del calls[:]
            rows = _kernels.sweep_raw(u, v, 12, inner=inner)
            sets = set()
            for A, B, *d in rows:
                w = [A * a + B * b for a, b in zip(u, v)]
                wd = _kernels.dedup_speeds(w)
                if 0 in w:
                    assert d == [0, 0]
                elif len(wd) == 1:
                    assert d == [0, 1]
                else:
                    assert tuple(d) == cold(wd), (u, v, A, B)
                    sets.add(tuple(sorted(wd)))
            assert sorted(calls) == sorted(sets), (u, v, inner)
            # the memo lives for one call: a second sweep scans every set again
            assert _kernels.sweep_raw(u, v, 12, inner=inner) == rows
            assert len(calls) == 2 * len(sets), (u, v, inner)


@pytest.mark.parametrize("batch", [0, 10**18])
def test_d_line_raw_ignores_speed_order(monkeypatch, batch):
    # sweep_raw keys its memo by the sorted speeds, so a line's raw (num, den) must not
    # depend on their order; every permutation for n <= 5, a seeded sample beyond. The numpy
    # scan runs with one row sample per batch (BATCH_ELEMENTS 0) and with all in one (10**18);
    # a numpy round per sample is slow, so batch 0 checks 3 seeded orders of each line
    rng = random.Random(303)
    lines = [rng.sample(range(1, 301), n) for n in range(2, 8) for _ in range(4)]
    monkeypatch.setattr(_kernels, "BATCH_ELEMENTS", batch)
    for mode in ("python", "numpy"):
        monkeypatch.setenv("LONELY_RUNNER_KERNEL", mode)
        for w in lines:
            if len(w) <= 5:
                orders = list(itertools.permutations(w))
            else:
                orders = [tuple(rng.sample(w, len(w))) for _ in range(40)]
            if not batch:
                orders = rng.sample(orders, min(len(orders), 3))
            assert {_kernels.d_line_raw(list(p)) for p in orders} == {
                _kernels.d_line_raw(sorted(w))
            }, (mode, w)


def floor_planes():
    """The goldens, the block-draw finite plane, then FLOOR_PER_ROUTE seeded planes of each
    route: uniform draws for sector and lines, images of FINITE_THREE_TENTHS for finite."""
    rng = random.Random(FLOOR_SEED)
    drawn = {route: [] for route in ROUTES}
    for u, v in uniform_planes(rng):
        route = route_of(u, v)
        if len(drawn[route]) < FLOOR_PER_ROUTE:
            drawn[route].append((u, v))
        if len(drawn["sector"]) == len(drawn["lines"]) == FLOOR_PER_ROUTE:
            break
    images = finite_images(rng)
    drawn["finite"] += [next(images) for _ in range(FLOOR_PER_ROUTE - len(drawn["finite"]))]
    assert [route_of(*p) for p in drawn["finite"]] == ["finite"] * FLOOR_PER_ROUTE
    return [*GOLDEN_PLANES, BLOCK_FINITE, *(p for r in ROUTES for p in drawn[r])]


@pytest.mark.parametrize("mode", BACKENDS)
def test_floored_sweep_equals_unfloored(monkeypatch, mode):
    # a line of the plane has D >= d_plane, so a scan stopped there returns the unfloored
    # raw row; a floor just above the least value in the box is no lower bound and raises
    monkeypatch.setenv("LONELY_RUNNER_KERNEL", mode)
    compared = 0
    for u, v in floor_planes():
        d = d_plane(u, v)
        rows = _kernels.sweep_raw(u, v, FLOOR_BOUND)
        assert _kernels.sweep_raw(u, v, FLOOR_BOUND, floor=(d.numerator, d.denominator)) == rows
        compared += 1
        least = min(Fraction(num, den) for _, _, num, den in rows if den)
        assert least >= d, (u, v)
        # a line value is x / (2 * m) for a modulus m <= 2 * wmax, so two of them differ by
        # more than 1 / (4 * wmax * den)
        wmax = FLOOR_BOUND * max(abs(a) + abs(b) for a, b in zip(u, v))
        above = least + Fraction(1, 8 * wmax * least.denominator)
        with pytest.raises(RuntimeError, match="below the floor"):
            _kernels.sweep_raw(u, v, FLOOR_BOUND, floor=(above.numerator, above.denominator))
    assert compared >= FLOOR_PLANES_REQUIRED
    # the floor saves rows: STRIP_QUARTER's flat lines stop at d = 1/4. python runs each row
    # through _row, numpy each batch of rows through _least_nums
    scanned = []
    row, batch = _kernels._row, _kernels._least_nums

    def row_spy(w, m, *best):
        scanned.append(m)
        return row(w, m, *best)

    def batch_spy(w, m):
        scanned.extend(m.tolist())
        return batch(w, m)

    monkeypatch.setattr(_kernels, "_row", row_spy)
    monkeypatch.setattr(_kernels, "_least_nums", batch_spy)
    u, v = STRIP_QUARTER
    _kernels.sweep_raw(u, v, FLOOR_BOUND)
    unfloored = len(scanned)
    del scanned[:]
    d = d_plane(u, v)
    _kernels.sweep_raw(u, v, FLOOR_BOUND, floor=(d.numerator, d.denominator))
    assert 0 < len(scanned) < unfloored


SCAN_SEED = 24
SCAN_PLANES = 8
SCAN_BOUND = 7


def scan_planes():
    """SCAN_PLANES seeded proper planes, n in 3..7 and entries in -5..5."""
    rng = random.Random(SCAN_SEED)
    planes = []
    while len(planes) < SCAN_PLANES:
        n = rng.randint(3, 7)
        u = tuple(rng.randint(-5, 5) for _ in range(n))
        v = tuple(rng.randint(-5, 5) for _ in range(n))
        try:
            normal_plane(u, v)
        except ValueError:  # not a plane, or a coordinate vanishes on it
            continue
        planes.append((u, v))
    return planes


def sweep_outcome(monkeypatch, mode, *args, **kwargs):
    """sweep_raw's rows on one backend, or the type and message of the error it raised."""
    monkeypatch.setenv("LONELY_RUNNER_KERNEL", mode)
    try:
        return _kernels.sweep_raw(*args, **kwargs)
    except (_kernels.UnsupportedRequest, RuntimeError) as e:
        return type(e), str(e)


def test_batched_scan_equals_python_lines(monkeypatch):
    # numpy scans a sweep's speed sets together, grouped by length, one modulus per round;
    # python scans them one by one. Same raw rows, floored or not, in every shell, in one
    # block or in many; under a budget that only the sweep's costliest set passes, and one
    # step below it, where that set is refused after earlier sets were scanned; and under a
    # floor just above the least value, whose RuntimeError names the first line below it
    def agree(*args, **kwargs):
        expect = sweep_outcome(monkeypatch, "python", *args, **kwargs)
        assert sweep_outcome(monkeypatch, "numpy", *args, **kwargs) == expect, (args, kwargs)
        return expect

    row = _kernels._row
    steps = {}  # speeds of a python scan -> its steps so far

    def counting(w, d, *best):
        steps[tuple(w)] = steps.get(tuple(w), len(w) * (len(w) - 1)) + (d // 2) * len(w)
        return row(w, d, *best)

    budget, batch = _kernels.WORK_BUDGET, _kernels.BATCH_ELEMENTS
    lengths = set()
    mid_sweep = 0
    for u, v in scan_planes():
        for inner in (0, 4):
            rows = agree(u, v, SCAN_BOUND, inner=inner)
            # a tiny cap splits the sets into many blocks and each row across sample batches
            monkeypatch.setattr(_kernels, "BATCH_ELEMENTS", 60)
            assert agree(u, v, SCAN_BOUND, inner=inner) == rows
            monkeypatch.setattr(_kernels, "BATCH_ELEMENTS", batch)
            sets = {
                tuple(sorted(_kernels.dedup_speeds(A * a + B * b for a, b in zip(u, v))))
                for A, B, _, den in rows
                if den
            }
            lengths.add(tuple(sorted({len(s) for s in sets if len(s) > 1})))
            least = min(Fraction(num, den) for _, _, num, den in rows if den)
            for floor in ((0, 1), (least.numerator, least.denominator)):
                assert agree(u, v, SCAN_BOUND, inner=inner, floor=floor) == rows
                steps.clear()
                monkeypatch.setattr(_kernels, "_row", counting)
                agree(u, v, SCAN_BOUND, inner=inner, floor=floor)
                monkeypatch.setattr(_kernels, "_row", row)
                # the costliest set passes at need and is refused below it; below the least
                # count above the first set's, the first set passes and a later one is refused
                need = max(steps.values())
                first = steps[next(iter(steps))]
                later = [x for x in steps.values() if x > first]
                mid_sweep += bool(later)
                for cap in {need - 1, min(later, default=need) - 1}:
                    monkeypatch.setattr(_kernels, "WORK_BUDGET", cap)
                    refused = agree(u, v, SCAN_BOUND, inner=inner, floor=floor)
                    assert refused == (_kernels.UnsupportedRequest, refused[1]), refused
                monkeypatch.setattr(_kernels, "WORK_BUDGET", need)
                assert agree(u, v, SCAN_BOUND, inner=inner, floor=floor) == rows
                monkeypatch.setattr(_kernels, "WORK_BUDGET", budget)
            wmax = SCAN_BOUND * max(abs(a) + abs(b) for a, b in zip(u, v))
            above = least + Fraction(1, 8 * wmax * least.denominator)
            kind, message = agree(u, v, SCAN_BOUND, inner=inner, floor=(above.numerator, above.denominator))
            assert kind is RuntimeError and "below the floor" in message
    assert mid_sweep >= 3 * SCAN_PLANES
    # the sweeps mix set lengths, and every length from 2 to 7 is scanned somewhere
    assert max(map(len, lengths)) >= 3
    assert set().union(*lengths) == set(range(2, 8)), lengths

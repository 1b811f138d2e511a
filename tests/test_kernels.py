"""Backend agreement tests for the brute-force line kernels."""

import random
from fractions import Fraction

import pytest

from goldens import FINITE_THREE_TENTHS, SECTOR_QUARTER, SECTOR_THIRD, STRIP_QUARTER, TENTH_PLANES
from lonely_runner import _kernels
from lonely_runner.torus import d_line_oracle

BACKENDS = ["python", "numpy"] + (["numba"] if _kernels.HAVE_NUMBA else [])
GOLDEN_PLANES = (STRIP_QUARTER, SECTOR_QUARTER, *TENTH_PLANES, SECTOR_THIRD, FINITE_THREE_TENTHS)


def test_dedup_speeds():
    assert _kernels.dedup_speeds((3, -3, 2, 3, -2)) == [3, 2]


def test_backend_env_validation(monkeypatch):
    monkeypatch.setenv("LONELY_RUNNER_KERNEL", "weird")
    with pytest.raises(ValueError, match="unknown kernel backend"):
        _kernels.backend()


@pytest.mark.parametrize("mode", BACKENDS)
def test_d_line_raw_literals(monkeypatch, mode):
    monkeypatch.setenv("LONELY_RUNNER_KERNEL", mode)
    num, den = _kernels.d_line_raw([1, 2, 3])
    assert Fraction(num, den) == Fraction(1, 4)
    num, den = _kernels.d_line_raw([8, 7, 15, 23])
    assert Fraction(num, den) == Fraction(5, 19)


def test_backends_agree_random(monkeypatch):
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(2, 6)
        w = sorted({rng.randint(1, 40) for _ in range(n)})
        if len(w) < 2:
            continue
        results = set()
        for mode in BACKENDS:
            monkeypatch.setenv("LONELY_RUNNER_KERNEL", mode)
            num, den = _kernels.d_line_raw(w)
            results.add(Fraction(num, den))
        assert len(results) == 1


def test_big_entries_fall_back_to_python(monkeypatch):
    monkeypatch.setenv("LONELY_RUNNER_KERNEL", "numpy")
    w = [_kernels.MAX_ABS * 2 + 1, _kernels.MAX_ABS * 2 + 3]
    num, den = _kernels.d_line_raw(w)
    assert den > 0


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

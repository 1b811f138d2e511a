"""Tests for point/line/coset/plane distance computations and symmetry canonicalization."""

import random
from fractions import Fraction

import pytest

from lonely_runner import _kernels, torus
from lonely_runner.exact import saturate_plane
from lonely_runner.torus import (
    canonicalize_symmetry,
    d_line_oracle,
    d_plane,
    d_point,
    d_two_speeds,
    normal_plane,
    oracle_sweep,
    plane_proper,
)

F = Fraction

PLANE_0123 = ((0, 1, 2, 3), (1, 0, 0, 0))
PLANE_014 = ((0, 1, 4), (1, 0, 0))
PLANE_U8 = ((1, 2, 3, 2, 0, 0, 0), (0, 0, 0, 2, 1, 2, 3))


def test_d_point_literals():
    assert d_point((F(1, 2), F(1, 2), F(1, 2))) == 0
    assert d_point((0, 0)) == F(1, 2)
    assert d_point((F(1, 4), F(1, 2))) == F(1, 4)


def test_d_line_oracle_literals():
    assert d_line_oracle((1, 2, 3)) == F(1, 4)
    assert d_line_oracle((8, 7, 15, 23)) == F(5, 19)
    assert d_line_oracle((1, 1)) == 0


def test_d_line_oracle_improper():
    with pytest.raises(ValueError, match="improper subtorus"):
        d_line_oracle((1, 0, 2))


def test_d_line_oracle_consecutive_speeds():
    for n in range(1, 7):
        w = tuple(range(1, n + 1))
        assert d_line_oracle(w) == F(1, 2) - F(1, n + 1)


def test_d_line_oracle_signed_permutation_invariance():
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(2, 5)
        w = tuple(rng.choice([-1, 1]) * rng.randint(1, 25) for _ in range(n))
        d = d_line_oracle(w)
        perm = list(range(n))
        rng.shuffle(perm)
        w2 = tuple(rng.choice([-1, 1]) * w[perm[k]] for k in range(n))
        assert d_line_oracle(w2) == d


def test_d_line_oracle_divides_out_the_gcd():
    rng = random.Random(61)
    for _ in range(30):
        n = rng.randint(2, 5)
        w = tuple(rng.choice([-1, 1]) * rng.randint(1, 25) for _ in range(n))
        g = rng.randint(2, 10**9)
        assert d_line_oracle(tuple(g * c for c in w)) == d_line_oracle(w), (w, g)


def test_d_line_oracle_is_lower_bound_of_dense_sample():
    rng = random.Random(59)
    for _ in range(20):
        n = rng.randint(2, 4)
        w = tuple(rng.randint(1, 12) for _ in range(n))
        if any(c == 0 for c in w):
            continue
        d = d_line_oracle(w)
        achieved = False
        for den in range(1, 40):
            for num in range(den):
                val = d_point(tuple((F(num, den) * c) % 1 for c in w))
                assert val >= d
                if val == d:
                    achieved = True
        assert achieved


def test_d_two_speeds_matches_python_kernel(monkeypatch):
    monkeypatch.setenv("LONELY_RUNNER_KERNEL", "python")
    for a in range(1, 41):
        for b in range(1, 41):
            if a != b:
                kernel = Fraction(*_kernels.d_line_raw([a, b]))
                assert d_line_oracle((a, b)) == d_two_speeds(a, b) == kernel


def test_d_plane_goldens():
    assert d_plane(*PLANE_0123) == F(1, 4)
    assert d_plane(*PLANE_014) == F(1, 10)
    assert d_plane(*PLANE_U8) == F(3, 10)


def test_d_plane_improper():
    with pytest.raises(ValueError, match="improper subtorus"):
        d_plane((1, 2, 0), (2, 3, 0))


def test_d_plane_projects_redundant_coordinate():
    assert d_plane((0, 1, 2, 3, 3), (1, 0, 0, 0, 0)) == F(1, 4)
    assert d_plane((1, 1, 2), (0, 0, 1)) == 0


def _project_redundant_restart(u, v):
    """Reference: delete the later coordinate of the first pair with x_i = +-x_j, then restart."""
    changed = True
    while changed:
        changed = False
        for i in range(len(u)):
            for j in range(i + 1, len(u)):
                if (u[i], v[i]) in ((u[j], v[j]), (-u[j], -v[j])):
                    u, v = u[:j] + u[j + 1 :], v[:j] + v[j + 1 :]
                    changed = True
                    break
            if changed:
                break
    return u, v


def test_normal_plane_matches_restart_loop():
    rng = random.Random(67)
    checked = 0
    for _ in range(3000):
        n = rng.randint(2, 7)
        u = tuple(rng.randint(-2, 2) for _ in range(n))
        v = tuple(rng.randint(-2, 2) for _ in range(n))
        try:
            su, sv = saturate_plane(u, v)
        except ValueError:
            continue
        if not plane_proper(su, sv):
            with pytest.raises(ValueError, match="improper subtorus"):
                normal_plane(u, v)
            continue
        assert normal_plane(u, v) == _project_redundant_restart(su, sv)
        checked += 1
    assert checked > 500


def test_d_plane_bounded_by_lines():
    rng = random.Random(61)
    for u, v in (PLANE_0123, PLANE_014):
        d = d_plane(u, v)
        for _ in range(15):
            A = rng.randint(-8, 8)
            B = rng.randint(-8, 8)
            w = tuple(A * a + B * b for a, b in zip(u, v))
            if any(c == 0 for c in w):
                continue
            assert d <= d_line_oracle(w)


def test_canonicalize_idempotent_and_orbit():
    c1 = canonicalize_symmetry(*PLANE_0123)
    assert canonicalize_symmetry(*c1) == c1
    # swapping two coordinates or negating one keeps the canonical form
    swapped = ((3, 1, 2, 0), (0, 0, 0, 1))
    assert canonicalize_symmetry(*swapped) == c1
    negated = ((0, -1, 2, 3), (1, 0, 0, 0))
    assert canonicalize_symmetry(*negated) == c1


def test_canonicalize_golden_equivalence():
    assert canonicalize_symmetry((1, 1, 4), (-1, 1, 4)) == canonicalize_symmetry(
        *PLANE_014
    )


def test_plane_proper():
    assert plane_proper(*PLANE_0123)
    assert not plane_proper((1, 0, 0), (2, 0, 1))


def test_oracle_sweep_matches_single_lines():
    sweep = oracle_sweep(*PLANE_0123, 3)
    assert sweep[(1, 0)] is None  # the generator (0,1,2,3) has a zero coordinate
    for (A, B), val in sweep.items():
        w = tuple(A * a + B * b for a, b in zip(*PLANE_0123))
        if any(c == 0 for c in w):
            assert val is None
        else:
            assert val == d_line_oracle(w)
    assert (0, 0) not in sweep
    assert (0, -1) not in sweep
    assert (0, 1) in sweep


def test_oracle_sweep_is_read_only():
    u, v = (1, 0, 1, 1), (1, 1, 0, 2)
    sweep = oracle_sweep(u, v, 10)
    before = dict(sweep)
    with pytest.raises(TypeError):
        sweep[(1, 0)] = F(9, 20)
    assert dict(oracle_sweep(u, v, 10)) == before


def test_oracle_sweep_one_entry_per_plane(monkeypatch):
    u, v = (1, 0, 1, 1), (1, 1, 0, 2)
    cold = _kernels.sweep_raw
    calls = []

    def counting(u, v, bound, *, inner=0, floor=(0, 1)):
        rows = cold(u, v, bound, inner=inner, floor=floor)
        calls.append((bound, inner, len(rows)))
        return rows

    def cold_box(bound):
        return {(A, B): None if den == 0 else F(num, den) for A, B, num, den in cold(u, v, bound)}

    monkeypatch.setattr(torus, "_SWEEP_CACHE", {})
    monkeypatch.setattr(_kernels, "sweep_raw", counting)
    views = {}
    for bound in (12, 8, 16, 8):
        views.setdefault(bound, []).append(oracle_sweep(u, v, bound))
    # the second sweep computes only the shell between the boxes of bound 12 and 16
    assert calls == [(12, 0, len(cold_box(12))), (16, 12, len(cold_box(16)) - len(cold_box(12)))]
    for bound, seen in views.items():
        for view in seen:
            assert dict(view) == cold_box(bound), bound
    assert list(torus._SWEEP_CACHE) == [(u, v)]
    # a refused sweep leaves the entry as it was
    entry = torus._SWEEP_CACHE[(u, v)]
    monkeypatch.setattr(_kernels, "BOX_BUDGET", 100)
    with pytest.raises(_kernels.UnsupportedRequest):
        oracle_sweep(u, v, 20)
    assert torus._SWEEP_CACHE[(u, v)] is entry


def test_oracle_sweep_refuses_inside_a_memoized_shell(monkeypatch):
    # the least WORK_BUDGET that lets the shell between bounds 12 and 16 of a golden plane
    # through; one below it, its heaviest line is refused mid-sweep, after sweep_raw has
    # already reused the scans of repeated speed sets
    u, v = (1, 0, 1, 1), (1, 1, 0, 2)
    shell = _kernels.sweep_raw(u, v, 16, inner=12)
    sets = {
        tuple(sorted(_kernels.dedup_speeds([A * a + B * b for a, b in zip(u, v)])))
        for A, B, _, den in shell
        if den
    }
    assert len(sets) < len(shell)

    def refused(budget):
        monkeypatch.setattr(_kernels, "WORK_BUDGET", budget)
        try:
            _kernels.sweep_raw(u, v, 16, inner=12)
        except _kernels.UnsupportedRequest:
            return True
        return False

    budget = _kernels.WORK_BUDGET
    lo, hi = 1, budget
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if refused(mid) else (lo, mid)
    monkeypatch.setattr(torus, "_SWEEP_CACHE", {})
    monkeypatch.setattr(_kernels, "WORK_BUDGET", budget)
    oracle_sweep(u, v, 12)
    entry = torus._SWEEP_CACHE[(u, v)]
    monkeypatch.setattr(_kernels, "WORK_BUDGET", lo - 1)
    with pytest.raises(_kernels.UnsupportedRequest, match="scan steps"):
        oracle_sweep(u, v, 16)
    assert torus._SWEEP_CACHE[(u, v)] is entry
    monkeypatch.setattr(_kernels, "WORK_BUDGET", lo)
    cold = {(A, B): None if den == 0 else F(num, den) for A, B, num, den in shell}
    assert {k: x for k, x in oracle_sweep(u, v, 16).items() if max(k[0], abs(k[1])) > 12} == cold

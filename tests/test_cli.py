"""End-to-end tests for the command-line front end."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import lonely_runner
from goldens import (
    FINITE_THREE_TENTHS,
    SECTOR_QUARTER,
    SECTOR_TENTH_A,
    SECTOR_TENTH_B,
    SECTOR_THIRD,
    STRIP_QUARTER,
    STRIP_TENTH_A,
    STRIP_TENTH_B,
    TENTH_PLANES,
)
from lonely_runner import torus
from lonely_runner.cli import (
    ParseError,
    format_basis,
    main,
    parse_basis,
    parse_rational,
    parse_vector,
)
from lonely_runner.exact import saturate_plane
from lonely_runner.torus import canonicalize_symmetry, d_point

U2_BASIS = "1,0,1,1;1,1,0,2"
U8_BASIS = "1,2,3,2,0,0,0;0,0,0,2,1,2,3"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_round_trip():
    for text in ("1,2,3,4;0,0,1,0", "0,1,2,3;1,0,0,0", "-1,2;3,-4"):
        assert format_basis(*parse_basis(text)) == text
    assert parse_vector("7") == (7,)
    for bad in ("1,x", "", "1,2;3,4;5,6", "1,2;3"):
        with pytest.raises(ParseError):
            parse_basis(bad) if ";" in bad else parse_vector(bad)
    with pytest.raises(ParseError):
        parse_rational("1/0")


def test_d_vector(capsys):
    code, out, _ = run(capsys, "d", "--vector", "1,2,3,4")
    assert (code, out) == (0, "3/10\n")
    # two distinct speeds take the closed form, however large
    code, out, _ = run(capsys, "d", "--vector", "1000000000,1000000001")
    assert (code, out) == (0, "1/4000000002\n")
    # the scan stops at modulus 2, where every speed is odd
    code, out, _ = run(capsys, "d", "--vector", "1,3,1000000001")
    assert (code, out) == (0, "0\n")
    # the line through g*w is the line through w
    code, out, _ = run(capsys, "d", "--vector", "1000000000,2000000000,3000000000")
    assert (code, out) == (0, "1/4\n")


def test_d_vector_past_work_budget_exit_3(capsys):
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "d", "--vector", "1000000000,1000000001,1000000003", "--format", "json")
    assert time.perf_counter() - t0 < 1
    assert code == 3
    assert "scan steps" in json.loads(out)["error"]


def test_d_vector_many_speeds_exit_3(capsys):
    # refused from the speed count alone, before the pair moduli are built
    for n in (2000, 6000):
        t0 = time.perf_counter()
        speeds = ",".join(map(str, range(1, n + 1)))
        code, out, _ = run(capsys, "d", "--vector", speeds, "--format", "json")
        assert time.perf_counter() - t0 < 2, n
        assert code == 3, n
        assert "scan steps" in json.loads(out)["error"], n


def test_d_basis_past_restriction_budget_exit_3(capsys):
    # the plane 10000,1,2;0,1,1 needs 600,024 restriction steps: the plane budget refuses it
    for command in (["d"], ["spectrum", "--bound", "3"]):
        t0 = time.perf_counter()
        code, out, _ = run(capsys, *command, "--basis", "10000,1,2;0,1,1", "--format", "json")
        assert time.perf_counter() - t0 < 2, command
        assert code == 3, command
        assert "slice restrictions" in json.loads(out)["error"], command


def test_d_basis_past_plane_budget_exit_3(capsys):
    # 24 coordinates, 552 slices of at most 10,196 steps each and 2,544,810 in all;
    # nothing is built before the refusal
    u = "0,0,0,0,0,1,1,1,1,1,1,1,1,1,1,1,2,2,2,2,2,2,2,2"
    v = "1,2,3,4,5,-5,-4,-3,-2,-1,0,1,2,3,4,5,-5,-4,-3,-2,-1,0,1,2"
    for command in (["d"], ["spectrum", "--bound", "3"]):
        t0 = time.perf_counter()
        code, out, _ = run(capsys, *command, "--basis", f"{u};{v}", "--format", "json")
        assert time.perf_counter() - t0 < 2, command
        assert code == 3, command
        assert "slice restrictions" in json.loads(out)["error"], command


def test_plane_with_large_slices_within_plane_budget(capsys):
    # the slices x_1 = +-x_2 need 20,002 steps each, the plane 76,022; the plane budget
    # alone bounds the work, so d and zero-locus answer
    basis = "1,0,2000;0,1,0"
    d = Fraction(1, 4002)
    code, out, _ = run(capsys, "d", "--basis", basis)
    assert (code, out) == (0, "1/4002\n")
    code, out, _ = run(capsys, "zero-locus", "--basis", basis, "--format", "json")
    assert code == 0
    u, v = saturate_plane(*parse_basis(basis))
    elements = json.loads(out)
    assert elements
    ends = [e["at"] for e in elements if e["kind"] == "point"]
    ends += [p for e in elements if e["kind"] == "segment" for p in (e["start"], e["end"])]
    for a, b in ends:
        a, b = Fraction(a), Fraction(b)
        assert d_point(tuple(a * x + b * y for x, y in zip(u, v))) == d


def test_d_basis_huge_saturation_index(capsys):
    # the saturation shift is found in closed form, not by a search over 10**9 candidates
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "d", "--basis", "1,0,0;1,1000000000,1000000000")
    assert time.perf_counter() - t0 < 1
    assert (code, out) == (0, "0\n")


def test_spectrum_past_selfcheck_budget_exit_3(capsys):
    # one critical restriction has 1,330 pieces and modulus 497, so its table's self-check
    # would read 2,645,370 pieces; d needs no table
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "spectrum", "--basis", "10,11,-5;8,-15,14", "--bound", "3", "--format", "json")
    assert time.perf_counter() - t0 < 5
    assert code == 3
    assert json.loads(out) == {"error": "gamma table self-check needs more than 1200000 piece reads"}
    code, out, _ = run(capsys, "d", "--basis", "10,11,-5;8,-15,14")
    assert (code, out) == (0, "1/994\n")
    # one critical table has q0 = 63,961 and modulus 41; its self-check reads 165 q x 118
    # pieces, within the budget, so the plane answers
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "spectrum", "--basis", "5,-3,2;1,4,-3", "--bound", "3", "--format", "json")
    assert time.perf_counter() - t0 < 2
    assert code == 0
    assert json.loads(out)["d_value"] == "1/82"
    code, out, _ = run(capsys, "d", "--basis", "5,-3,2;1,4,-3")
    assert (code, out) == (0, "1/82\n")


def test_spectrum_past_class_budget_exit_3(capsys, monkeypatch):
    # 110,592 coprime classes mod m' = 420, counted before any class record is built
    monkeypatch.setattr("lonely_runner.spectrum.CLASS_BUDGET", 110_591)
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "spectrum", "--basis", "3,3,3,-3;3,4,-3,1", "--bound", "3")
    assert time.perf_counter() - t0 < 2
    assert code == 3
    assert json.loads(out) == {"error": "analysis needs more than 110591 class records"}


def test_spectrum_many_breakpoints_refused_fast(capsys):
    # the critical restrictions have 2,000 to 2,998 breakpoints, so m' must read each
    # one's argmins once, not once per offset, before the class budget refuses the plane
    t0 = time.perf_counter()
    code, out, _ = run(capsys, "spectrum", "--basis", "1,0,500;0,1,500", "--bound", "3")
    assert time.perf_counter() - t0 < 5
    assert code == 3
    assert "class records" in json.loads(out)["error"]


def test_d_basis(capsys):
    code, out, _ = run(capsys, "d", "--basis", "0,1,2,3;1,0,0,0")
    assert (code, out) == (0, "1/4\n")


def test_d_json(capsys):
    code, out, _ = run(capsys, "d", "--vector", "1,2,3,4", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"d_value": "3/10"}


def test_d_improper_exit(capsys):
    code, _, err = run(capsys, "d", "--vector", "1,0,2")
    assert code == 1
    assert "improper subtorus" in err


def test_degenerate_basis_json_error(capsys):
    for cmd in ("d", "zero-locus", "finiteness"):
        code, out, _ = run(capsys, cmd, "--basis", "1,2,3;2,4,6", "--format", "json")
        assert code == 1, cmd
        assert json.loads(out) == {"error": "not a plane"}, cmd


def test_parse_errors_exit_2(tmp_path, capsys):
    bad_args = [
        ("d", "--vector", "1,x,3"),
        ("d", "--vector", ""),
        ("d", "--basis", "1,2,3;4,5"),
        ("d", "--basis", ""),
        ("enumerate", "--n", "3", "--d", "1/0"),
        ("enumerate", "--n", "3", "--d", ""),
        ("spectrum", "--basis", ""),
        ("certify", "--basis", "", "--bound", "5"),
    ]
    for bound in ("-5", "0"):
        bad_args.append(("spectrum", "--basis", U2_BASIS, "--bound", bound))
        bad_args.append(("certify", "--basis", U2_BASIS, "--bound", bound))
    for argv in bad_args:
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2, argv
        assert "error:" in capsys.readouterr().err, argv
    # a bad --against file is found after parsing and still returns 2
    empty_box = {
        "d_value": "1/4",
        "progressions": [],
        "base_value_attained": True,
        "exceptional_values": [],
        "certified_bound": 0,
    }
    path = tmp_path / "empty_box.json"
    path.write_text(json.dumps(empty_box))
    assert run(capsys, "certify", "--basis", U2_BASIS, "--against", str(path))[0] == 2
    # a string flag or a non-integer bound would pass a lax cast, and true is no bound
    _, out, _ = run(capsys, "spectrum", "--basis", U2_BASIS, "--bound", "40")
    for key, bad in [
        ("base_value_attained", "false"),
        ("certified_bound", 40.7),
        ("certified_bound", True),
    ]:
        wrong = tmp_path / "wrong_type.json"
        wrong.write_text(json.dumps({**json.loads(out), key: bad}))
        code, _, err = run(capsys, "certify", "--basis", U2_BASIS, "--against", str(wrong))
        assert code == 2 and "is not a JSON" in err, (key, bad)
    # a file is verified at its own certified_bound, so --bound with it is refused
    good = tmp_path / "good.json"
    good.write_text(out)
    code, out, err = run(
        capsys, "certify", "--basis", U2_BASIS, "--against", str(good), "--bound", "40"
    )
    assert (code, out) == (2, "")
    assert "own certified_bound" in err
    # --against prints text only, so another format is refused before the file is read
    for fmt in ("json", "csv"):
        code, out, err = run(
            capsys, "certify", "--basis", U2_BASIS, "--against", str(path), "--format", fmt
        )
        assert (code, out) == (2, ""), fmt
        assert "--against prints text only" in err, fmt


def test_parse_error_process_exits_2_without_traceback():
    src = str(Path(lonely_runner.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "lonely_runner.cli", "d", "--vector", "1,x,3"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_self_check_failure_exit_4(capsys, monkeypatch):
    def failing_gamma_table(*args):
        raise RuntimeError("gamma table self-check failed")

    monkeypatch.setattr("lonely_runner.spectrum.gamma_table", failing_gamma_table)
    code, out, err = run(
        capsys, "spectrum", "--basis", U2_BASIS, "--bound", "5", "--format", "text"
    )
    assert (code, out, err) == (4, "", "error: gamma table self-check failed\n")
    code, out, _ = run(capsys, "spectrum", "--basis", U2_BASIS, "--bound", "5")
    assert code == 4
    assert json.loads(out) == {"error": "gamma table self-check failed"}


def test_unknown_kernel_backend_exit_1(capsys, monkeypatch):
    # neither names a backend: numpy is the default, python the reference
    for mode in ("numba", "auto"):
        monkeypatch.setenv("LONELY_RUNNER_KERNEL", mode)
        error = f"unknown kernel backend {mode!r}"
        assert run(capsys, "d", "--vector", "1,2,3") == (1, "", f"error: {error}\n")
        code, out, _ = run(capsys, "d", "--vector", "1,2,3", "--format", "json")
        assert (code, json.loads(out)) == (1, {"error": error})
    monkeypatch.delenv("LONELY_RUNNER_KERNEL")
    assert run(capsys, "d", "--vector", "1,2,3") == (0, "1/4\n", "")


def test_argparse_rejects_unknown_choice():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--basis", U2_BASIS, "--format", "csv"])
    assert exc.value.code == 2


def test_enumerate_text_round_trips(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "3", "--d", "1/10")
    assert code == 0
    got = {parse_basis(line) for line in out.strip().splitlines()}
    assert got == {canonicalize_symmetry(u, v) for u, v in TENTH_PLANES}


def test_enumerate_json(capsys):
    code, out, _ = run(capsys, "enumerate", "--n", "4", "--d", "1/4", "--format", "json")
    assert code == 0
    got = {(tuple(e["u"]), tuple(e["v"])) for e in json.loads(out)}
    assert got == {
        canonicalize_symmetry(u, v) for u, v in (STRIP_QUARTER, SECTOR_QUARTER)
    }


def test_enumerate_unsupported_exit_3(capsys):
    code, _, err = run(capsys, "enumerate", "--n", "5", "--d", "1/10")
    assert code == 3
    assert "tight-instance data unavailable" in err


def test_enumerate_past_candidate_budget_exit_3(capsys):
    t0 = time.perf_counter()
    code, _, err = run(capsys, "enumerate", "--n", "3", "--d", "1/200")
    assert time.perf_counter() - t0 < 1
    assert code == 3
    assert "candidate bases" in err


def test_spectrum_json_deterministic(capsys):
    first = run(capsys, "spectrum", "--basis", U2_BASIS, "--bound", "80")
    second = run(capsys, "spectrum", "--basis", U2_BASIS, "--bound", "80")
    assert first == second
    assert first[0] == 0
    payload = json.loads(first[1])
    assert payload["d_value"] == "1/4"
    assert payload["base_value_attained"] is True
    assert payload["certified_bound"] == 80
    assert [(p["alpha"], p["beta"]) for p in payload["progressions"]] == [("8", "12")]
    assert payload["exceptional_values"] == []


def test_spectrum_past_box_budget_exit_3(capsys):
    t0 = time.perf_counter()
    code, out, _ = run(
        capsys, "spectrum", "--basis", format_basis(*STRIP_TENTH_A), "--bound", "1000000"
    )
    assert time.perf_counter() - t0 < 5
    assert code == 3
    assert "sweep box" in json.loads(out)["error"]


def test_outputs_do_not_depend_on_the_sweep_cache(capsys, monkeypatch):
    # the second and third commands are served from and grow the first one's entry
    basis = format_basis(*STRIP_TENTH_A)
    commands = [
        ("spectrum", "--bound", "20"),
        ("certify", "--bound", "12", "--format", "csv"),
        ("certify", "--bound", "25", "--format", "json"),
    ]
    monkeypatch.setattr(torus, "_SWEEP_CACHE", {})
    warm = [run(capsys, cmd, "--basis", basis, *rest) for cmd, *rest in commands]
    for (cmd, *rest), out in zip(commands, warm):
        torus._SWEEP_CACHE.clear()
        assert run(capsys, cmd, "--basis", basis, *rest) == out, cmd
        assert out[0] == 0, cmd

# sha256 of `spectrum --bound 20 --format json` and of `certify --bound 12 --format csv` on
# the golden planes; re-recording one needs a reason in CHANGES.md
GOLDEN_IDS = [
    "strip-quarter", "sector-quarter", "strip-tenth-a", "strip-tenth-b",
    "sector-tenth-a", "sector-tenth-b", "sector-third", "finite-three-tenths",
]
GOLDENS = [
    STRIP_QUARTER, SECTOR_QUARTER, STRIP_TENTH_A, STRIP_TENTH_B,
    SECTOR_TENTH_A, SECTOR_TENTH_B, SECTOR_THIRD, FINITE_THREE_TENTHS,
]
SPECTRUM_DIGESTS = [
    "366f88876387e97b02ca611d343464efb6025eb6026414e1261c03e595bb33e3",
    "3ad9443e1d4743508c5af6c76731fa18c1a369f5609377a9a6cbee09ada70a1c",
    "bf0f1b0170283e8a4d0e876596986cbb54201d1b7d4ce81c2b53192ce9f66d0d",
    "6a7bc17453f6e396c3223bf5a2917345193aa8cdff1506cd49a2e12cba976083",
    "4c56c4c3eaab1086e92c5f02b9479f51f265e43200b61d86478d959dd88a1cd3",
    "3fcc5d2450712ee8918bb859c78af3b80bb151ce4d674e24110f28029345ec0a",
    "bfc2570ce0a110a0ed2053f198f7cbccf21c87790597d46ed21caa51d48b0894",
    "2c68542c4e3ffcf6b965c38f27c806bc60cc50b3f99750c426a16dd76437a35b",
]
CERTIFY_CSV_DIGESTS = [
    "ac31300a602ab38f41fd004b6e829c09d2e41dc18e8992e5083e15633eaae288",
    "acc3895df2b59039fdd9c2ba601b70c469bedb6c59a5a0c970ef4fbce37a578c",
    "1f95a3160a8a9555d5be30c61e8856141da256b1533e876b764a9ef67965c9b3",
    "829bc64e1922e2399dd44c37abab708e54b8a454185d0295a4382e9a2a9c456e",
    "b67e70f5083ed7a4281dd6cb4787700e50d5abeadf129218856b78c72ee322ae",
    "628ac68c7715b3bd09580c09b555e355494ee2fba681c09b2aaac56e34bf0adf",
    "e4bfbdb0f6b6a418604357fe205cab12ae902b82c5e3d520cb381a00f5e62736",
    "1a3695961059ff3180ec63440dad816756e083c7378f2555a9c96c478e7b7750",
]


@pytest.mark.parametrize("plane, digest", zip(GOLDENS, SPECTRUM_DIGESTS), ids=GOLDEN_IDS)
def test_spectrum_json_golden_digest(capsys, plane, digest):
    code, out, _ = run(
        capsys, "spectrum", "--basis", format_basis(*plane), "--bound", "20", "--format", "json"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


@pytest.mark.parametrize("plane, digest", zip(GOLDENS, CERTIFY_CSV_DIGESTS), ids=GOLDEN_IDS)
def test_certify_csv_golden_digest(capsys, plane, digest):
    code, out, _ = run(
        capsys, "certify", "--basis", format_basis(*plane), "--bound", "12", "--format", "csv"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_spectrum_text(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--basis", "0,1,2,3;1,0,0,0", "--bound", "60",
        "--format", "text",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "d_value 1/4"
    assert lines[1] == "base_value_attained true"
    assert any(line.startswith("progression alpha=16 beta=20") for line in lines)
    assert lines[-1] == "certified_bound 60"


def test_spectrum_trace_on_stderr(capsys):
    code, out, err = run(
        capsys, "spectrum", "--basis", U2_BASIS, "--bound", "60", "--trace"
    )
    assert code == 0
    assert err.splitlines()[0] == (
        "route sector m_prime 4 tables 3 minima 0 classes 12 geometries 12"
    )
    assert json.loads(out)["d_value"] == "1/4"
    # a half-line record is printed with its residue, the record's index
    code, _, err = run(
        capsys, "spectrum", "--basis", "0,1,2,3;1,0,0,0", "--bound", "20", "--trace"
    )
    assert code == 0
    assert err.splitlines()[2] == (
        "  residue 0 LineClassRecord(outcome='family', gamma=Fraction(1, 4), slope=4,"
        " const=1, s0=16, winner=(0, 1, -1, 0))"
    )


def test_zero_locus_text(capsys):
    code, out, _ = run(capsys, "zero-locus", "--basis", U8_BASIS)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "12 elements"
    assert sum(1 for line in lines if line.startswith("point")) == 4
    assert sum(1 for line in lines if line.startswith("segment")) == 8


def test_zero_locus_json(capsys):
    code, out, _ = run(capsys, "zero-locus", "--basis", U8_BASIS, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 12
    points = [e for e in payload if e["kind"] == "point"]
    assert {tuple(e["at"]) for e in points} == {
        ("1/5", "1/5"), ("2/5", "2/5"), ("3/5", "3/5"), ("4/5", "4/5")
    }
    for e in payload:
        if e["kind"] == "segment":
            assert e["direction"] in ([0, 1], [1, 0])


def test_finiteness_text(capsys):
    code, out, _ = run(capsys, "finiteness", "--basis", U8_BASIS)
    assert code == 0
    assert out.splitlines()[0] == "finite"
    code, out, _ = run(capsys, "finiteness", "--basis", "0,1,2,3;1,0,0,0")
    assert code == 0
    assert out.splitlines()[0] == "infinite"
    assert "common_direction (0, 1)" in out


def test_finiteness_json(capsys):
    code, out, _ = run(capsys, "finiteness", "--basis", U8_BASIS, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "finite"
    dirs = {tuple(s["direction"]) for s in payload["witness_segments"]}
    assert len(dirs) == 2


def test_certify_text_counts(capsys):
    code, out, _ = run(capsys, "certify", "--basis", "0,1,2,3;1,0,0,0", "--bound", "30")
    assert code == 0
    fields = dict(
        line.split(" ", 1) for line in out.splitlines() if " " in line
    )
    total = int(fields["total"])
    partial = int(fields["improper"]) + int(fields["base_count"])
    prog_counts = [
        int(line.rsplit("count=", 1)[1])
        for line in out.splitlines()
        if line.startswith("progression")
    ]
    assert total == partial + sum(prog_counts)


def test_certify_csv(capsys):
    code, out, _ = run(
        capsys, "certify", "--basis", "0,1,2,3;1,0,0,0", "--bound", "20",
        "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["A", "B", "D_value", "classification"]
    seen = set()
    for a, b, val, label in rows[1:]:
        int(a), int(b)
        if label == "improper":
            assert val == ""
        else:
            assert "/" in val or val.isdigit()
        seen.add(label.split("(")[0])
    assert "base" in seen and "progression" in seen


def test_certify_against_round_trip(tmp_path, capsys):
    code, out, _ = run(capsys, "spectrum", "--basis", U2_BASIS, "--bound", "80")
    assert code == 0
    path = tmp_path / "desc.json"
    path.write_text(out)
    code, out, _ = run(capsys, "certify", "--basis", U2_BASIS, "--against", str(path))
    assert code == 0
    assert out.startswith("verified against")


def test_certify_against_detects_mismatch(tmp_path, capsys):
    _, out, _ = run(capsys, "spectrum", "--basis", U2_BASIS, "--bound", "80")
    payload = json.loads(out)
    payload["progressions"][0]["beta"] = "13"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "certify", "--basis", U2_BASIS, "--against", str(path))
    assert code == 1
    assert "mismatch" in out


def test_certify_against_malformed_file(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "certify", "--basis", U2_BASIS, "--against", str(path))
    assert code == 2
    assert "cannot load" in err

"""The benchmark's traced mode: perfbench/spans.py wraps package functions at the module
names they are called through, so each of its spans must still see a call."""

import importlib.util
from functools import lru_cache
from pathlib import Path

from lonely_runner import catalog, cli, torus

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# each command and the spans it must reach; a span reached only through one of its
# wrapped names is listed under a command that calls it through that name
BASIS = "0,1,2;1,1,0"
REACHES = [
    (
        ["spectrum", "--basis", BASIS, "--bound", "6"],
        {
            "cli", "spectrum.analysis", "spectrum.class_setup", "slices.slice_structure",
            "pwl.build_restriction", "pwl.gamma_table", "spectrum.description",
            "torus.oracle_sweep", "kernels.sweep_raw",
        },
    ),
    (["certify", "--basis", BASIS, "--bound", "6"], {"cli", "spectrum.certify", "torus.oracle_sweep"}),
    (["d", "--basis", BASIS], {"cli", "torus.d_plane", "slices.slice_structure", "pwl.build_restriction"}),
    (["zero-locus", "--basis", BASIS], {"cli", "locus.zero_locus", "torus.d_plane"}),
    (["finiteness", "--basis", BASIS], {"cli", "locus.zero_locus", "torus.d_plane"}),
    (
        ["enumerate", "--n", "3", "--d", "1/6"],
        {"cli", "catalog.enumerate", "torus.canonicalize_symmetry", "torus.d_plane"},
    ),
]


def test_every_span_sees_a_call(capsys, monkeypatch):
    spans = load_spans()
    # cold caches, so the sweep and the enumeration run under the tracer as on a fresh start
    monkeypatch.setattr(torus, "_SWEEP_CACHE", {})
    monkeypatch.setattr(
        catalog, "_enumerate_cached", lru_cache(maxsize=None)(catalog._enumerate_cached.__wrapped__)
    )
    assert len(spans.SPANS) == 14
    assert set().union(*(names for _, names in REACHES)) == set(spans.SPANS)
    selfcheck_points = 0
    for argv, names in REACHES:
        tracer = spans.Tracer()
        tracer.install()
        try:
            assert cli.main(argv) == 0, argv
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        assert {n for n in names if metrics[n + ".calls"] < 1} == set(), argv
        selfcheck_points += metrics["pwl.selfcheck_points"]
    capsys.readouterr()
    assert selfcheck_points > 0

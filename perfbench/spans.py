"""Per-layer spans and counters, recorded by wrapping public functions from outside the package.

Each wrapped function is replaced at the module names it is called through,
so the package itself is unchanged.  A span's self time is its duration minus
the time of the spans it encloses.  coset_min_direct is timed as a counter,
not a span: it is the gamma table's self-check, and its time stays in the
gamma table's self time.
"""

from __future__ import annotations

import time
from collections import defaultdict

from lonely_runner import _kernels, catalog, cli, locus, pwl, slices, spectrum, torus

# span name -> the (module, attribute) pairs it is called through
SPANS = {
    "cli": [(cli, "main")],
    "spectrum.analysis": [(spectrum.SpectrumAnalysis, "__init__")],
    "spectrum.class_setup": [(spectrum, "class_setup")],
    "slices.slice_structure": [(spectrum, "slice_structure"), (torus, "slice_structure")],
    "pwl.build_restriction": [(slices, "build_restriction")],
    "pwl.gamma_table": [(spectrum, "gamma_table")],
    "spectrum.description": [(spectrum.SpectrumAnalysis, "description")],
    "torus.oracle_sweep": [(spectrum, "oracle_sweep")],
    "kernels.sweep_raw": [(_kernels, "sweep_raw")],
    "spectrum.certify": [(spectrum, "certify"), (cli, "certify")],
    "torus.d_plane": [(cli, "d_plane"), (locus, "d_plane"), (catalog, "d_plane")],
    "locus.zero_locus": [(cli, "zero_locus"), (locus, "zero_locus")],
    "catalog.enumerate": [(cli, "enumerate_2d_subtori")],
    "torus.canonicalize_symmetry": [(catalog, "canonicalize_symmetry")],
}

COUNTERS = (
    "pwl.selfcheck_points",
    "pwl.selfcheck_s",
    "kernels.rows",
    "kernels.python_fallbacks",
    "torus.rows_served",
    "locus.elements",
    "spectrum.sector_classes",
    "spectrum.halfline_classes",
    "spectrum.m_prime_max",
    "spectrum.route.sector",
    "spectrum.route.lines",
    "spectrum.route.finite",
    "spectrum.certify.pairs",
)


class Tracer:
    """Installs the wrappers, accumulates span times and counters, and restores the originals."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0.0, 0, 0.0])  # name -> [seconds, calls, self seconds]
        self.counts = defaultdict(float)
        self._open: list[list[float]] = []  # child seconds of each open span
        self._saved: list = []

    def _span(self, name, fn):
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._open.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._open.pop()
                if self._open:
                    self._open[-1][0] += dt
                stat = self.spans[name]
                stat[0] += dt
                stat[1] += 1
                stat[2] += dt - frame[0]
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _selfcheck(self, fn):
        def wrapper(f, b, q):
            t0 = time.perf_counter()
            try:
                return fn(f, b, q)
            finally:
                self.counts["pwl.selfcheck_s"] += time.perf_counter() - t0
                self.counts["pwl.selfcheck_points"] += q

        return wrapper

    def _after_kernels_sweep_raw(self, args, rows):
        u, v, bound = args
        self.counts["kernels.rows"] += len(rows)
        scale = bound * max(abs(a) + abs(b) for a, b in zip(u, v))
        if _kernels.backend() != "python" and scale > _kernels.MAX_ABS:
            self.counts["kernels.python_fallbacks"] += 1

    def _after_torus_oracle_sweep(self, args, sweep):
        self.counts["torus.rows_served"] += len(sweep)

    def _after_locus_zero_locus(self, args, elements):
        self.counts["locus.elements"] += len(elements)

    def _after_spectrum_certify(self, args, report):
        self.counts["spectrum.certify.pairs"] += report.total

    def _after_spectrum_analysis(self, args, _):
        ana = args[0]
        self.counts["spectrum.route." + ana.route] += 1
        self.counts["spectrum.sector_classes"] += len(ana.sector_records)
        self.counts["spectrum.halfline_classes"] += sum(len(r[3]) for r in ana.flat_lines)
        # read without triggering the lazy computation, which the finite route skips
        mp = ana.setup._m_prime or 0
        self.counts["spectrum.m_prime_max"] = max(self.counts["spectrum.m_prime_max"], mp)

    def install(self):
        for name, sites in SPANS.items():
            for owner, attr in sites:
                original = getattr(owner, attr)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._span(name, original))
        self._saved.append((pwl, "coset_min_direct", pwl.coset_min_direct))
        pwl.coset_min_direct = self._selfcheck(pwl.coset_min_direct)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of one traced pass, by name."""
        out = {}
        for name in SPANS:
            seconds, calls, self_s = self.spans[name]
            out[name + ".s"] = seconds
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
        c = {k: self.counts[k] for k in COUNTERS}
        out.update(c)
        gamma_s = out["pwl.gamma_table.s"]
        out["pwl.selfcheck_share"] = c["pwl.selfcheck_s"] / gamma_s if gamma_s else 0.0
        sweep_s = out["kernels.sweep_raw.s"]
        out["kernels.rows_per_s"] = c["kernels.rows"] / sweep_s if sweep_s else 0.0
        served_calls = out["torus.oracle_sweep.calls"]
        out["torus.sweep_cache.hit_ratio"] = (
            1 - out["kernels.sweep_raw.calls"] / served_calls if served_calls else 0.0
        )
        out["kernels.rows_computed_per_served"] = (
            c["kernels.rows"] / c["torus.rows_served"] if c["torus.rows_served"] else 0.0
        )
        return out

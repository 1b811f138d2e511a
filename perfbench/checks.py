"""Output gate: independent checks of every job's output, run outside the timed window.

Each check returns a list of failure reasons; an empty list means the output
passed.  Checks recompute what they need through the package's public
functions, never through the output under test, and re-evaluate oracle values
on the pure-python kernel backend.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

from lonely_runner.exact import saturate_plane
from lonely_runner.torus import canonicalize_symmetry, d_line_oracle, d_plane, d_point


def box_pair_count(bound: int) -> int:
    """Coprime pairs (A, B) with 0 <= A <= bound and |B| <= bound, up to sign."""
    # A = 0 contributes (0, 1) only
    return 1 + sum(
        1 for A in range(1, bound + 1) for B in range(-bound, bound + 1) if math.gcd(A, B) == 1
    )


def in_box(pair, bound: int) -> bool:
    A, B = pair
    return 0 <= A <= bound and abs(B) <= bound and math.gcd(A, B) == 1


class Checker:
    """Checks job outputs; caches the exact values it recomputes per plane."""

    def __init__(self):
        self._d = {}
        self._oracle = {}

    def d_plane(self, plane) -> Fraction:
        if plane not in self._d:
            self._d[plane] = d_plane(*plane)
        return self._d[plane]

    def oracle(self, plane, A: int, B: int) -> Fraction:
        """D of the line through A*u + B*v in the saturated basis, on the python backend."""
        key = (plane, A, B)
        if key not in self._oracle:
            su, sv = saturate_plane(*plane)
            w = tuple(A * a + B * b for a, b in zip(su, sv))
            saved = os.environ.get("LONELY_RUNNER_KERNEL")
            os.environ["LONELY_RUNNER_KERNEL"] = "python"
            try:
                self._oracle[key] = d_line_oracle(w)
            finally:
                if saved is None:
                    del os.environ["LONELY_RUNNER_KERNEL"]
                else:
                    os.environ["LONELY_RUNNER_KERNEL"] = saved
        return self._oracle[key]

    def spectrum(self, out: dict, plane, bound: int) -> list[str]:
        bad = []
        d = Fraction(out["d_value"])
        if d != self.d_plane(plane):
            bad.append(f"d_value {d} != d_plane {self.d_plane(plane)}")
        if out["certified_bound"] != bound:
            bad.append(f"certified_bound {out['certified_bound']} != {bound}")
        for p in out["progressions"]:
            alpha, beta = Fraction(p["alpha"]), Fraction(p["beta"])
            for s, A, B in p["witnesses"]:
                want = d + 1 / (alpha * s + beta)
                if not in_box((A, B), bound):
                    bad.append(f"witness {(s, A, B)} outside the box")
                elif self.oracle(plane, A, B) != want:
                    bad.append(f"witness {(s, A, B)}: oracle {self.oracle(plane, A, B)} != {want}")
        for e in out["exceptional_values"]:
            pair = tuple(e["pair"])
            if not in_box(pair, bound) or self.oracle(plane, *pair) != Fraction(e["value"]):
                bad.append(f"exceptional value {e['value']} at {pair} not confirmed")
        return bad

    def certify(self, out: dict, plane, bound: int) -> list[str]:
        bad = []
        total = box_pair_count(bound)
        if out["total"] != total:
            bad.append(f"total {out['total']} != {total} coprime pairs in the box")
        classified = out["improper"] + out["base_count"] + sum(p["count"] for p in out["progressions"])
        if classified + len(out["exceptional"]) > out["total"]:
            bad.append(f"{classified} classified pairs exceed total {out['total']}")
        for e in out["exceptional"]:
            pair = tuple(e["pair"])
            if not in_box(pair, bound) or self.oracle(plane, *pair) != Fraction(e["value"]):
                bad.append(f"exceptional value {e['value']} at {pair} not confirmed")
        return bad

    def enumerate(self, out: list, n: int, d: Fraction) -> list[str]:
        bad = []
        for entry in out:
            plane = (tuple(entry["u"]), tuple(entry["v"]))
            if len(plane[0]) != n:
                bad.append(f"{plane} has dimension {len(plane[0])}, not {n}")
            elif canonicalize_symmetry(*plane) != plane:
                bad.append(f"{plane} is not its orbit's canonical representative")
            elif self.d_plane(plane) != d:
                bad.append(f"{plane} has d_plane {self.d_plane(plane)}, not {d}")
        return bad

    def d_value(self, out: dict, source) -> list[str]:
        """A random image must keep the distance of the plane it was made from."""
        if source is None or Fraction(out["d_value"]) == self.d_plane(source):
            return []
        return [f"d_value {out['d_value']} != {self.d_plane(source)} of source plane {source}"]

    @staticmethod
    def locus_shape(zl_out: list, fin_out: dict) -> tuple:
        """(verdict, segments, points) of a plane, from its zero-locus and finiteness outputs."""
        kinds = [e["kind"] for e in zl_out]
        return fin_out["verdict"], kinds.count("segment"), kinds.count("point")

    @staticmethod
    def image_locus(image_shape: tuple, source, source_shape: tuple) -> list[str]:
        """An image's zero locus must have its source's verdict and numbers of segments and points.

        A unimodular change of basis and a signed coordinate permutation map
        the parameter torus onto itself and keep every point's distance, so
        they carry maximal segments and isolated points one to one.
        """
        if image_shape == source_shape:
            return []
        names = ("verdict", "segments", "points")
        return [
            "zero locus (" + ", ".join(f"{k} {x}" for k, x in zip(names, image_shape))
            + ") differs from that of its source plane " + str(source)
            + " (" + ", ".join(f"{k} {x}" for k, x in zip(names, source_shape)) + ")"
        ]

    def locus(self, plane, d_out: dict, zl_out: list, fin_out: dict) -> list[str]:
        """Zero-locus elements sit at the plane's distance; finiteness agrees with their directions."""
        bad = []
        d = Fraction(d_out["d_value"])
        u, v = saturate_plane(*plane)
        for e in zl_out:
            if e["kind"] == "point":
                pts = [e["at"]]
            else:
                start = [Fraction(c) for c in e["start"]]
                end = [Fraction(c) for c in e["end"]]
                pts = [start, end, [(s + t) / 2 for s, t in zip(start, end)]]
            for a, b in pts:
                a, b = Fraction(a), Fraction(b)
                x = tuple(a * p + b * q for p, q in zip(u, v))
                if d_point(x) != d:
                    bad.append(f"zero-locus point ({a}, {b}) is at distance {d_point(x)}, not {d}")
        segments = [e for e in zl_out if e["kind"] == "segment"]
        directions = {tuple(e["direction"]) for e in segments}
        verdict = "finite" if len(directions) >= 2 else "infinite"
        if fin_out["verdict"] != verdict:
            bad.append(f"verdict {fin_out['verdict']} but segment directions {sorted(directions)}")
        witnesses = fin_out["witness_segments"]
        if verdict == "finite":
            if len(witnesses) != 2 or witnesses[0]["direction"] == witnesses[1]["direction"]:
                bad.append("finite verdict without two non-parallel witness segments")
            elif any(w not in segments for w in witnesses):
                bad.append("witness segment missing from the zero locus")
        else:
            common = list(directions.pop()) if directions else None
            if witnesses or fin_out["common_direction"] != common:
                bad.append(f"common_direction {fin_out['common_direction']} != {common}")
        return bad


def exit_failures(out) -> list[str]:
    """Failure reasons visible without the gate: the job raised or exited non-zero."""
    if out is None:
        return ["raised"]
    return [f"exit code {out[0]}"] if out[0] != 0 else []


def check_jobs(jobs, outputs) -> list[list[str]]:
    """Failure reasons for every job, given each job's (exit code, output text); None marks a crash."""
    checker = Checker()
    parsed = []
    reasons = []
    for job, out in zip(jobs, outputs):
        bad = exit_failures(out)
        data = None
        if not bad:
            try:
                data = json.loads(out[1])
            except ValueError:
                bad.append("output is not JSON")
        parsed.append(data)
        reasons.append(bad)
    by_plane: dict = {}
    for k, (job, data) in enumerate(zip(jobs, parsed)):
        if data is None:
            continue
        try:
            if job.command in ("spectrum", "relative_spectrum"):
                reasons[k] += checker.spectrum(data, job.plane, job.bound)
            elif job.command == "certify":
                reasons[k] += checker.certify(data, job.plane, job.bound)
            elif job.command == "enumerate":
                n, d = int(job.argv[2]), Fraction(job.argv[4])
                reasons[k] += checker.enumerate(data, n, d)
            elif job.command == "d":
                reasons[k] += checker.d_value(data, job.source)
            if job.command in ("d", "zero-locus", "finiteness"):
                by_plane.setdefault(job.plane, {})[job.command] = k
        except (KeyError, TypeError, ValueError) as e:
            reasons[k].append(f"malformed output: {e!r}")
    for plane, idx in by_plane.items():
        if len(idx) != 3:
            continue
        k_d, k_z, k_f = idx["d"], idx["zero-locus"], idx["finiteness"]
        try:
            bad = checker.locus(plane, parsed[k_d], parsed[k_z], parsed[k_f])
            source = jobs[k_d].source
            if source is not None:
                # every workload runs the source plane's own locus jobs too
                src = by_plane[source]
                bad += checker.image_locus(
                    checker.locus_shape(parsed[k_z], parsed[k_f]),
                    source,
                    checker.locus_shape(parsed[src["zero-locus"]], parsed[src["finiteness"]]),
                )
        except (KeyError, TypeError, ValueError) as e:
            bad = [f"malformed output: {e!r}"]
        for k in (k_z, k_f):
            reasons[k] += bad
    return reasons

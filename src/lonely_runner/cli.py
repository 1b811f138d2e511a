"""Command-line front end: exact distances, spectra, enumeration, loci, and certification sweeps."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

from .catalog import UnsupportedRequest, enumerate_2d_subtori
from .locus import finiteness, zero_locus
from .spectrum import (
    DEFAULT_BOUND,
    Progression,
    SpectrumAnalysis,
    SpectrumDescription,
    certify,
    classify_pairs,
)
from .torus import d_line_oracle, d_plane


class ParseError(argparse.ArgumentTypeError):
    """Malformed command-line or file input."""


def parse_vector(text: str) -> tuple[int, ...]:
    """Parse a comma-separated integer vector."""
    try:
        vec = tuple(int(c) for c in text.split(","))
    except ValueError:
        raise ParseError(f"bad vector {text!r}: expected comma-separated integers")
    return vec


def parse_basis(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Parse two semicolon-separated generator vectors."""
    parts = text.split(";")
    if len(parts) != 2:
        raise ParseError(f"bad basis {text!r}: expected 'u1,..,un;v1,..,vn'")
    u, v = parse_vector(parts[0]), parse_vector(parts[1])
    if len(u) != len(v):
        raise ParseError("basis vectors differ in length")
    return u, v


def format_vector(vec) -> str:
    return ",".join(str(c) for c in vec)


def format_basis(u, v) -> str:
    return format_vector(u) + ";" + format_vector(v)


def parse_rational(text: str) -> Fraction:
    """Parse an exact fraction such as 1/4."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad fraction {text!r}")


def parse_bound(text: str) -> int:
    """Parse a certification box bound; below 1 the box would hold no pair."""
    try:
        bound = int(text)
    except ValueError:
        raise ParseError(f"bad bound {text!r}: expected an integer")
    if bound < 1:
        raise ParseError(f"bad bound {bound}: must be at least 1")
    return bound


def emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def spectrum_payload(desc: SpectrumDescription) -> dict:
    return {
        "d_value": str(desc.d_value),
        "progressions": [
            {
                "alpha": str(p.alpha),
                "beta": str(p.beta),
                "witnesses": [[s, a, b] for s, a, b in p.witnesses],
                "unwitnessed": [[s, reason] for s, reason in p.unwitnessed],
            }
            for p in desc.progressions
        ],
        "base_value_attained": desc.base_value_attained,
        "exceptional_values": [
            {"value": str(val), "pair": list(pair)} for val, pair in desc.exceptional_values
        ],
        "certified_bound": desc.certified_bound,
    }


def load_description(path: str) -> SpectrumDescription:
    """Rebuild a spectrum description from its JSON serialization."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
        progs = tuple(
            Progression(
                Fraction(p["alpha"]),
                Fraction(p["beta"]),
                tuple((s, a, b) for s, a, b in p["witnesses"]),
                tuple((s, reason) for s, reason in p["unwitnessed"]),
            )
            for p in raw["progressions"]
        )
        exc = tuple(
            (Fraction(e["value"]), tuple(e["pair"])) for e in raw["exceptional_values"]
        )
        attained, bound = raw["base_value_attained"], raw["certified_bound"]
        if type(attained) is not bool:
            raise ValueError(f"base_value_attained {attained!r} is not a JSON boolean")
        if type(bound) is not int:
            raise ValueError(f"certified_bound {bound!r} is not a JSON integer")
        if bound < 1:
            raise ValueError(f"certified_bound {bound} is below 1")
        return SpectrumDescription(Fraction(raw["d_value"]), progs, attained, exc, bound)
    except (OSError, KeyError, TypeError, ValueError) as e:
        raise ParseError(f"cannot load spectrum description from {path}: {e}")


def cmd_d(args: argparse.Namespace) -> int:
    value = d_plane(*args.basis) if args.basis is not None else d_line_oracle(args.vector)
    if args.format == "json":
        emit_json({"d_value": str(value)})
    else:
        print(value)
    return 0


def cmd_spectrum(args: argparse.Namespace) -> int:
    ana = SpectrumAnalysis(*args.basis)
    if args.trace:
        s = ana.setup
        # classes with equal coset gammas share one tuple of sector records
        geometries = len({id(recs) for recs in ana.sector_records.values()})
        # m' is read, not computed: the finite route never needs it
        print(
            f"route {ana.route} m_prime {s._m_prime or '-'} tables {len(s._tables)}"
            f" minima {len(s._minima)} classes {ana.classes} geometries {geometries}",
            file=sys.stderr,
        )
        for c, base, direction, recs in ana.flat_lines:
            print(f"line c={c} base={base} direction={direction}", file=sys.stderr)
            for res, r in enumerate(recs):
                print(f"  residue {res} {r}", file=sys.stderr)
        for key, recs in sorted(ana.sector_records.items()):
            print(f"sector class {key}", file=sys.stderr)
            for r in recs:
                print(f"  {r}", file=sys.stderr)
    desc = ana.description(args.bound)
    if args.format == "json":
        emit_json(spectrum_payload(desc))
        return 0
    print(f"d_value {desc.d_value}")
    print(f"base_value_attained {str(desc.base_value_attained).lower()}")
    for p in desc.progressions:
        missing = ",".join(str(s) for s, _ in p.unwitnessed) or "-"
        print(
            f"progression alpha={p.alpha} beta={p.beta}"
            f" witnessed={len(p.witnesses)} unwitnessed={missing}"
        )
    for val, pair in desc.exceptional_values:
        print(f"exceptional {val} at {pair}")
    print(f"certified_bound {desc.certified_bound}")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    planes = enumerate_2d_subtori(args.n, args.d)
    if args.format == "json":
        emit_json([{"u": list(u), "v": list(v)} for u, v in planes])
    else:
        for u, v in planes:
            print(format_basis(u, v))
    return 0


def cmd_finiteness(args: argparse.Namespace) -> int:
    report = finiteness(*args.basis)
    if args.format == "json":
        emit_json(
            {
                "verdict": report.verdict,
                "note": report.note,
                "witness_segments": [
                    segment_payload(s) for s in report.witness_segments
                ],
                "common_direction": list(report.common_direction)
                if report.common_direction
                else None,
            }
        )
        return 0
    print(report.verdict)
    print(f"note {report.note}")
    for s in report.witness_segments:
        print(f"segment {point_str(s.start)} -> {point_str(s.end)} direction {s.direction}")
    if report.common_direction:
        print(f"common_direction {report.common_direction}")
    return 0


def point_str(pt) -> str:
    return f"({pt[0]}, {pt[1]})"


def segment_payload(e) -> dict:
    return {
        "kind": "segment",
        "start": [str(c) for c in e.start],
        "end": [str(c) for c in e.end],
        "direction": list(e.direction),
    }


def cmd_zero_locus(args: argparse.Namespace) -> int:
    elements = zero_locus(*args.basis)
    if args.format == "json":
        payload = []
        for e in elements:
            if e.kind == "point":
                payload.append({"kind": "point", "at": [str(c) for c in e.start]})
            else:
                payload.append(segment_payload(e))
        emit_json(payload)
        return 0
    for e in elements:
        if e.kind == "point":
            print(f"point {point_str(e.start)}")
        else:
            print(
                f"segment {point_str(e.start)} -> {point_str(e.end)}"
                f" direction {e.direction}"
            )
    print(f"{len(elements)} elements")
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    u, v = args.basis
    if args.against is not None:
        if args.format != "text":
            raise ParseError(f"--against prints text only, not --format {args.format}")
        if args.bound is not None:
            raise ParseError("--against verifies at the file's own certified_bound, not --bound")
        loaded = load_description(args.against)
        bound = loaded.certified_bound
        fresh = SpectrumAnalysis(u, v).description(bound)
        left, right = spectrum_payload(loaded), spectrum_payload(fresh)
        if left == right:
            print(f"verified against {args.against} at bound {bound}")
            return 0
        for key in sorted(left):
            if left[key] != right[key]:
                print(f"mismatch {key}: file {left[key]!r} vs recomputed {right[key]!r}")
        return 1
    bound = args.bound if args.bound is not None else DEFAULT_BOUND
    desc = SpectrumAnalysis(u, v).description(bound)
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["A", "B", "D_value", "classification"])
        for A, B, val, label in classify_pairs(u, v, desc, bound):
            writer.writerow([A, B, "" if val is None else str(val), label])
        return 0
    report = certify(u, v, desc, bound)
    if args.format == "json":
        emit_json(
            {
                "bound": report.bound,
                "total": report.total,
                "improper": report.improper,
                "base_count": report.base_count,
                "progressions": [
                    {
                        "alpha": str(p.alpha),
                        "beta": str(p.beta),
                        "count": c,
                    }
                    for p, c in zip(desc.progressions, report.progression_counts)
                ],
                "exceptional": [
                    {"value": str(val), "pair": list(pair)}
                    for val, pair in report.exceptional
                ],
            }
        )
        return 0
    print(f"bound {report.bound}")
    print(f"total {report.total}")
    print(f"improper {report.improper}")
    print(f"base_count {report.base_count}")
    for p, c in zip(desc.progressions, report.progression_counts):
        print(f"progression alpha={p.alpha} beta={p.beta} count={c}")
    for val, pair in report.exceptional:
        print(f"exceptional {val} at {pair}")
    return 0


COMMANDS = {
    "d": cmd_d,
    "spectrum": cmd_spectrum,
    "enumerate": cmd_enumerate,
    "finiteness": cmd_finiteness,
    "zero-locus": cmd_zero_locus,
    "certify": cmd_certify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lonely-runner",
        description="Exact covering-radius and relative-spectrum computations for subtori.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_d = sub.add_parser("d", help="exact distance of a line or plane to the half-center")
    group = p_d.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--vector", type=parse_vector, help="comma-separated speeds, e.g. 1,2,3,4"
    )
    group.add_argument(
        "--basis", type=parse_basis, help="two generators joined by ';', e.g. 0,1,2,3;1,0,0,0"
    )
    p_d.add_argument("--format", choices=("text", "json"), default="text")

    p_s = sub.add_parser("spectrum", help="certified description of the order-1 spectrum")
    p_s.add_argument("--basis", type=parse_basis, required=True)
    p_s.add_argument(
        "--bound", type=parse_bound, default=DEFAULT_BOUND, help="certification box bound"
    )
    p_s.add_argument("--format", choices=("text", "json"), default="json")
    p_s.add_argument("--trace", action="store_true", help="dump per-class records to stderr")

    p_e = sub.add_parser("enumerate", help="planes with a prescribed distance, up to symmetry")
    p_e.add_argument("--n", type=int, required=True, help="ambient dimension")
    p_e.add_argument("--d", type=parse_rational, required=True, help="target distance, e.g. 1/4")
    p_e.add_argument("--format", choices=("text", "json"), default="text")

    p_f = sub.add_parser("finiteness", help="finite or infinite order-1 spectrum, with witness")
    p_f.add_argument("--basis", type=parse_basis, required=True)
    p_f.add_argument("--format", choices=("text", "json"), default="text")

    p_z = sub.add_parser("zero-locus", help="points and segments attaining the plane distance")
    p_z.add_argument("--basis", type=parse_basis, required=True)
    p_z.add_argument("--format", choices=("text", "json"), default="text")

    p_c = sub.add_parser("certify", help="classify every in-box value against a description")
    p_c.add_argument("--basis", type=parse_basis, required=True)
    p_c.add_argument("--bound", type=parse_bound, default=None, help="certification box bound")
    p_c.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_c.add_argument("--against", help="verify a previously emitted spectrum JSON file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except BrokenPipeError:
        # downstream reader closed early; silence the flush-on-exit complaint
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as e:
        message = str(e)
        if args.format == "json":
            emit_json({"error": message})
        else:
            print(f"error: {message}", file=sys.stderr)
        if isinstance(e, RuntimeError):
            return 4  # an internal self-check failed
        return 3 if isinstance(e, UnsupportedRequest) else 1


if __name__ == "__main__":
    raise SystemExit(main())

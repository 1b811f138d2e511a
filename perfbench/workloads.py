"""Seeded job lists for each benchmark workload.

Plane tuples come from ``tests/goldens.py``; the caller puts ``tests`` on
``sys.path`` before importing this module.

Random planes are images of reference planes under a seeded signed coordinate
permutation and, where noted, a unimodular change of basis.  Such an image is
a proper plane with small entries that the package sees as new input, while
its cost stays close to its source's.  Planes drawn uniformly instead (n 3-4,
entries up to 3) cost from 0.1 s to 3 s each, which would make the run-to-run
spread across seeds wider than any useful bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import goldens as G

# a generic sector plane with large residue moduli; its analysis is dominated
# by gamma tables
GENERIC = ((2, -2, 3), (0, -1, -3))

WORKLOADS = ("spectrum-sector", "certify-ladder", "catalog-locus")
LOCUS_COMMANDS = ("d", "zero-locus", "finiteness")
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class Job:
    """One timed call into the package.

    kind is "cli" (argv goes to lonely_runner.cli.main) or a library call of a
    session: "relative_spectrum", or "certify" against the description the
    session computed last for the same plane and bound.  golden jobs have a
    seed-independent input and a recorded output digest; source names the
    reference plane a random image was made from.
    """

    id: str
    kind: str
    argv: tuple[str, ...]
    plane: tuple | None
    bound: int | None = None
    golden: bool = True
    source: tuple | None = None

    @property
    def command(self) -> str:
        return self.argv[0] if self.kind == "cli" else self.kind


def basis_arg(plane) -> str:
    u, v = plane
    return "--basis=" + ",".join(map(str, u)) + ";" + ",".join(map(str, v))


def cli_job(argv, plane=None, bound=None, source=None) -> Job:
    argv = tuple(argv)
    return Job(" ".join(argv), "cli", argv, plane, bound, source is None, source)


def plane_job(command, plane, bound=None, source=None, fmt="json") -> Job:
    argv = [command, basis_arg(plane)]
    if bound is not None:
        argv += ["--bound", str(bound)]
    return cli_job(argv + ["--format", fmt], plane, bound, source)


def image(rng: random.Random, plane, max_abs: int, shear: bool):
    """Seeded image of plane under a signed permutation and optionally a unimodular basis change."""
    u, v = plane
    n = len(u)
    for _ in range(1000):
        perm = rng.sample(range(n), n)
        signs = [rng.choice((1, -1)) for _ in range(n)]
        pu = [signs[k] * u[perm[k]] for k in range(n)]
        pv = [signs[k] * v[perm[k]] for k in range(n)]
        if shear:
            # [[1, a], [0, 1]] @ [[1, 0], [c, 1]] has determinant 1
            a, c = rng.choice((-1, 0, 1)), rng.choice((-1, 0, 1))
            pu, pv = (
                [(1 + a * c) * x + a * y for x, y in zip(pu, pv)],
                [c * x + y for x, y in zip(pu, pv)],
            )
        if max(abs(c) for c in pu + pv) <= max_abs:
            return tuple(pu), tuple(pv)
    raise RuntimeError(f"no image of {plane} with entries within {max_abs}")


def _spectrum_sector(rng, tiny):
    bound = 8 if tiny else 20
    goldens = (
        [G.SECTOR_TENTH_A, G.SECTOR_TENTH_B]
        if tiny
        else [G.SECTOR_QUARTER, G.SECTOR_TENTH_A, G.SECTOR_TENTH_B, G.SECTOR_THIRD, GENERIC]
    )
    sources = [G.SECTOR_TENTH_B] if tiny else [G.SECTOR_QUARTER, G.SECTOR_TENTH_A, G.SECTOR_TENTH_B]
    jobs = [plane_job("spectrum", p, bound) for p in goldens]
    for src in sources:
        jobs.append(plane_job("spectrum", image(rng, src, 3, True), bound, source=src))
    return jobs


def _certify_cases(tiny):
    if tiny:
        return [(G.STRIP_TENTH_A, 12), (G.FINITE_THREE_TENTHS, 6)]
    # STRIP_QUARTER is the slowest job by a margin, so slowest_job_s tracks
    # one sweep-bound job instead of whichever job a slow spell hit
    return [
        (G.STRIP_QUARTER, 90),
        (G.STRIP_TENTH_A, 70),
        (G.SECTOR_TENTH_B, 70),
        (G.FINITE_THREE_TENTHS, 15),
    ]


def _certify_ladder(rng, tiny):
    # certify sweeps each of its planes once; then one library session
    # re-sweeps planes at bounds visited out of order: later visits both
    # shrink and grow the box, and one bound is revisited
    jobs = [plane_job("certify", p, b) for p, b in _certify_cases(tiny)]
    if tiny:
        ladders = [(G.SECTOR_TENTH_A, (10, 6, 12, 6), None)]
    else:
        ladders = [
            (G.SECTOR_QUARTER, (50, 30, 70, 30, 60), None),
            # a signed permutation leaves every swept speed's absolute value
            # unchanged, so the sweep work does not depend on the seed
            (image(rng, G.STRIP_TENTH_B, 4, False), (50, 30, 60), G.STRIP_TENTH_B),
        ]
    for plane, bounds, src in ladders:
        golden = src is None
        label = basis_arg(plane)[len("--basis="):]
        for b in bounds:
            for kind in ("relative_spectrum", "certify"):
                jobs.append(
                    Job(f"lib {kind} {label} bound={b}", kind, (), plane, b, golden, src)
                )
    return jobs


def _catalog_locus(rng, tiny):
    if tiny:
        enums = [("3", "1/10")]
        planes = [G.SECTOR_THIRD]
        images = [(G.SECTOR_THIRD, True)]
    else:
        # d = 1/14 and n = 4, d = 1/4 take about 10 s each on a 2-vCPU VM,
        # which would leave room for one pass per run only
        enums = [("3", "1/10")]
        planes = [G.FINITE_THREE_TENTHS, G.SECTOR_THIRD]
        # a signed permutation keeps the cost of the n = 7 plane the same for
        # every seed
        images = [(G.FINITE_THREE_TENTHS, False), (G.SECTOR_THIRD, True)]
    jobs = [cli_job(["enumerate", "--n", n, "--d", d, "--format", "json"]) for n, d in enums]
    for plane in planes:
        for command in LOCUS_COMMANDS:
            jobs.append(plane_job(command, plane))
    # images get d only: zero_locus is not invariant under a signed permutation
    # or a change of basis (see locus_images), so their locus jobs would fail
    for src, shear in images:
        jobs.append(plane_job("d", image(rng, src, 3, shear), source=src))
    return jobs


def locus_images(seed: int) -> list[Job]:
    """Locus jobs on FINITE_THREE_TENTHS and a seeded signed permutation of it.

    The gate compares the image's zero locus with its source's.  At the
    reference commit they differ: locus._band_arcs lists a coordinate's arcs
    in decreasing t when that coordinate decreases along the circle, while
    locus._intersect_arcs expects increasing t, so arcs are lost.  The
    self-test runs these jobs to show whether the defect is still there.
    """
    rng = random.Random(f"locus-images:{seed}")
    src = G.FINITE_THREE_TENTHS
    img = image(rng, src, 3, False)
    return [plane_job(c, src) for c in LOCUS_COMMANDS] + [
        plane_job(c, img, source=src) for c in LOCUS_COMMANDS
    ]


BUILDERS = {
    "spectrum-sector": _spectrum_sector,
    "certify-ladder": _certify_ladder,
    "catalog-locus": _catalog_locus,
}


def jobs_for(workload: str, seed: int, size: str = "full") -> list[Job]:
    """The fixed job list of one workload; the same seed gives the same jobs."""
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng, size == "tiny")


def certify_planes(size: str = "full") -> list[tuple]:
    """The planes certify-ladder certifies, swept on every backend in the traced run."""
    return [plane for plane, _ in _certify_cases(size == "tiny")]

"""One pass of a workload's job list in a fresh interpreter; prints one JSON line.

run.py starts this script once per pass, so the package's caches
(torus._SWEEP_CACHE, catalog._enumerate_cached) start cold, as they do for a
command-line user.  Set-up time runs from the parent's clock reading just
before the process was started (CLOCK_MONOTONIC is system-wide on Linux) to
the end of the kernel warm-up.

Next to every time it takes, the child times calibrate(), a fixed loop of
pure-Python arithmetic, so that run.py can scale each time to a reference
machine speed (see run.py).
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", required=True, help="checkout holding src/ and tests/")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    ap.add_argument("--check", type=int, default=0, help="run the output gate after the jobs")
    ap.add_argument("--backends", type=int, default=0, help="sweep certify planes on every backend")
    ap.add_argument("--spawn-time", type=float, required=True)
    return ap.parse_args(argv)


def set_up():
    """Import the package, resolve the kernel backend and warm the kernels up."""
    import lonely_runner  # noqa: F401
    from lonely_runner import _kernels, cli  # noqa: F401

    mode = _kernels.backend()
    _kernels.sweep_raw((0, 1, 2), (1, 1, 0), 3)  # the numba path compiles here
    _kernels.d_line_raw([1, 2, 3])
    return mode


def calibrate() -> float:
    """Seconds taken by fixed pure-Python work like the package's: Fraction arithmetic, dicts, lists."""
    t0 = time.perf_counter()
    acc = {}
    for k in range(1, 3000):
        f = Fraction(k % 97, 101) + Fraction(k % 13, 17)
        acc[(k % 50, f.denominator)] = f
    # a list and dict of fresh objects, larger than the first loop's, for allocation and cache misses
    xs = [Fraction(k, 7 + k % 11) for k in range(1, 4000)]
    table = {i: x + xs[i // 2] for i, x in enumerate(xs)}
    sum(table.values())
    return time.perf_counter() - t0


def run_job(job, session):
    """Run one job; return (exit code, output text) or None when it raised."""
    from lonely_runner import cli, spectrum

    try:
        if job.kind == "cli":
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(list(job.argv))
            return rc, buf.getvalue()
        u, v = job.plane
        if job.kind == "relative_spectrum":
            desc = spectrum.relative_spectrum(u, v, job.bound)
            session[(job.plane, job.bound)] = desc
            return 0, json.dumps(cli.spectrum_payload(desc), sort_keys=True)
        desc = session[(job.plane, job.bound)]
        report = spectrum.certify(u, v, desc, job.bound)
        return 0, json.dumps(certify_payload(report, desc), sort_keys=True)
    except (Exception, SystemExit) as e:  # a failed job is counted, not fatal
        print(f"job {job.id!r} raised {e!r}", file=sys.stderr)
        return None


def certify_payload(report, desc) -> dict:
    """The certify report in the shape of the command line's JSON output."""
    return {
        "bound": report.bound,
        "total": report.total,
        "improper": report.improper,
        "base_count": report.base_count,
        "progressions": [
            {"alpha": str(p.alpha), "beta": str(p.beta), "count": c}
            for p, c in zip(desc.progressions, report.progression_counts)
        ],
        "exceptional": [{"value": str(val), "pair": list(pair)} for val, pair in report.exceptional],
    }


def backend_rates(planes, bound):
    """Sweep each plane on every backend; rows must agree before any rate counts."""
    from lonely_runner import _kernels

    modes = ["python", "numpy"] + (["numba"] if _kernels.HAVE_NUMBA else [])
    active = _kernels.backend()
    saved = os.environ.get("LONELY_RUNNER_KERNEL")
    rates, agree = {}, True
    try:
        seconds = dict.fromkeys(modes, 0.0)
        rows = 0
        for u, v in planes:
            reference = None
            for mode in modes:
                os.environ["LONELY_RUNNER_KERNEL"] = mode
                t0 = time.perf_counter()
                out = _kernels.sweep_raw(u, v, bound)
                seconds[mode] += time.perf_counter() - t0
                if reference is None:
                    reference = out
                    rows += len(out)
                elif out != reference:
                    agree = False
                    print(f"backend {mode} disagrees with {modes[0]} on {(u, v)}", file=sys.stderr)
        for mode in modes:
            rates[mode] = rows / seconds[mode]
    finally:
        if saved is None:
            os.environ.pop("LONELY_RUNNER_KERNEL", None)
        else:
            os.environ["LONELY_RUNNER_KERNEL"] = saved
    rates["active"] = rates[active]
    return rates, agree


def main(argv=None):
    args = parse_args(argv)
    sys.path[:0] = [os.path.join(args.root, "src"), os.path.join(args.root, "tests")]
    backend = set_up()
    setup_s = time.monotonic() - args.spawn_time
    result = {"setup_s": setup_s, "setup_cal_s": statistics.median(calibrate() for _ in range(3))}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    import importlib.util

    import numpy

    import workloads

    jobs = workloads.jobs_for(args.workload, args.seed, args.size)
    tracer = None
    if args.mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    session = {}
    outputs, times = [], []
    cals = [calibrate()]  # cals[k] and cals[k + 1] bracket job k
    for job in jobs:
        t0 = time.perf_counter()
        outputs.append(run_job(job, session))
        times.append(time.perf_counter() - t0)
        cals.append(calibrate())
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.metrics()

    if args.check:
        from checks import check_jobs

        reasons = check_jobs(jobs, outputs)
    else:
        from checks import exit_failures

        reasons = [exit_failures(out) for out in outputs]
    if args.backends:
        planes = workloads.certify_planes(args.size)
        rates, agree = backend_rates(planes, 8 if args.size == "tiny" else 40)
        result["backend_rates"] = rates
        result["backends_agree"] = agree

    result.update(
        wall_s=sum(times),
        peak_rss_kb=peak_rss_kb,
        env={
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "numba_importable": importlib.util.find_spec("numba") is not None,
            "kernel_backend": backend,
        },
        jobs=[
            {
                "id": job.id,
                "golden": job.golden,
                "s": t,
                "cal_s": (cals[k] + cals[k + 1]) / 2,
                "digest": None if out is None else hashlib.sha256(out[1].encode()).hexdigest(),
                "failures": bad,
            }
            for k, (job, out, t, bad) in enumerate(zip(jobs, outputs, times, reasons))
        ],
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

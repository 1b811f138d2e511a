"""End-to-end benchmark of the lonely-runner package; prints every metric by name with its unit.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload spectrum-sector --seed 1 --seconds 30 --trace 0

Each pass of the workload's fixed job list runs in a fresh interpreter
(perfbench/child.py), one at a time, until --seconds have been used; timings
are the median over passes.  The first pass's outputs go through the output
gate (perfbench/checks.py), golden outputs must match perfbench/digests.json,
and every later pass must reproduce the first pass's outputs byte for byte.

The end-to-end times are reference-speed seconds: each measured time is
multiplied by CAL_REF_S over the time child.calibrate() took next to it.  On a
shared machine whose speed drifts by up to 2x for seconds to minutes, this
scaling roughly halves the run-to-run spread; the raw times are printed above
the result.

With --trace 1 the passes alternate between untraced and traced, and the
per-layer metrics of perfbench/spans.py are printed instead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 whenever that line is
printed; it is non-zero, without that line, when the benchmark itself cannot
run, for instance outside a checkout of the package.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 2  # set-up-only interpreters before each pass, besides the pass itself
CHILD_TIMEOUT_S = 170
# about the median child.calibrate() time on the 2-vCPU VM the bounds were measured on
CAL_REF_S = 0.04

class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def spawn(args, mode, check=False, backends=False):
    """Run one child interpreter and return its parsed JSON result."""
    cmd = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--root", ROOT, "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--mode", mode, "--check", str(int(check)),
        "--backends", str(int(backends)),
    ]
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawn-time", repr(t0)], capture_output=True, text=True, env=env,
        cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"child pass ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pass_failures(res, reference, digests):
    """Failed job ids of one pass with their reasons.

    Only the first pass goes through the output gate; a later pass's job that
    reproduces its first-pass output byte for byte keeps that output's verdict,
    so the share of failed jobs does not depend on the number of passes.
    """
    failed = {}
    for k, job in enumerate(res["jobs"]):
        why = list(job["failures"])
        if job["golden"] and digests.get(job["id"]) != job["digest"]:
            why.append("golden output differs from the recorded digest")
        if reference is not None:
            first = reference["jobs"][k]
            if job["digest"] != first["digest"]:
                why.append("output differs from the first pass")
            else:
                why += [r for r in first["failures"] if r not in why]
        if why:
            failed[job["id"]] = why
    return failed


def at_ref_speed(seconds, cal_s):
    """A measured time scaled to the machine speed at which child.calibrate() takes CAL_REF_S."""
    return seconds * CAL_REF_S / cal_s


def job_times_at_ref_speed(jobs):
    """Each job's time at reference speed, against the mean calibrate time of it and its neighbours.

    Averaging over the neighbours' calibrate calls too, four calls instead of
    two, damps the calls' own noise; in eight spectrum-sector runs it took the
    spread of slowest_job_s from 0.20 to 0.10.
    """
    cal = [j["cal_s"] for j in jobs]
    return [at_ref_speed(j["s"], statistics.mean(cal[max(0, k - 1):k + 2])) for k, j in enumerate(jobs)]


def median_metrics(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "lonely_runner", "__init__.py")):
        raise BenchError(f"no package source under {ROOT}/src; run from a checkout of the repository")
    if not os.path.isfile(os.path.join(ROOT, "tests", "goldens.py")):
        raise BenchError(f"no tests/goldens.py under {ROOT}")
    spec = load_spec()
    with open(os.path.join(HERE, "digests.json")) as fh:
        digests = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {names}")

    spawn(args, "setup")  # untimed: lets the interpreter write bytecode caches first
    setups = []
    plain, traced = [], []
    attempted = failed = 0
    reference = None
    start = time.monotonic()
    while True:
        # passes alternate plain/traced under --trace 1; the first is always plain and checked
        mode = "traced" if args.trace and len(plain) > len(traced) else "plain"
        first = reference is None
        # spread over the run, the set-up samples see the same machine phases as the passes
        setups += [spawn(args, "setup") for _ in range(SETUP_PROBES)]
        res = spawn(args, mode, check=first, backends=args.trace and first)
        if first:
            reference = res
            print("env " + json.dumps(dict(res["env"], nproc=os.cpu_count(), workload=args.workload,
                                           seed=args.seed, size=args.size), sort_keys=True))
        bad = pass_failures(res, None if first else reference, digests)
        for job_id, why in bad.items():
            if first or "output differs from the first pass" in why:
                print(f"FAILED {job_id}: {'; '.join(why)}")
        attempted += len(res["jobs"])
        failed += len(bad)
        if first and args.trace:
            attempted += 1
            if not res["backends_agree"]:
                print("FAILED kernel backends disagree on the certify planes")
                failed += 1
        setups.append(res)
        (traced if mode == "traced" else plain).append(res)
        elapsed = time.monotonic() - start
        enough = len(plain) >= 1 and (not args.trace or len(traced) >= 1)
        if enough and elapsed + res["wall_s"] > args.seconds:
            break

    for k, job in enumerate(plain[0]["jobs"]):
        times = " ".join(f"{r['jobs'][k]['s']:8.4f}" for r in plain)
        print(f"job {times} s  {job['id']}")
    print("pass wall_s plain " + " ".join(f"{r['wall_s']:.4f}" for r in plain)
          + " traced " + " ".join(f"{r['wall_s']:.4f}" for r in traced))
    ref_times = [job_times_at_ref_speed(r["jobs"]) for r in plain]
    ref_walls = [sum(times) for times in ref_times]
    print("pass wall_s at reference speed " + " ".join(f"{w:.4f}" for w in ref_walls))
    print(f"passes plain={len(plain)} traced={len(traced)} setup_samples={len(setups)}")

    if args.trace:
        layers = median_metrics([r["layers"] for r in traced])
        rates = reference["backend_rates"]
        for mode in ("python", "numpy", "active"):
            layers[f"kernels.rows_per_s.{mode}"] = rates[mode]
        plain_wall = statistics.median(r["wall_s"] for r in plain)
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        layers["trace.untraced_wall_s"] = plain_wall
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - plain_wall
        layers["calibrate_s"] = statistics.median(j["cal_s"] for r in plain for j in r["jobs"])
        wanted = spec["per_layer"]
        values = layers
    else:
        values = {
            "wall_s": statistics.median(ref_walls),
            "slowest_job_s": statistics.median(max(times) for times in ref_times),
            "setup_s": statistics.median(at_ref_speed(r["setup_s"], r["setup_cal_s"]) for r in setups),
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in plain) / 1024,
            "ok_ratio": 1 - failed / attempted,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measurement window")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every job for the self-test")
    args = ap.parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

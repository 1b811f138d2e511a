"""Self-test of the benchmark: tiny passes of every workload, plus the gate's negative cases.

Run from the root of a checkout (takes about a minute):

    python3 perfbench/selftest.py

Checks that every workload, untraced and traced, prints as its last line a
JSON object with exactly the contract's keys and every metric BENCHMARK.json
names, with its unit; that the output gate passes an uncorrupted tiny
spectrum-sector pass and fails exactly the job whose witness was corrupted;
that on a signed permutation of FINITE_THREE_TENTHS the gate fails nothing
but the comparison of the image's zero locus with its source's (it prints
whether that known defect still shows); and that the benchmark exits
non-zero, without a result, in a directory holding only BENCHMARK.json and
perfbench/.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--seed", "3", "--seconds", "1", *args]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=300)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, sorted(last)
    assert isinstance(last["attempted"], int) and last["attempted"] >= 1
    assert isinstance(last["failed"], int)
    return last


def check_corrupted_witness():
    """Run the tiny spectrum-sector jobs in process, shift one witness by one in B, and gate them."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]
    import child
    import workloads
    from checks import check_jobs

    jobs = workloads.jobs_for("spectrum-sector", 3, "tiny")
    session = {}
    outputs = [child.run_job(job, session) for job in jobs]
    assert not any(check_jobs(jobs, outputs)), "the gate fails an uncorrupted pass"
    data = json.loads(outputs[0][1])
    p = next(p for p in data["progressions"] if p["witnesses"])
    p["witnesses"][0][2] += 1
    outputs[0] = (outputs[0][0], json.dumps(data))
    reasons = check_jobs(jobs, outputs)
    assert [k for k, why in enumerate(reasons) if why] == [0], reasons
    assert any("witness" in why for why in reasons[0]), reasons[0]


def report_locus_images():
    """Gate the locus jobs of workloads.locus_images; print whether the known zero-locus defect shows.

    Only the image's zero-locus comparison with its source may fail.
    """
    import child
    import workloads
    from checks import check_jobs

    jobs = workloads.locus_images(3)
    session = {}
    reasons = check_jobs(jobs, [child.run_job(job, session) for job in jobs])
    failed = [(job, why) for job, why in zip(jobs, reasons) if why]
    for job, why in failed:
        assert job.source is not None, (job.id, why)
        assert all("differs from that of its source plane" in r for r in why), (job.id, why)
    if failed:
        print(f"known defect: {failed[0][0].id}: {failed[0][1][0]}")
    else:
        print("ok   an image's zero locus matches its source's; "
              "catalog-locus can run locus jobs on images again")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for w in spec["workloads"]:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            proc = bench("--workload", w["name"], "--trace", trace, "--size", "tiny")
            last = result_of(proc)
            assert last["correct"] and last["failed"] == 0, (w["name"], trace, last)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in last["metrics"].items()}
            assert got == want, (w["name"], trace, set(got) ^ set(want))
            for name, m in last["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            print(f"ok   {w['name']} trace={trace}: {len(got)} metrics, {last['failed']} failed jobs")

    check_corrupted_witness()
    print("ok   a corrupted witness fails exactly its own job")
    report_locus_images()

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".selftest-") as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "spectrum-sector", "--trace", "0", cwd=bare)
        assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print("ok   without the package, exits non-zero with no result")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

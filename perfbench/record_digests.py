"""Record the SHA-256 digest of every golden job's output into perfbench/digests.json.

Run from the root of a checkout, only at a commit whose outputs are the
reference (a change that must keep outputs byte-identical must not re-record):

    python3 perfbench/record_digests.py
"""

import hashlib
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import workloads
    from checks import check_jobs
    from child import run_job

    digests = {}
    for size in workloads.SIZES:
        for name in workloads.WORKLOADS:
            jobs = [j for j in workloads.jobs_for(name, 0, size) if j.golden]
            session = {}
            outputs = [run_job(job, session) for job in jobs]
            for job, why in zip(jobs, check_jobs(jobs, outputs)):
                if why:
                    raise SystemExit(f"{job.id} fails the output gate: {why}")
            for job, out in zip(jobs, outputs):
                digests[job.id] = hashlib.sha256(out[1].encode()).hexdigest()
            print(f"{size} {name}: {len(jobs)} golden jobs")
    with open(os.path.join(HERE, "digests.json"), "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Record the expected output of every job any seed can draw.

Usage, from the root of a checkout:

    python3 bench/record.py            # all workloads
    python3 bench/record.py interval   # one workload, others kept

Runs each job of each workload's job space once through
``involute.cli.main`` and writes exit codes and outputs to
``bench/expected.json``.  Before writing, it checks what each job must
show independently of the recording: family sequences classify and are
globally reversible, perturbed ones come out "not classified", invalid
input exits 2 with empty stdout, the sweep leaves no reversible sequence
unclassified, and float outputs meet the acceptance tolerances.  Re-record
only when a change is meant to alter CLI output, and say so.
"""

from __future__ import annotations

import json
import sys

import checks
import jobs as joblists
from run import import_cli, run_job


def _expectation_failure(job, rc: int, stdout: str, stderr: str) -> str | None:
    if rc != job.expect_rc:
        return f"exit {rc}, expected {job.expect_rc}: {stderr.strip()[:200]}"
    if rc != 0:
        return None if stdout == "" else "failing job printed to stdout"
    if job.expect_prefix is not None and not stdout.startswith(job.expect_prefix):
        return f"stdout does not start with {job.expect_prefix!r}: {stdout[:80]!r}"
    if job.argv[0] == "classify" and job.expect_prefix is None and stdout.startswith("not classified"):
        return f"family sequence not classified: {stdout.strip()}"
    if job.argv[0] == "conjecture" and json.loads(stderr.splitlines()[-1])["unclassified_reversible"]:
        return "sweep left a reversible sequence unclassified"
    return checks.check(job, rc, stdout, checks.record_of(job, rc, stdout))


def record(workload: str, cli) -> dict:
    out = {}
    for job in joblists.job_space(workload):
        _dt, rc, stdout, stderr = run_job(cli, job.argv)
        problem = _expectation_failure(job, rc, stdout, stderr)
        if problem:
            raise SystemExit(f"{workload}: {job.key[:120]}: {problem}")
        out[job.key] = checks.record_of(job, rc, stdout)
    return out


def main(argv: list) -> int:
    cli = import_cli()
    names = argv or list(joblists.WORKLOADS)
    try:
        expected = checks.load_expected()
    except FileNotFoundError:
        expected = {}
    for name in names:
        expected[name] = record(name, cli)
        print(f"{name}: {len(expected[name])} jobs recorded", file=sys.stderr)
    with open(checks.EXPECTED_PATH, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

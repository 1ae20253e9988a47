"""Self-test of the benchmark: every workload runs clean, and the checker bites.

Run from the root of a checkout (about 30 s):

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import checks  # noqa: E402
import hostclock  # noqa: E402
import jobs as joblists  # noqa: E402
import run  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def cli():
    return run.import_cli()


@pytest.fixture(scope="module")
def expected():
    return checks.load_expected()


@pytest.mark.parametrize("workload", joblists.WORKLOADS)
def test_one_pass_of_every_workload_is_correct(cli, expected, workload):
    jobs = joblists.jobs_for(workload, SEED)
    res = run.run_passes(cli, jobs, expected[workload], passes=1)
    assert res.attempted == len(jobs)
    assert res.failures == []


def _corrupted(expected: dict, job) -> dict:
    bad = copy.deepcopy(expected)
    rec = bad[job.key]
    if "sha256" in rec:
        rec["sha256"] = ("0" if rec["sha256"][0] != "0" else "1") + rec["sha256"][1:]
    else:  # nudge the last number of a float output past its tolerance
        lines = rec["stdout"].splitlines()
        head, _, value = lines[-1].rpartition(",")
        lines[-1] = f"{head},{float(value) + 1e-3:.8f}"
        rec["stdout"] = "\n".join(lines) + "\n"
    return bad


@pytest.mark.parametrize("workload,pick", [
    ("family", lambda j: j.argv[0] == "spectrum"),
    ("sweep", lambda j: j.argv[0] == "classify"),
    ("interval", lambda j: "--invariant" in j.argv),
    ("interval", lambda j: j.argv[0] == "repro"),
])
def test_a_corrupted_recording_shows_as_failure(cli, expected, workload, pick):
    jobs = joblists.jobs_for(workload, SEED)
    target = next(j for j in jobs if pick(j))
    res = run.run_passes(cli, jobs, _corrupted(expected[workload], target), passes=1)
    assert res.failed / res.attempted > 0
    assert {key for key, _reason in res.failures} == {target.key}


def test_exit_codes_of_rejected_argv_are_counted(cli):
    _dt, rc, stdout, _err = run.run_job(cli, ("matrix", "--n", "not-a-number"))
    assert rc == 2 and stdout == ""


def test_tail_leaves_ten_samples_above():
    value, pct = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and pct == 90.0


def _busy(seconds: float) -> None:
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        sum(range(1000))


def test_host_clock_ticks_and_restores_sigalrm():
    before = signal.getsignal(signal.SIGALRM)
    with hostclock.HostClock() as clock:
        _busy(0.2)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert clock.probes >= 4  # ticks fired inside the enclosed code
    assert 0.1 < clock.raw_s < 0.3 and clock.ref_s > 0


def test_reference_seconds_scale_with_the_probe(monkeypatch):
    monkeypatch.setattr(hostclock, "probe_s", lambda: 2 * hostclock.REF_PROBE_S)
    with hostclock.HostClock() as clock:
        _busy(0.1)
    assert clock.ref_s == pytest.approx(clock.raw_s / 2)

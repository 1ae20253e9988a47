"""Benchmark of the involute CLI: one closed-loop client in one process.

Usage, from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 16 --trace 0

Each job calls ``involute.cli.main(argv)`` in this process with stdout and
stderr captured, and starts when the previous one has returned.  Outputs
are checked against ``bench/expected.json``.  With ``--trace 0`` the run
reports the end-to-end metrics, timed in host-calibrated reference seconds
(see ``hostclock.py``); with ``--trace 1`` it runs each job once untraced
and once traced and reports the per-layer metrics and the tracing overhead
in raw seconds.  The last line of stdout is one JSON object; the lines
before it are a readable table.  See bench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

sys.path.insert(0, str(BENCH_DIR))
import checks  # noqa: E402
import jobs as joblists  # noqa: E402
import spans  # noqa: E402
import hostclock  # noqa: E402
from hostclock import HostClock  # noqa: E402

# Seconds one pass of each job list took at the commit that defined the
# benchmark (2-vCPU Xeon VM, Python 3.11).  --seconds divides by these
# to fix the pass count, so a run does the same work on every commit and
# parent and change are compared on identical job lists.
NOMINAL_PASS_S = {"sweep": 3.8, "family": 4.2, "interval": 1.25}
MIN_PASSES = 2
# A timed run starts no pass after this many times --seconds.  It is a
# safety valve for a host more than about twice as slow as NOMINAL_PASS_S:
# the pass count also fixes which job sets job_tail_s, so it should not vary.
DEADLINE_FACTOR = 2.0
SETUP_REPEATS = 15
# argv[1] is the benchmark directory; the clock's own imports (fractions,
# signal) happen before it starts, so they are not counted
SETUP_CODE = (
    "import sys\n"
    "sys.path.append(sys.argv[1])\n"
    "from hostclock import HostClock\n"
    "with HostClock() as clock:\n"
    "    import involute.cli\n"
    "    involute.cli.build_parser()\n"
    "print(repr(clock.raw_s), repr(clock.ref_s))\n"
)

LAYERS = ("cli", "serialize", "classify", "transform", "walk", "weights",
          "spectral", "continuum", "linalg", "exactnum")
FUNCTION_METRICS = (
    ("transform.binomial_transform", "calls"), ("transform.is_stochastic", "calls"),
    ("exactnum.binom", "calls"), ("weights.domain_limit", "self_s"),
    ("weights.domain_limit", "calls"), ("linalg.rref", "self_s"),
    ("linalg.charpoly", "self_s"), ("linalg.matmul", "calls"), ("linalg.kron", "self_s"),
    ("spectral.right_eigenvectors", "self_s"), ("continuum.adaptive_quad", "calls"),
)


def passes_for(workload: str, seconds: int) -> int:
    return max(MIN_PASSES, int(seconds / NOMINAL_PASS_S[workload] + 0.5))


@dataclass
class Outcome:
    latencies: list = field(default_factory=list)  # seconds, every job of every pass
    ref_latencies: list = field(default_factory=list)  # reference seconds, timed passes only
    pass_walls: list = field(default_factory=list)  # seconds, sum of a pass's job latencies
    attempted: int = 0
    failures: list = field(default_factory=list)  # (argv key, reason)
    funnel: dict = field(default_factory=dict)  # summed conjecture summaries
    out_max_bits: int = 0

    @property
    def failed(self) -> int:
        return len(self.failures)


def _exit_code(code) -> int:
    if code is None:
        return 0
    return code if isinstance(code, int) else 1


def run_job(cli, argv, clock=None) -> tuple:
    """(seconds, exit code, stdout, stderr) of one in-process CLI call,
    run inside `clock` (a HostClock) when one is given."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        with clock or contextlib.nullcontext():
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects the argv
                rc = _exit_code(exc.code)
        dt = time.perf_counter() - t0
    return dt, rc, out.getvalue(), err.getvalue()


def run_checked(cli, job, expected: dict, res: Outcome, calibrated: bool = False) -> float:
    """Run one job, check its output into `res`, and return its latency.

    With `calibrated`, the job runs inside a HostClock and its latency in
    reference seconds goes to `res.ref_latencies` as well."""
    clock = HostClock() if calibrated else None
    dt, rc, stdout, stderr = run_job(cli, job.argv, clock)
    res.latencies.append(dt)
    if clock is not None:
        res.ref_latencies.append(clock.ref_s)
    res.attempted += 1
    reason = checks.check(job, rc, stdout, expected.get(job.key))
    if reason is not None:
        res.failures.append((job.key, reason))
    if job.argv[0] == "conjecture" and rc == 0:
        summary = json.loads(stderr.strip().splitlines()[-1])
        for k in ("evaluated", "stochastic", "reversible", "unclassified_reversible"):
            res.funnel[k] = res.funnel.get(k, 0) + summary[k]
    if job.exact:
        res.out_max_bits = max(res.out_max_bits, checks.max_bits(stdout))
    return dt


def run_passes(cli, jobs: list, expected: dict, passes: int,
               deadline: float = math.inf) -> Outcome:
    """Run the job list `passes` times in order, each job inside a
    HostClock, and check every output.

    After MIN_PASSES, no pass starts once `deadline` (a perf_counter time)
    has passed, so a run on a heavily loaded host still ends in time.
    """
    res = Outcome()
    for p in range(passes):
        if p >= MIN_PASSES and time.perf_counter() > deadline:
            break
        wall = 0.0
        for job in jobs:
            gc.collect()  # each job starts from a collected heap, as a fresh CLI call would
            wall += run_checked(cli, job, expected, res, calibrated=True)
        res.pass_walls.append(wall)
    return res


def run_traced(cli, jobs: list, expected: dict) -> tuple:
    """(untraced, traced, spans): each job runs untraced and then traced,
    back to back, so that both see the same machine state and the
    difference of the two passes is the tracing overhead."""
    plain, traced, rec = Outcome(), Outcome(), spans.SpanRecorder()
    for i, job in enumerate(jobs):
        gc.collect()
        run_checked(cli, job, expected, plain)
        gc.collect()
        rec.job_id = i
        uninstall = spans.install(rec)
        try:
            run_checked(cli, job, expected, traced)
        finally:
            uninstall()
    plain.pass_walls.append(sum(plain.latencies))
    traced.pass_walls.append(sum(traced.latencies))
    return plain, traced, rec


def measure_setup(repeats: int = SETUP_REPEATS) -> list:
    """(raw s, reference s) from a fresh interpreter to a built parser, one
    child at a time, each child timing itself with a HostClock.

    Children may write the bytecode cache, as an installed package has one;
    the first child is not counted because it may compile that cache.
    """
    env = {k: v for k, v in os.environ.items()
           if k not in ("INVOLUTE_THREADS", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = str(SRC)
    values = []
    for i in range(repeats + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(BENCH_DIR)], env=env,
                              cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        if i:
            raw, ref = done.stdout.strip().splitlines()[-1].split()
            values.append((float(raw), float(ref)))
    return values


def tail(latencies: list) -> tuple:
    """(value, percentile): the highest sample with at least ten samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _child_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "involute").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(workload: str, seed: int, trace: bool, passes: int, jobs: list,
             threads_env: str | None, load_before: tuple, child_cpu_during: float,
             host_factor: float | None) -> dict:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        # raw seconds per reference second over the timed jobs: above 1, the host ran slow
        "host_factor": host_factor,
        "clock": {"tick_s": hostclock.TICK_S, "ref_probe_s": hostclock.REF_PROBE_S},
        "passes": passes,
        "jobs_per_pass": len(jobs),
        "INVOLUTE_THREADS": "unset" if threads_env is None else f"unset (was {threads_env!r})",
        "load_model": "closed loop, 1 client, 1 process",
        "child_cpu_s_during_passes": child_cpu_during,
        "threads_at_end": threading.active_count(),
    }


def per_job_medians(latencies: list, jobs_per_pass: int) -> list:
    """Each job's median latency over the passes, in job-list order."""
    return [statistics.median(latencies[i::jobs_per_pass]) for i in range(jobs_per_pass)]


def e2e_metrics(res: Outcome, jobs_per_pass: int, setup: list) -> tuple:
    ref = per_job_medians(res.ref_latencies, jobs_per_pass)
    raw = per_job_medians(res.latencies, jobs_per_pass)
    passes = len(res.pass_walls)
    # every run of a job counts once in the tail, valued at that job's median
    tail_s, tail_pct = tail(ref * passes)
    raw_setup = statistics.median(r for r, _ in setup)
    metrics = {
        "setup_s": (statistics.median(f for _, f in setup), "s"),
        "wall_s": (sum(ref), "s"),
        "job_p50_s": (statistics.median(ref), "s"),
        "job_tail_s": (tail_s, "s"),
        "ok_frac": ((res.attempted - res.failed) / res.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "setup_s": f"reference s, median of {len(setup)} fresh interpreters (raw {raw_setup:.4g} s)",
        "wall_s": f"reference s, sum over {jobs_per_pass} jobs of each one's median of {passes} "
                  f"passes (raw {sum(raw):.4g} s)",
        "job_p50_s": f"reference s, median over {jobs_per_pass} jobs of each one's median of "
                     f"{passes} (raw {statistics.median(raw):.4g} s)",
        "job_tail_s": f"reference s, p{tail_pct:.1f} of {len(res.ref_latencies)} job runs, "
                      f"each at its job's median (raw {tail(raw * passes)[0]:.4g} s)",
        "ok_frac": f"failed_frac = {res.failed}/{res.attempted}",
        "peak_rss_mb": "getrusage maxrss of this process",
    }
    return metrics, notes


def layer_metrics(rec: spans.SpanRecorder, res: Outcome, untraced_wall: float) -> tuple:
    per_fn = rec.rollup()
    metrics = {}
    for layer in LAYERS:
        rows = [v for k, v in per_fn.items() if k.split(".", 1)[0] == layer]
        metrics[f"{layer}.self_s"] = (sum(s for _, s in rows), "s")
        metrics[f"{layer}.calls"] = (sum(c for c, _ in rows), "count")
    for fn, kind in FUNCTION_METRICS:
        calls, self_s = per_fn[fn]
        metrics[f"{fn}.{kind}"] = (self_s, "s") if kind == "self_s" else (calls, "count")
    funnel = res.funnel
    evaluated = funnel.get("evaluated", 0)
    metrics.update({
        "linalg.matmul.mul_ops": (rec.counters["matmul_mul_ops"], "count"),
        "continuum.quad_evals": (rec.counters["quad_evals"], "count"),
        "classify.candidates": (evaluated, "count"),
        "classify.stochastic": (funnel.get("stochastic", 0), "count"),
        "classify.reversible": (funnel.get("reversible", 0), "count"),
        "classify.unclassified": (funnel.get("unclassified_reversible", 0), "count"),
        "classify.stochastic_ratio": (funnel.get("stochastic", 0) / evaluated if evaluated else 0.0,
                                      "ratio"),
        "cli.out_max_bits": (res.out_max_bits, "bits"),
        "trace.spans": (len(rec), "count"),
        "trace.wall_s": (res.pass_walls[0], "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (res.pass_walls[0] - untraced_wall, "s"),
    })
    busiest = sorted(per_fn.items(), key=lambda kv: -kv[1][1])[:12]
    lines = ["busiest functions by self time:"]
    lines += [f"  {name:<40} {calls:>9} calls {self_s:10.4f} s self"
              for name, (calls, self_s) in busiest]
    return metrics, lines


def import_cli():
    if not (SRC / "involute" / "cli.py").is_file():
        raise FileNotFoundError(f"no involute sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import involute.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "involute":
        raise ImportError(f"imported involute from {cli.__file__}, not from {SRC}")
    return cli


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    threads_env = os.environ.pop("INVOLUTE_THREADS", None)
    load_before = os.getloadavg()
    cli = import_cli()
    expected = checks.load_expected()[workload]
    setup = [] if trace else measure_setup()
    jobs = joblists.jobs_for(workload, seed)
    for argv in joblists.WARMUP[workload]:
        run_job(cli, argv)
    passes = 1 if trace else passes_for(workload, seconds)
    child_cpu = _child_cpu_s()
    if trace:
        untraced, res, rec = run_traced(cli, jobs, expected)
        res.attempted += untraced.attempted
        res.failures = untraced.failures + res.failures
        metrics, lines = layer_metrics(rec, res, untraced.pass_walls[0])
        notes = {}
        spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.csv.gz"
        rec.write(spans_path)
        lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        res = run_passes(cli, jobs, expected, passes,
                         deadline=time.perf_counter() + DEADLINE_FACTOR * seconds)
        passes = len(res.pass_walls)
        metrics, notes = e2e_metrics(res, len(jobs), setup)
        lines = []
    meta = metadata(workload, seed, trace, passes, jobs, threads_env, load_before,
                    _child_cpu_s() - child_cpu,
                    sum(res.latencies) / sum(res.ref_latencies) if res.ref_latencies else None)
    return {"meta": meta, "metrics": metrics, "notes": notes, "lines": lines, "outcome": res}


def report(result: dict) -> dict:
    """Print the readable table and return the final JSON object."""
    meta, metrics, res = result["meta"], result["metrics"], result["outcome"]
    print(f"workload {meta['workload']}  seed {meta['seed']}  trace {int(meta['trace'])}  "
          f"passes {meta['passes']} x {meta['jobs_per_pass']} jobs  "
          f"INVOLUTE_THREADS {meta['INVOLUTE_THREADS']}  {meta['load_model']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {unit:<6} {result['notes'].get(name, '')}")
    for line in result["lines"]:
        print(f"  {line}")
    for key, reason in res.failures[:20]:
        print(f"  FAILED {key[:100]}: {reason}")
    print("meta " + json.dumps(meta))
    final = {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"meta": meta, **final, "failures": res.failures,
                             "latencies_s": res.latencies,
                             "ref_latencies_s": res.ref_latencies}) + "\n")
    return final


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=joblists.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, ImportError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    final = report(result)
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

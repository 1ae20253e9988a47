"""Output checks against the recording in expected.json.

Exact jobs must reproduce the recorded exit code and stdout byte for byte
(compared through SHA-256).  Float jobs on [0, 1] keep their recorded
layout, and each number is checked against the acceptance tolerances: eigen
residuals below 1e-8, fixed-point residuals below 1e-7, invariant densities
equal to the recording to 1e-9, convergence distances decreasing in n and
equal to the recording to 1e-6.  A change to quadrature that moves a last
printed digit therefore passes, and a wrong eigenfunction does not.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

RESIDUAL_MAX = 1e-8
FIXED_POINT_MAX = 1e-7
INVARIANT_TOL = 1e-9
DISTANCE_TOL = 1e-6


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def record_of(job, rc: int, stdout: str) -> dict:
    """What expected.json stores for one job."""
    if job.exact:
        return {"rc": rc, "sha256": digest(stdout)}
    return {"rc": rc, "stdout": stdout}


def check(job, rc: int, stdout: str, recorded: dict | None) -> str | None:
    """None when the output is correct, else a one-line reason."""
    if recorded is None:
        return "no recorded output for this job"
    if rc != recorded["rc"]:
        return f"exit code {rc}, recorded {recorded['rc']}"
    if job.exact:
        if digest(stdout) != recorded["sha256"]:
            return "stdout differs from the recording"
        return None
    try:
        return _check_float(job, stdout, recorded["stdout"])
    except ValueError as exc:  # unparsable number or wrong field count
        return f"malformed output: {exc}"


def _rows(text: str) -> list:
    return [line.split(",") for line in text.splitlines()]


def _check_float(job, stdout: str, recorded: str) -> str | None:
    got, want = _rows(stdout), _rows(recorded)
    if len(got) != len(want):
        return f"{len(got)} lines, recorded {len(want)}"
    argv = job.argv
    if "--residual" in argv or "--fixed-point" in argv:
        limit = RESIDUAL_MAX if "--residual" in argv else FIXED_POINT_MAX
        for g, w in zip(got, want):
            if g[:-1] != w[:-1]:
                return f"row label {g[:-1]} differs from {w[:-1]}"
            if w[-1] == "residual":
                continue  # header
            if not float(g[-1]) < limit:
                return f"residual {g[-1]} not below {limit:g}"
        return None
    if "--invariant" in argv:
        return _within(got, want, INVARIANT_TOL)
    # repro fig2-convergence: d,n,distance
    reason = _within(got, want, DISTANCE_TOL)
    if reason:
        return reason
    by_d: dict = {}
    for d, _n, dist in got[1:]:
        by_d.setdefault(d, []).append(float(dist))
    for d, dists in by_d.items():
        if any(b >= a for a, b in zip(dists, dists[1:])):
            return f"distances for d={d} do not decrease: {dists}"
    return None


def _within(got: list, want: list, tol: float) -> str | None:
    if got[0] != want[0]:
        return f"header {got[0]} differs from {want[0]}"
    for g, w in zip(got[1:], want[1:]):
        if g[:-1] != w[:-1]:
            return f"row label {g[:-1]} differs from {w[:-1]}"
        if not abs(float(g[-1]) - float(w[-1])) <= tol:
            return f"value {g[-1]} at {g[:-1]} is off the recorded {w[-1]} by more than {tol:g}"
    return None


_RATIONAL = re.compile(r"(?<![\w.])-?(\d+)(?:/(\d+))?(?![\w.])")


def max_bits(stdout: str) -> int:
    """Largest numerator or denominator bit-length among the rationals printed."""
    best = 0
    for num, den in _RATIONAL.findall(stdout):
        best = max(best, int(num).bit_length(), int(den).bit_length() if den else 0)
    return best

"""Seeded job lists for the three benchmark workloads.

A workload is a fixed, ordered list of job templates.  A template either
takes no parameter or takes one value from a named *draw*, a finite list of
parameter choices.  The workload seed picks one choice per draw, so jobs
that name the same draw share it (the delta matrix, stationary law and
spectrum describe one walk).  Because every draw is finite, the whole job
space of a workload can be enumerated, and ``expected.json`` records the
output of every job any seed can produce.

The program sees only the resulting argv lists.  The eigenvalue sequences
for the sweep are computed here from the families' closed forms, without
calling the library under test.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable

WORKLOADS = ("sweep", "family", "interval")


@dataclass(frozen=True)
class Job:
    argv: tuple
    expect_rc: int = 0
    expect_prefix: str | None = None  # required start of stdout, checked when recording

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def exact(self) -> bool:
        """Exact jobs compare byte for byte; float jobs within tolerances."""
        return not (self.argv[0] == "continuum" or self.argv == ("repro", "fig2-convergence"))


@dataclass(frozen=True)
class Template:
    draw: str | None
    make: Callable  # choice -> Job, or () -> Job when draw is None


def fmt(q: F) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def _binom(r: F, d: int) -> F:
    num = F(1)
    for k in range(d):
        num *= r - k
    return num / math.factorial(d)


def gamma_ab_lambda(a: F, b: F, n: int) -> list:
    return [_binom(a + d, d) / _binom(a + b + d + 1, d) for d in range(n)]


def gamma_c_lambda(c: F, n: int) -> list:
    return [1 / (c + 1) ** d for d in range(n)]


def delta_lambda(ap: F, bp: F, n: int) -> list:
    return [_binom(ap - 1, d) / _binom(ap + bp - 2, d) for d in range(n)]


def _seq(lam) -> str:
    return ",".join(fmt(v) for v in lam)


# --- sweep -----------------------------------------------------------------

# one family kind per length, so every seed runs the same mix of kinds
SWEEP_KINDS = {6: "gamma", 7: "gammac", 8: "delta", 9: "gamma", 10: "gammac", 11: "delta", 12: "gamma"}
# lambda_d minus this stays stochastic for every sequence below, since the
# smallest alternating sum is above 4e-7 and it moves one by at most
# binom(11, 5) * 2^-40 < 1e-9; but it leaves the family
PERTURBATION = F(1, 2**40)
PERTURBED_INDICES = (3, 5)


def _family_sequences(n: int) -> list:
    kind = SWEEP_KINDS[n]
    if kind == "gamma":
        return [
            gamma_ab_lambda(F(a), F(b), n)
            for a in ("0", "1/2", "1", "2")
            for b in ("0", "1/3", "1", "3/2")
        ]
    if kind == "gammac":
        return [gamma_c_lambda(F(c), n) for c in ("1/3", "1/2", "1", "2")]
    # non-integer delta(a', b') whose domain reaches n: a', b' in (n-1, n+1)
    return [
        delta_lambda(n - 1 + F(p), n - 1 + F(q), n)
        for p in ("1/2", "1/3", "2/3")
        for q in ("1/2", "2/3", "3/2")
    ]


def _perturbed(lam: list, d: int) -> list:
    out = list(lam)
    out[d] -= PERTURBATION
    return out


def _sweep() -> tuple[dict, list]:
    draws: dict = {}
    templates = [
        Template(None, lambda n=n: Job(("conjecture", "--n", str(n), "--max-denominator", "8")))
        for n in (3, 4, 5)
    ]
    for n in range(6, 13):
        seqs = _family_sequences(n)
        draws[f"seq{n}"] = [_seq(s) for s in seqs]
        draws[f"perturbed{n}"] = [_seq(_perturbed(s, d)) for s in seqs for d in PERTURBED_INDICES]
        templates += [
            Template(f"seq{n}", lambda s: Job(("classify", "--lambda", s))),
            Template(f"seq{n}", lambda s: Job(("check", "--lambda", s, "globally-reversible"),
                                             expect_prefix="globally reversible")),
            Template(f"perturbed{n}", lambda s: Job(("classify", "--lambda", s),
                                                   expect_prefix="not classified")),
        ]
    return draws, templates


# --- family ----------------------------------------------------------------

# integer a: with half-integer a the n=60 matrix costs up to 3.5 times more,
# and one draw would then decide the workload's median job
GAMMA_AB = [(a, b) for a in ("1", "2") for b in ("1/3", "2/3", "4/3")]
GAMMA_C = ["1/3", "1/2", "3/2", "2"]
# non-integer a', b' in (10, 11): the delta domain scan is the dominant cost
DELTA = [(a, b) for a in ("21/2", "31/3", "32/3") for b in ("21/2", "41/4", "43/4")]
SUBSET_P = ["1/4", "1/3", "1/2", "2/3"]
NON_STOCHASTIC = ["1,1/2,1", "1,1/3,2/3,1/2", "1,1,1/2,1"]


def _family() -> tuple[dict, list]:
    draws = {
        "m40": GAMMA_AB, "m60": GAMMA_AB, "st30": GAMMA_AB, "eig": GAMMA_AB, "adep": GAMMA_AB,
        "kg": GAMMA_AB, "gc": GAMMA_C, "delta": DELTA, "kd": DELTA, "bad_delta": DELTA,
        "p": SUBSET_P, "sim": [(a, b, s) for a, b in GAMMA_AB for s in ("1", "2")],
        "bad_lambda": NON_STOCHASTIC,
    }
    t = Template
    templates = [
        t("m40", lambda ab: Job(("--format", "json", "matrix", "--gamma", *ab, "--n", "40"))),
        t("m60", lambda ab: Job(("--format", "json", "matrix", "--gamma", *ab, "--n", "60"))),
        t("st30", lambda ab: Job(("stationary", "--gamma", *ab, "--n", "30"))),
        t("gc", lambda c: Job(("stationary", "--gammac", c, "--n", "40"))),
        t("delta", lambda ab: Job(("matrix", "--delta", *ab, "--n", "10"))),
        t("delta", lambda ab: Job(("stationary", "--delta", *ab, "--n", "10"))),
        t("delta", lambda ab: Job(("spectrum", "--delta", *ab, "--n", "10"))),
        t("eig", lambda ab: Job(("eigvec", "--gamma", *ab, "--n", "24"))),
        t("adep", lambda ab: Job(("check", "--gamma", *ab, "--n", "12", "adep"),
                                 expect_prefix="adep holds")),
        t("kg", lambda ab: Job(("check", "--gamma", *ab, "--n", "10", "kolmogorov"),
                               expect_prefix="kolmogorov criterion holds")),
        t("kd", lambda ab: Job(("check", "--delta", *ab, "--n", "9", "kolmogorov"),
                               expect_prefix="kolmogorov criterion holds")),
        t("p", lambda p: Job(("subsets", "--m", "8", "--p", p))),
        t("sim", lambda abs_: Job(("simulate", "--gamma", abs_[0], abs_[1], "--n", "20",
                                   "--steps", "20000", "--seed", abs_[2]))),
        t("bad_lambda", lambda s: Job(("matrix", "--lambda", s), expect_rc=2)),
        t("bad_delta", lambda ab: Job(("matrix", "--delta", *ab, "--n", "12"), expect_rc=2)),
    ]
    return draws, templates


# --- interval --------------------------------------------------------------

KAPPA = [(str(a), str(b)) for a in range(3) for b in range(3)]
RESIDUAL_JOBS = 6


def _kappa_or_trig(choice) -> tuple:
    return ("--trig",) if choice == "trig" else ("--kappa", *choice)


def _interval() -> tuple[dict, list]:
    draws = {f"res{i}": KAPPA for i in range(RESIDUAL_JOBS)}
    draws["fp"] = KAPPA
    draws["inv"] = KAPPA + ["trig"]
    templates = [
        Template(f"res{i}", lambda k: Job(("continuum", "--kappa", *k, "--residual", "8")))
        for i in range(RESIDUAL_JOBS)
    ]
    templates += [
        Template(None, lambda: Job(("continuum", "--trig", "--residual", "8"))),
        Template("fp", lambda k: Job(("continuum", "--kappa", *k, "--fixed-point"))),
        Template(None, lambda: Job(("continuum", "--trig", "--fixed-point"))),
        Template("inv", lambda k: Job(("continuum", *_kappa_or_trig(k), "--invariant"))),
        Template(None, lambda: Job(("repro", "fig2-convergence"))),
    ]
    return draws, templates


_BUILDERS = {"sweep": _sweep, "family": _family, "interval": _interval}

# Small inputs that run every subcommand of a workload once before timing,
# so lazy imports and the Gauss-Legendre node cache are in place.
WARMUP = {
    "sweep": [("conjecture", "--n", "3", "--max-denominator", "4"),
              ("classify", "--lambda", "1,1/2,1/4,1/8"),
              ("check", "--lambda", "1,1/2,1/4,1/8", "globally-reversible")],
    "family": [("--format", "json", "matrix", "--gamma", "1", "1", "--n", "4"),
               ("stationary", "--delta", "5/2", "7/2", "--n", "3"),
               ("spectrum", "--delta", "5/2", "7/2", "--n", "3"),
               ("eigvec", "--gamma", "1", "1", "--n", "4"),
               ("check", "--gamma", "1", "1", "--n", "4", "adep"),
               ("check", "--gamma", "1", "1", "--n", "4", "kolmogorov"),
               ("subsets", "--m", "2", "--p", "1/2"),
               ("simulate", "--gamma", "1", "1", "--n", "4", "--steps", "10"),
               ("matrix", "--lambda", "1,1,2")],
    "interval": [("continuum", "--kappa", "0", "0", "--residual", "1"),
                 ("continuum", "--trig", "--fixed-point"),
                 ("continuum", "--trig", "--invariant"),
                 ("continuum", "--convergence", "1", "--sizes", "4,8")],
}


def jobs_for(workload: str, seed: int) -> list:
    """The workload's job list for one seed, in its fixed order."""
    draws, templates = _BUILDERS[workload]()
    rng = random.Random(f"{workload}:{seed}")
    picked = {name: choices[rng.randrange(len(choices))] for name, choices in sorted(draws.items())}
    return [t.make(picked[t.draw]) if t.draw else t.make() for t in templates]


def job_space(workload: str) -> list:
    """Every job any seed can put in the workload, without duplicates."""
    draws, templates = _BUILDERS[workload]()
    seen: dict = {}
    for t in templates:
        for job in ([t.make(c) for c in draws[t.draw]] if t.draw else [t.make()]):
            seen.setdefault(job.key, job)
    return list(seen.values())

"""Seeded mutants of the package, each with the test that kills it.

A mutant replaces one exact text of a file under src/ by another.  Each
entry names the mutant, its file, the text it replaces (which occurs exactly
once in that file), the text it puts in place, the pytest node id that must
fail on it, and the claim that test guards.  A refactor that moves the code
moves the mutant with it: the tier-1 test `tests/test_mutants.py` checks
that each old text occurs once and that each node id names a test.

Outside tier-1 for its run time; pytest does not collect it (no test_
prefix).  From the repository root:

    python tests/mutants.py [--only ID]

For each mutant it copies src/ to a temporary directory, applies the mutant
there and runs the mutant's test node against the copy, within TIMEOUT
seconds.  It prints one line per mutant and exits 1 if any mutant survives,
that is, if its test does not fail.
"""

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# seconds one mutant's test node may run; a run past it is not a kill
TIMEOUT = 300

Mutant = namedtuple("Mutant", "id file old new test claim")

_WALK = "src/involute/walk.py"
_CLASSIFY = "src/involute/classify.py"
_VERDICTS = "tests/test_walk.py::test_walk_verdicts_match_the_markov_oracle"

MUTANTS = [
    Mutant("potentials-never-check", _WALK,
           "if seen and z >= x:", "if seen:", _VERDICTS,
           "the potentials exist only when every detailed-balance equation holds"),
    Mutant("potentials-ignore-a-zero-mirror", _WALK,
           "return None  # the support is not symmetric",
           "continue  # the support is not symmetric", _VERDICTS,
           "detailed balance needs a symmetric support"),
    Mutant("aperiodic-needs-period-one", _WALK,
           "_class_period(adj, comp) <= 1", "_class_period(adj, comp) == 1",
           "tests/test_walk.py::test_class_period_is_zero_exactly_for_a_state_without_a_cycle",
           "a state without a cycle, period 0, does not make a walk periodic"),
    Mutant("closed-classes-with-ge", _WALK,
           "mask.bit_count() == len(comp)", "mask.bit_count() >= len(comp)", _VERDICTS,
           "a closed class reaches only itself"),
    Mutant("zero-reachable-from-the-first-class", _WALK,
           "return all(mask & 1 for mask in _classes(support(p)))",
           "return all(mask & 1 for mask in list(_classes(support(p)))[:1])", _VERDICTS,
           "state 0 is reached from every class"),
    Mutant("kolmogorov-without-closed-classes", _WALK,
           "if sum(len(comp) for comp in _closed_classes(p)) != len(p):", "if False:", _VERDICTS,
           "the cycle criterion needs a strictly positive stationary law"),
    Mutant("warshall-one-pass-short", _WALK,
           "for k in range(len(reach)):", "for k in range(len(reach) - 1):",
           "tests/test_walk.py::test_ergodicity_examples",
           "the reach sets are closed through every state"),
    Mutant("stationary-without-closed-classes", _WALK,
           "k = found[1] if found else len(_closed_classes(p))", "k = 1",
           "tests/test_walk.py::test_stationary_not_irreducible",
           "a walk with two closed classes has no unique stationary law"),
    Mutant("term-ratio-factors-one-index-early", _CLASSIFY,
           "up, down = p * lead + 2 * gap, q * lead + 2 * gap",
           "up, down = p * lead + gap, q * lead + gap",
           "tests/test_classify.py::test_term_ratio_test_matches_the_family_sequence_oracle",
           "lambda_{d+1} / lambda_d = (A + d) / (C + d) is checked from d = 2, the "
           "factors at the index of the term they multiply"),
]


def mutated(mutant: Mutant, text: str) -> str:
    """text with the mutant's one occurrence of its old text replaced."""
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.id}: the old text occurs {count} times in {mutant.file}")
    return text.replace(mutant.old, mutant.new)


def run(mutant: Mutant) -> str:
    """'killed' when the mutant's test fails against a mutated copy of src/,
    else 'survived', 'timed out' or the pytest exit code that is not a
    failure."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = Path(tmp) / mutant.file
        target.write_text(mutated(mutant, target.read_text()))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        try:
            code = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x",
                                   "-p", "no:cacheprovider", mutant.test],
                                  cwd=ROOT, env=env, capture_output=True,
                                  timeout=TIMEOUT).returncode
        except subprocess.TimeoutExpired:
            return "timed out"
    return {0: "survived", 1: "killed"}.get(code, f"pytest exit code {code}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", metavar="ID", choices=[m.id for m in MUTANTS],
                        help="run this mutant alone")
    args = parser.parse_args(argv)
    failed = 0
    for mutant in MUTANTS:
        if args.only in (None, mutant.id):
            verdict = run(mutant)
            failed += verdict != "killed"
            print(f"{verdict:10} {mutant.id}  ({mutant.test})", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

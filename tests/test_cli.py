"""Command-line behavior: output shapes, exit codes, determinism."""

import argparse
import ast
import importlib
import inspect
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import involute
from involute import _linalg, classify, spectral, transform, walk
from involute.cli import _SIMULATE_CHUNK as CHUNK
from involute.cli import build_parser, main
from involute.spectral import family_sequence
from involute.transform import lambda_walk
from involute.walk import transition_matrix
from involute.weights import DeltaAB, GammaAB, GammaC

from oracles import matvec, simulate_stepwise

PACKAGE_DIR = Path(involute.__file__).parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_pretty(capsys):
    code, out, _ = run(capsys, "matrix", "--gamma", "0", "0", "--n", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    assert lines[0].split() == ["·", "·", "·", "1"]
    assert lines[3].split() == ["1/4", "1/4", "1/4", "1/4"]


def test_matrix_csv_and_json(capsys):
    code, out, _ = run(capsys, "--format", "csv", "matrix", "--delta", "4", "2", "--n", "4")
    assert code == 0
    assert out.splitlines()[1] == "0,0,0,1"
    code, out, _ = run(capsys, "--format", "json", "matrix", "--gammac", "1/2", "--n", "4")
    payload = json.loads(out)
    assert payload["entries"][3] == ["8/27", "4/9", "2/9", "1/27"]


def test_check_stochastic_witness(capsys):
    code, _, err = run(capsys, "check", "--lambda", "1,1/2,1/2,3/4", "stochastic")
    assert code == 2
    assert "z=1" in err
    code, out, _ = run(capsys, "check", "--lambda", "1,1/2,1/3,1/4", "stochastic")
    assert code == 0


def test_check_reversible_and_conjugator(capsys):
    code, _, err = run(capsys, "check", "--lambda", "1,3/5,3/10,1/20", "reversible")
    assert code == 2
    assert "detailed balance" in err
    code, out, _ = run(capsys, "check", "--delta", "4", "2", "--n", "4", "kolmogorov")
    assert code == 0
    # the deterministic flip is reducible for n = 3 yet reversible
    code, out, _ = run(capsys, "check", "--lambda", "1,1,1", "reversible")
    assert code == 0 and "reducible" in out
    # states 1..4 are transient: detailed balance holds against the unique
    # stationary law, but no strictly positive law balances, so the walk is
    # not reversible, as the sweep records it
    code, out, err = run(capsys, "check", "--lambda", "1,1/2,1/2,1/2,1/2,1/2", "reversible")
    assert (code, out) == (2, "") and "not reversible: detailed balance fails" in err
    code, _, err = run(capsys, "check", "--lambda", "1,1/2,1/2,1/2,1/2,1/2", "kolmogorov")
    assert code == 2 and "strictly positive" in err


def test_check_ergodic_lambda(capsys):
    # the same walk check as --gamma and --matrix: a non-walk is rejected first
    code, out, err = run(capsys, "check", "--lambda", "1,1/2,0,0", "ergodic")
    assert (code, out) == (2, "") and "alternating sum at z=3" in err
    code, out, err = run(capsys, "check", "--lambda", "1,1/2,1/2,1/2", "ergodic")
    assert (code, out) == (2, "")
    assert err == "error: not ergodic: irreducible=False aperiodic=False\n"
    code, out, _ = run(capsys, "check", "--lambda", "1,1/2,1/3,1/4", "ergodic")
    assert (code, out) == (0, "ergodic\n")


def test_kolmogorov_at_fourteen_states(capsys):
    # the criterion enumerates no cycles, so n is not capped
    code, out, _ = run(capsys, "check", "--gamma", "1", "1/3", "--n", "14", "kolmogorov")
    assert (code, out) == (0, "kolmogorov criterion holds\n")


def test_check_matrix_file(tmp_path, capsys):
    target = tmp_path / "mat.csv"
    target.write_text("1,0,0\n1/3,2/3,0\n-1/12,5/6,1/4\n")
    code, out, _ = run(capsys, "check", "--matrix", str(target), "gadep")
    assert code == 0


@pytest.mark.parametrize(
    "prop, expected",
    [
        ("reversible", (0, "reversible\n", "")),
        ("kolmogorov", (0, "kolmogorov criterion holds\n", "")),
        ("ergodic", (0, "ergodic\n", "")),
        ("stochastic", (2, "", "error: check stochastic needs --lambda\n")),
        ("globally-reversible", (2, "", "error: check globally-reversible needs --lambda\n")),
    ],
)
def test_check_matrix_walk_properties(tmp_path, capsys, prop, expected):
    target = tmp_path / "walk.csv"
    target.write_text("0,1\n1/2,1/2\n")
    assert run(capsys, "check", "--matrix", str(target), prop) == expected


@pytest.mark.parametrize(
    "extra",
    [["--gamma", "1", "1", "--n", "3", "reversible"], ["--lambda", "1,1/2", "stochastic"]],
)
def test_check_matrix_is_one_source(capsys, extra):
    # --matrix counts as a source like the family flags: no second one is ignored
    target = Path(__file__).parent / "data" / "walk3.csv"
    assert run(capsys, "check", "--matrix", str(target), *extra) == (
        2, "", "error: exactly one of --gamma/--gammac/--delta/--lambda/--custom/--matrix "
               "is required\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("0,1,0\n1/2,1/2,0\n", "must be square"),
        ("0,1\n1/2,1/3\n", "row 1 is not a probability distribution"),
        ("1,0\n1/2,1/2\n", "row 0 breaks the anti-triangular support"),
    ],
)
def test_check_matrix_rejects_a_non_walk(tmp_path, capsys, text, message):
    target = tmp_path / "walk.csv"
    target.write_text(text)
    for prop in ("reversible", "kolmogorov", "ergodic"):
        code, out, err = run(capsys, "check", "--matrix", str(target), prop)
        assert (code, out) == (2, "") and message in err and err.startswith("error: ")


DATA_DIR = Path(__file__).parent / "data"
# Exit code, stdout and stderr of `check adep|gadep|binomial-transform` in
# every format, recorded when the CLI built the full property report (and
# Faddeev-LeVerrier characteristic polynomials) for every check; DATA/ names
# tests/data.  The matrices: L4 and H5 at tau = 1/4 (GADEP holds, not a
# binomial transform), block2_fails (ADEP at size 3, not at size 2) and
# fails_at_n (ADEP holds below size 3 only), walk3 (not lower-triangular).
TRIANGULAR_CASES = json.loads((DATA_DIR / "check_triangular.json").read_text())


@pytest.mark.parametrize("case", TRIANGULAR_CASES, ids=lambda c: " ".join(c["argv"]))
def test_check_triangular_properties_as_recorded(capsys, case):
    argv = [a.replace("DATA/", f"{DATA_DIR}/") for a in case["argv"]]
    assert run(capsys, *argv) == (case["code"], case["out"], case["err"])


@pytest.mark.parametrize("prop, calls", [("adep", 1), ("binomial-transform", 0)])
def test_check_decides_only_the_printed_property(monkeypatch, capsys, prop, calls):
    seen = []
    charpoly = _linalg.charpoly

    def counting(a):
        seen.append(len(a))
        return charpoly(a)

    monkeypatch.setattr(_linalg, "charpoly", counting)
    code, out, _ = run(capsys, "check", "--gamma", "2", "4/3", "--n", "12", prop)
    assert (code, out) == (0, f"{prop} holds\n")
    assert seen == [12] * calls


def test_charpoly_checks_past_the_budget_exit_2(monkeypatch, tmp_path, capsys):
    budget = transform.CHARPOLY_BUDGET
    assert budget >= 12  # the largest n any test or bench job checks
    # at the budget the slowest bench family is checked
    assert run(capsys, "check", "--gamma", "2", "2/3", "--n", str(budget), "adep") == (
        0, "adep holds\n", "")
    seen = []
    monkeypatch.setattr(_linalg, "charpoly", lambda a: seen.append(len(a)))
    refusal = (2, "", f"error: a characteristic-polynomial check needs n <= {budget}, "
                      f"the charpoly budget, got n={budget + 1}\n")
    over = ("--gamma", "2", "2/3", "--n", str(budget + 1))
    for prop in ("adep", "gadep", "binomial-transform"):
        assert run(capsys, "--format", "json", "check", *over, prop) == refusal
    for prop in ("adep", "gadep"):
        assert run(capsys, "check", *over, prop) == refusal
    # binomial-transform needs no charpoly; only its witness of a failure does
    assert run(capsys, "check", *over, "binomial-transform") == (
        0, "binomial-transform holds\n", "")
    rows = [["1" if y in (x, x - 1) else "0" for y in range(budget + 1)] for x in range(budget + 1)]
    target = tmp_path / "shifted.csv"
    target.write_text("".join(",".join(row) + "\n" for row in rows))
    assert run(capsys, "check", "--matrix", str(target), "binomial-transform") == refusal
    assert seen == []


@pytest.mark.parametrize("text", ["1,0,0\n1,1,0\n", "1,0\n1,1\n1,1\n"])
def test_check_triangular_needs_a_square_matrix(tmp_path, capsys, text):
    target = tmp_path / "mat.csv"
    target.write_text(text)
    for prop in ("adep", "gadep", "binomial-transform"):
        for fmt in ("pretty", "json"):
            assert run(capsys, "--format", fmt, "check", "--matrix", str(target), prop) == (
                2, "", "error: matrix must be square\n")


@pytest.mark.parametrize("text", ["1,0,5\n1,1,0\n", "1,0\n1,1\n1,1\n"])
def test_check_conjugator_needs_a_square_matrix(tmp_path, capsys, text):
    # a wide matrix once passed on its left block, a tall one read as singular
    target = tmp_path / "mat.csv"
    target.write_text(text)
    for flags in ((), ("--global",)):
        assert run(capsys, "check", "--matrix", str(target), "conjugator", *flags) == (
            2, "", "error: matrix must be square\n")


def test_custom_weight_through_cli(tmp_path, capsys):
    target = tmp_path / "weight.csv"
    target.write_text("y,x,value\n0,0,2\n0,1,1\n1,1,3\n")
    code, out, _ = run(capsys, "--format", "csv", "matrix", "--custom", str(target))
    assert code == 0
    assert out.splitlines()[1:] == ["0,1", "3/4,1/4"]
    code, out, _ = run(capsys, "--format", "csv", "stationary", "--custom", str(target))
    assert code == 0 and out.strip() == "3/7,4/7"


def test_custom_weight_duplicate_row(tmp_path, capsys):
    target = tmp_path / "weight.csv"
    target.write_text("y,x,value\n0,0,2\n0,1,1\n1,1,3\n0,1,5\n")
    code, out, err = run(capsys, "matrix", "--custom", str(target))
    assert code == 2 and out == ""
    assert "duplicate" in err and "'0,1,5'" in err


@pytest.mark.parametrize("argv", [["check", "--matrix", "{}", "gadep"],
                                  ["matrix", "--custom", "{}"]])
def test_missing_input_file_is_bad_input(tmp_path, capsys, argv):
    missing = str(tmp_path / "missing.csv")
    code, out, err = run(capsys, *[a.format(missing) for a in argv])
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {missing}: No such file or directory\n"


def test_stationary_and_spectrum(capsys):
    code, out, _ = run(capsys, "--format", "csv", "stationary", "--gamma", "0", "0", "--n", "4")
    assert code == 0 and out.strip() == "1/10,1/5,3/10,2/5"
    code, out, _ = run(capsys, "--format", "csv", "spectrum", "--delta", "4", "2", "--n", "4")
    assert code == 0 and out.strip() == "1,-3/4,1/2,-1/4"


def test_classify_command(capsys):
    code, out, _ = run(capsys, "classify", "--lambda", "1,1/2,1/3,1/4")
    assert code == 0 and out.strip() == "gamma(a=0, b=0)"


def test_ladder_command(capsys):
    code, out, _ = run(capsys, "ladder", "--mu", "2/3", "--n", "10")
    assert code == 0
    assert out.splitlines()[1] == "9,10/23,17"


def test_simulate_deterministic(capsys):
    args = ("simulate", "--gamma", "0", "0", "--n", "4", "--steps", "50", "--seed", "7")
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    assert out1.splitlines()[0] == "step,state"
    assert len(out1.splitlines()) == 52


def test_simulate_rejects_negative_steps(capsys):
    code, out, err = run(capsys, "simulate", "--gamma", "1", "1", "--n", "4", "--steps", "-5")
    assert (code, out) == (2, "")
    assert "steps must be >= 0" in err


def test_simulate_refuses_steps_past_the_budget(capsys, monkeypatch):
    budget = walk.SIMULATION_BUDGET
    assert budget >= 20 * 20_000  # well above the bench's longest run
    argv = ("simulate", "--gamma", "1", "1", "--n", "4", "--empirical", "--steps")
    code, out, _ = run(capsys, *argv, str(budget))
    assert code == 0 and len(out.split(",")) == 4
    monkeypatch.setattr(walk, "random", None)  # drawing a step would fail with exit 1
    code, out, err = run(capsys, *argv, str(budget + 1))
    assert (code, out) == (2, "")
    assert f"steps must be <= {budget}" in err


def test_ladder_refuses_n_past_the_budget(capsys, monkeypatch):
    budget = classify.LADDER_BUDGET
    code, out, _ = run(capsys, "--format", "json", "ladder", "--mu", "99/100", "--n", str(budget))
    assert code == 0 and json.loads(out)[0]["m"] == budget - 1
    monkeypatch.setattr(classify, "nu_ladder", None)  # building a row would fail with exit 1
    code, out, err = run(capsys, "ladder", "--mu", "2/3", "--n", str(budget + 1))
    assert (code, out) == (2, "")
    assert f"n must be <= {budget}, the ladder budget, got {budget + 1}" in err
    with pytest.raises(SystemExit):
        main(["ladder", "--help"])
    assert f"at most {budget}" in capsys.readouterr().out


def test_tables_past_the_budget_exit_2(capsys, monkeypatch):
    budget = _linalg.TABLE_BUDGET
    assert budget >= 500  # the largest n any test or bench job passes
    refusal = (2, "", f"error: an n x n table needs n <= {budget}, the table budget, "
                      f"got n={budget + 1}\n")
    for argv in (["matrix", "--gamma", "1", "1"], ["stationary", "--gammac", "1"],
                 ["eigvec", "--delta", str(budget + 2), "3"],
                 ["check", "--gamma", "1", "1", "adep"]):
        assert run(capsys, *argv, "--n", str(budget + 1)) == refusal
    # the verdicts of a --lambda walk read its integer L * M, an n x n table too
    ones = ",".join(["1"] * (budget + 1))
    for argv in (["classify", "--lambda", ones],
                 ["check", "--lambda", ones, "globally-reversible"]):
        assert run(capsys, *argv) == refusal
    # spectrum builds no table
    code, out, _ = run(capsys, "spectrum", "--gamma", "1", "1", "--n", str(budget + 1))
    assert code == 0 and len(out.split()) == budget + 1
    # eigvec --d builds d + 1 rows of the right triangle; json also solves the
    # left side, whose triangle is n x n
    argv = ("eigvec", "--gamma", "1", "1", "--n", str(budget + 1), "--d", "2")
    code, out, _ = run(capsys, *argv)
    *lines, final = out.splitlines()
    assert code == 0 and len(lines) == 3 and final.startswith("final-left=1,")
    assert [len(line.split("right=")[1].split(",")) for line in lines] == [budget + 1] * 3
    assert run(capsys, "--format", "json", *argv) == refusal


def test_stationary_of_a_named_family_builds_no_walk(capsys, monkeypatch):
    # the law comes from the closed form, so neither P nor its potentials are needed
    monkeypatch.setattr(walk, "transition_matrix", None)
    monkeypatch.setattr(walk, "stationary", None)  # calling either would exit 1
    argv = ("--format", "csv", "stationary")
    assert run(capsys, *argv, "--gamma", "0", "0", "--n", "4") == (0, "1/10,1/5,3/10,2/5\n", "")
    assert run(capsys, *argv, "--gammac", "1", "--n", "3") == (0, "1/9,4/9,4/9\n", "")
    assert run(capsys, *argv, "--delta", "4", "2", "--n", "4") == (0, "1/35,12/35,18/35,4/35\n", "")
    # the domain is checked before the table budget, as for the weight's tables
    assert run(capsys, "stationary", "--delta", "5/2", "7/2", "--n", "1001") == (
        2, "", "error: n=1001 is outside the weight's domain\n")


def test_n_with_a_lambda_or_matrix_source_exits_2(capsys):
    message = ("error: --n applies only to a weight: a --lambda or --matrix walk has one "
               "state per entry or row\n")
    target = Path(__file__).parent / "data" / "walk3.csv"
    for argv in (["matrix", "--lambda", "1,1/2", "--n", "7"],
                 ["spectrum", "--lambda", "1,1/2", "--n", "2"],
                 ["check", "--matrix", str(target), "--n", "3", "ergodic"]):
        assert run(capsys, *argv) == (2, "", message)
    assert run(capsys, "matrix", "--lambda", "1,1/2")[0] == 0


def test_custom_weight_keeps_its_n_cut(tmp_path, capsys):
    target = tmp_path / "weight.csv"
    target.write_text("0,0,2\n0,1,1\n1,1,3\n0,2,1\n1,2,1\n2,2,1\n")
    assert run(capsys, "--format", "csv", "matrix", "--custom", str(target), "--n", "2") == (
        0, "c0,c1\n0,1\n3/4,1/4\n", "")


def test_global_applies_only_to_conjugator(tmp_path, capsys):
    for prop in ("kolmogorov", "adep", "gadep"):
        assert run(capsys, "check", "--gamma", "1", "1", "--n", "4", "--global", prop) == (
            2, "", f"error: --global applies only to check conjugator, not {prop}\n")
    # the Pascal matrix B conjugates J to an upper-triangular matrix at every size
    target = tmp_path / "pascal.csv"
    target.write_text("1,0,0\n1,1,0\n1,2,1\n")
    assert run(capsys, "check", "--matrix", str(target), "--global", "conjugator") == (
        0, "anti-diagonal conjugator (global)\n", "")


def _readme_commands() -> list:
    """(argv, expected exit code) of each `involute` line in the README's
    "Command line" block; a line whose comment says `exit 2` expects 2."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        if command.startswith("involute "):
            commands.append((command.split()[1:], 2 if "exit 2" in comment else 0))
    return commands


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    commands = _readme_commands()
    assert len(commands) == 18 and [code for _, code in commands].count(2) == 1
    monkeypatch.chdir(tmp_path)
    (tmp_path / "H.csv").write_text("1,0,0\n1/2,1/2,0\n1/4,1/2,1/4\n")
    for argv, expected in commands:
        code, _, err = run(capsys, *argv)
        assert code == expected, (argv, err)


@pytest.mark.parametrize("n", ["2", "-5"])
def test_ladder_needs_three_states(capsys, n):
    code, out, err = run(capsys, "ladder", "--mu", "2/3", "--n", n)
    assert (code, out) == (2, "")
    assert "classification needs n >= 3" in err


def test_subsets_command(capsys):
    code, out, _ = run(capsys, "subsets", "--m", "2", "--p", "1/2")
    assert code == 0
    assert "pi=1/9,2/9,2/9,4/9" in out
    assert "eigenvalues=1,-1/2,-1/2,1/4" in out


def test_eigvec_command(tmp_path, capsys):
    code, out, _ = run(capsys, "eigvec", "--gamma", "0", "0", "--n", "4")
    assert code == 0
    assert "d=1" in out and "2,1,0,-1" in out
    assert "final-left=1,-3,3,-1" in out
    # every named family runs through the same engine; a custom table has no closed form
    code, out, _ = run(capsys, "eigvec", "--delta", "4", "2", "--n", "4")
    assert (code, out.splitlines()[1]) == (0, "d=1  eigenvalue=-3/4  right=12,5,-2,-9")
    code, out, _ = run(capsys, "eigvec", "--gammac", "1/3", "--n", "4")
    assert (code, out.splitlines()[3]) == (0, "d=3  eigenvalue=-27/64  right=64,-48,36,-27")
    target = tmp_path / "weight.csv"
    target.write_text("0,0,2\n0,1,1\n1,1,3\n")
    code, out, err = run(capsys, "eigvec", "--custom", str(target))
    assert (code, out) == (2, "") and "custom weights" in err


def test_eigvec_lambda(capsys):
    code, out, _ = run(capsys, "eigvec", "--lambda", "1,1/2,3/10,1/5")
    assert (code, out.splitlines()[2:]) == (
        0, ["d=2  eigenvalue=3/10  right=30,-5,-12,9", "d=3  eigenvalue=-1/5  right=5,-5,3,-1",
            "final-left=1,-3,3,-1"])
    # pi is the mu_0 left vector over its sum
    code, out, _ = run(capsys, "--format", "json", "eigvec", "--lambda", "1,1/2,3/10,1/5")
    payload = json.loads(out)
    assert payload["left_vectors"][0] == ["1", "3", "5", "5"]
    assert payload["pi"] == ["1/14", "3/14", "5/14", "5/14"]
    repeated = (2, "", "error: signed eigenvalue 0 repeats at d=1 and d'=2; "
                       "eigenvectors need distinct signed eigenvalues\n")
    assert run(capsys, "eigvec", "--lambda", "1,0,0") == repeated
    # the whole sequence is checked, not only the printed prefix
    assert run(capsys, "eigvec", "--lambda", "1,0,0", "--d", "0") == repeated


EIGVEC_SOURCES = [
    (("--gamma", "1", "1/3", "--n", "9"), family_sequence(GammaAB(1, F(1, 3)), 9),
     transition_matrix(GammaAB(1, F(1, 3)), 9)),
    (("--gammac", "1/2", "--n", "7"), family_sequence(GammaC(F(1, 2)), 7),
     transition_matrix(GammaC(F(1, 2)), 7)),
    (("--delta", "21/2", "43/4", "--n", "8"), family_sequence(DeltaAB(F(21, 2), F(43, 4)), 8),
     transition_matrix(DeltaAB(F(21, 2), F(43, 4)), 8)),
    (("--lambda", "1,1/2,3/10,1/5"), [F(1), F(1, 2), F(3, 10), F(1, 5)],
     lambda_walk([F(1), F(1, 2), F(3, 10), F(1, 5)])),
]


@pytest.mark.parametrize("flags, lam, p", EIGVEC_SOURCES,
                         ids=["gamma", "gammac", "delta", "lambda"])
@pytest.mark.parametrize("dmax", [None, 0, 2])
def test_eigvec_prints_the_engine_right_vectors_without_the_left_side(monkeypatch, capsys,
                                                                      flags, lam, p, dmax):
    rights = spectral.right_eigenvectors(lam, dmax)
    eigenvalues = spectral.signed_eigenvalues(lam)[:len(rights)]
    expected = list(zip(eigenvalues, rights))
    assert all(matvec(p, vec) == [value * x for x in vec] for value, vec in expected)
    d_flag = () if dmax is None else ("--d", str(dmax))

    def solve_left(lam, dmax=None):
        raise AssertionError("the left side was solved")

    monkeypatch.setattr(spectral, "left_side", solve_left)
    for fmt in ("pretty", "csv"):
        code, out, _ = run(capsys, "--format", fmt, "eigvec", *flags, *d_flag)
        *lines, final = out.splitlines()
        printed = []
        for d, line in enumerate(lines):
            head, value, right = line.split("  ")
            assert head == f"d={d}"
            printed.append((F(value.removeprefix("eigenvalue=")),
                            [F(x) for x in right.removeprefix("right=").split(",")]))
        assert (code, printed) == (0, expected)
        assert final == "final-left=" + ",".join(
            str(x) for x in spectral.final_left_eigenvector(len(lam)))
    monkeypatch.undo()
    code, out, _ = run(capsys, "--format", "json", "eigvec", *flags, *d_flag)
    lefts, pi = spectral.left_side(lam, dmax)
    assert all(_linalg.vecmat(u, p) == [value * x for x in u]
               for value, u in zip(eigenvalues, lefts))
    assert (code, json.loads(out)) == (0, {
        "n": len(lam), "eigenvalues": list(map(str, eigenvalues)),
        "right_vectors": [list(map(str, v)) for v in rights],
        "left_vectors": [list(map(str, u)) for u in lefts], "pi": list(map(str, pi))})


def test_eigvec_writes_nothing_on_failure(capsys):
    # d=0 and d=1 format, then 10^4300 passes the digit limit: no line is written
    assert run(capsys, "eigvec", "--lambda", "1,1/2,1e-4300") == (
        2, "", "error: a number in the result has more than 4300 digits, the limit of "
               "Python's integer string conversion\n")


@pytest.mark.parametrize("command", ["matrix", "spectrum", "eigvec"])
def test_lambda_commands_share_the_stochastic_check(capsys, command):
    assert run(capsys, command, "--lambda", "1,1/2,1") == (
        2, "", "error: alternating sum at z=1 is -1/2 < 0\n")


@pytest.mark.parametrize("command", ["eigvec", "spectrum", "matrix", "stationary", "simulate"])
def test_family_weight_needs_n(capsys, command):
    assert run(capsys, command, "--gamma", "1", "1") == (
        2, "", "error: --n is required for family weights\n")


def test_huge_decimal_exponent_exits_at_once(capsys):
    # at 1e-10000000 Fraction alone spends seconds building 10**10000000
    start = time.perf_counter()
    code, out, err = run(capsys, "spectrum", "--lambda", "1,1e-10000000")
    assert (code, out) == (2, "") and "above the limit of 4300" in err
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("argv", [
    ["spectrum", "--gammac", "1", "--n", "14300"],  # 2^14299 has 4,305 digits
    ["spectrum", "--lambda", "1,1e-5000"],  # refused as it is parsed
    ["classify", "--lambda", "1,1/2,1e-5000"],
    ["spectrum", "--lambda", "1,1e-4300"],  # 10^4300 has 4,301 digits
    ["classify", "--lambda", "1,1/3,1e-4300"],  # in the printed label
    ["classify", "--lambda", "1,1e-4300,1/2"],  # in the failed stochastic check's message
])
def test_result_past_the_digit_limit_exits_2(capsys, argv):
    limit = sys.get_int_max_str_digits()
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.startswith("error: ") and "4300" in err
    assert sys.get_int_max_str_digits() == limit


def test_other_value_errors_stay_internal(monkeypatch, capsys):
    def fail(seq):
        raise ValueError("math domain error")

    monkeypatch.setattr(spectral, "signed_eigenvalues", fail)
    assert run(capsys, "spectrum", "--lambda", "1,1/2") == (
        1, "", "internal error: math domain error\n")


def test_eigvec_rejects_negative_d(capsys):
    code, out, err = run(capsys, "eigvec", "--gamma", "1", "1", "--n", "4", "--d", "-1")
    assert (code, out, err) == (2, "", "error: eigenvectors need dmax >= 0, got -1\n")


@pytest.mark.parametrize("prop", ["stochastic", "globally-reversible"])
def test_check_lambda_property_builds_no_walk(monkeypatch, capsys, prop):
    def refuse(*args):
        raise AssertionError("a walk was built")

    monkeypatch.setattr(walk, "transition_matrix", refuse)
    code, out, err = run(capsys, "check", "--gamma", "1", "1", "--n", "500", prop)
    assert (code, out, err) == (2, "", f"error: check {prop} needs --lambda\n")


def test_negative_rational_arguments(capsys):
    # gamma(a, b) is valid for a, b > -1, so "-1/3" is a value, not a flag
    code, out, _ = run(capsys, "--format", "csv", "matrix", "--gamma", "-1/3", "-2/3", "--n", "3")
    assert code == 0
    assert out.splitlines()[1:] == ["0,0,1", "0,2/3,1/3", "5/9,2/9,2/9"]
    code, out, _ = run(capsys, "--format", "csv", "matrix", "--gamma", "-0.5", "0", "--n", "3")
    assert code == 0 and out.splitlines()[3] == "1/5,4/15,8/15"
    code, out, err = run(capsys, "matrix", "--gamma", "-1", "0", "--n", "3")
    assert (code, out) == (2, "") and "a, b > -1" in err
    # every subcommand that takes --gamma reads its negative values, whether
    # a fresh parser defines its arguments or the reused one already has
    from involute import cli

    for argv in (["stationary"], ["spectrum"], ["eigvec"], ["check", "kolmogorov"],
                 ["simulate"]):
        argv = [*argv, "--gamma", "-1/3", "-2/3", "--n", "4"]
        assert cli.build_parser().parse_args(argv).gamma == ["-1/3", "-2/3"]
        code, out, err = run(capsys, *argv)
        assert code == 0 and out and "expected 2 arguments" not in err, argv


def test_conjecture_command(capsys):
    code, out, err = run(capsys, "conjecture", "--n", "3", "--max-denominator", "3")
    assert code == 0
    lines = out.strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert all(r["stochastic"] for r in records)
    summary = json.loads(err.strip().splitlines()[-1])
    assert summary["unclassified_reversible"] == 0


def test_conjecture_rejects_empty_grid(capsys):
    for den in ("0", "-3"):
        code, out, err = run(capsys, "conjecture", "--n", "3", "--max-denominator", den)
        assert code == 2 and out == ""
        assert "max_denominator" in err


def test_conjecture_refuses_a_grid_past_the_budget(capsys):
    import time

    from involute.transform import LATTICE_BUDGET

    start = time.perf_counter()
    code, out, err = run(capsys, "conjecture", "--n", "4", "--max-denominator", "40")
    elapsed = time.perf_counter() - start
    assert (code, out) == (2, "")
    assert err.startswith("error: n=4 at max_denominator=40") and str(LATTICE_BUDGET) in err
    assert elapsed < 2


def test_repro_targets(capsys):
    code, out, _ = run(capsys, "repro", "intro-matrices")
    assert code == 0 and out.count("P for") == 6
    code, out, _ = run(capsys, "repro", "example7-table")
    assert out.strip().splitlines() == [
        "nu,a_prime,m",
        "10/23,17,9",
        "13/30,15,8",
        "22/51,13,7",
        "3/7,11,6",
    ]
    code, out, _ = run(capsys, "repro", "fig1-ladder")
    assert out.strip().splitlines()[1:] == ["2,1/3", "3,2/5", "4,5/12", "5,14/33", "6,3/7"]
    code, out, _ = run(capsys, "repro", "section7-hl")
    assert "2/3" in out
    code, out, _ = run(capsys, "repro", "example2-matrices")
    assert out.count("gadep=True binomial_transform=False") == 4


def test_down_step_and_lambda_spectrum(capsys):
    code, out, _ = run(capsys, "--format", "csv", "matrix", "--gamma", "0", "0", "--n", "3",
                       "--down-step")
    assert code == 0
    assert out.splitlines()[1:] == ["1,0,0", "1/2,1/2,0", "1/3,1/3,1/3"]
    code, out, _ = run(capsys, "--format", "csv", "spectrum", "--lambda", "1,1/2,1/3")
    assert out.strip() == "1,-1/2,1/3"


def test_simulate_output_matches_stepwise_loop(capsys):
    sources = [(("--gamma", "1", "1/3", "--n", "20"), transition_matrix(GammaAB(1, F(1, 3)), 20)),
               (("--delta", "4", "2", "--n", "4"), transition_matrix(DeltaAB(4, 2), 4)),
               (("--lambda", "1,2/3,1/3,0"), lambda_walk([F(1), F(2, 3), F(1, 3), F(0)]))]
    for flags, w in sources:
        for start, steps, seed in ((0, 0, 0), (0, 300, 5), (len(w) - 1, 2000, 31)):
            traj, empirical = simulate_stepwise(w, start, steps, seed)
            argv = ("simulate", *flags, "--start", str(start), "--steps", str(steps),
                    "--seed", str(seed))
            code, out, _ = run(capsys, *argv)
            assert (code, out) == (0, "step,state\n" + "".join(f"{t},{x}\n"
                                                                for t, x in enumerate(traj)))
            code, out, _ = run(capsys, *argv, "--empirical")
            assert (code, out) == (0, ",".join(f"{f:.6f}" for f in empirical) + "\n")


@pytest.mark.parametrize("steps", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_simulate_csv_across_chunk_edges(capsys, steps):
    w = transition_matrix(GammaAB(1, F(1, 3)), 12)
    traj, _ = simulate_stepwise(w, 11, steps, 4)
    code, out, _ = run(capsys, "simulate", "--gamma", "1", "1/3", "--n", "12", "--start", "11",
                       "--steps", str(steps), "--seed", "4")
    assert (code, out) == (0, "step,state\n" + "".join(f"{t},{x}\n" for t, x in enumerate(traj)))


def test_simulate_empirical(capsys):
    code, out, _ = run(capsys, "simulate", "--gammac", "1", "--n", "3", "--steps", "500",
                       "--seed", "3", "--empirical")
    assert code == 0
    assert len(out.strip().split(",")) == 3


def test_continuum_commands(capsys):
    code, out, _ = run(capsys, "continuum", "--kappa", "0", "0", "--residual", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d,residual"
    assert len(lines) == 3
    code, out, _ = run(capsys, "continuum", "--trig", "--fixed-point")
    assert code == 0 and out.startswith("fixed_point_residual,")
    code, out, _ = run(capsys, "continuum", "--kappa", "0", "0", "--convergence", "1",
                       "--sizes", "10,20")
    rows = out.strip().splitlines()
    assert rows[0] == "n,distance"
    assert float(rows[2].split(",")[1]) < float(rows[1].split(",")[1])


@pytest.mark.parametrize("a, b", [(90, 0), (0, 90), (45, 45)])
def test_continuum_kappa_at_the_bound_is_finite(capsys, a, b):
    for mode in (["--fixed-point"], ["--invariant"], ["--residual", "12"],
                 ["--convergence", "5"]):
        code, out, _ = run(capsys, "continuum", "--kappa", str(a), str(b), *mode)
        assert code == 0
        fields = [line.rsplit(",", 1)[1] for line in out.splitlines()]
        values = [float(v) for v in fields if v not in ("pi", "residual", "distance")]
        assert values and all(math.isfinite(v) for v in values), (mode, out)


@pytest.mark.parametrize(
    "argv",
    [
        ["--residual", "-1"],
        ["--residual", "13"],
        ["--convergence", "-1"],
        ["--convergence", "1", "--sizes", "1,2"],
        ["--convergence", "1", "--sizes", "10,x"],
        ["--trig", "--convergence", "1"],
        ["--trig", "--kappa", "1", "1", "--residual", "1"],
        [],
        ["--residual", "1", "--fixed-point"],
        ["--invariant", "--convergence", "1"],
        ["--trig", "--fixed-point", "--invariant"],
        ["--convergence", "1", "--sizes", "10,401"],
        ["--convergence", "1", "--sizes", ",".join(["10"] * 9)],
        ["--residual", "1", "--sizes", "10,x"],
        ["--fixed-point", "--sizes", "10,20"],
        ["--kappa", "91", "0", "--invariant"],
        ["--kappa", "0", "91", "--fixed-point"],
        ["--kappa", "45", "46", "--residual", "12"],
        ["--kappa", "46", "45", "--convergence", "5"],
        ["--kappa", "520", "0", "--invariant"],
    ],
)
def test_continuum_input_errors(capsys, argv):
    code, out, err = run(capsys, "continuum", *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_main_reuses_one_parser(capsys):
    from involute import cli

    argvs = [
        ["--format", "json", "matrix", "--gammac", "1/2", "--n", "4"],
        ["matrix", "--gamma", "0", "0", "--n", "4"],
        ["--format", "csv", "stationary", "--gamma", "1", "0", "--n", "5"],
        ["continuum", "--kappa", "1", "0", "--residual", "2"],
        ["continuum", "--residual", "1"],
        ["--format", "json", "ladder", "--mu", "2/3", "--n", "4"],
        ["ladder", "--mu", "2/3", "--n", "4"],
        ["--format", "csv", "spectrum", "--lambda", "1,1/2,1/3"],
    ]
    reused = [run(capsys, *argv) for argv in argvs]
    assert cli._parser() is cli._parser()
    for argv, got in zip(argvs, reused):
        args = cli.build_parser().parse_args(argv)
        args.func(args)
        captured = capsys.readouterr()
        assert got == (0, captured.out, captured.err)


def test_import_builds_no_parser():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    probe = "import involute.cli as c; print(c._parser.cache_info().currsize)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert (done.returncode, done.stdout) == (0, "0\n")


EXACT_ARGVS = [
    ["matrix", "--gamma", "1", "1", "--n", "4"],
    ["stationary", "--gamma", "1", "1", "--n", "4"],
    ["spectrum", "--gamma", "1", "1", "--n", "4"],
    ["eigvec", "--gamma", "1", "1", "--n", "4"],
    ["check", "--gamma", "1", "1", "--n", "4", "kolmogorov"],
    ["classify", "--lambda", "1,1/2,1/4,1/8"],
    ["conjecture", "--n", "3", "--max-denominator", "4"],
    ["subsets", "--m", "2", "--p", "1/2"],
    ["simulate", "--gamma", "1", "1", "--n", "4", "--steps", "10"],
    ["repro", "example7-table"],
    ["--format", "json", "matrix", "--gamma", "2", "2/3", "--n", "12"],
    ["matrix", "--gammac", "1/3", "--n", "8"],
    ["simulate", "--gamma", "1", "1", "--n", "4", "--steps", "10", "--empirical"],
]
FLOAT_ARGVS = [["continuum", "--trig", "--fixed-point"], ["repro", "fig2-convergence"]]


def test_exact_commands_leave_numpy_unloaded():
    # only the interval path needs floats; every other command starts without numpy,
    # and no command needs dataclasses or the inspect machinery it imports
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    probe = (
        "import contextlib, io, json, sys\n"
        "heavy = lambda: sorted({'dataclasses', 'inspect'} & set(sys.modules))\n"
        "import involute\n"
        "import involute.cli as c\n"
        "c.build_parser()\n"
        "started = heavy()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    exact = [c.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "    loaded = 'numpy' in sys.modules\n"
        "    ran = heavy()\n"
        "    floats = [c.main(argv) for argv in json.loads(sys.argv[2])]\n"
        "print(json.dumps([exact, loaded, started, ran, floats]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(EXACT_ARGVS), json.dumps(FLOAT_ARGVS)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    exact, loaded, started, ran, floats = json.loads(done.stdout)
    assert exact == [0] * len(EXACT_ARGVS)
    assert loaded is False
    assert started == [] and ran == []
    assert floats == [0] * len(FLOAT_ARGVS)


def test_start_up_loads_json_only_to_print_json():
    # json is loaded by the commands that print JSON (--format json, and the
    # JSON lines of conjecture) and by no other; the argv lists reach the
    # probe as literals, since reading them with json would load it
    json_argv = ["--format", "json", "matrix", "--gamma", "2", "2/3", "--n", "12"]
    other = [argv for argv in EXACT_ARGVS if "json" not in argv and argv[0] != "conjecture"]
    assert json_argv in EXACT_ARGVS and len(other) == len(EXACT_ARGVS) - 2
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    probe = (
        "import contextlib, io, sys\n"
        "import involute.cli as c\n"
        "c.build_parser()\n"
        "loaded = ['json' in sys.modules]\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"    codes = [c.main(argv) for argv in {other!r}]\n"
        "    loaded.append('json' in sys.modules)\n"
        f"    codes.append(c.main({json_argv!r}))\n"
        "    loaded.append('json' in sys.modules)\n"
        "print(repr((codes, loaded)))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert ast.literal_eval(done.stdout) == ([0] * (len(other) + 1), [False, False, True])


def test_parsing_defines_only_its_own_subcommand():
    # build_parser registers every subcommand with its help line alone; a
    # parse defines the arguments of the subcommand it reaches, once
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert [a.dest for p in sub.choices.values() for a in p._actions] == ["help"] * 12
    argv = ["matrix", "--gamma", "1", "1", "--n", "4"]
    assert parser.parse_args(argv) == parser.parse_args(argv)
    dests = {name: [a.dest for a in p._actions] for name, p in sub.choices.items()}
    assert dests.pop("matrix") == ["help", "gamma", "gammac", "delta", "lam", "custom", "n",
                                   "down_step"]
    assert list(dests.values()) == [["help"]] * 11


def test_repro_fig2(capsys):
    code, out, _ = run(capsys, "repro", "fig2-convergence")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["1"] * 4 + ["2"] * 4
    for block in (rows[:4], rows[4:]):
        dists = [float(r[2]) for r in block]
        assert all(dists[i + 1] < dists[i] for i in range(3))


def test_usage_errors(capsys):
    code, _, err = run(capsys, "matrix", "--n", "4")
    assert code == 2
    code, _, err = run(capsys, "matrix", "--gamma", "0", "0")
    assert code == 2
    with pytest.raises(SystemExit):
        run(capsys, "nonsense")


def test_package_has_no_assert_statements():
    # invariants are tests or explicit raises, and no code reads __debug__, so
    # python -O, which only drops asserts and sets __debug__ false, cannot
    # change the package's behaviour
    paths = sorted(PACKAGE_DIR.rglob("*.py"))
    assert len(paths) > 10
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name}: assert at lines {lines}"
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Name) and node.id == "__debug__"]
        assert lines == [], f"{path.name}: __debug__ read at lines {lines}"


def _bench_function_metrics() -> tuple:
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["FUNCTION_METRICS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no FUNCTION_METRICS")


def test_bench_function_metrics_name_public_functions():
    # the traced bench reads each of these spans by name, so a rename must fail
    # here; bench/spans.py names a layer after a module's last name part,
    # leading "_" dropped, and wraps only modules loaded when a job starts,
    # so the owner must be loaded by importing the CLI
    metrics = _bench_function_metrics()
    assert metrics
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    code = "import json, sys, involute.cli; print(json.dumps(list(sys.modules)))"
    loaded = json.loads(subprocess.run([sys.executable, "-c", code], capture_output=True,
                                       text=True, env=env, check=True, timeout=60).stdout)
    modules = [f"involute.{path.stem}" for path in PACKAGE_DIR.glob("*.py")]
    for name, _ in metrics:
        layer, function = name.split(".")
        owners = []
        for module_name in modules:
            if module_name.rsplit(".", 1)[-1].lstrip("_") != layer:
                continue
            obj = getattr(importlib.import_module(module_name), function, None)
            if inspect.isfunction(obj) and obj.__module__ == module_name:
                owners.append(module_name)
        assert not function.startswith("_") and len(owners) == 1, name
        assert owners[0] in loaded, name


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--lambda", "1,1/2,3/10,1/5"],
        ["check", "--lambda", "1,1/2,3/10,1/5", "globally-reversible"],
        ["eigvec", "--gamma", "1", "0", "--n", "5"],
        ["check", "--lambda", "1,1/2,1/2,3/4", "stochastic"],
        ["continuum", "--trig", "--residual", "8"],
        ["continuum", "--kappa", "2", "1", "--fixed-point"],
        ["repro", "fig2-convergence"],
        ["check", "--gamma", "1", "1/3", "--n", "14", "kolmogorov"],
        ["stationary", "--gammac", "1/3", "--n", "80"],
        ["eigvec", "--gamma", "1", "1/3", "--n", "24"],
        ["check", "--matrix", str(Path(__file__).parent / "data" / "walk3.csv"), "reversible"],
        ["conjecture", "--n", "4", "--max-denominator", "8"],
        ["continuum", "--trig", "--fixed-point"],
        ["continuum", "--trig", "--invariant"],
        ["eigvec", "--gammac", "1/3", "--n", "12"],
        ["eigvec", "--delta", "21/2", "43/4", "--n", "10"],
        ["eigvec", "--lambda", "1,1/2,3/10,1/5"],
        ["eigvec", "--lambda", "1,0,0"],
        ["--format", "json", "matrix", "--gamma", "2", "2/3", "--n", "12"],
        ["matrix", "--gammac", "1/3", "--n", "8"],
        ["simulate", "--gamma", "1", "1", "--n", "4", "--steps", "10", "--empirical"],
        ["check", "--gamma", "2", "4/3", "--n", "12", "adep"],
        ["--format", "json", "check", "--gamma", "1", "1/3", "--n", "8", "gadep"],
        ["check", "--matrix", str(DATA_DIR / "l4.csv"), "binomial-transform"],
        ["check", "--lambda", "1,1/2,1/2,1/2", "ergodic"],
        ["check", "--lambda", "1,1", "ergodic"],
        ["simulate", "--gamma", "1", "1", "--n", "4", "--steps", "20000"],
        ["eigvec", "--lambda", "1,0,0", "--d", "0"],
        ["eigvec", "--gamma", "1", "1", "--n", "1001", "--d", "2"],
    ],
)
def test_cli_same_under_optimize(argv):
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "involute.cli", *argv],
            capture_output=True, text=True, env=env, timeout=120,
        )
        for flags in ([], ["-O"])
    ]
    plain, optimized = runs
    assert plain.returncode in (0, 2) and (plain.stdout or plain.stderr)
    assert (optimized.returncode, optimized.stdout, optimized.stderr) == (
        plain.returncode, plain.stdout, plain.stderr
    )

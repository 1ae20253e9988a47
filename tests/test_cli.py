"""Command-line behavior: output shapes, exit codes, determinism."""

import argparse
import ast
import importlib
import inspect
import json
import math
import os
import signal
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

import involute
from involute import _linalg, classify, serialize, spectral, transform, walk, weights
from involute.cli import _SIMULATE_CHUNK as CHUNK
from involute.cli import build_parser, main
from involute.serialize import matrix_to_csv, matrix_to_json, matrix_to_pretty
from involute.transform import lambda_walk
from involute.walk import transition_matrix
from involute.weights import DeltaAB, GammaAB, GammaC, domain_limit, family_sequence

from oracles import (BENCH_GAMMA, NAMED_SPECS, matvec, oracle_dict, simulate_stepwise,
                     spec_from_flags, vecmat)

PACKAGE_DIR = Path(involute.__file__).parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refused_by_argparse(capsys, *argv) -> tuple:
    """(exit code, stdout, stderr's last line) of an argv that the parser
    refuses: argparse exits by SystemExit after its usage line."""
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    captured = capsys.readouterr()
    usage, *_, last = captured.err.splitlines()
    assert usage.startswith(f"usage: involute {argv[0]} ")
    return exit_.value.code, captured.out, last


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
    # --matrix is one of the source flags' group: no second source is ignored
    target = Path(__file__).parent / "data" / "walk3.csv"
    assert refused_by_argparse(capsys, "check", "--matrix", str(target), *extra) == (
        2, "", f"involute check: error: argument {extra[0]}: not allowed with argument --matrix")


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
# A failing binomial-transform names its first entry off the transform, so
# its six lines for block2_fails and fails_at_n were recorded again when it
# stopped naming GADEP's failing block.
TRIANGULAR_CASES = json.loads((DATA_DIR / "check_triangular.json").read_text())


@pytest.mark.parametrize("case", TRIANGULAR_CASES, ids=lambda c: " ".join(c["argv"]))
def test_check_triangular_properties_as_recorded(capsys, case):
    argv = [a.replace("DATA/", f"{DATA_DIR}/") for a in case["argv"]]
    expected = (case["code"], case["out"], case["err"])
    if argv[1] == "csv":
        # recorded when a check ignored --format csv, which it now refuses;
        # the same case under --format pretty keeps the recorded output
        expected = (2, "", f"error: --format csv does not apply to check {argv[-1]}: "
                           "it prints json or pretty\n")
    assert run(capsys, *argv) == expected


FAILS_AT_N = ('{"adep": false, "gadep": false, "eigenbasis_action": false, '
              '"is_binomial_transform": false, "witness": 3}\n')


@pytest.mark.parametrize("fmt, source, prop, expected, calls", [
    ("pretty", ("--gamma", "2", "4/3", "--n", "12"), "adep", (0, "adep holds\n", ""), [12]),
    ("pretty", ("--gamma", "2", "4/3", "--n", "12"), "binomial-transform",
     (0, "binomial-transform holds\n", ""), []),
    # a failure names the first entry off the transform, not GADEP's failing block
    ("pretty", ("--matrix", "block2_fails.csv"), "binomial-transform",
     (2, "", "error: binomial-transform fails (witness: (1, 0))\n"), []),
    # each block is decided once: size n first for adep, whose failure
    # searches the smaller blocks, and a failing json check reads the report
    ("pretty", ("--matrix", "fails_at_n.csv"), "adep",
     (2, "", "error: adep fails (witness: 3)\n"), [3, 1, 2]),
    ("pretty", ("--matrix", "fails_at_n.csv"), "gadep",
     (2, "", "error: gadep fails (witness: 3)\n"), [1, 2, 3]),
    ("json", ("--matrix", "fails_at_n.csv"), "adep",
     (2, FAILS_AT_N, "error: adep fails (witness: 3)\n"), [1, 2, 3]),
    ("json", ("--matrix", "fails_at_n.csv"), "gadep",
     (2, FAILS_AT_N, "error: gadep fails (witness: 3)\n"), [1, 2, 3]),
])
def test_check_decides_only_the_printed_property(monkeypatch, capsys, fmt, source, prop,
                                                 expected, calls):
    # berkowitz is the one kernel under both charpoly and the integer ADEP
    seen = []
    berkowitz = _linalg.berkowitz

    def counting(b):
        seen.append(len(b))
        return berkowitz(b)

    monkeypatch.setattr(_linalg, "berkowitz", counting)
    source = [str(DATA_DIR / a) if a.endswith(".csv") else a for a in source]
    assert run(capsys, "--format", fmt, "check", *source, prop) == expected
    assert seen == calls


def test_charpoly_checks_past_the_budget_exit_2(monkeypatch, tmp_path, capsys):
    budget = transform.CHARPOLY_BUDGET
    assert budget >= 12  # the largest n any test or bench job checks
    # at the budget the slowest bench family is checked
    assert run(capsys, "check", "--gamma", "2", "2/3", "--n", str(budget), "adep") == (
        0, "adep holds\n", "")
    seen = []
    monkeypatch.setattr(_linalg, "berkowitz", lambda b: seen.append(len(b)))
    refusal = (2, "", f"error: a characteristic-polynomial check needs n <= {budget}, "
                      f"the charpoly budget, got n={budget + 1}\n")
    over = ("--gamma", "2", "2/3", "--n", str(budget + 1))
    for prop in ("adep", "gadep", "binomial-transform"):
        assert run(capsys, "--format", "json", "check", *over, prop) == refusal
    for prop in ("adep", "gadep"):
        assert run(capsys, "check", *over, prop) == refusal
    # binomial-transform needs no charpoly, to hold or to name its witness
    assert run(capsys, "check", *over, "binomial-transform") == (
        0, "binomial-transform holds\n", "")
    rows = [["1" if y in (x, x - 1) else "0" for y in range(budget + 1)] for x in range(budget + 1)]
    target = tmp_path / "shifted.csv"
    target.write_text("".join(",".join(row) + "\n" for row in rows))
    assert run(capsys, "check", "--matrix", str(target), "binomial-transform") == (
        2, "", "error: binomial-transform fails (witness: (1, 0))\n")
    assert run(capsys, "--format", "json", "check", "--matrix", str(target),
               "binomial-transform") == refusal
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


@pytest.mark.parametrize("argv, text", [
    (["check", "--matrix", "{}", "ergodic"], "1/0,1\n0,1\n1/2,1/2\n"),
    (["check", "--matrix", "{}", "ergodic"], "1/2,x\n0,1\n1/2,1/2\n"),
    (["check", "--matrix", "{}", "ergodic"], "0.5e99999,1\n0,1\n1/2,1/2\n"),
    (["matrix", "--custom", "{}"], "1.0,1,2\n0,0,1\n0,1,1\n"),
])
def test_a_malformed_first_line_is_no_header(tmp_path, capsys, argv, text):
    # a first line is a header only when none of its cells reads as a number;
    # any other line that does not parse is refused, and the diagnostic names it
    target = tmp_path / "in.csv"
    target.write_text(text)
    code, out, err = run(capsys, *[a.format(target) for a in argv])
    assert (code, out) == (2, "")
    assert repr(text.splitlines()[0]) in err


def test_a_numeric_first_line_is_data(tmp_path, capsys):
    target = tmp_path / "weight.csv"
    for header in ("", "y,x,p/q\n"):
        target.write_text(header + "1,1,2\n0,0,1\n0,1,1\n")
        assert run(capsys, "matrix", "--custom", str(target)) == (0, "  ·    1\n2/3  1/3\n", "")


@pytest.mark.parametrize("argv", [["check", "--matrix", "{}", "ergodic"],
                                  ["matrix", "--custom", "{}"]])
@pytest.mark.parametrize("data", [bytes(range(256)), "0,0,1\n".encode("utf-16")],
                         ids=["binary", "utf-16"])
def test_an_input_file_that_is_not_utf8_is_bad_input(tmp_path, capsys, argv, data):
    target = tmp_path / "in.csv"
    target.write_bytes(data)
    code, out, err = run(capsys, *[a.format(target) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {target}: 'utf-8' codec can't decode")


class _Hung(BaseException):
    """Raised by an alarm; `main` catches Exception only, so it escapes a call."""


def test_an_oversized_custom_table_is_refused_before_quadratic_work(tmp_path, capsys):
    # the column sums and the norms of a custom table cost O(n^2) at the
    # parent; the budget is now checked before the norms, and the column
    # sums are taken over the table's entries
    def hang(signum, frame):
        raise _Hung(f"no refusal within {seconds} s")

    seconds = 20
    target = tmp_path / "weight.csv"
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        for rows, command in ((4_000, "stationary"), (100_000, "matrix")):
            target.write_text("".join(f"0,{x},1\n" for x in range(rows)))
            code, out, err = run(capsys, command, "--custom", str(target))
            assert (code, out) == (2, "") and "the table budget" in err, err
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_an_oversized_lambda_walk_is_refused_before_its_difference_table(capsys):
    # 6,000 terms took 5.6 s to walk their difference table before the table
    # budget refused them, and 6.8 s in eigvec, which sizes its triangles
    # from the length, n without --d or in json; the budget is now checked
    # on the length first
    def hang(signum, frame):
        raise _Hung(f"no refusal within {seconds} s")

    seconds, terms = 1, 6_000
    lam = ",".join(f"1/{k}" for k in range(1, terms + 1))
    refusal = (2, "", f"error: an n x n table needs n <= {_linalg.TABLE_BUDGET}, the table "
                      f"budget, got n={terms}\n")
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        got = [run(capsys, *argv) for argv in (("classify", "--lambda", lam),
                                               ("matrix", "--lambda", lam),
                                               ("check", "--lambda", lam, "reversible"),
                                               ("eigvec", "--lambda", lam),
                                               ("--format", "json", "eigvec", "--lambda", lam,
                                                "--d", "0"))]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert got == [refusal] * 5
    # a sequence past the budget is still decided where no table is built
    lam = ",".join(f"1/{k}" for k in range(1, _linalg.TABLE_BUDGET + 2))
    assert run(capsys, "check", "--lambda", lam, "stochastic")[0] == 0
    code, out, _ = run(capsys, "--format", "csv", "spectrum", "--lambda", lam)
    assert code == 0 and out.count(",") == _linalg.TABLE_BUDGET
    # pretty eigvec --d 0 builds a 1 x 1 right triangle
    code, out, _ = run(capsys, "eigvec", "--lambda", lam, "--d", "0")
    assert code == 0 and out.startswith("d=0  eigenvalue=1  right=1,")


@pytest.mark.parametrize("source", ["--custom", "--lambda"])
def test_stationary_by_elimination_is_refused_past_its_budget(tmp_path, capsys, source):
    # neither walk is reversible, so its law would come from one rref of
    # (P - I)^T, which the elimination budget bounds
    n = walk.ELIMINATION_BUDGET + 1
    if source == "--custom":
        value = tmp_path / "weight.csv"
        value.write_text("".join(f"{y},{x},{1 + (x * y) % 9}/{1 + (x + 2 * y) % 7}\n"
                                 for x in range(n) for y in range(x + 1)))
    else:
        lam = family_sequence(GammaAB(1, F(1, 3)), n)
        value = ",".join(str(v * (1 - F(1, 50 + d)) if d else v) for d, v in enumerate(lam))
    assert run(capsys, "stationary", source, str(value)) == (
        2, "", f"error: a stationary law by elimination needs n <= {n - 1}, the elimination "
               f"budget, got n={n}\n")


def test_stationary_names_the_dimension_of_a_reducible_walk_past_the_elimination_budget(
        monkeypatch, capsys):
    # the flip J(n) of n ones has n // 2 two-state classes and, for n odd,
    # a fixed middle state, each closed: its stationary space has dimension
    # (n + 1) // 2, read off the potentials' trees with no elimination, so
    # the elimination budget is not what refuses it
    def hang(signum, frame):
        raise _Hung(f"no refusal within {seconds} s")

    solved = []
    monkeypatch.setattr(_linalg, "rref", solved.append)
    seconds = 1
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        got = [run(capsys, "stationary", "--lambda", ",".join(["1"] * n)) for n in (65, 200)]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert got == [(2, "", "error: stationary space has dimension 33\n"),
                   (2, "", "error: stationary space has dimension 100\n")]
    assert solved == []


def test_an_oversized_matrix_file_is_refused_before_any_cell_is_parsed(
        monkeypatch, tmp_path, capsys):
    # a --matrix file is held to the table budget like every other source:
    # its rows are counted, less a header, before a cell is parsed
    def hang(signum, frame):
        raise _Hung(f"no refusal within {seconds} s")

    parsed = []
    parse = serialize.parse_rational
    monkeypatch.setattr(serialize, "parse_rational", lambda text: parsed.append(text) or parse(text))
    seconds, over = 10, _linalg.TABLE_BUDGET + 1
    target = tmp_path / "flip.csv"
    target.write_text("".join(",".join("1" if x + z == over - 1 else "0" for z in range(over)) + "\n"
                              for x in range(over)))
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        got = run(capsys, "check", "--matrix", str(target), "ergodic")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert got == (2, "", f"error: an n x n table needs n <= {over - 1}, the table budget, "
                          f"got n={over}\n")
    assert parsed == []
    # a header is not a row: at a budget of 2, two rows under one are read
    monkeypatch.setattr(_linalg, "TABLE_BUDGET", 2)
    target.write_text("c0,c1\n0,1\n1,0\n")
    assert run(capsys, "check", "--matrix", str(target), "reversible") == (0, "reversible\n", "")
    target.write_text("c0,c1\n0,1\n1,0\n1,0\n")
    assert run(capsys, "check", "--matrix", str(target), "reversible") == (
        2, "", "error: an n x n table needs n <= 2, the table budget, got n=3\n")
    assert len(parsed) == 4


def test_conjugator_checks_past_the_budget_exit_2(capsys):
    budget = transform.CONJUGATOR_BUDGET
    h = ("check", "--gamma", "1", "1/3", "--n")
    assert run(capsys, *h, str(budget), "conjugator") == (
        2, "", "error: not an anti-diagonal conjugator\n")
    for flags in ((), ("--global",)):
        assert run(capsys, *h, str(budget + 1), "conjugator", *flags) == (
            2, "", f"error: a conjugator check needs n <= {budget}, the conjugator budget, "
                   f"got n={budget + 1}\n")


# a refusal each, with its diagnostic; {file} is a file holding the text
REFUSALS = [
    (("simulate", "--gamma", "1", "1", "--n", "3", "--start", "5"), None,
     "start state 5 outside 0..2"),
    (("subsets", "--m", "2", "--p", "2"), None, "need 0 < p < 1, got 2"),
    (("subsets", "--m", "11", "--p", "1/2"), None, "subset walk supported for 1 <= m <= 10"),
    (("ladder", "--mu", "1/3", "--n", "5"), None, "ladder needs 1/2 < mu < 1, got 1/3"),
    (("check", "--matrix", "{file}", "ergodic"), "c0,c1\n", "no matrix rows found"),
    (("matrix", "--custom", "{file}"), "1,0\n", "expected 'y,x,p/q', got '1,0'"),
    (("matrix", "--custom", "{file}"), "1,0,1\n", "interval (1,0) outside 0 <= y <= x < 1"),
    (("check", "--lambda", "1,1/2,1/3,1/5", "globally-reversible"), None,
     "not globally reversible: a top-right submatrix fails"),
    (("check", "--matrix", "{file}", "conjugator"), "1,0\n0,1\n", "not an anti-diagonal conjugator"),
]


@pytest.mark.parametrize("argv, text, message", REFUSALS)
def test_refusals_exit_2_with_their_diagnostic(tmp_path, capsys, argv, text, message):
    target = tmp_path / "in.csv"
    if text is not None:
        target.write_text(text)
    assert run(capsys, *[a.format(file=target) for a in argv]) == (2, "", f"error: {message}\n")


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


def test_a_named_family_is_refused_before_its_sequence(capsys):
    # the domain, then the table budget, are checked before a term of lambda
    # is computed: the reduced pairs of gamma(1/3, 2/7) over 10^6 terms, or
    # of gamma(1e-300)'s mu^d over 5,000, grow to millions of digits
    def hang(signum, frame):
        raise _Hung(f"no refusal within {seconds} s")

    seconds = 1
    commands = [("matrix",), ("simulate",), ("check", "kolmogorov"), ("check", "adep")]
    sources = [("--gamma", "1/3", "2/7", "--n", "1000000"), ("--gammac", "1e-300", "--n", "5000")]
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(seconds)
    try:
        got = [run(capsys, command, *source, *rest)
               for command, *rest in commands for source in sources]
        delta = [run(capsys, command, "--delta", "4", "2", "--n", "2000", *rest)
                 for command, *rest in commands]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    for code, out, err in got:
        assert (code, out) == (2, "") and "the table budget" in err, err
    assert delta == [(2, "", "error: n=2000 is outside the weight's domain\n")] * len(commands)


@pytest.mark.parametrize("flags", NAMED_SPECS, ids=" ".join)
def test_a_named_family_and_its_lambda_are_one_walk(capsys, flags):
    # a family walk is the binomial transform of its eigenvalue sequence, so
    # every command that builds it prints what --lambda of that sequence does
    spec = spec_from_flags(flags)
    checks = ("ergodic", "reversible", "kolmogorov", "adep", "gadep", "binomial-transform",
              "conjugator")
    commands = [(("--format", fmt, "matrix"), down) for fmt in ("csv", "json", "pretty")
                for down in ((), ("--down-step",))]
    commands += [(("simulate",), ("--steps", "200", "--seed", "3"))]
    commands += [(("check",), (prop,)) for prop in checks]
    for n in (1, 2, 5, 9):
        if n > domain_limit(spec):
            continue
        lam = ",".join(map(str, family_sequence(spec, n)))
        for head, tail in commands:
            named = run(capsys, *head, *flags, "--n", str(n), *tail)
            assert named == run(capsys, *head, "--lambda", lam, *tail), (head, n, tail)


def test_tables_past_the_budget_exit_2(capsys, monkeypatch):
    budget = _linalg.TABLE_BUDGET
    assert budget >= 500  # the largest n any test or bench job passes
    refusal = (2, "", f"error: an n x n table needs n <= {budget}, the table budget, "
                      f"got n={budget + 1}\n")
    for argv in (["matrix", "--gamma", "1", "1"], ["stationary", "--gammac", "1"],
                 ["eigvec", "--delta", str(budget + 2), "3"],
                 ["check", "--gamma", "1", "1", "adep"]):
        assert run(capsys, *argv, "--n", str(budget + 1)) == refusal
    # matrix in every format and for H too: the domain is checked before the budget
    for fmt in ("pretty", "csv", "json"):
        for down_step in ((), ("--down-step",)):
            matrix = ("--format", fmt, "matrix", *down_step)
            assert run(capsys, *matrix, "--gamma", "1", "1", "--n", str(budget + 1)) == refusal
            assert run(capsys, *matrix, "--delta", "21/2", "43/4", "--n", "12") == (
                2, "", "error: n=12 is outside the weight's domain\n")
            assert run(capsys, *matrix, "--delta", "21/2", "43/4", "--n", str(budget + 1)) == (
                2, "", f"error: n={budget + 1} is outside the weight's domain\n")
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


@pytest.mark.parametrize("argv, name, forms", [
    (["simulate", "--gamma", "1", "1", "--n", "4", "--steps", "3"], "simulate", ()),
    (["continuum", "--kappa", "0", "0", "--fixed-point"], "continuum", ()),
    (["repro", "fig1-ladder"], "repro", ()),
    (["conjecture", "--n", "3", "--max-denominator", "2"], "conjecture", ()),
    (["subsets", "--m", "2", "--p", "1/2"], "subsets without --matrix", ()),
    (["check", "--gamma", "1", "1", "--n", "4", "reversible"], "check reversible", ()),
    (["check", "--lambda", "1,1/2", "stochastic"], "check stochastic", ()),
    (["eigvec", "--gamma", "1", "1", "--n", "3"], "eigvec", ("json", "pretty")),
    (["classify", "--lambda", "1,1/2,1/4"], "classify", ("json", "pretty")),
    (["check", "--gamma", "1", "1", "--n", "4", "adep"], "check adep", ("json", "pretty")),
    (["ladder", "--mu", "2/3", "--n", "4"], "ladder", ("csv", "json")),
    (["subsets", "--m", "2", "--p", "1/2", "--matrix"], "subsets", ("csv", "json", "pretty")),
    (["spectrum", "--gamma", "1", "1", "--n", "3"], "spectrum", ("csv", "json", "pretty")),
    (["check", "--gamma", "1", "1", "--n", "4", "gadep"], "check gadep", ("json", "pretty")),
    (["check", "--gamma", "1", "1", "--n", "4", "binomial-transform"], "check binomial-transform",
     ("json", "pretty")),
])
def test_format_is_refused_where_it_is_not_read(capsys, argv, name, forms):
    for fmt in ("csv", "json", "pretty"):
        code, out, err = run(capsys, "--format", fmt, *argv)
        if fmt in forms:
            assert (code, err) == (0, "") and out
        elif forms:
            assert (code, out, err) == (2, "", f"error: --format {fmt} does not apply to {name}: "
                                               f"it prints {' or '.join(forms)}\n")
        else:
            assert (code, out, err) == (
                2, "", f"error: --format does not apply to {name}: it has one form\n")
    # the form printed without --format is one of those named
    default = run(capsys, *argv)
    assert default[0] == 0
    if forms:
        assert default in [run(capsys, "--format", fmt, *argv) for fmt in forms]


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
    for fmt in ((), ("--format", "pretty")):
        code, out, _ = run(capsys, *fmt, "eigvec", *flags, *d_flag)
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
    assert all(vecmat(u, p) == [value * x for x in u]
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


@pytest.mark.parametrize("message", [
    # Python 3.10
    "Exceeds the limit (4300) for integer string conversion; "
    "use sys.set_int_max_str_digits() to increase the limit",
    # Python 3.11 on, for int to str and for str to int
    "Exceeds the limit (4300 digits) for integer string conversion; "
    "use sys.set_int_max_str_digits() to increase the limit",
    "Exceeds the limit (4300 digits) for integer string conversion: value has 4301 digits; "
    "use sys.set_int_max_str_digits() to increase the limit",
])
def test_each_digit_limit_wording_exits_2(monkeypatch, capsys, message):
    def fail(seq):
        raise ValueError(message)

    monkeypatch.setattr(spectral, "signed_eigenvalues", fail)
    assert run(capsys, "spectrum", "--lambda", "1,1/2") == (
        2, "", f"error: a number in the result has more than {sys.get_int_max_str_digits()} "
               "digits, the limit of Python's integer string conversion\n")


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


def test_conjecture_lines_are_json_of_each_record(capsys):
    # cmd_conjecture writes each record from a string template; for n = 3..8
    # at every den <= 8, which the budget admits, stdout is json.dumps of
    # each record's dict form byte for byte, and stderr the sweep's summary
    labels = set()
    for n in range(3, 9):
        for den in range(1, 9):
            summary = classify.conjecture_search(n, max_denominator=den)
            code, out, err = run(capsys, "conjecture", "--n", str(n),
                                 "--max-denominator", str(den))
            assert code == 0, (n, den)
            dicts = [oracle_dict(r) for r in summary.records]
            assert out == "".join(json.dumps(d) + "\n" for d in dicts), (n, den)
            assert err == json.dumps({
                "n": n,
                "evaluated": summary.stochastic,
                "stochastic": summary.stochastic,
                "reversible": summary.reversible,
                "unclassified_reversible": 0,
            }) + "\n", (n, den)
            labels.update(d["classification"].split("(")[0] for d in dicts
                          if d["classification"])
    assert labels == {"gamma", "delta", "J"}


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


def test_pretty_down_step_dots_the_empty_intervals_of_h(capsys):
    # H[x][y] is structural for y > x, P[x][z] for x + z < n - 1
    code, out, _ = run(capsys, "matrix", "--gamma", "1", "1", "--n", "4", "--down-step")
    assert (code, out) == (0, "   1     ·     ·    ·\n"
                              " 1/2   1/2     ·    ·\n"
                              "3/10   2/5  3/10    ·\n"
                              " 1/5  3/10  3/10  1/5\n")
    # delta(4, 2) has true zeros, below the diagonal of H and inside P's support
    code, out, _ = run(capsys, "matrix", "--delta", "4", "2", "--n", "4", "--down-step")
    assert (code, out) == (0, "  1    ·    ·    ·\n"
                              "1/4  3/4    ·    ·\n"
                              "  0  1/2  1/2    ·\n"
                              "  0    0  3/4  1/4\n")
    code, out, _ = run(capsys, "matrix", "--delta", "4", "2", "--n", "4")
    assert (code, out) == (0, "  ·    ·    ·    1\n"
                              "  ·    ·  3/4  1/4\n"
                              "  ·  1/2  1/2    0\n"
                              "1/4  3/4    0    0\n")


def _fraction_route(rows, down_step: bool) -> dict:
    """What matrix prints in each format for the Fraction rows of P."""
    if down_step:
        rows = [row[::-1] for row in rows]
    return {"csv": matrix_to_csv(rows), "json": matrix_to_json(rows) + "\n",
            "pretty": matrix_to_pretty(rows) + "\n"}


def _assert_text_route(capsys, source_flags, rows):
    assert all(type(v) is F for row in rows for v in row)
    for down_step in (False, True):
        expected = _fraction_route(rows, down_step)
        for fmt in ("pretty", "csv", "json"):
            argv = ("--format", fmt, "matrix", *source_flags) + ("--down-step",) * down_step
            assert run(capsys, *argv) == (0, expected[fmt], ""), argv


def test_matrix_text_route_matches_the_fraction_route(tmp_path, capsys):
    for flags in NAMED_SPECS:
        spec = spec_from_flags(flags)
        for n in (1, 2, 3, 6, 10, 13):
            if n <= weights.domain_limit(spec):
                _assert_text_route(capsys, (*flags, "--n", str(n)), transition_matrix(spec, n))
    for a, b in BENCH_GAMMA:
        for n in (40, 60):
            _assert_text_route(capsys, ("--gamma", a, b, "--n", str(n)),
                               transition_matrix(GammaAB(F(a), F(b)), n))
    target = tmp_path / "w.csv"
    target.write_text("y,x,w\n0,0,1\n0,1,1/3\n1,1,2/3\n0,2,1/2\n2,2,1/4\n1,3,2\n3,3,1\n"
                      "0,4,-0\n2,4,0.125\n4,4,7/3\n")
    _assert_text_route(capsys, ("--custom", str(target)),
                       transition_matrix(weights.custom_from_csv(target.read_text()), 5))


def test_named_family_matrix_builds_no_fraction_per_entry(capsys, monkeypatch):
    made = []
    new = F.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counting_new)
    for flags in (("--gamma", "1", "4/3"), ("--gammac", "1/3"), ("--delta", "21/2", "43/4")):
        for down_step in ((), ("--down-step",)):
            made.clear()
            code, out, _ = run(capsys, "--format", "json", "matrix", *flags, "--n", "10",
                               *down_step)
            # the arguments and the family's (A, C), not its terms or the 55 entries of H
            assert code == 0 and len(json.loads(out)["entries"]) == 10
            assert len(made) < 10, made


def test_custom_matrix_past_the_digit_limit_exits_2(tmp_path, capsys):
    # N_1 = 10^4300 + 10^-4300, so the entries of row 1 have over 8,600 digits
    target = tmp_path / "w.csv"
    target.write_text("0,0,1\n0,1,1e-4300\n1,1,1e4300\n")
    for fmt in ("pretty", "csv", "json"):
        for down_step in ((), ("--down-step",)):
            assert run(capsys, "--format", fmt, "matrix", "--custom", str(target),
                       *down_step) == (
                2, "", "error: a number in the result has more than 4300 digits, the limit "
                       "of Python's integer string conversion\n")


def test_simulate_output_matches_stepwise_loop(tmp_path, capsys):
    # the oracle samples the Fraction rows; the CLI builds float rows from the
    # integer pairs of a weight (the Pascal gamma(c) and a custom table among
    # them) and keeps the Fractions of a lambda walk
    target = tmp_path / "w.csv"
    target.write_text("y,x,w\n0,0,1\n0,1,1/3\n1,1,2/3\n0,2,1/2\n2,2,1/4\n1,3,2\n3,3,1\n"
                      "0,4,-0\n2,4,0.125\n4,4,7/3\n")
    sources = [(("--gamma", "1", "1/3", "--n", "20"), transition_matrix(GammaAB(1, F(1, 3)), 20)),
               (("--gammac", "3/7", "--n", "9"), transition_matrix(GammaC(F(3, 7)), 9)),
               (("--delta", "4", "2", "--n", "4"), transition_matrix(DeltaAB(4, 2), 4)),
               (("--custom", str(target)),
                transition_matrix(weights.custom_from_csv(target.read_text()), 5)),
               (("--lambda", "1,2/3,1/3,0"), lambda_walk([F(1), F(2, 3), F(1, 3), F(0)]))]
    # across the thousand-line blocks, up to the budget, whose step numbers have 7 digits
    step_counts = (0, 1, 300, 999, 1000, 1001, 1999, 2000, 20000, walk.SIMULATION_BUDGET)
    for flags, w in sources:
        for i, steps in enumerate(step_counts):
            start, seed = i % len(w), 3 * i
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
    ["--format", "json", "stationary", "--gamma", "1", "1", "--n", "4"],
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
    # json is loaded by the commands that print JSON through json.dumps
    # (--format json, and the JSON lines of conjecture) and by no other; a
    # matrix's JSON is a filled template, so --format json matrix loads none.
    # The argv lists reach the probe as literals, since reading them with
    # json would load it
    json_argv = ["--format", "json", "stationary", "--gamma", "1", "1", "--n", "4"]
    other = [argv for argv in EXACT_ARGVS if argv != json_argv and argv[0] != "conjecture"]
    assert json_argv in EXACT_ARGVS and len(other) == len(EXACT_ARGVS) - 2
    assert ["--format", "json", "matrix", "--gamma", "2", "2/3", "--n", "12"] in other
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


def test_parsing_defines_only_its_own_subcommand(monkeypatch):
    # build_parser constructs the top-level parser alone; a parse builds and
    # defines the parser of the subcommand it reaches, once, and no other
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, **kwargs):
        built.append(kwargs["prog"])
        init(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    parser = build_parser()
    assert built == ["involute"]
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert len(sub.choices) == 12
    argv = ["matrix", "--gamma", "1", "1", "--n", "4"]
    assert parser.parse_args(argv) == parser.parse_args(argv)
    assert built == ["involute", "involute matrix"]
    assert [a.dest for a in sub.choices["matrix"]._actions] == [
        "help", "n", "gamma", "gammac", "delta", "lam", "custom", "down_step"]
    assert [name for name, p in sub.choices.items() if "_actions" in vars(p)] == ["matrix"]


def test_a_subparser_read_before_its_parse_is_built_then(monkeypatch):
    # an argparse that reads each subparser as it adds it (3.14 formats its
    # help line) gets a built parser; a parse still defines only its own
    argv = ["matrix", "--gamma", "-1/3", "-2/3", "--n", "3"]
    expected = build_parser().parse_args(argv)
    add_parser = argparse._SubParsersAction.add_parser

    def reading(self, name, **kwargs):
        parser = add_parser(self, name, **kwargs)
        parser._get_formatter()
        return parser

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", reading)
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert [[a.dest for a in p._actions] for p in sub.choices.values()] == [["help"]] * 12
    assert not hasattr(sub.choices["matrix"], "no_such_attribute")
    assert parser.parse_args(argv) == expected
    assert [name for name, p in sub.choices.items() if len(p._actions) > 1] == ["matrix"]


def test_top_level_help_lists_every_subcommand(monkeypatch, capsys):
    # the help lines come from the registry alone, in its order
    from involute.cli import _SUBCOMMANDS

    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit) as exit_:
        main(["--help"])
    out = capsys.readouterr().out
    listed = [line.split(None, 1) for line in out.splitlines()
              if line.startswith("    ") and not line.startswith("     ")]
    assert exit_.value.code == 0
    assert listed == [[name, help_line] for name, help_line, _, _ in _SUBCOMMANDS]


# the fewest arguments each subcommand parses with: a source for each
# command of the family flags, a mode for continuum
LAMBDA = ["--lambda", "1"]
MINIMAL_ARGS = {"matrix": LAMBDA, "stationary": LAMBDA, "spectrum": LAMBDA, "eigvec": LAMBDA,
                "check": [*LAMBDA, "stochastic"], "classify": LAMBDA,
                "ladder": ["--mu", "1/2", "--n", "3"], "simulate": LAMBDA,
                "subsets": ["--m", "1", "--p", "1/2"], "continuum": ["--fixed-point"],
                "conjecture": ["--n", "3"], "repro": ["section7-hl"]}


def test_each_registry_row_names_the_handler_its_subcommand_parses_to():
    from involute.cli import _SUBCOMMANDS

    assert list(MINIMAL_ARGS) == [name for name, *_ in _SUBCOMMANDS]
    for name, _, handler, _ in _SUBCOMMANDS:
        assert handler.__name__ == "cmd_" + name
        assert build_parser().parse_args([name, *MINIMAL_ARGS[name]]).func is handler


SOURCES = "--gamma --gammac --delta --lambda --custom"


@pytest.mark.parametrize("argv, message", [
    # no source, and two, for each command of the family flags
    *[([name, "--n", "4", *MINIMAL_ARGS[name][2:]],
       f"one of the arguments {SOURCES}{' --matrix' * (name == 'check')} is required")
      for name in ("matrix", "stationary", "spectrum", "eigvec", "check", "simulate")],
    (["matrix", "--gammac", "1", "--lambda", "1"], "argument --lambda: not allowed with "
                                                   "argument --gammac"),
    (["eigvec", "--custom", "w.csv", "--delta", "1", "1"], "argument --delta: not allowed "
                                                           "with argument --custom"),
    (["check", "--lambda", "1", "--matrix", "m.csv", "ergodic"],
     "argument --matrix: not allowed with argument --lambda"),
    # one walk and one mode of continuum
    (["continuum", "--trig", "--kappa", "1", "1", "--residual", "1"],
     "argument --kappa: not allowed with argument --trig"),
    (["continuum"], "one of the arguments --residual --fixed-point --invariant --convergence "
                    "is required"),
    (["continuum", "--kappa", "1", "1"], "one of the arguments --residual --fixed-point "
                                         "--invariant --convergence is required"),
    (["continuum", "--residual", "1", "--fixed-point"], "argument --fixed-point: not allowed "
                                                        "with argument --residual"),
    (["continuum", "--invariant", "--convergence", "1"], "argument --convergence: not allowed "
                                                         "with argument --invariant"),
    (["continuum", "--trig", "--fixed-point", "--invariant"],
     "argument --invariant: not allowed with argument --fixed-point"),
])
def test_either_or_flags_are_refused_by_argparse(capsys, argv, message):
    # exit 2 before any handler runs, the flags named by the parser
    assert refused_by_argparse(capsys, *argv) == (2, "", f"involute {argv[0]}: error: {message}")


def test_help_shows_the_either_or_groups(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")
    sources = "(--gamma A B | --gammac C | --delta AP BP | --lambda L0,L1,... | --custom FILE"
    for name in ("matrix", "stationary", "spectrum", "eigvec", "check", "simulate"):
        with pytest.raises(SystemExit):
            main([name, "--help"])
        usage = capsys.readouterr().out.split("\n\n")[0]
        assert sources + (" | --matrix FILE)" if name == "check" else ")") in usage, usage
    with pytest.raises(SystemExit):
        main(["continuum", "--help"])
    usage = capsys.readouterr().out.split("\n\n")[0]
    assert "[--kappa A B | --trig]" in usage
    assert "(--residual DMAX | --fixed-point | --invariant | --convergence D)" in usage


def test_check_help_lists_the_properties_in_checks_order(capsys):
    from involute.cli import _CHECKS

    with pytest.raises(SystemExit):
        main(["check", "--help"])
    assert "{" + ",".join(_CHECKS) + "}" in capsys.readouterr().out
    assert set(_CHECKS.values()) == {"lambda", "walk", "matrix"}


def test_lambda_verdicts_form_no_p(monkeypatch, capsys):
    # every verdict on a --lambda sequence reads the integer L * M
    # (`transform._scaled_walk`), so none needs P^lambda or its rows
    def refuse(*args):
        raise AssertionError("P^lambda was built")

    monkeypatch.setattr(transform, "lambda_walk", refuse)
    lam = ["--lambda", "1,1/2,1/4,1/8"]
    assert [run(capsys, "check", *lam, prop) for prop in (
        "ergodic", "reversible", "kolmogorov", "globally-reversible")] == [
        (0, "ergodic\n", ""), (0, "reversible\n", ""), (0, "kolmogorov criterion holds\n", ""),
        (0, "globally reversible\n", "")]
    assert run(capsys, "classify", *lam) == (0, "gamma(c=1)\n", "")


def test_a_lambda_command_walks_one_difference_table(monkeypatch, capsys):
    # H, P and M are read off the integer rows that decided stochasticity,
    # so a sequence of n terms makes n difference rows, not 2n
    made = []
    row = transform._difference_row
    monkeypatch.setattr(transform, "_difference_row",
                        lambda prev, v: made.append(v) or row(prev, v))
    lam = ("--lambda", "1,1/2,1/4,1/8")
    for argv in (("matrix", *lam), ("--format", "json", "matrix", *lam), ("stationary", *lam),
                 ("simulate", *lam, "--steps", "3"), ("check", *lam, "adep"),
                 ("check", *lam, "globally-reversible"), ("classify", *lam)):
        made.clear()
        assert run(capsys, *argv)[0] == 0, argv
        assert len(made) == 4, argv


def test_lambda_walk_verdicts_read_as_those_of_p(monkeypatch, capsys):
    # `check ergodic|reversible|kolmogorov --lambda` on L * M prints what the
    # same verdicts print on the rows of P^lambda, exit code and stderr too,
    # on every grid sequence of n <= 6 at den 6 and on edge inputs: a
    # non-stochastic lambda, a zero entry, transient states, and n = 1,001
    # past the table budget, stochastic or refused before the budget
    sequences = [",".join(str(F(v, scale)) for v in scaled) for n in range(1, 7)
                 for scale, records in [transform._lattice_records(n, 6)] for scaled, _ in records]
    sequences += ["1,1/2,1/2,3/4", "1,2/3,1/3,0", "1,1/2,1/2,1/2", "1" + ",0" * 1000,
                  "2" + ",0" * 1000]
    codes = set()
    for seq in sequences:
        for prop in ("ergodic", "reversible", "kolmogorov"):
            got = run(capsys, "check", "--lambda", seq, prop)
            with monkeypatch.context() as patched:
                patched.setattr(transform, "_scaled_walk",
                                lambda lam: (lam, transform.lambda_walk(lam)))
                assert run(capsys, "check", "--lambda", seq, prop) == got, (seq, prop)
            codes.add(got[0])
    assert len(sequences) == 231 + 5 and codes == {0, 2}


def test_repro_fig2(capsys):
    code, out, _ = run(capsys, "repro", "fig2-convergence")
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["1"] * 4 + ["2"] * 4
    for block in (rows[:4], rows[4:]):
        dists = [float(r[2]) for r in block]
        assert all(dists[i + 1] < dists[i] for i in range(3))


def test_usage_errors(capsys):
    assert refused_by_argparse(capsys, "matrix", "--n", "4")[0] == 2
    code, _, err = run(capsys, "matrix", "--gamma", "0", "0")
    assert (code, err) == (2, "error: --n is required for family weights\n")
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


def test_package_imports_no_name_it_never_reads():
    # a stale import misleads a reader about a module's dependencies; a name
    # listed in __all__ counts as read, since the module exports it
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
        bound = [(node.lineno, alias.asname or alias.name.partition(".")[0])
                 for node in nodes if isinstance(node, (ast.Import, ast.ImportFrom))
                 and getattr(node, "module", None) != "__future__" for alias in node.names]
        read = {node.id for node in nodes if isinstance(node, ast.Name)}
        read |= {elt.value for node in nodes if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["__all__"]
                 for elt in node.value.elts}
        unread = [(line, name) for line, name in bound if name not in read]
        assert unread == [], f"{path.name}: imported and never read: {unread}"


def test_package_does_not_import_typing():
    # annotations are strings and the aliases are `A | B` unions, so no
    # command pays for loading typing at start-up
    for path in sorted(PACKAGE_DIR.rglob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
        names = [(node.lineno, alias.name) for node in nodes if isinstance(node, ast.Import)
                 for alias in node.names]
        names += [(node.lineno, node.module) for node in nodes if isinstance(node, ast.ImportFrom)]
        lines = [line for line, name in names if name and name.split(".")[0] == "typing"]
        assert lines == [], f"{path.name}: typing imported at lines {lines}"


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
        ["matrix", "--n", "3"],
        ["continuum", "--kappa", "1", "1", "--trig", "--residual", "1"],
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

"""Command-line behavior: output shapes, exit codes, determinism."""

import ast
import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import involute
from involute.cli import main

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
    # stationary law, though no positive distribution balances
    code, out, _ = run(capsys, "check", "--lambda", "1,1/2,1/2,1/2,1/2,1/2", "reversible")
    assert (code, out) == (0, "reversible\n")
    code, _, err = run(capsys, "check", "--lambda", "1,1/2,1/2,1/2,1/2,1/2", "kolmogorov")
    assert code == 2 and "strictly positive" in err


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


def test_subsets_command(capsys):
    code, out, _ = run(capsys, "subsets", "--m", "2", "--p", "1/2")
    assert code == 0
    assert "pi=1/9,2/9,2/9,4/9" in out
    assert "eigenvalues=1,-1/2,-1/2,1/4" in out


def test_eigvec_command(capsys):
    code, out, _ = run(capsys, "eigvec", "--gamma", "0", "0", "--n", "4")
    assert code == 0
    assert "d=1" in out and "2,1,0,-1" in out
    assert "final-left=1,-3,3,-1" in out


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
]
FLOAT_ARGVS = [["continuum", "--trig", "--fixed-point"], ["repro", "fig2-convergence"]]


def test_exact_commands_leave_numpy_unloaded():
    # only the interval path needs floats; every other command starts without numpy
    env = dict(os.environ, PYTHONPATH=str(PACKAGE_DIR.parent))
    probe = (
        "import contextlib, io, json, sys\n"
        "import involute\n"
        "import involute.cli as c\n"
        "c.build_parser()\n"
        "with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        "    exact = [c.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "    loaded = 'numpy' in sys.modules\n"
        "    floats = [c.main(argv) for argv in json.loads(sys.argv[2])]\n"
        "print(json.dumps([exact, loaded, floats]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, json.dumps(EXACT_ARGVS), json.dumps(FLOAT_ARGVS)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    exact, loaded, floats = json.loads(done.stdout)
    assert exact == [0] * len(EXACT_ARGVS)
    assert loaded is False
    assert floats == [0] * len(FLOAT_ARGVS)


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
    # invariants are tests or explicit raises, so python -O cannot change them
    paths = sorted(PACKAGE_DIR.rglob("*.py"))
    assert len(paths) > 10
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert lines == [], f"{path.name}: assert at lines {lines}"


def _bench_function_metrics() -> tuple:
    tree = ast.parse((Path(__file__).resolve().parents[1] / "bench" / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["FUNCTION_METRICS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/run.py defines no FUNCTION_METRICS")


def test_bench_function_metrics_name_public_functions():
    # the traced bench reads each of these spans by name, so a rename must fail here;
    # bench/spans.py names a layer after a module's last name part, leading "_" dropped
    metrics = _bench_function_metrics()
    assert metrics
    for name, _ in metrics:
        layer, function = name.split(".")
        owners = []
        for module_name in (f"involute.{layer}", f"involute._{layer}"):
            if importlib.util.find_spec(module_name) is None:
                continue
            obj = getattr(importlib.import_module(module_name), function, None)
            if inspect.isfunction(obj) and obj.__module__ == module_name:
                owners.append(module_name)
        assert not function.startswith("_") and len(owners) == 1, name


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

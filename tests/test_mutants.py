"""The mutation list of `tests/mutants.py` stays applicable: each old text
occurs exactly once in its file, and each test node names a test function
of its file.  One mutant is run end to end and is killed."""

import ast
import sys

import mutants


def test_each_mutant_applies_once_and_names_an_existing_test():
    ids = [m.id for m in mutants.MUTANTS]
    assert len(set(ids)) == len(ids)
    for m in mutants.MUTANTS:
        text = (mutants.ROOT / m.file).read_text()
        assert text.count(m.old) == 1, m.id
        assert mutants.mutated(m, text) != text, m.id
        path, name = m.test.split("::")
        tree = ast.parse((mutants.ROOT / path).read_text())
        assert name in {f.name for f in tree.body if isinstance(f, ast.FunctionDef)}, m.id


def test_a_mutant_is_killed_end_to_end(capsys):
    assert mutants.main(["--only", "warshall-one-pass-short"]) == 0
    assert capsys.readouterr().out.startswith("killed     warshall-one-pass-short")

"""The package defines no public name that only the tests reach, and its
modules keep their layers.

A public top-level name of a module in src/involute counts as reached when
another module of the package, the CLI or a demo script imports it or reads
it as `module.name`, or when the definition of a reached name in its own
module uses it.  Imports are resolved, so a local variable that shares a
name with a function elsewhere reaches nothing.  A reference that only the
tests need belongs in tests/oracles.py.

The named families' closed forms live in `weights`, so no other module, and
not the test oracles, reads its private names, and `spectral` works on an
eigenvalue sequence alone, so it reads nothing from `walk` or `weights`.

The code lines that CI prints per module (`tools/code_lines.py`) count
neither comments nor docstrings.
"""

import ast
import importlib.util
from pathlib import Path

import involute

SRC = Path(involute.__file__).resolve().parent
DEMOS = SRC.parent.parent / "demos"
ORACLES = Path(__file__).resolve().parent / "oracles.py"
DEFINITIONS = (ast.FunctionDef, ast.ClassDef, ast.Assign, ast.AnnAssign)

# kept although nothing in the package, the CLI or the demos reaches them:
# the traced benchmark reads `linalg.charpoly` and `continuum.adaptive_quad`,
# the quadrature behind lp_apply and lh_apply, by name, so these three go
# with a change to the benchmark
EXEMPT = {
    ("continuum", "lp_apply"): "quadrature of L_P's integral definition, the tests' reference "
                               "for the exact panels",
    ("continuum", "lh_apply"): "quadrature of L_H's integral definition, the tests' reference "
                               "for the down-step identity",
    ("__init__", "__version__"): "package metadata",
    ("_linalg", "charpoly"): "det(X I - A) as Fractions over the integer berkowitz, the tests' "
                             "reference polynomial; the traced benchmark reads its span by name",
}


def _defined(tree: ast.Module) -> dict:
    """Top-level definitions, private ones included: name -> node."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node
        elif isinstance(node, DEFINITIONS):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out.update((t.id, node) for t in targets if isinstance(t, ast.Name))
    return out


def _public(name: str) -> bool:
    """Dunder names count, except the export list __all__; a single leading
    underscore marks a private name."""
    if name.startswith("__") and name.endswith("__"):
        return name != "__all__"
    return not name.startswith("_")


def _references(tree: ast.Module, modules: set) -> set:
    """(module, name) pairs a file imports from the package, or reads as
    module.name through a name it bound to a package module."""
    refs, aliases = set(), {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level == 1:
            source = node.module or ""
        elif node.module and node.module.split(".")[0] == "involute":
            source = node.module.partition(".")[2]
        else:
            continue
        for alias in node.names:
            if not source and alias.name in modules:
                aliases[alias.asname or alias.name] = alias.name
            else:
                refs.add((source or "__init__", alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            refs.add((aliases[node.value.id], node.attr))
    return refs


def _package_trees() -> dict:
    """Module name -> parsed source, for every module of src/involute."""
    return {p.stem: ast.parse(p.read_text(), str(p)) for p in SRC.glob("*.py")}


def test_spectral_reads_neither_walk_nor_weights():
    trees = _package_trees()
    sources = {source for source, _ in _references(trees["spectral"], set(trees))}
    assert sources & {"walk", "weights"} == set()


def test_only_weights_reads_its_private_names():
    # the test oracles too, which build from the weight definitions
    trees = _package_trees()
    scanned = {**trees, "oracles": ast.parse(ORACLES.read_text(), str(ORACLES))}
    readers = sorted((m, name) for m, tree in scanned.items() if m != "weights"
                     for source, name in _references(tree, set(trees))
                     if source == "weights" and name.startswith("_"))
    assert readers == [], "the named families' term pairs stay inside weights"


def test_every_public_name_is_reached_by_the_program():
    trees = _package_trees()
    defined = {m: _defined(tree) for m, tree in trees.items()}
    assert all(name in defined[m] for m, name in EXEMPT), "an exemption names nothing"
    users = list(trees.items())
    users += [("demos", ast.parse(p.read_text(), str(p))) for p in DEMOS.glob("*.py")]
    reached = set(EXEMPT)
    for user, tree in users:
        reached |= {ref for ref in _references(tree, set(trees)) if ref[0] != user}
    for m, tree in trees.items():
        # code outside the definitions runs on import, as the CLI's __main__ block does
        stack = [n for n in tree.body if not isinstance(n, DEFINITIONS)]
        stack += [node for name, node in defined[m].items() if (m, name) in reached]
        seen = set()
        while stack:
            node = stack.pop()
            if id(node) not in seen:
                seen.add(id(node))
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name) and sub.id in defined[m]:
                        reached.add((m, sub.id))
                        stack.append(defined[m][sub.id])
    missing = sorted((m, name) for m, names in defined.items() for name in names
                     if _public(name) and (m, name) not in reached)
    assert missing == [], "only the tests reach these; move them to tests/oracles.py"


def _code_lines_tool():
    path = SRC.parent.parent / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_count_neither_comments_nor_docstrings():
    source = '''"""Module docstring,
over two lines."""

import math  # a trailing comment


class Pair:
    """Class docstring."""

    # a comment line
    def total(self):
        """Function docstring."""
        text = """a string that is
        not a docstring"""
        return math.pi, text
'''
    # import, class, def, the two lines of the string and the return
    assert _code_lines_tool().code_lines(source) == 6

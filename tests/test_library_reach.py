"""Every top-level function and class of the library, and every method of a
library class other than a dunder, has a caller outside the tests: a name
that only the tests reach belongs in tests/reference.py.

The check goes by name alone.  A method counts as reached when any non-test
code mentions its name, so a test-only method is missed while another
definition shares its name (as `Monomial.variables` once did with
`Polynomial.variables`, and `Chart.serialize`, which nothing called, with the
`serialize` of other classes)."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "flagsplit").glob("*.py"))
# the benchmark reaches some entry points (local_splitting_coefficient) that
# no library module calls; its own tests do not count as callers
BENCHMARK = [p for p in sorted((ROOT / "flagbench").glob("*.py"))
             if not p.name.startswith("test_")]
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def identifiers(node):
    """Every name a subtree mentions as a variable, attribute or import."""
    out = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rpartition(".")[2]] += 1
    return out


def definitions(tree):
    """Top-level definitions, and the methods of top-level classes that are
    not dunders."""
    for node in tree.body:
        if isinstance(node, DEFINITIONS):
            yield node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (isinstance(member, DEFINITIONS)
                        and not member.name.startswith("__")):
                    yield member


def test_every_library_definition_has_a_non_test_caller():
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in LIBRARY + BENCHMARK}
    total = Counter()
    for tree in trees.values():
        total.update(identifiers(tree))
    unreached = []
    for path in LIBRARY:
        for node in definitions(trees[path]):
            if total[node.name] == identifiers(node)[node.name]:
                unreached.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unreached, unreached

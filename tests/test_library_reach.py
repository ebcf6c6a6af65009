"""Every top-level function and class of the library has a caller outside
the tests: a name that only the tests reach belongs in tests/reference.py."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIBRARY = sorted((ROOT / "src" / "flagsplit").glob("*.py"))
# the benchmark reaches some entry points (local_splitting_coefficient) that
# no library module calls; its own tests do not count as callers
BENCHMARK = [p for p in sorted((ROOT / "flagbench").glob("*.py"))
             if not p.name.startswith("test_")]


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


def test_every_library_definition_has_a_non_test_caller():
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in LIBRARY + BENCHMARK}
    total = Counter()
    for tree in trees.values():
        total.update(identifiers(tree))
    unreached = []
    for path in LIBRARY:
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if total[node.name] == identifiers(node)[node.name]:
                    unreached.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unreached, unreached

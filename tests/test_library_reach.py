"""Every top-level function and class of the library, and every method of a
library class other than a dunder, has a caller outside the tests: a name
that only the tests reach belongs in tests/reference.py.  Likewise every
instance attribute a library class sets (`self.<name> = ...`) is read as an
attribute somewhere outside the tests.

The check goes by name alone.  A method or attribute counts as reached when
any non-test code mentions its name, so a test-only one is missed while
another definition shares its name (as `Chart.serialize` and
`SectionProduct.serialize`, which nothing called, did with the `serialize`
of other classes).

Only `sections.py` calls the builders of a request's charts and section
pair, so `GroupSections` is the one place that builds them.  Only `poly.py`
knows the fields of a packed key, and `Layout.rows` decodes them.  No
library module imports `fractions`: every exact computation runs on
integers."""

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


def assigned_attributes(tree):
    """(class, attribute, line) for each `self.<name> = ...` in a method of a
    top-level class."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for n in ast.walk(node):
                if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                        and isinstance(n.value, ast.Name)
                        and n.value.id == "self"):
                    yield node.name, n.attr, n.lineno


def test_every_library_attribute_is_read_outside_the_tests():
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in LIBRARY + BENCHMARK}
    read = {n.attr for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [f"{path.name}:{line} {cls}.{attr}"
              for path in LIBRARY
              for cls, attr, line in assigned_attributes(trees[path])
              if attr not in read]
    assert not unread, unread


# the builders of a request's charts and section pair
SECTION_BUILDERS = {"big_cell_chart", "levi_center_chart", "sl_entry_big_cell",
                    "specialization_family", "build_sigma_pair"}


def test_only_group_sections_builds_charts_and_sections():
    """`GroupSections` is the one place where a request's charts and
    sigma_minus are built: no other library module calls a builder.  The
    benchmark does not count."""
    calls = []
    for path in LIBRARY:
        if path.name == "sections.py":
            continue
        for n in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(n, ast.Call):
                name = getattr(n.func, "id", getattr(n.func, "attr", None))
                if name in SECTION_BUILDERS:
                    calls.append(f"{path.name}:{n.lineno} {name}")
    assert not calls, calls


# what reads a packed key's fields or knows their widths
PACKED_FORMAT = {"iter_unpack", "to_bytes", "FIELD_BITS", "degree_shift"}


def test_only_poly_knows_the_packed_key():
    """A packed key's field layout stays behind `poly.py`: no other library
    module decodes keys itself or reads their field widths.  The benchmark
    does not count."""
    found = []
    for path in LIBRARY:
        if path.name == "poly.py":
            continue
        names = identifiers(ast.parse(path.read_text(), str(path)))
        found += [f"{path.name} {name}" for name in sorted(PACKED_FORMAT & set(names))]
    assert not found, found


def test_no_library_module_imports_fractions():
    found = []
    for path in LIBRARY:
        for n in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(n, ast.Import):
                names = [alias.name for alias in n.names]
            elif isinstance(n, ast.ImportFrom):
                names = [n.module or ""]
            else:
                continue
            if any(name.partition(".")[0] == "fractions" for name in names):
                found.append(f"{path.name}:{n.lineno}")
    assert not found, found

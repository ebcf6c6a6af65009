"""The benchmark's tracer (flagbench/spans.py) rebinds flagsplit functions
by name, counts terms with len(p.terms) and puts the arguments of chart
builders into a set.  These tests read spans.py without changing it and
check that all three still hold, so that moving Polynomial or chart
internals cannot silently break `flagbench/run.py --trace 1`."""

import importlib
import sys
import types
from pathlib import Path

import pytest

from flagsplit.cli import SuiteConfig, run_suite  # imports every traced layer
from flagsplit.poly import Polynomial, poly_from_string

SPANS = Path(__file__).resolve().parents[1] / "flagbench" / "spans.py"


def load_spans():
    module = types.ModuleType("flagbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_target_resolves_like_tracer_install():
    spans = load_spans()
    assert spans.TARGETS
    for layer, path, _ in spans.TARGETS:
        owner = importlib.import_module(f"flagsplit.{layer}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        assert attr in owner.__dict__, f"{layer}.{path}"
        assert callable(owner.__dict__[attr]), f"{layer}.{path}"


def test_len_terms_is_the_term_count():
    cases = [
        (Polynomial.zero(), 0),
        (Polynomial.one(), 1),
        (poly_from_string("x*y + 2*z + 3"), 3),
        (poly_from_string("x + y") * poly_from_string("x - y"), 2),
    ]
    for poly, count in cases:
        assert len(poly.terms) == count


def test_tracer_counts_term_pairs_and_restores_bindings():
    spans = load_spans()
    original = Polynomial.__dict__["__mul__"]
    a = poly_from_string("x + y + 1")
    b = poly_from_string("x*z - 2")
    tracer = spans.Tracer()
    tracer.install()
    try:
        a * b
        3 * a
    finally:
        tracer.uninstall()
    assert Polynomial.__dict__["__mul__"] is original
    assert tracer.counts["poly.mul.term_pairs"] == 3 * 2 + 3 * 1
    table = spans.self_times(tracer.names, tracer.name_id, tracer.start,
                             tracer.end, tracer.parent)
    assert table["poly.mul"][0] == 2


def _bindings(spans):
    """Every object a tracer install may rebind: each target as its owner
    holds it, and every flagsplit module attribute."""
    held = {}
    for layer, path, _ in spans.TARGETS:
        owner = importlib.import_module(f"flagsplit.{layer}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        held[(layer, path)] = owner.__dict__[attr]
    for key, module in list(sys.modules.items()):
        if key.split(".")[0] == "flagsplit":
            for attr, value in vars(module).items():
                held[(key, attr)] = value
    return held


@pytest.mark.parametrize("family,n,r", [("A", 4, 2), ("D", 3, None)])
def test_traced_run_suite_counts_chart_builds_and_restores_bindings(family, n, r):
    # levi_center_chart and specialization_family take a Chart, which the
    # chart key hashes by identity; a Chart.__eq__ would make it unhashable
    spans = load_spans()
    before = _bindings(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        report = run_suite(SuiteConfig(family, n, r=r, primes=[3]))
    finally:
        tracer.uninstall()
    assert report.exit_code == 0
    after = _bindings(spans)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert spans.layer_metrics(tracer)["charts.builds"][0] == 4

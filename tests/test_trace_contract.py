"""The benchmark's tracer (flagbench/spans.py) rebinds flagsplit functions
by name and counts terms with len(p.terms).  These tests read spans.py
without changing it and check that both still hold, so that moving
Polynomial internals cannot silently break `flagbench/run.py --trace 1`."""

import importlib
import types
from pathlib import Path

import flagsplit.cli  # noqa: F401  (imports every layer the tracer wraps)
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

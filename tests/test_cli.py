import hashlib
import json
import sys
from collections import Counter

import pytest

from flagsplit import charts, cli, rootdata, sections
from flagsplit.cli import (
    ConfigError,
    SuiteConfig,
    VerificationReport,
    appendix_check,
    emit_report,
    main,
    run_suite,
)
from flagsplit.poly import Polynomial
from flagsplit.rootdata import ConventionError
from flagsplit.sections import SectionProduct


def is_sigma_minus(section):
    """sigma_minus's first factor is the last row, sigma_plus's the first."""
    return section.factors[0].rows == (section.group.size,)


def test_config_validation():
    with pytest.raises(ConfigError):
        SuiteConfig("A", 4)  # missing r
    with pytest.raises(ConfigError):
        SuiteConfig("A", 4, r=4)
    with pytest.raises(ConfigError):
        SuiteConfig("C", 2, r=1)
    with pytest.raises(ConfigError):
        SuiteConfig("C", 2, primes=[2])
    with pytest.raises(ConfigError):
        SuiteConfig("C", 2, primes=[3.0])
    with pytest.raises(ConfigError, match="prime 5 is repeated"):
        SuiteConfig("C", 2, primes=[5, 3, 5])
    with pytest.raises(ConfigError):
        SuiteConfig("C", 2, checks=["nonsense"])
    with pytest.raises(ConfigError, match="check weights is repeated"):
        SuiteConfig("C", 2, checks=["weights", "skew", "weights"])
    with pytest.raises(ConfigError):
        SuiteConfig("C", 2, max_terms=0)
    with pytest.raises(ConfigError):
        SuiteConfig("C", 2, max_seconds=float("nan"))
    with pytest.raises(ConfigError):
        SuiteConfig("C", 2, max_seconds=float("inf"))
    # a pass with nothing computed must not be possible
    with pytest.raises(ConfigError):
        SuiteConfig("C", 2, primes=[])
    with pytest.raises(ConfigError):
        SuiteConfig("C", 2, checks=[])


def test_report_determinism():
    config = SuiteConfig("C", 2, primes=[3])
    first = emit_report(run_suite(config), out=None)
    second = emit_report(run_suite(SuiteConfig("C", 2, primes=[3])), out=None)
    assert first == second


# sha256 of the JSON report of each suite_mix configuration of flagbench
# (all checks, p = 3, 5, 7, seed 0); a deliberate report change updates them
REPORT_PINS = {
    ("A", 2, 1): "c08a5e5a9da1a243cbe74cb4587ffc400d0b885bcd6d0a90fb24b60cf0104be4",
    ("A", 3, 1): "2db1d736cecacc02dd039d4b5db5432d6e449c18aca2b3b7b3755ac8a4e24d3e",
    ("A", 3, 2): "8b9e2eae305e79a2b11be93593231704e0afd04ab3bb8696daa8a69186b583e2",
    ("A", 4, 1): "1bb5640f1d682e692a4bc0ffde9410c4be6e37054cfd59433b940a79f88c21ce",
    ("A", 4, 2): "25d9029e5fde85bb7d6893c864bc744427611b38d3e556c9426ee611c5258d81",
    ("A", 4, 3): "51f0e947120adf4a49be5e831b3ef12df7e09a5cca4a730b776ff1fa381ccc24",
    ("C", 2, None): "5bb2f0eeeaf6ed2f1076422b7b27134ea5ffbe65b547c6857b592d0add0304ed",
    ("D", 2, None): "580482a135633f3c7c0b626ac16ebd83e82a46de708c02610a0a8feb5f209495",
    ("D", 3, None): "1ccfb000c65ab91e76ad34078a364d9625003355f6a797341fec48ecd533f58b",
}


def test_report_bytes_are_pinned():
    for (family, n, r), pin in REPORT_PINS.items():
        report = run_suite(SuiteConfig(family, n, r=r, primes=[3, 5, 7], seed=0))
        text = json.dumps(report.serialize(), indent=2) + "\n"
        assert hashlib.sha256(text.encode()).hexdigest() == pin, (family, n, r)


def test_report_schema_and_statuses():
    config = SuiteConfig("A", 4, r=2, primes=[3])
    report = run_suite(config)
    data = json.loads(emit_report(report, out=None))
    assert set(data) == {"version", "config", "checks"}
    for check in data["checks"]:
        assert set(check) == {"name", "status", "payload", "seconds"}
        assert check["status"] == "pass", check
        assert check["seconds"] == 0.0
    assert report.exit_code == 0


def test_order_table_payload_example():
    config = SuiteConfig("A", 5, r=2, primes=[3], checks=["orders"])
    report = run_suite(config)
    payload = report.checks[0]["payload"]
    assert payload["factor_orders"] == [1, 2, 2, 1]
    assert payload["total"] == 6
    assert payload["expected_codim"] == 6
    assert payload["table_check"]["ok"]


def test_guard_trip_gives_exit_3():
    # the windowed g of sl5 at p = 5 has 3 terms after its second product
    # (sl4's keeps 1)
    config = SuiteConfig("A", 5, r=2, primes=[5], checks=["splitcoeff"],
                         max_terms=2)
    report = run_suite(config)
    assert report.checks[0]["status"] == "not-computed"
    assert report.exit_code == 3


def test_memory_error_is_not_computed(monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("no room")

    monkeypatch.setattr(cli, "squarefree_probe", exhausted)
    report = run_suite(SuiteConfig("D", 3, checks=["weights", "squarefree"]))
    assert [c["status"] for c in report.checks] == ["pass", "not-computed"]
    assert report.checks[1]["payload"] == {"error": "MemoryError: no room"}
    assert report.exit_code == 3


def test_exit_code_precedence():
    report = VerificationReport(SuiteConfig("C", 2, checks=["weights"]))
    report.add("a", "pass", {}, 0.1)
    assert report.exit_code == 0
    report.add("b", "not-computed", {}, 0.1)
    assert report.exit_code == 3
    report.add("c", "fail", {}, 0.1)
    assert report.exit_code == 1


def test_main_config_error_exit_2(capsys):
    assert main(["verify", "--family", "sp", "--n", "2", "--r", "1"]) == 2
    assert main(["verify", "--family", "sl", "--n", "3"]) == 2
    sp2 = ["verify", "--family", "sp", "--n", "2"]
    assert main(sp2 + ["--p", ",", "--checks", "splitcoeff"]) == 2
    assert main(sp2 + ["--checks", ","]) == 2
    assert main(sp2 + ["--checks", "weights", "--max-seconds", "nan"]) == 2
    assert main(sp2 + ["--checks", "weights", "--max-seconds", "inf"]) == 2
    capsys.readouterr()
    assert main(sp2 + ["--p", "3,3", "--checks", "splitcoeff"]) == 2
    assert "prime 3 is repeated" in capsys.readouterr().err


def test_main_rejects_repeated_check(capsys):
    assert main(["verify", "--family", "sl", "--n", "2", "--r", "1",
                 "--checks", "weights,weights"]) == 2
    assert "check weights is repeated" in capsys.readouterr().err


def test_main_rejects_composite_p(capsys):
    assert main(["verify", "--family", "sl", "--n", "3", "--r", "1",
                 "--p", "9", "--checks", "splitcoeff"]) == 2
    assert "9" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        SuiteConfig("C", 2, primes=[3, 15])


def test_primes_past_the_degree_limit_are_refused_before_primality(capsys):
    # p - 1 must fit a packed exponent field; trial division of 2^89 - 1
    # would never finish
    for p in (32771, 2**89 - 1):
        with pytest.raises(ConfigError, match="32767"):
            SuiteConfig("C", 2, primes=[p])
    SuiteConfig("C", 2, primes=[32749])
    assert main(["verify", "--family", "sp", "--n", "2",
                 "--p", str(2**89 - 1)]) == 2
    assert "32767" in capsys.readouterr().err


def test_main_verify_sl2(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = main([
        "verify", "--family", "sl", "--n", "2", "--r", "1",
        "--p", "3,5,7", "--checks", "weights,orders,splitcoeff",
        "--out", str(out),
    ])
    assert code == 0
    data = json.loads(out.read_text())
    verdicts = data["checks"][-1]["payload"]["verdicts"]
    assert [v["splits"] for v in verdicts] == [True, True, True]
    capsys.readouterr()


def test_main_rnc_emits_certificate(capsys, tmp_path):
    out = tmp_path / "cert.json"
    assert main(["rnc", "--family", "sl", "--n", "3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["chain"]) == len(data["variable_order"]) + 1
    capsys.readouterr()


def _count_calls(monkeypatch, name):
    """Count calls of cli.<name> while still running it."""
    calls = []
    original = getattr(cli, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    return calls


def _one_line_error(capsys, message):
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1, err


def test_unwritable_report_path_exits_2(capsys, tmp_path, monkeypatch):
    checks = _count_calls(monkeypatch, "_run_check")
    args = ["verify", "--family", "sp", "--n", "2", "--checks", "weights"]
    missing = tmp_path / "missing"
    assert main(args + ["--out", str(missing / "report.json")]) == 2
    _one_line_error(capsys, "cannot write report")
    monkeypatch.setenv("FLAGSPLIT_OUTPUT_DIR", str(missing))
    assert main(args + ["--out", "report.json"]) == 2
    _one_line_error(capsys, "cannot write report")
    assert checks == []


def test_unwritable_certificate_path_exits_2(capsys, tmp_path, monkeypatch):
    searches = _count_calls(monkeypatch, "rnc_search")
    out = tmp_path / "missing" / "cert.json"
    assert main(["rnc", "--family", "sl", "--n", "3", "--out", str(out)]) == 2
    _one_line_error(capsys, "cannot write certificate")
    assert searches == []


def test_main_appendix_check(capsys):
    assert main(["appendix-check"]) == 0
    assert "golden chain verified" in capsys.readouterr().out


def test_appendix_check_function():
    cert = appendix_check()
    assert len(cert.variable_order) == 10


def test_text_format(capsys):
    assert main([
        "verify", "--family", "so", "--n", "3", "--checks", "weights,skew",
        "--format", "text",
    ]) == 0
    out = capsys.readouterr().out
    assert "weights" in out and "skew" in out and "pass" in out


def _rebind(monkeypatch, owner, name, replacement):
    """Replace owner.name in every flagsplit module that imported it."""
    original = getattr(owner, name)
    for key, module in list(sys.modules.items()):
        if key.startswith("flagsplit") and getattr(module, name, None) is original:
            monkeypatch.setattr(module, name, replacement)


BUILDERS = [
    (rootdata, "build_group_datum"),
    (sections, "build_sigma_pair"),
    (charts, "unipotent_factor"),
    (charts, "big_cell_chart"),
    (charts, "levi_center_chart"),
    (charts, "sl_entry_big_cell"),
    (charts, "specialization_family"),
]


@pytest.mark.parametrize("family,n,r", [("A", 4, 2), ("C", 2, None), ("D", 3, None)])
def test_run_suite_builds_each_section_once(monkeypatch, family, n, r):
    calls = Counter()

    def count(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for owner, name in BUILDERS:
        _rebind(monkeypatch, owner, name, count(name, getattr(owner, name)))
    name = "levi_longest_representative"
    monkeypatch.setattr(rootdata.GroupDatum, name,
                        count(name, getattr(rootdata.GroupDatum, name)))
    evaluated = Counter()
    evaluate = SectionProduct.evaluate

    def counted_evaluate(self, matrix):
        if is_sigma_minus(self):
            evaluated[str(matrix.to_strings())] += 1
        return evaluate(self, matrix)

    monkeypatch.setattr(SectionProduct, "evaluate", counted_evaluate)
    minors = Counter()
    evaluate_factors = SectionProduct.evaluate_factors

    def counted_evaluate_factors(self, matrix):
        minors[str(matrix.to_strings())] += 1
        return evaluate_factors(self, matrix)

    monkeypatch.setattr(SectionProduct, "evaluate_factors",
                        counted_evaluate_factors)
    report = run_suite(SuiteConfig(family, n, r=r, primes=[3, 5]))
    assert report.exit_code == 0
    for name in ("build_group_datum", "build_sigma_pair", "unipotent_factor",
                 "big_cell_chart", "levi_center_chart",
                 "levi_longest_representative"):
        assert calls[name] == 1, name
    assert calls["sl_entry_big_cell"] <= 1
    assert calls["specialization_family"] <= 1
    # no check evaluates sigma_minus as one product: C and D multiply out
    # none, and A only rnc's f_entry, from the entry cell's minors
    assert not evaluated
    # no matrix has its minors evaluated twice, the Levi chart's included
    assert minors and max(minors.values()) == 1, minors


def count_products_in_probe(monkeypatch):
    """Rebind the suite's squarefree_probe so that every polynomial product
    formed while it runs is counted; the list returned holds the count."""
    products = [0]
    inside = []
    probe, mul = cli.squarefree_probe, Polynomial.__mul__

    def counted_mul(self, other):
        if inside:
            products[0] += 1
        return mul(self, other)

    def counted_probe(*args, **kwargs):
        inside.append(1)
        try:
            return probe(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(Polynomial, "__mul__", counted_mul)
    monkeypatch.setattr(Polynomial, "__rmul__", counted_mul)
    monkeypatch.setattr(cli, "squarefree_probe", counted_probe)
    return products


@pytest.mark.parametrize("family,n,r", [("A", 4, 2), ("D", 3, None)])
def test_splitcoeff_never_multiplies_out_sigma_minus(monkeypatch, family, n, r):
    # the squarefree and splitcoeff checks take sigma_minus as its minors:
    # each cell's minors are formed once, SectionProduct.evaluate never
    # runs on sigma_minus, f_entry (the one product of minors left, for
    # rnc) is never built, and the probe multiplies no polynomials
    evaluated, factored = Counter(), Counter()
    evaluate = SectionProduct.evaluate
    evaluate_factors = SectionProduct.evaluate_factors

    def counted_evaluate(self, matrix):
        if is_sigma_minus(self):
            evaluated[str(matrix.to_strings())] += 1
        return evaluate(self, matrix)

    def counted_evaluate_factors(self, matrix):
        if is_sigma_minus(self):
            factored[str(matrix.to_strings())] += 1
        return evaluate_factors(self, matrix)

    def no_f_entry(self):
        raise AssertionError("f_entry was built")

    products = count_products_in_probe(monkeypatch)
    monkeypatch.setattr(SectionProduct, "evaluate", counted_evaluate)
    monkeypatch.setattr(SectionProduct, "evaluate_factors",
                        counted_evaluate_factors)
    monkeypatch.setattr(sections.GroupSections, "f_entry", property(no_f_entry))
    big = str(charts.big_cell_chart(
        rootdata.build_group_datum(family, n)).matrix.to_strings())
    cells = {big: 1}
    if family == "A":  # the probe reads the minors on the entry cell
        cells[str(charts.sl_entry_big_cell(n).matrix.to_strings())] = 1
    report = run_suite(SuiteConfig(family, n, r=r,
                                   checks=["squarefree", "splitcoeff"],
                                   primes=[3, 5, 7]))
    assert report.exit_code == 0
    assert [c["name"] for c in report.checks] == ["squarefree", "splitcoeff"]
    assert not evaluated
    assert factored == cells
    assert products == [0]


@pytest.mark.parametrize("family,n,r", [("C", 4, None), ("D", 5, None),
                                         ("A", 7, 3)])
def test_squarefree_check_reaches_sp4_so5_sl7(monkeypatch, family, n, r):
    # sigma_minus has 99,435 terms on the sp4 big cell, 2,688,261 on so5's
    # and 170,436 on the sl7 entry cell; the probe restricts its minors
    # instead, and forms no product at all
    products = count_products_in_probe(monkeypatch)
    report = run_suite(SuiteConfig(family, n, r=r, checks=["squarefree"]))
    (check,) = report.checks
    assert check["status"] == "pass"
    assert check["payload"] == {"trials": 20, "passes": 20, "discarded": 0,
                                "seed": 0, "all_squarefree": True,
                                "evidence_only": True}
    assert products == [0]


@pytest.mark.parametrize("family,n,r,failing", [
    ("A", 4, 2, ["orders", "splitcoeff"]),
    ("D", 3, None, ["specializations", "orders", "squarefree", "splitcoeff"]),
])
def test_failing_big_cell_fails_each_check_that_needs_it(
        monkeypatch, family, n, r, failing):
    def broken(group):
        raise ConventionError("no big cell")

    _rebind(monkeypatch, charts, "big_cell_chart", broken)
    report = run_suite(SuiteConfig(family, n, r=r, primes=[3, 5]))
    failed = [c for c in report.checks if c["status"] == "fail"]
    assert [c["name"] for c in failed] == failing
    for check in failed:
        assert check["payload"] == {"error": "ConventionError: no big cell"}

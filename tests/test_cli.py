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
from flagsplit.rootdata import ConventionError
from flagsplit.sections import SIGMA_MINUS, SectionProduct


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
        SuiteConfig("C", 2, checks=["nonsense"])
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
    config = SuiteConfig("A", 4, r=2, primes=[5], checks=["splitcoeff"],
                         max_terms=2)
    report = run_suite(config)
    assert report.checks[0]["status"] == "not-computed"
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


def test_main_rejects_composite_p(capsys):
    assert main(["verify", "--family", "sl", "--n", "3", "--r", "1",
                 "--p", "9", "--checks", "splitcoeff"]) == 2
    assert "9" in capsys.readouterr().err
    with pytest.raises(ConfigError):
        SuiteConfig("C", 2, primes=[3, 15])


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
        if self.label == SIGMA_MINUS:
            evaluated[str(matrix.to_strings())] += 1
        return evaluate(self, matrix)

    monkeypatch.setattr(SectionProduct, "evaluate", counted_evaluate)
    report = run_suite(SuiteConfig(family, n, r=r, primes=[3, 5]))
    assert report.exit_code == 0
    for name in ("build_group_datum", "build_sigma_pair", "unipotent_factor",
                 "big_cell_chart", "levi_center_chart",
                 "levi_longest_representative"):
        assert calls[name] == 1, name
    assert calls["sl_entry_big_cell"] <= 1
    assert calls["specialization_family"] <= 1
    assert max(evaluated.values()) == 1


@pytest.mark.parametrize("family,n,r,failing", [
    ("A", 4, 2, ["orders", "splitcoeff"]),
    ("D", 3, None, ["specializations", "orders", "squarefree", "splitcoeff"]),
])
def test_failing_big_cell_fails_each_check_that_needs_it(
        monkeypatch, family, n, r, failing):
    def broken(group, generator_order=None):
        raise ConventionError("no big cell")

    _rebind(monkeypatch, charts, "big_cell_chart", broken)
    report = run_suite(SuiteConfig(family, n, r=r, primes=[3, 5]))
    failed = [c for c in report.checks if c["status"] == "fail"]
    assert [c["name"] for c in failed] == failing
    for check in failed:
        assert check["payload"] == {"error": "ConventionError: no big cell"}

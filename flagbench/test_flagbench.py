"""Tests of the benchmark itself: `python3 -m pytest flagbench -q`."""

from __future__ import annotations

import json
import sys
from array import array
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

def expected():
    return json.loads(run.EXPECTED.read_text())


@pytest.fixture(scope="module")
def fs():
    return run.import_flagsplit()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_request_list_is_a_function_of_the_seed(workload):
    first = workloads.generate(workload, 7)
    again = workloads.generate(workload, 7)
    other = workloads.generate(workload, 8)
    assert first == again
    assert workloads.digest(first) == workloads.digest(again)
    assert workloads.digest(first) != workloads.digest(other)
    mix = workloads.WORKLOADS[workload][0]
    for batch in first:  # every round is the whole mix
        assert len(batch) == len(mix)


def test_expected_answers_cover_every_drawable_configuration():
    exp = expected()
    groups = exp["groups"]
    for family, n, r in workloads.SUITE_MIX:
        g = groups[workloads.group_key(family, n)]
        orders = g["factor_orders"][str(r)] if family == "sl" else g["factor_orders"]
        assert len(orders) == (n if family == "sp" else n - 1)
        assert all(g["splits"][str(p)] for p in workloads.SUITE_PRIMES)
        assert g["all_squarefree"] is True
        if family == "sl":
            assert g["rnc_unit"] in (1, -1)
    for family, n, p in workloads.SPLIT_MIX:
        assert groups[workloads.group_key(family, n)]["splits"][str(p)] is True
    for family, n, _ in workloads.LINE_MIX:
        assert groups[workloads.group_key(family, n)]["all_squarefree"] is True


def test_wrong_expected_answer_counts_as_failure(fs, tmp_path):
    request = {"op": "suite", "family": "sl", "n": 2, "r": 1, "seed": 3}
    good = workloads.Runner(fs, expected(), tmp_path / "report.json")
    result = run.run_rounds(good, [[request]])
    assert (result.attempted, result.failed) == (1, 0)

    wrong = expected()
    wrong["groups"]["sl2"]["factor_orders"]["1"] = [2]
    bad = workloads.Runner(fs, wrong, tmp_path / "report.json")
    result = run.run_rounds(bad, [[request]])
    metrics, extra = run.end_to_end(result, [request], setup_s=0.1)
    assert extra["failed_share"][0] > 0
    assert "factor orders" in result.problems[0][1][0]


def test_best_metrics_cost_each_request_at_its_kinds_fastest_time():
    probes = [{"op": "line", "family": "so", "n": 3, "cell": "big", "seed": s}
              for s in (1, 2)]
    split = {"op": "split", "family": "sl", "n": 6, "p": 3}
    result = SimpleNamespace(durations=[2.0, 1.0, 3.0], round_seconds=[6.0],
                             attempted=3, failed=0)
    metrics, extra = run.end_to_end(result, probes + [split], setup_s=0.1)
    assert metrics["best_verdicts_per_s"][0] == pytest.approx(3 / (1 + 1 + 3))
    assert metrics["best_verdict_p50_s"][0] == 1.0
    assert extra["verdicts_per_s"][0] == pytest.approx(3 / 6)
    assert extra["verdict_p50_s"][0] == 2.0


def test_not_computed_split_verdict_is_a_failure(fs, tmp_path):
    runner = workloads.Runner(fs, expected(), tmp_path / "report.json")
    request = {"op": "split", "family": "sl", "n": 5, "p": 5}
    tripped = {"status": "not_computed", "splits": None,
               "guard_reason": "term count 9 > 1"}
    assert runner.check(request, tripped)
    assert not runner.check(request, {"status": "computed", "splits": True})


def test_self_time_on_a_nested_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3];
    # b holds two more c spans [5, 6] and [7, 8.5]
    names = ["root", "a", "b", "c"]
    rows = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (3, 2.0, 3.0, 1),
            (2, 5.0, 9.0, 0), (3, 5.0, 6.0, 3), (3, 7.0, 8.5, 3)]
    table = spans.self_times(
        names,
        array("H", [r[0] for r in rows]),
        array("d", [r[1] for r in rows]),
        array("d", [r[2] for r in rows]),
        array("q", [r[3] for r in rows]),
    )
    assert table["root"] == (1, pytest.approx(10 - 3 - 4))
    assert table["a"] == (1, pytest.approx(3 - 1))
    assert table["b"] == (1, pytest.approx(4 - 1 - 1.5))
    assert table["c"] == (3, pytest.approx(1 + 1 + 1.5))


def test_tracer_sees_calls_through_imported_names_and_restores_them(fs, tmp_path):
    original = fs.splitting.big_cell_chart
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert fs.splitting.big_cell_chart is not original
        assert fs.charts.big_cell_chart is fs.splitting.big_cell_chart
        group = fs.rootdata.build_group_datum("C", 2)
        fs.splitting.local_splitting_coefficient(group, 3)
    finally:
        tracer.uninstall()
    assert fs.splitting.big_cell_chart is original
    assert fs.charts.big_cell_chart is original
    metrics = spans.layer_metrics(tracer)
    assert metrics["charts.builds"][0] == 1
    assert metrics["poly.mul.calls"][0] > 0
    assert metrics["poly.mul.term_pairs"][0] > 0
    root = [i for i in range(len(tracer.start)) if tracer.parent[i] == -1]
    assert [tracer.names[tracer.name_id[i]] for i in root] == [
        "rootdata.build_group_datum", "splitting.coefficient"]
    tracer.write(tmp_path / "spans.bin")
    header = (tmp_path / "spans.bin").read_bytes().split(b"\n", 1)[0]
    assert json.loads(header)["spans"] == len(tracer.start)

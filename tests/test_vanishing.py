import pytest

from flagsplit.charts import Chart, big_cell_chart, levi_center_chart
from flagsplit.matrix import PolyMatrix
from flagsplit.rootdata import ConventionError, build_group_datum
from flagsplit.sections import GroupSections, build_sigma_pair
from flagsplit.vanishing import (
    max_multiplicity_verdict,
    order_at_center,
    sl_four_case_order,
    sl_order_table_check,
)


def test_four_case_formula_values():
    assert [sl_four_case_order(5, 2, k) for k in (1, 2, 3, 4)] == [1, 2, 2, 1]
    assert [sl_four_case_order(4, 2, k) for k in (1, 2, 3)] == [1, 2, 1]
    assert sl_four_case_order(2, 1, 1) == 1


def test_sl_order_table_examples():
    def check(n, r):
        return sl_order_table_check(GroupSections(build_group_datum("A", n), r))

    res = check(5, 2)
    assert res["ok"] and res["intrinsic"] == [1, 2, 2, 1] and res["total"] == 6
    res = check(4, 2)
    assert res["ok"] and res["intrinsic"] == [1, 2, 1] and res["total"] == 4
    res = check(2, 1)
    assert res["ok"] and res["intrinsic"] == [1] and res["total"] == 1


@pytest.mark.parametrize(
    "family,n,expected_orders",
    [
        ("C", 2, [1, 2]),
        ("C", 3, [1, 2, 3]),
        ("D", 2, [1]),
        ("D", 3, [1, 2]),
        ("D", 4, [1, 2, 3]),
    ],
)
def test_cd_maximal_multiplicity(family, n, expected_orders):
    g = build_group_datum(family, n)
    report = max_multiplicity_verdict(GroupSections(g), primes=[3])
    assert report.factor_orders == expected_orders
    assert report.total == report.expected_codim == sum(expected_orders)
    assert report.lower_bounds == expected_orders
    assert report.upper_bounds == expected_orders
    assert report.maximal_multiplicity
    assert report.scaled_checks[0]["equal"]


def test_a_maximal_multiplicity():
    g = build_group_datum("A", 5)
    report = max_multiplicity_verdict(GroupSections(g, 2), primes=[3])
    assert report.factor_orders == [1, 2, 2, 1]
    assert report.total == report.expected_codim == 6
    assert report.sigma_plus_unit in (1, -1)
    assert report.scaled_checks[0]["scaled_order"] == 12
    assert report.maximal_multiplicity


def _sign_diagonal(group, signs):
    size = group.size
    entries = [[0] * size for _ in range(size)]
    for i, s in enumerate(signs, start=1):
        entries[i - 1][i - 1] = s
    d = PolyMatrix(entries)
    assert group.in_group(d)
    return d


@pytest.mark.parametrize(
    "family,n,r,signs",
    [
        ("A", 4, 2, (1, -1, -1, 1)),
        ("C", 2, None, (-1, 1, 1, -1)),
        ("D", 3, None, (1, -1, 1, 1, -1, 1)),
    ],
)
def test_order_invariant_under_torus_twisted_representative(family, n, r, signs):
    g = build_group_datum(family, n)
    _, minus = build_sigma_pair(g)
    chart = levi_center_chart(big_cell_chart(g), r)
    baseline, _ = order_at_center(minus, chart)
    d = _sign_diagonal(g, signs)
    twisted = Chart(g, chart.variables, d * chart.matrix)
    orders, _ = order_at_center(minus, twisted)
    assert orders == baseline


def test_valuation_additivity_on_chart():
    g = build_group_datum("A", 4)
    _, minus = build_sigma_pair(g)
    chart = levi_center_chart(big_cell_chart(g), 2)
    orders, total = order_at_center(minus, chart)
    from flagsplit.poly import order_at_origin

    assert order_at_origin(minus.evaluate(chart.matrix)) == total == sum(orders)
    # with row 3 zeroed, the factors on rows (4, 3) and (4, 3, 2) vanish
    # identically; the error names the first of them in factor order
    rows = [list(row) for row in chart.matrix.entries]
    rows[2] = [0] * len(rows[2])
    dead = Chart(g, chart.variables, PolyMatrix(rows))
    with pytest.raises(ConventionError) as raised:
        order_at_center(minus, dead)
    assert str(raised.value) == (
        "factor MinorSpec((4, 3)) vanishes identically on chart")

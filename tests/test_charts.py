import random

import pytest

from flagsplit.charts import (
    SO_EVEN_PAIRED,
    SO_ODD_SKEW,
    SP_ANTIDIAG,
    big_cell_chart,
    expected_parameter_count,
    levi_center_chart,
    sl_entry_big_cell,
    sl_explicit_chart,
    specialization_family,
)
from flagsplit.matrix import column_minor
from flagsplit.poly import order_at_origin
from flagsplit.rootdata import build_group_datum
from flagsplit.sections import build_sigma_pair
from flagsplit.vanishing import order_at_center
from reference import is_zero_rows, ref_form_residual, shuffled_big_cell

GRID = [("A", n) for n in range(2, 7)] + [
    ("C", 2), ("C", 3), ("D", 2), ("D", 3), ("D", 4),
]


@pytest.fixture(scope="module")
def groups():
    return {(f, n): build_group_datum(f, n) for f, n in GRID}


def test_big_cell_membership_and_shape(groups):
    for g in groups.values():
        chart = big_cell_chart(g)  # membership verified on construction
        assert len(chart.variables) == len(g.negative_roots)
        zeros = {v: 0 for v in chart.variables}
        center = chart.center_matrix()
        assert center == [[e.substitute(zeros) for e in row]
                          for row in chart.matrix.entries]
        assert center == [[int(i == j) for j in range(g.size)]
                          for i in range(g.size)]


def test_levi_center_membership(groups):
    for (family, n), g in groups.items():
        rs = range(1, n) if family == "A" else [None]
        for r in rs:
            chart = levi_center_chart(big_cell_chart(g), r)
            assert chart.center_matrix() == g.levi_longest_representative(r)


def test_orders_invariant_under_generator_reordering(groups):
    for key in (("A", 4), ("C", 2), ("D", 3)):
        g = groups[key]
        _, minus = build_sigma_pair(g)
        r = 2 if key[0] == "A" else None
        baseline, _ = order_at_center(minus, levi_center_chart(big_cell_chart(g), r))
        count = len(g.negative_root_generators())
        for seed in (1, 2, 3):
            order = list(range(count))
            random.Random(seed).shuffle(order)
            chart = levi_center_chart(shuffled_big_cell(g, order), r)
            orders, _ = order_at_center(minus, chart)
            assert orders == baseline, f"{key} seed {seed}"


def test_sl_intrinsic_vs_explicit_chart_orders(groups):
    for n in range(2, 6):
        g = groups[("A", n)]
        _, minus = build_sigma_pair(g)
        big = big_cell_chart(g)
        for r in range(1, n):
            intrinsic, _ = order_at_center(minus, levi_center_chart(big, r))
            explicit, _ = order_at_center(minus, sl_explicit_chart(n, r))
            assert intrinsic == explicit


def test_sl_entry_big_cell_names():
    chart = sl_entry_big_cell(5)
    assert chart.variables == list("abcdefghij")
    assert set(chart.matrix[2, 1].variables()) == {"a"}
    assert set(chart.matrix[5, 4].variables()) == {"j"}
    big = sl_entry_big_cell(6)
    assert len(big.variables) == 15


# the resolved placement and the literal reading that failed, per kind
PLACEMENTS = {
    SP_ANTIDIAG: ("paired_antidiagonal_plus_diagonal", "literal_antidiagonal"),
    SO_EVEN_PAIRED: ("sign_resolved_paired_antidiagonal",
                     "literal_paired_antidiagonal"),
    SO_ODD_SKEW: ("sign_resolved_skew_block", "literal_skew_block"),
}
# the resolved signs in full where the sign search has a real choice to make
ENTRIES = {
    ("C", 2): {"(3,2)": "+x1", "(4,1)": "-x1", "(3,1)": "+y1"},
    ("D", 3): {"(4,2)": "+x1_2", "(5,1)": "+x1_2", "(4,3)": "+x1_3",
               "(6,1)": "-x1_3", "(5,3)": "+x2_3", "(6,2)": "+x2_3"},
}


@pytest.mark.parametrize(
    "family,n,kind",
    [("C", n, SP_ANTIDIAG) for n in range(2, 6)]
    + [("D", n, SO_ODD_SKEW if n % 2 else SO_EVEN_PAIRED) for n in range(2, 7)],
)
def test_specialization_families(groups, family, n, kind):
    g = groups.get((family, n)) or build_group_datum(family, n)
    fam = specialization_family(levi_center_chart(big_cell_chart(g)))
    assert fam.kind == kind
    placement, literal = PLACEMENTS[kind]
    assert fam.sign_assignment["placement"] == placement
    assert fam.sign_assignment["literal_reading_failed"] == literal
    if (family, n) in ENTRIES:
        assert fam.sign_assignment["entries"] == ENTRIES[(family, n)]
    assert fam.parameter_count() == expected_parameter_count(kind, n)
    assert g.preserves_form(fam.matrix)
    assert is_zero_rows(ref_form_residual(fam.matrix, g.form))
    # the k-th trailing minor is nonzero homogeneous of degree k
    _, minus = build_sigma_pair(g)
    memo = {}
    for k, spec in enumerate(minus.factors, start=1):
        value = column_minor(fam.matrix, spec, memo)
        assert order_at_origin(value) == value.degree() == k


def test_specialization_family_rejects_sl(groups):
    with pytest.raises(ValueError):
        specialization_family(levi_center_chart(big_cell_chart(groups[("A", 3)]), 1))

"""The integer root data of flagsplit.rootdata against the earlier Fraction
and PolyMatrix implementation kept in tests/reference.py."""

import pytest

from flagsplit.charts import big_cell_chart, levi_center_chart
from flagsplit.matrix import PolyMatrix
from flagsplit.rootdata import FAMILY_A, build_group_datum
from reference import (
    ref_levi_longest_representative,
    ref_negative_roots,
    ref_root_height,
    ref_simple_reflection,
    ref_unipotent_factor,
)

GRID = ([("A", n) for n in range(2, 7)] + [("C", n) for n in range(2, 5)]
        + [("D", n) for n in range(2, 6)])


@pytest.fixture(scope="module", params=GRID, ids=lambda key: f"{key[0]}{key[1]}")
def group(request):
    return build_group_datum(*request.param)


def levi_parabolics(group):
    return range(1, group.n) if group.family == FAMILY_A else [None]


def test_root_heights_match_reference(group):
    for root in group.positive_roots + group.negative_roots:
        assert group.root_height(root) == ref_root_height(group, root)


def test_negative_root_generators_match_reference(group):
    gens = group.negative_root_generators()
    assert [root for root, _ in gens] == ref_negative_roots(group)
    for root, X in gens:
        assert X == group.root_generator[root]
        M = PolyMatrix(X)
        # in the Lie algebra, and supported on exactly the root's weight class
        if group.family == FAMILY_A:
            assert sum(X[i][i] for i in range(group.size)) == 0
        else:
            assert M.transpose() * group.form + group.form * M == 0
        support = {(i + 1, j + 1) for i, row in enumerate(X)
                   for j, x in enumerate(row) if x}
        assert support == {
            (i, j) for i in range(1, group.size + 1)
            for j in range(1, group.size + 1)
            if i != j and group.chi(i) - group.chi(j) == root
        }


def test_weyl_representatives_match_reference(group):
    for i in range(1, len(group.simple_roots) + 1):
        rep = group.simple_reflection_representative(i)
        assert PolyMatrix(rep) == ref_simple_reflection(group, i)
    for r in levi_parabolics(group):
        assert (group.levi_longest_representative(r)
                == ref_levi_longest_representative(group, r))


def test_charts_match_reference(group):
    big = big_cell_chart(group)
    u = ref_unipotent_factor(group, big.variables)
    assert big.matrix == u
    for r in levi_parabolics(group):
        rep = ref_levi_longest_representative(group, r)
        assert levi_center_chart(big, r).matrix == rep * u

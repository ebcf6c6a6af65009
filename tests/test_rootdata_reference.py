"""The integer root data of flagsplit.rootdata against the earlier Fraction
and PolyMatrix implementation kept in tests/reference.py, the root spaces
against the constraint loop over every (a, b), and the form residual against
the one written out there."""

import random

import pytest

from flagsplit.charts import big_cell_chart, levi_center_chart, specialization_family
from flagsplit.matrix import PolyMatrix
from flagsplit.poly import Polynomial
from flagsplit.rootdata import FAMILY_A, build_group_datum
from reference import (
    is_zero_rows,
    ref_form_residual,
    ref_levi_longest_representative,
    ref_lie_basis,
    ref_matrix_product,
    ref_negative_roots,
    ref_polymatrix_product,
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


def test_lie_basis_matches_reference(group):
    assert group.lie_basis == ref_lie_basis(group)


def test_negative_root_generators_match_reference(group):
    gens = group.negative_root_generators()
    assert [root for root, _ in gens] == ref_negative_roots(group)
    for root, X in gens:
        assert X == group.root_generator[root]
        # in the Lie algebra, and supported on exactly the root's weight class
        if group.family == FAMILY_A:
            assert sum(X[i][i] for i in range(group.size)) == 0
        else:
            lhs = ref_matrix_product(list(zip(*X)), group.form)
            rhs = ref_matrix_product(group.form, X)
            assert lhs == [[-x for x in row] for row in rhs]
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
        assert rep == ref_simple_reflection(group, i).entries
    for r in levi_parabolics(group):
        assert (group.levi_longest_representative(r)
                == ref_levi_longest_representative(group, r).entries)


def test_charts_match_reference(group):
    big = big_cell_chart(group)
    u = ref_unipotent_factor(group, big.variables)
    assert big.matrix.entries == u.entries
    for r in levi_parabolics(group):
        rep = ref_levi_longest_representative(group, r)
        assert (levi_center_chart(big, r).matrix.entries
                == ref_polymatrix_product(rep, u).entries)


@pytest.mark.parametrize("key", [key for key in GRID if key[0] != FAMILY_A],
                         ids=lambda key: f"{key[0]}{key[1]}")
def test_preserves_form_matches_reference(key):
    """M^T F M = F on chart and specialization matrices, and on copies with
    one entry bumped; a copy with its first row doubled always fails."""
    group = build_group_datum(*key)
    big = big_cell_chart(group)
    levi = levi_center_chart(big)
    rng = random.Random(group.size)
    size = group.size
    failed = 0
    for m in (big.matrix, levi.matrix, specialization_family(levi).matrix):
        assert group.preserves_form(m)
        assert is_zero_rows(ref_form_residual(m, group.form))
        copies = [PolyMatrix([[2 * e for e in m.entries[0]], *m.entries[1:]])]
        for bump in (Polynomial.one(), Polynomial.variable("z")) * 3:
            rows = [list(row) for row in m.entries]
            i, j = rng.randrange(size), rng.randrange(size)
            rows[i][j] = rows[i][j] + bump
            copies.append(PolyMatrix(rows))
        for k, copy in enumerate(copies):
            holds = group.preserves_form(copy)
            assert holds == is_zero_rows(ref_form_residual(copy, group.form))
            assert k or not holds
            failed += not holds
    assert failed > 3  # some bump fails too, not only the doubled rows

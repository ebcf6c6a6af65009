import pytest

from flagsplit.matrix import PolyMatrix
from flagsplit.poly import Polynomial
from flagsplit.rootdata import FAMILY_A, FAMILY_C, FAMILY_D, Weight, build_group_datum

GRID = [("A", n) for n in range(2, 7)] + [
    ("C", 2), ("C", 3), ("D", 2), ("D", 3), ("D", 4),
]


@pytest.fixture(scope="module")
def groups():
    return {(f, n): build_group_datum(f, n) for f, n in GRID}


def test_construction_invariants_hold(groups):
    # build_group_datum verifies rho = half the sum of positive roots,
    # representative membership, and simple-root conventions internally;
    # reaching this point means every group on the grid passed
    for (family, n), g in groups.items():
        assert g.size == (n if family == FAMILY_A else 2 * n)
        assert len(g.positive_roots) == len(g.negative_roots)


def test_symplectic_form_convention(groups):
    g = groups[("C", 2)]
    J = g.form
    one = Polynomial.one()
    assert J[1, 4] == one and J[2, 3] == one
    assert J[4, 1] == -one and J[3, 2] == -one


def test_orthogonal_form_convention(groups):
    g = groups[("D", 2)]
    S = g.form
    one = Polynomial.one()
    for k in range(1, 5):
        assert S[k, 5 - k] == one


def test_c2_negative_root_generators(groups):
    g = groups[("C", 2)]
    gens = {root.doubled: X for root, X in g.negative_root_generators()}
    assert len(gens) == 4

    def unit(entries):
        m = [[0] * 4 for _ in range(4)]
        for (i, j), c in entries.items():
            m[i - 1][j - 1] = c
        return PolyMatrix(m)

    expected = [
        unit({(2, 1): 1, (4, 3): -1}),
        unit({(3, 2): 1}),
        unit({(3, 1): 1, (4, 2): 1}),
        unit({(4, 1): 1}),
    ]
    produced = list(gens.values())
    for X in expected:
        assert any(X == Y or X == Y * (-1) for Y in produced)


def test_sl_weights_mod_all_ones():
    a = Weight(FAMILY_A, [2, 0, 0])
    b = Weight(FAMILY_A, [4, 2, 2])
    assert a == b
    # normalization commutes with addition
    c = Weight(FAMILY_A, [0, 2, 0])
    assert (a + c).doubled == (b + c).doubled


def test_rho_values(groups):
    assert groups[("A", 3)].rho.doubled == (4, 2, 0)
    assert groups[("C", 2)].rho.doubled == (4, 2)
    assert groups[("D", 3)].rho.doubled == (4, 2, 0)


def test_d3_folding_example(groups):
    g = groups[("D", 3)]
    w = g.fold_sum([(-1, 6), (-1, 5)])
    expected = g.fundamental_weights[1] + g.fundamental_weights[2]
    assert w == expected


def test_a5_levi_longest_word(groups):
    g = groups[("A", 5)]
    w = g.levi_longest_word(2)
    assert w.permutation == (2, 1, 5, 4, 3)
    rep = g.levi_longest_representative(2)
    assert g.in_group(rep)


def test_cd_levi_longest_representatives(groups):
    for key in (("C", 2), ("C", 3), ("D", 3), ("D", 4)):
        g = groups[key]
        rep = g.levi_longest_representative()
        assert g.in_group(rep)
        center = rep.substitute({})
        # monomial matrix: one nonzero entry of value +-1 per column
        for j in range(1, g.size + 1):
            nonzero = [
                center[i, j]
                for i in range(1, g.size + 1)
                if not center[i, j].is_zero()
            ]
            assert len(nonzero) == 1
            assert nonzero[0].constant_value() in (1, -1)


def test_simple_reflection_representatives_in_group(groups):
    for g in groups.values():
        for i in range(1, g.rank + 1):
            assert g.in_group(g.simple_reflection_representative(i))


def test_root_heights_positive(groups):
    for g in groups.values():
        for root in g.positive_roots:
            assert g.root_height(root) >= 1
        for root in g.negative_roots:
            assert g.root_height(root) <= -1


def test_d2_flagged_not_simple(groups):
    assert groups[("D", 2)].not_simple
    assert not groups[("D", 3)].not_simple


def test_bad_family_rejected():
    with pytest.raises(Exception):
        build_group_datum("B", 3)

import pytest

from flagsplit.matrix import PolyMatrix, square_zero_entries
from flagsplit.rootdata import (
    FAMILY_A,
    FAMILY_C,
    FAMILY_D,
    ConventionError,
    Weight,
    build_group_datum,
)

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
    assert g.form == [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]]
    assert groups[("A", 3)].form is None


def test_orthogonal_form_convention(groups):
    g = groups[("D", 2)]
    assert g.form == [[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]]


def test_c2_negative_root_generators(groups):
    g = groups[("C", 2)]
    gens = {root.doubled: X for root, X in g.negative_root_generators()}
    assert len(gens) == 4

    def unit(entries):
        m = [[0] * 4 for _ in range(4)]
        for (i, j), c in entries.items():
            m[i - 1][j - 1] = c
        return m

    expected = [
        unit({(2, 1): 1, (4, 3): -1}),
        unit({(3, 2): 1}),
        unit({(3, 1): 1, (4, 2): 1}),
        unit({(4, 1): 1}),
    ]
    produced = list(gens.values())
    for X in expected:
        assert any(X == Y or X == [[-y for y in row] for row in Y]
                   for Y in produced)


def test_sl_weights_mod_all_ones():
    a = Weight(FAMILY_A, [2, 0, 0])
    b = Weight(FAMILY_A, [4, 2, 2])
    assert a == b
    # normalization commutes with addition
    c = Weight(FAMILY_A, [0, 2, 0])
    assert (a + c).doubled == (b + c).doubled


@pytest.mark.parametrize("make", [
    lambda: Weight(FAMILY_A, [2.9, 0, 0]),
    lambda: Weight(FAMILY_D, [1, 0.5]),
    lambda: Weight(FAMILY_A, [1, 0, 0]),
    lambda: Weight(FAMILY_A, [2, 3, 0]),
    lambda: Weight("X", [1]),
    lambda: Weight(FAMILY_A, [2, 0, 0]).scale(0.5),
], ids=["non-integral", "non-integral-D", "odd-A", "odd-A-middle",
        "unknown-family", "non-integral-scale"])
def test_weight_rejects_what_its_docstring_forbids(make):
    with pytest.raises(ValueError):
        make()


def test_weight_accepts_odd_spin_weights_and_integral_values():
    assert Weight(FAMILY_D, [1, 1, -1]).doubled == (1, 1, -1)
    assert Weight(FAMILY_A, [2.0, 0, 4]).doubled == (-2, -4, 0)
    assert Weight(FAMILY_D, [1, -1]).scale(3.0).doubled == (3, -3)


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
    assert g.in_group(PolyMatrix(rep))


def test_cd_levi_longest_representatives(groups):
    for key in (("C", 2), ("C", 3), ("D", 3), ("D", 4)):
        g = groups[key]
        rep = g.levi_longest_representative()
        assert g.in_group(PolyMatrix(rep))
        # monomial matrix: one nonzero entry of value +-1 per column
        for column in zip(*rep):
            nonzero = [x for x in column if x]
            assert len(nonzero) == 1 and nonzero[0] in (1, -1)


def test_simple_reflection_representatives_in_group(groups):
    for g in groups.values():
        for i in range(1, len(g.simple_roots) + 1):
            assert g.in_group(PolyMatrix(g.simple_reflection_representative(i)))


@pytest.mark.parametrize("family,n", [("A", 3), ("C", 2), ("D", 3)])
def test_simple_reflection_rejects_the_other_sign(family, n):
    """exp(X) exp(Y) exp(X) is never a representative, so a negated
    generator of -alpha is a convention error, not a retry."""
    g = build_group_datum(family, n)
    for i, alpha in enumerate(g.simple_roots, start=1):
        Y = g.root_generator[-alpha]
        g.root_generator[-alpha] = [[-y for y in row] for row in Y]
        with pytest.raises(ConventionError):
            g.simple_reflection_representative(i)
        g.root_generator[-alpha] = Y


def test_every_root_generator_squares_to_zero():
    """exp(tX) = I + tX rests on X^2 = 0 for every root generator of the
    supported families; the check hands back X's nonzero entries."""
    count = 0
    for family, sizes in (("A", range(2, 9)), ("C", range(2, 7)),
                          ("D", range(2, 7))):
        for n in sizes:
            for X in build_group_datum(family, n).root_generator.values():
                assert square_zero_entries(X) == [
                    (k, j, c) for k, row in enumerate(X)
                    for j, c in enumerate(row) if c]
                count += 1
    assert count == 488


@pytest.mark.parametrize("family,n", [("A", 3), ("C", 2), ("D", 3)])
def test_simple_reflection_rejects_a_generator_that_does_not_square_to_zero(
        family, n):
    """X + Y for the generators X, Y of alpha, -alpha has (X + Y)^2 != 0,
    so I + X is not exp(X) and no representative is formed."""
    g = build_group_datum(family, n)
    for i, alpha in enumerate(g.simple_roots, start=1):
        for root in (alpha, -alpha):
            X = g.root_generator[root]
            bad = [[a + b for a, b in zip(r1, r2)]
                   for r1, r2 in zip(X, g.root_generator[-root])]
            with pytest.raises(ValueError):
                square_zero_entries(bad)
            g.root_generator[root] = bad
            with pytest.raises(ConventionError):
                g.simple_reflection_representative(i)
            g.root_generator[root] = X


def test_levi_longest_representative_builds_each_reflection_once(monkeypatch):
    g = build_group_datum("D", 4)
    built = []
    build = type(g).simple_reflection_representative

    def counted(self, i):
        built.append(i)
        return build(self, i)

    monkeypatch.setattr(type(g), "simple_reflection_representative", counted)
    g.levi_longest_representative()
    assert g.levi_longest_word().word == (1, 2, 1, 3, 2, 1)
    assert sorted(built) == [1, 2, 3]


def test_root_heights_positive(groups):
    for g in groups.values():
        for root in g.positive_roots:
            assert g.root_height(root) >= 1
        for root in g.negative_roots:
            assert g.root_height(root) <= -1


def test_root_height_rejects_non_roots(groups):
    g = groups[("A", 3)]
    for weight in (Weight.zero(FAMILY_A, g.n), g.simple_roots[0].scale(2)):
        with pytest.raises(ConventionError):
            g.root_height(weight)


def test_bad_family_rejected():
    with pytest.raises(Exception):
        build_group_datum("B", 3)

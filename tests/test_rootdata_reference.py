"""The integer root data of flagsplit.rootdata against the earlier Fraction
and PolyMatrix implementation kept in tests/reference.py, the root spaces
against the constraint loop over every (a, b) and the integer nullspace
against the Fraction one, the form residual against the one written out
there, and the fast Weight arithmetic against the validating constructor."""

import random
from operator import add

import pytest
from hypothesis import example, given, settings, strategies as st

from flagsplit.charts import big_cell_chart, levi_center_chart, specialization_family
from flagsplit.matrix import PolyMatrix, exp_nilpotent, integer_nullspace
from flagsplit.poly import Polynomial
from flagsplit.rootdata import (
    FAMILY_A,
    FAMILY_C,
    FAMILY_D,
    Weight,
    build_group_datum,
)
from reference import (
    is_zero_rows,
    ref_form_residual,
    ref_exp_nilpotent,
    ref_chi,
    ref_levi_longest_representative,
    ref_lie_basis,
    ref_lie_constraint_ok,
    ref_matrix_identity,
    ref_negative_roots,
    ref_polymatrix_product,
    ref_primitive_nullspace,
    ref_root_height,
    ref_simple_reflection,
    ref_unipotent_factor,
)

T = Polynomial.variable("t")  # the variable of exp(tX)

GRID = ([("A", n) for n in range(2, 7)] + [("C", n) for n in range(2, 5)]
        + [("D", n) for n in range(2, 6)])
FORM_GRID = [key for key in GRID if key[0] != FAMILY_A]
# the root data itself, on the groups whose generators
# test_every_root_generator_squares_to_zero covers
ROOT_GRID = ([("A", n) for n in range(2, 9)] + [("C", n) for n in range(2, 7)]
             + [("D", n) for n in range(2, 7)])


@pytest.fixture(scope="module", params=GRID, ids=lambda key: f"{key[0]}{key[1]}")
def group(request):
    return build_group_datum(*request.param)


@pytest.fixture(scope="module", params=ROOT_GRID,
                ids=lambda key: f"{key[0]}{key[1]}")
def root_group(request):
    return build_group_datum(*request.param)


def nonzero_entries(X):
    """X's nonzero entries ((i, j), c), 1-based, as the library holds a
    root space."""
    return [((i + 1, j + 1), c) for i, row in enumerate(X)
            for j, c in enumerate(row) if c]


def levi_parabolics(group):
    return range(1, group.n) if group.family == FAMILY_A else [None]


def test_root_heights_match_reference(root_group):
    group = root_group
    for root in group.positive_roots + group.negative_roots:
        assert group.root_height(root) == ref_root_height(group, root)


def test_lie_basis_matches_reference(root_group):
    """Every root generator and its weight, in the order of the sorted
    weight classes."""
    assert ([(X, weight) for weight, X in root_group.root_generator.items()]
            == ref_lie_basis(root_group))


def test_negative_root_generators_match_reference(root_group):
    group = root_group
    gens = group.negative_root_generators()
    assert [root for root, _ in gens] == ref_negative_roots(group)
    for root, X in gens:
        assert X == group.root_generator[root]
        # in the Lie algebra, and supported on exactly the root's weight class
        if group.family == FAMILY_A:
            assert sum(X[i][i] for i in range(group.size)) == 0
        else:
            assert ref_lie_constraint_ok(group, X)
        support = {(i + 1, j + 1) for i, row in enumerate(X)
                   for j, x in enumerate(row) if x}
        assert support == {
            (i, j) for i in range(1, group.size + 1)
            for j in range(1, group.size + 1)
            if i != j and ref_chi(group, i) - ref_chi(group, j) == root
        }


def test_weyl_representatives_match_reference(group):
    for i in range(1, len(group.simple_roots) + 1):
        rep = group.simple_reflection_representative(i)
        assert rep == ref_simple_reflection(group, i).entries
    for r in levi_parabolics(group):
        assert (group.levi_longest_representative(r)
                == ref_levi_longest_representative(group, r).entries)


def test_exp_nilpotent_matches_reference(group):
    """left * exp(tX) for every root generator X, with left None, the
    identity, and a matrix of polynomials in t and two other names."""
    rng = random.Random(group.size)
    size = group.size

    def entry():
        if rng.random() < 0.5:
            return 0
        return Polynomial([({rng.choice("tuv"): rng.randint(1, 2)},
                            rng.randint(-3, 3)), ({}, rng.randint(-3, 3))])

    poly_left = PolyMatrix([[entry() for _ in range(size)] for _ in range(size)])
    for X in group.root_generator.values():
        want = ref_exp_nilpotent(PolyMatrix(X), "t")
        assert exp_nilpotent(X, T).entries == want.entries
        for left in (ref_matrix_identity(size), poly_left):
            assert (exp_nilpotent(X, T, left).entries
                    == ref_polymatrix_product(left, want).entries)


def test_charts_match_reference(group):
    big = big_cell_chart(group)
    u = ref_unipotent_factor(group, big.variables)
    assert big.matrix.entries == u.entries
    for r in levi_parabolics(group):
        rep = ref_levi_longest_representative(group, r)
        assert (levi_center_chart(big, r).matrix.entries
                == ref_polymatrix_product(rep, u).entries)


@pytest.mark.parametrize("key", FORM_GRID, ids=lambda key: f"{key[0]}{key[1]}")
def test_preserves_form_matches_reference(key):
    """M^T F M = F on chart and specialization matrices, and on copies with
    one entry bumped; a copy with its first row doubled always fails."""
    group = build_group_datum(*key)
    big = big_cell_chart(group)
    levi = levi_center_chart(big)
    rng = random.Random(group.size)
    size = group.size
    failed = 0
    if key in (("C", 2), ("D", 2), ("D", 3)):
        # every single entry in turn, below the diagonal too, because only
        # the entries (i, j) with i <= j of M^T F M are formed
        for m in (big.matrix, levi.matrix):
            for i in range(size):
                for j in range(size):
                    rows = [list(row) for row in m.entries]
                    rows[i][j] = rows[i][j] + Polynomial.variable("z")
                    copy = PolyMatrix(rows)
                    assert group.preserves_form(copy) == is_zero_rows(
                        ref_form_residual(copy, group.form))
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


@pytest.mark.parametrize("key", FORM_GRID, ids=lambda key: f"{key[0]}{key[1]}")
def test_lie_constraint_matches_dense_reference(key):
    """The X^T F + F X = 0 check on a generator's nonzero entries agrees
    with the dense one on every root generator, on each copy with one
    entry's sign flipped, and on every lone E_ij; a flip of one of two or
    more entries and a lone E_ij other than a long-root E_{i,i*} of C are
    rejected."""
    group = build_group_datum(*key)
    size = group.size
    for X in group.root_generator.values():
        assert (group._lie_constraint_ok(nonzero_entries(X))
                and ref_lie_constraint_ok(group, X))
        support = [(i, j) for i in range(size) for j in range(size) if X[i][j]]
        for i, j in support:
            flipped = [list(row) for row in X]
            flipped[i][j] = -flipped[i][j]
            holds = group._lie_constraint_ok(nonzero_entries(flipped))
            assert holds == ref_lie_constraint_ok(group, flipped)
            assert holds == (len(support) == 1)
    for i in range(size):
        for j in range(size):
            unit = [[int((a, b) == (i, j)) for b in range(size)]
                    for a in range(size)]
            holds = group._lie_constraint_ok(nonzero_entries(unit))
            assert holds == ref_lie_constraint_ok(group, unit)
            assert holds == (group.family == FAMILY_C and j == size - 1 - i)


@st.composite
def integer_rows(draw):
    ncols = draw(st.integers(1, 4))
    row = st.lists(st.integers(-2, 2), min_size=ncols, max_size=ncols)
    return draw(st.lists(row, max_size=6)), ncols


@given(integer_rows())
@settings(max_examples=300, deadline=None)
@example(([[0, 0, 0]], 3))  # a zero row
@example(([[1, 2, 0], [0, 1, -1], [2, 0, 1]], 3))  # full rank, square
@example(([[1, 0, 2, -1], [0, 1, -1, 2], [1, 1, 1, 1]], 4))  # nullity 2
def test_primitive_nullspace_matches_fraction_reference(case):
    rows, ncols = case
    want = ref_primitive_nullspace(rows, ncols)
    assert integer_nullspace(rows, ncols) == want


coordinates = st.lists(st.integers(-6, 6), min_size=3, max_size=3)


@given(st.sampled_from([FAMILY_A, FAMILY_C, FAMILY_D]), coordinates,
       coordinates)
@settings(max_examples=200, deadline=None)
@example(FAMILY_A, [1, 0, 1], [0, 1, 2])  # raw sum ends in 6, not 0
def test_weight_arithmetic_matches_constructor(family, x, y):
    """a + b, -a and a - b equal the Weight built from the raw
    coordinates, which for A end in a nonzero coordinate unless it is
    normalised away."""
    if family == FAMILY_A:  # doubled coordinates of A are even
        x, y = [2 * v for v in x], [2 * v for v in y]
    a, b = Weight(family, x), Weight(family, y)
    for fast, raw in ((a + b, list(map(add, x, y))), (-a, [-v for v in x]),
                      (a - b, [u - v for u, v in zip(x, y)])):
        want = Weight(family, raw)
        assert fast == want
        assert hash(fast) == hash(want)
        assert fast.doubled == want.doubled

import pytest

from flagsplit.charts import big_cell_chart, sl_entry_big_cell
from flagsplit.poly import Polynomial, poly_from_string
from flagsplit.rootdata import ConventionError, build_group_datum
from flagsplit.sections import (
    GroupSections,
    build_sigma_pair,
    equivariance_suite,
    row_exponent_vector,
)
from reference import (
    homogeneous_part,
    ref_equivariance_suite,
    ref_matrix_identity,
    sigma_plus_is_one_on_big_cell,
)

GRID = [("A", n) for n in range(2, 6)] + [("C", 2), ("C", 3), ("D", 2), ("D", 3)]


@pytest.fixture(scope="module")
def groups():
    return {(f, n): build_group_datum(f, n) for f, n in GRID}


def test_factor_row_lists(groups):
    plus, minus = build_sigma_pair(groups[("A", 5)])
    assert [s.rows for s in plus.factors] == [(1,), (1, 2), (1, 2, 3), (1, 2, 3, 4)]
    assert [s.rows for s in minus.factors] == [(5,), (5, 4), (5, 4, 3), (5, 4, 3, 2)]
    _, minus_c = build_sigma_pair(groups[("C", 3)])
    assert [s.rows for s in minus_c.factors] == [(6,), (6, 5), (6, 5, 4)]
    _, minus_d = build_sigma_pair(groups[("D", 3)])
    assert [s.rows for s in minus_d.factors] == [(6,), (6, 5)]


def test_weights_are_plus_minus_rho(groups):
    # build_sigma_pair raises unless the weights come out to +-rho;
    # assert the values explicitly anyway
    for g in groups.values():
        plus, minus = build_sigma_pair(g)
        assert minus.weight() == g.rho
        assert plus.weight() == -g.rho


def test_equivariance_identities(groups):
    for g in groups.values():
        results = equivariance_suite(GroupSections(g))
        assert results["diagonal_scaling"]
        assert results["right_column_stability"]
        exps = results["left_b_law"]["exponents"]
        assert exps == row_exponent_vector(build_sigma_pair(g)[1])


@pytest.mark.parametrize("family,n,r", [("A", n, r) for n in range(2, 6)
                                         for r in range(1, n)]
                         + [("C", 2, None), ("C", 3, None), ("D", 2, None),
                            ("D", 3, None), ("D", 4, None)])
def test_equivariance_matches_whole_product_reference(family, n, r):
    sections = GroupSections(build_group_datum(family, n), r)
    assert equivariance_suite(sections) == ref_equivariance_suite(sections)


def test_left_laws_fail_on_the_wrong_rows(groups):
    # the left laws hold for trailing rows under b and leading rows under l
    # only: with sigma_minus's and sigma_plus's rows exchanged, the first
    # factor breaks the law, and the message names it
    g = groups[("A", 4)]
    plus, minus = build_sigma_pair(g)
    swapped = GroupSections(g)
    swapped.pair = (minus, plus)
    with pytest.raises(ConventionError,
                       match=r"left B-law fails for MinorSpec\(\(1,\)\)"):
        equivariance_suite(swapped)
    # with the B-law's rows left right, law (iv) is reached and fails too
    trailing = GroupSections(g)
    trailing.pair = (minus, minus)
    with pytest.raises(ConventionError,
                       match=r"left B\^- law fails for MinorSpec\(\(4,\)\)"):
        equivariance_suite(trailing)


def test_sl6_suite_term_pairs_stay_low(monkeypatch):
    # the whole-product laws took 141,782 term pairs here
    sections = GroupSections(build_group_datum("A", 6), 3)
    sections.pair  # not counted
    pairs = []
    mul = Polynomial.__mul__

    def counted(a, b):
        if isinstance(b, Polynomial):
            pairs.append(len(a.terms) * len(b.terms))
        return mul(a, b)

    monkeypatch.setattr(Polynomial, "__mul__", counted)
    equivariance_suite(sections)
    assert sum(pairs) < 20_000


def test_left_b_law_exponents_a5(groups):
    # row a appears in the last a-1 trailing factors, so the diagonal
    # entry b_aa scales sigma_minus with exponent a-1
    _, minus = build_sigma_pair(groups[("A", 5)])
    assert row_exponent_vector(minus) == [0, 1, 2, 3, 4]


def test_sigma_plus_restricts_to_one(groups):
    for g in groups.values():
        plus, _ = build_sigma_pair(g)
        assert sigma_plus_is_one_on_big_cell(plus, big_cell_chart(g))


def test_sigma_minus_on_entry_cell_matches_hand_expansion(groups):
    _, minus = build_sigma_pair(groups[("A", 5)])
    factors = minus.evaluate_factors(sl_entry_big_cell(5).matrix)
    assert factors[0] == poly_from_string("g")
    assert factors[1] == poly_from_string("e*g - d*h")
    assert factors[1] == -poly_from_string("d*h - g*e")
    product = Polynomial.one()
    for f in factors:
        product = product * f
    # overall sign: the listed-order signs of the four factors cancel, so
    # the product equals the sorted-row-order product exactly
    hand = poly_from_string("g")
    hand = hand * poly_from_string("d*h - g*e")
    hand = hand * poly_from_string(
        "b*e*i - b*f*h - c*d*i + c*f*g + d*h - e*g"
    )
    hand = hand * poly_from_string(
        "a*c*f*j - a*c*i - a*e*j + a*h - b*f*j + b*i + d*j - g"
    )
    assert product == hand


def test_sigma_minus_vanishes_at_identity(groups):
    g = groups[("A", 4)]
    _, minus = build_sigma_pair(g)
    value = minus.evaluate(ref_matrix_identity(4))
    assert value.is_zero()


def test_entry_cell_factor_homogeneity(groups):
    g = groups[("A", 5)]
    _, minus = build_sigma_pair(g)
    chart = sl_entry_big_cell(5)
    factors = minus.evaluate_factors(chart.matrix)
    # each factor has top degree k (lower-degree terms come from the
    # unitriangular 1 entries) and order 1 at the origin
    for k, f in enumerate(factors, start=1):
        assert f.degree() == k
        assert not homogeneous_part(f, k).is_zero()
    product = Polynomial.one()
    for f in factors:
        product = product * f
    assert product.degree() == g.dim_flag_variety()

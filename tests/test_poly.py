import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from flagsplit.poly import (
    NotDivisibleError,
    Polynomial,
    divide_by_variable,
    order_at_origin,
    poly_from_string,
    poly_to_string,
)
from flagsplit.splitting import _line_restrictor
from reference import (
    homogeneous_part,
    power,
    ref_degrees,
    substituted,
    term_items,
)

VARS = ["x", "y", "z"]


def poly_strategy():
    coeff = st.integers(-9, 9)
    mono = st.dictionaries(st.sampled_from(VARS), st.integers(1, 3), max_size=3)
    term = st.tuples(mono, coeff)
    return st.lists(term, max_size=6).map(Polynomial)


@given(poly_strategy(), poly_strategy(), poly_strategy())
@settings(max_examples=60)
def test_ring_axioms_zz(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Polynomial.zero() == a
    assert a * Polynomial.one() == a
    assert a - a == Polynomial.zero()


def frobenius_defect_divisible(a, b, p):
    """Every coefficient of (a + b)^p - a^p - b^p is divisible by p."""
    defect = power(a + b, p) - power(a, p) - power(b, p)
    return all(c % p == 0 for c in defect.terms.values())


@given(poly_strategy(), poly_strategy())
@settings(max_examples=60)
def test_frobenius_mod_3(a, b):
    assert frobenius_defect_divisible(a, b, 3)


@given(poly_strategy(), poly_strategy())
@settings(max_examples=40)
def test_frobenius_mod_5(a, b):
    assert frobenius_defect_divisible(a, b, 5)


@given(poly_strategy(), poly_strategy())
@settings(max_examples=60)
def test_order_additivity(a, b):
    oa, ob = order_at_origin(a), order_at_origin(b)
    oab = order_at_origin(a * b)
    if a.is_zero() or b.is_zero():
        assert oab is None
    else:
        assert oab == oa + ob


@given(poly_strategy())
@settings(max_examples=60)
def test_canonical_form(a):
    for k, c in a.terms.items():
        assert c != 0
        assert a.layout.pack(a.layout.exponents(k)) == k
    used = {v for exps, _ in term_items(a) for v in exps}
    assert set(used) <= set(a.layout.names)
    assert a.variables() == sorted(used)
    assert list(ref_degrees(a)) == sorted(used)


@given(poly_strategy())
@settings(max_examples=60)
def test_string_round_trip(a):
    assert poly_from_string(poly_to_string(a)) == a


@pytest.mark.parametrize("text", ["", "   ", "\n\t"])
def test_blank_text_is_not_a_polynomial(text):
    # zero is spelled "0", the only text poly_to_string prints for it
    with pytest.raises(ValueError):
        poly_from_string(text)
    assert poly_from_string(f"{text}0{text}").is_zero()


def test_power_repeated_squaring():
    f = poly_from_string("x + y")
    assert power(f, 0) == Polynomial.one()
    assert power(f, 3) == poly_from_string("x^3 + 3*x^2*y + 3*x*y^2 + y^3")


def test_substitute_and_evaluate():
    f = poly_from_string("x^2*y - 2*y")
    g = substituted(f, {"x": poly_from_string("y + 1")})
    assert g == poly_from_string("y^3 + 2*y^2 - y")
    assert substituted(f, {"x": 3, "y": 2}) == 14
    assert substituted(f, {"x": 3, "y": 2, "unused": 5}) == 14
    # the library substitutes zeros only, and drops the names they kill
    assert f.substitute({"x": 0}) == poly_from_string("-2*y")
    assert f.substitute({"x": 0}).variables() == ["y"]
    assert f.substitute({"y": Polynomial.zero()}) == 0
    assert f.substitute({"unused": 0}) == f
    for value in (Fraction(1, 2), 3, poly_from_string("y + 1"), "0"):
        with pytest.raises(ValueError):
            f.substitute({"x": value})
    with pytest.raises(ValueError):
        f.substitute({"x": 0, "unused": 5})


def test_order_at_origin_examples():
    assert order_at_origin(poly_from_string("x*y + x^3")) == 2
    assert order_at_origin(Polynomial.zero()) is None
    assert order_at_origin(Polynomial.one()) == 0


def test_divide_by_variable():
    f = poly_from_string("x*y + x^2*z")
    assert divide_by_variable(f, "x") == poly_from_string("y + x*z")
    # the quotient drops a name that no longer occurs
    assert divide_by_variable(poly_from_string("x*y"), "x").variables() == ["y"]
    with pytest.raises(NotDivisibleError, match="y\\*z not divisible by x"):
        divide_by_variable(f + poly_from_string("y*z"), "x")
    with pytest.raises(NotDivisibleError):
        divide_by_variable(f, "w")
    assert divide_by_variable(Polynomial.zero(), "x") == 0


def test_line_restrict():
    f = poly_from_string("x*y + z")
    s = Polynomial.variable("s")
    g = substituted(f, {"x": 2 * s, "y": 3 * s, "z": 5 * s})
    assert g == poly_from_string("6*s^2 + 5*s")
    # an affine line through (1, 0, 4)
    g = substituted(f, {"x": 2 * s + 1, "y": 3 * s, "z": 5 * s + 4})
    assert g == poly_from_string("6*s^2 + 8*s + 4")
    # the same line as an integer coefficient list, constant term first,
    # from f alone and from f as the product x*y + z times 1
    for factors in ([f], [f, Polynomial.constant(1)]):
        names, restrict = _line_restrictor(factors)
        assert names == VARS
        assert restrict([1, 0, 4], [2, 3, 5]) == [4, 8, 6]


def test_homogeneous_part():
    f = poly_from_string("x^2 + x*y + z")
    assert homogeneous_part(f, 2) == poly_from_string("x^2 + x*y")
    assert homogeneous_part(f, 1) == poly_from_string("z")


def test_coefficients_must_be_integral():
    assert Polynomial.constant(Fraction(4, 2)) == 2
    with pytest.raises(ValueError):
        Polynomial.constant(Fraction(1, 2))
    with pytest.raises(ValueError):
        Polynomial.constant(1.5)
    with pytest.raises(ValueError):
        Polynomial([({"x": 1}, Fraction(1, 2))])
    with pytest.raises(ValueError):
        poly_from_string("x") + Fraction(1, 2)
    assert poly_from_string("x") != Fraction(1, 2)
    assert Polynomial.constant(2) != Fraction(5, 2)


def test_constructor_takes_dicts_or_pairs():
    f = Polynomial([({"x": 2, "y": 1}, 3), ((("y", 1), ("x", 2)), -1),
                    ({"z": 0}, 4), ({"w": 5}, 0)])
    assert f == poly_from_string("2*x^2*y + 4")
    assert f.variables() == ["x", "y"]
    # a repeated name adds up, in the degree field as in its own
    assert Polynomial([((("x", 1), ("x", 1)), 1)]) == poly_from_string("x^2")
    # cancelling terms leave their names out of what a caller sees
    g = Polynomial([({"x": 1}, 1), ({"y": 1}, 1), ({"x": 1}, -1)])
    assert g == Polynomial.variable("y")
    assert g.variables() == ["y"] and list(ref_degrees(g)) == ["y"]
    assert Polynomial([({"x": 1}, 2), ({"x": 1}, -2)]) == 0
    assert Polynomial().is_zero()
    with pytest.raises(ValueError):
        Polynomial([({"x": -1}, 1)])


def test_print_order_is_graded_by_exponent_pairs():
    # by degree, then by the (name, exponent) pairs: y^2 before x*z,
    # which packed-key order would reverse
    assert str(poly_from_string("x*z + y^2 + x^2 + z")) == "y^2 + x^2 + x*z + z"
    assert str(poly_from_string("3 - x*y^2 + 2*x^3")) == "2*x^3 - x*y^2 + 3"


@given(poly_strategy())
@settings(max_examples=60)
def test_unit_factor_returns_the_other_factor(a):
    for product in (1 * a, a * 1, Polynomial.one() * a, a * Polynomial.one()):
        assert product.layout is a.layout
        assert product.terms == a.terms


def test_constant_polynomials_hash_as_their_value():
    for c in (0, 3, -7, 2**70):
        p = Polynomial.constant(c)
        assert hash(p) == hash(c) == hash(Fraction(c))
        assert len({p, c}) == 1
        assert len({p, Fraction(c)}) == 1
        assert {p: "poly"}[c] == "poly"
        assert {c: "int"}[p] == "int"
        assert {Fraction(c): "fraction"}[p] == "fraction"
    assert len({Polynomial.zero(), 0, Polynomial.constant(0)}) == 1
    assert len({Polynomial.constant(3), 3, poly_from_string("x")}) == 2

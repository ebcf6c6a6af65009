import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from flagsplit.poly import (
    INFINITE_ORDER,
    Monomial,
    NotDivisibleError,
    Polynomial,
    line_restrict,
    order_at_origin,
    poly_from_string,
    poly_to_string,
    zero_out_and_divide,
)

VARS = ["x", "y", "z"]


def poly_strategy():
    coeff = st.integers(-9, 9)
    mono = st.dictionaries(st.sampled_from(VARS), st.integers(1, 3), max_size=3)
    term = st.tuples(mono, coeff)
    return st.lists(term, max_size=6).map(
        lambda ts: Polynomial([(Monomial(m), c) for m, c in ts])
    )


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
    defect = (a + b) ** p - a**p - b**p
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
        assert oab is INFINITE_ORDER
    else:
        assert oab == oa + ob


@given(poly_strategy())
@settings(max_examples=60)
def test_canonical_form(a):
    for m, c in a.terms.items():
        assert c != 0
        assert all(e > 0 for _, e in m.exps)
    assert a.layout.names == tuple(sorted({v for m in a.terms for v in m.variables()}))


@given(poly_strategy())
@settings(max_examples=60)
def test_string_round_trip(a):
    assert poly_from_string(poly_to_string(a)) == a


def test_power_repeated_squaring():
    f = poly_from_string("x + y")
    assert f**0 == Polynomial.one()
    assert f**3 == poly_from_string("x^3 + 3*x^2*y + 3*x*y^2 + y^3")


def test_substitute_and_evaluate():
    f = poly_from_string("x^2*y - 2*y")
    g = f.substitute({"x": poly_from_string("y + 1")})
    assert g == poly_from_string("y^3 + 2*y^2 - y")
    assert f.evaluate({"x": 3, "y": 2}) == 14
    assert f.evaluate({"x": Fraction(1, 2), "y": 4}) == Fraction(-7)


def test_order_at_origin_examples():
    assert order_at_origin(poly_from_string("x*y + x^3")) == 2
    assert order_at_origin(Polynomial.zero()) is INFINITE_ORDER
    assert order_at_origin(Polynomial.one()) == 0


def test_zero_out_and_divide():
    f = poly_from_string("x*y + x^2*z + y*z")
    # zero z, then divide by x: (xy)/x = y
    assert zero_out_and_divide(f, ("z",), "x") == poly_from_string("y")
    # zero x kills terms with x; remaining yz divisible by y
    assert zero_out_and_divide(f, ("x",), "y") == poly_from_string("z")
    with pytest.raises(NotDivisibleError):
        zero_out_and_divide(f, (), "x")
    assert zero_out_and_divide(poly_from_string("x*y"), ("x",), "y") is None


def test_line_restrict():
    f = poly_from_string("x*y + z")
    g = line_restrict(f, {"x": 2, "y": 3, "z": 5})
    assert g == poly_from_string("6*s^2 + 5*s")


def test_homogeneous_part():
    f = poly_from_string("x^2 + x*y + z")
    assert f.homogeneous_part(2) == poly_from_string("x^2 + x*y")
    assert f.homogeneous_part(1) == poly_from_string("z")


def test_coefficients_must_be_integral():
    assert Polynomial.constant(Fraction(4, 2)) == 2
    with pytest.raises(ValueError):
        Polynomial.constant(Fraction(1, 2))
    with pytest.raises(ValueError):
        Polynomial.constant(1.5)
    with pytest.raises(ValueError):
        Polynomial([(Monomial({"x": 1}), Fraction(1, 2))])
    with pytest.raises(ValueError):
        poly_from_string("x") + Fraction(1, 2)

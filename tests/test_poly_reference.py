"""Packed-exponent polynomials against the naive reference in reference.py,
plus the guarantees of the packed format itself."""

import pytest
from hypothesis import given, settings, strategies as st

from flagsplit.poly import (
    FIELD_BITS,
    MAX_DEGREE,
    DegreeOverflowError,
    Monomial,
    NotDivisibleError,
    Polynomial,
    zero_out_and_divide,
)
from reference import (
    ref_add,
    ref_from_terms,
    ref_mul,
    ref_neg,
    ref_of,
    ref_pow,
    ref_substitute,
    ref_zero_out_and_divide,
)

# Operands draw their variables from overlapping pools, so most pairs have
# different layouts and some share one.
POOLS = [("x", "y", "z"), ("w", "y", "z"), ("a", "x"), ("y",)]


def raw_terms(pool):
    mono = st.dictionaries(st.sampled_from(pool), st.integers(1, 3), max_size=3)
    return st.lists(st.tuples(mono, st.integers(-9, 9)), max_size=5)


operand = st.sampled_from(POOLS).flatmap(raw_terms)


def build(terms):
    """The same polynomial through the library and through the reference."""
    return Polynomial([(Monomial(m), c) for m, c in terms]), ref_from_terms(terms)


@given(operand, operand)
@settings(max_examples=80, deadline=None)
def test_arithmetic_matches_reference(ta, tb):
    a, ra = build(ta)
    b, rb = build(tb)
    assert ref_of(a) == ra
    assert ref_of(a + b) == ref_add(ra, rb)
    assert ref_of(a - b) == ref_add(ra, ref_neg(rb))
    assert ref_of(a * b) == ref_mul(ra, rb)
    assert ref_of(a * 2) == ref_mul(ra, {(): 2})
    for c in (0, 1, -1):
        assert ref_of(a + c) == ref_add(ra, ref_from_terms([({}, c)]))


@given(operand, st.integers(0, 4))
@settings(max_examples=60, deadline=None)
def test_power_matches_reference(ta, e):
    a, ra = build(ta)
    assert ref_of(a**e) == ref_pow(ra, e)


@given(operand, st.dictionaries(st.sampled_from(["x", "y", "z", "w"]),
                                st.sampled_from(POOLS).flatmap(raw_terms),
                                max_size=3))
@settings(max_examples=60, deadline=None)
def test_substitute_matches_reference(ta, assignment):
    a, ra = build(ta)
    built = {v: build(t) for v, t in assignment.items()}
    got = a.substitute({v: poly for v, (poly, _) in built.items()})
    assert ref_of(got) == ref_substitute(ra, {v: r for v, (_, r) in built.items()})


@given(operand, st.dictionaries(st.sampled_from(["a", "w", "x", "y", "z", "q"]),
                                st.integers(0, 3), max_size=3))
@settings(max_examples=60, deadline=None)
def test_coeff_of_matches_reference(ta, probe):
    a, ra = build(ta)
    for m, c in ra.items():
        assert a.coeff_of(Monomial(m)) == c
    assert a.coeff_of(probe) == ra.get(Monomial(probe).exps, 0)


@given(operand, st.sets(st.sampled_from(["x", "y", "z", "w"]), max_size=2),
       st.sampled_from(["x", "y", "z", "w", "a"]))
@settings(max_examples=80, deadline=None)
def test_zero_out_and_divide_matches_reference(ta, zeroed, divisor):
    zeroed.discard(divisor)
    a, ra = build(ta)
    want = ref_zero_out_and_divide(ra, zeroed, divisor)
    if want == "not divisible":
        with pytest.raises(NotDivisibleError):
            zero_out_and_divide(a, zeroed, divisor)
        return
    got = zero_out_and_divide(a, zeroed, divisor)
    assert (None if got is None else ref_of(got)) == want


@given(operand, operand)
@settings(max_examples=60, deadline=None)
def test_hash_and_eq_do_not_depend_on_layout(ta, tb):
    a, _ = build(ta)
    b, _ = build(tb)
    # the same polynomial reached over the union layout of a and b
    detour = (a + b) - b
    assert detour == a
    assert hash(detour) == hash(a)
    assert detour.variables() == a.variables()
    assert (a * b == b * a) and hash(a * b) == hash(b * a)


def test_product_at_the_degree_limit_keeps_fields_apart():
    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    half = (MAX_DEGREE - 1) // 2
    f = x**half * y
    g = f * x**half  # total degree exactly MAX_DEGREE
    assert g.degree() == MAX_DEGREE
    assert dict(g.terms) == {Monomial({"x": 2 * half, "y": 1}): 1}
    with pytest.raises(DegreeOverflowError):
        g * x
    with pytest.raises(DegreeOverflowError):
        x ** (MAX_DEGREE + 1)
    with pytest.raises(DegreeOverflowError):
        Polynomial([(Monomial({"x": MAX_DEGREE, "y": 1}), 1)])
    assert x.coeff_of({"x": MAX_DEGREE + 1}) == 0


def test_field_positions_ignore_unrelated_names():
    # names seen earlier in the process must not widen later keys
    for i in range(1000):
        Polynomial.variable(f"u{i:04d}") * Polynomial.variable(f"k{i}")
    x, y, z = (Polynomial.variable(v) for v in ("m", "u0500", "v"))
    f = (x + 2 * y * z + 1) ** 2 - x * z
    limit = (len(f.variables()) + 1) * FIELD_BITS
    assert all(key.bit_length() <= limit for key in (f * f).packed)

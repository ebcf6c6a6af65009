"""Packed-exponent polynomials against the naive reference in reference.py,
plus the guarantees of the packed format itself: a polynomial reads the
same over any layout that holds its names, and the arithmetic of one chart
or one identity suite stays on one layout.  The squarefree probe's line
restriction is checked against the expanded product of its factors."""

from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from flagsplit import poly
from flagsplit.poly import (
    EMPTY_LAYOUT,
    FIELD_BITS,
    MAX_DEGREE,
    DegreeOverflowError,
    NotDivisibleError,
    Polynomial,
    divide_by_variable,
    order_at_origin,
)
from flagsplit.rootdata import build_group_datum
from flagsplit.sections import GroupSections, equivariance_suite
from flagsplit.splitting import (
    _line_restrictor,
    local_splitting_coefficient,
    splitting_coefficient,
    squarefree_probe,
)
from flagsplit.vanishing import max_multiplicity_verdict
from reference import (
    RecordingGuard,
    power,
    ref_add,
    ref_degrees,
    ref_divide_by_variable,
    ref_from_terms,
    ref_line_restriction,
    ref_mul,
    ref_neg,
    ref_of,
    ref_pow,
    ref_row,
    ref_substitute,
    ref_window_trace,
    widened,
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
    return Polynomial(terms), ref_from_terms(terms)


@given(operand, operand)
@settings(max_examples=80, deadline=None)
# operands over different layouts: interleaved names, and a key whose one
# large field lands in another place of the union layout
@example([({"a": 1, "c": 2}, 3), ({"c": 1}, -1)],
         [({"b": 2, "d": 1}, 1), ({"d": 3}, 5), ({}, 2)])
@example([({"x": 30000}, 1)], [({"w": 2, "z": 1}, -4)])
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
    assert ref_of(power(a, e)) == ref_pow(ra, e)


# "q" occurs in no operand
names = st.sampled_from(["a", "w", "x", "y", "z", "q"])
zero = st.sampled_from([0, Polynomial.zero()])
nonzero = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.sampled_from(POOLS).flatmap(raw_terms).map(Polynomial).filter(
        lambda p: not p.is_zero()),
)


def window_trace(factors, window, p):
    """The splitting verdict over `window` and the windowed g after each
    product, which the coefficient repacks from the factors' layouts."""
    guard = RecordingGuard()
    verdict = splitting_coefficient(factors, sorted(window), p, guard=guard)
    return verdict, guard.seen


# the window of the splitting coefficient: g after every product keeps the
# terms whose decoded exponents stay in p - 1 - room_v <= e_v <= p - 1;
# two operands seldom share a layout, and "q" is in no term
@given(operand, operand, st.sets(names, max_size=4), st.sampled_from([3, 5, 7]))
@settings(max_examples=150, deadline=None)
def test_within_matches_decoded_exponents(ta, tb, window, p):
    a, b = Polynomial(ta), Polynomial(tb)
    for factors in ([a], [a, b]):
        verdict, seen = window_trace(factors, window, p)
        assert verdict.status == "computed"
        assert seen == ref_window_trace(factors, sorted(window), p)


def test_within_at_the_field_limits():
    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    top = power(x, MAX_DEGREE)
    # a zero factor leaves nothing in the window
    verdict, seen = window_trace([Polynomial.zero()], {"x"}, 3)
    assert (verdict.coefficient, verdict.degree, seen) == (0, -1, [[]])
    # x^MAX_DEGREE passes p - 1 and leaves; x stays
    verdict, seen = window_trace([x + top], {"x"}, 3)
    assert (verdict.coefficient, verdict.degree, seen) == (1, MAX_DEGREE, [[1]])
    # a free name reaches its cap MAX_DEGREE - 1 and stays; the target
    # x^2 y^0 is not in (y^(MAX_DEGREE // 2) + x)^4
    half = power(y, MAX_DEGREE // 2)
    verdict, seen = window_trace([half + x] * 2, {"x"}, 3)
    assert seen == [[1, 1], [1, 1, 2]]
    assert (verdict.coefficient, verdict.degree) == (0, MAX_DEGREE - 1)
    # a free name's product past MAX_DEGREE is not built: the verdict names
    # the limit
    verdict, seen = window_trace([top], set(), 5)
    assert verdict.status != "computed" and seen == [[1]]
    assert str(MAX_DEGREE) in verdict.guard_reason


# exponents of every bit length up to the field's; three names stay within
# MAX_DEGREE in total
wide_operand = st.sampled_from(POOLS).flatmap(lambda pool: st.lists(st.tuples(
    st.dictionaries(st.sampled_from(pool), st.integers(1, MAX_DEGREE // 3),
                    max_size=3),
    st.integers(-9, 9)), max_size=5))


@given(st.one_of(operand, wide_operand))
@example([({"x": MAX_DEGREE}, 1), ({"x": 1, "y": 2}, 3)])  # at MAX_DEGREE
@example([({"y": 3}, 1), ({"y": 1}, -2)])  # one name
@example([({"x": 2, "z": 5}, 4)])  # one term
@example([])  # zero
@example([({}, -7)])  # a constant
@settings(max_examples=150, deadline=None)
def test_degrees_match_decoded_exponents(ta):
    a, _ = build(ta)
    rows = a.layout.rows(a.terms)
    assert rows == [ref_row(a.layout, k) for k in a.terms]
    used = sorted({v for k in a.terms for v, _ in a.layout.exponents(k)})
    want = {v: max(dict(a.layout.exponents(k)).get(v, 0) for k in a.terms)
            for v in used}
    # the column maxima of the rows, past the total degree
    tops = list(map(max, zip(*rows)))[1:]
    got = {v: e for v, e in zip(a.layout.names, tops) if e}
    assert got == want == ref_degrees(a)
    assert list(got) == used == a.variables()  # name order
    if a.is_constant():
        assert got == {}
    if a.terms and a.is_constant():  # the constant key 0 over no names
        assert a.layout is EMPTY_LAYOUT and rows == [(0,)]


@given(operand, st.dictionaries(names, zero, max_size=4))
@settings(max_examples=100, deadline=None)
def test_substitute_matches_reference(ta, assignment):
    a, ra = build(ta)
    got = a.substitute(assignment)
    want = ref_substitute(ra, dict.fromkeys(assignment, {}))
    assert ref_of(got) == want
    # the layout keeps exactly the names that still occur
    assert got.variables() == sorted({v for m in want for v, _ in m})


@given(operand, st.dictionaries(names, zero, max_size=3), names, nonzero)
@settings(max_examples=60, deadline=None)
def test_substitute_rejects_nonzero_values(ta, assignment, name, value):
    a, _ = build(ta)
    with pytest.raises(ValueError):
        a.substitute({**assignment, name: value})


# every pool name, plus "q" and "u", which no operand uses; values from a
# small range, the probe's 7-digit range and +-2^80
value = st.one_of(st.integers(-4, 4), st.integers(-10**6, 10**6),
                  st.integers(-2**80, 2**80))
line = st.fixed_dictionaries(
    {v: value for v in ("a", "w", "x", "y", "z", "q", "u")})
R = 2**80 - 1  # the largest reach of 80 bits


@given(st.lists(operand, max_size=3), line, line)
@example([], {}, {})  # no factors: f = 1
@example([[]], {}, {})  # zero
@example([[], [({"x": 1}, 1)]], {"x": 1}, {"x": 2})  # a zero factor
# a constant factor; q and u are in no layout
@example([[({}, -7)]], {"q": 2**80}, {})
@example([[({}, -7)], [({"x": 1, "y": 1}, 1)]], {"x": 3, "y": -2, "q": 2**80},
         {"x": 1, "y": 5, "u": -2**80})
# (x*y + z) on (1, 0, 4) + (2, 3, 5)*s is 6*s^2 + 8*s + 4
@example([[({"x": 1, "y": 1}, 1), ({"z": 1}, 1)]], {"x": 1, "y": 0, "z": 4},
         {"x": 2, "y": 3, "z": 5})
# factors over disjoint names, and over shared names, (x + y)(x - y)
@example([[({"a": 2}, 3), ({"x": 1}, -1)], [({"w": 1, "z": 1}, 2), ({}, 5)]],
         {"a": 4, "w": -3, "x": 1, "z": 2}, {"a": -1, "w": 2, "x": 7, "z": 1})
@example([[({"x": 1}, 1), ({"y": 1}, 1)], [({"x": 1}, 1), ({"y": 1}, -1)]],
         {"x": R, "y": -R}, {"x": -R, "y": R})
# p = 0 puts all of ||f||_1 * reach^deg f = 7 * R^2 in one digit, 7/8 of
# X/2: positive, then, with alternating signs, negative
@example([[({"x": 2}, 3), ({"x": 1, "y": 1}, 4)]], {"x": 0, "y": 0},
         {"x": R, "y": R})
@example([[({"x": 2}, -3), ({"x": 1, "y": 1}, 4)]], {"x": 0, "y": 0},
         {"x": R, "y": -R})
@example([[({"x": 2}, 3), ({"x": 1, "y": 1}, 4)]], {"x": R, "y": R},
         {"x": R, "y": R})
@example([[({"x": 2}, 3), ({"x": 1, "y": 1}, -4)]], {"x": R, "y": -R},
         {"x": -R, "y": R})
# reach 0: the constant term survives although 0^deg f = 0
@example([[({}, 1), ({"x": 1}, 1)], [({}, -2), ({"y": 1}, 1)]],
         {"x": 0, "y": 0}, {"x": 0, "y": 0})
@settings(max_examples=100, deadline=None)
def test_restrict_to_line_matches_substitute(tfactors, point, direction):
    factors = [Polynomial(t) for t in tfactors]
    refs = [ref_from_terms(t) for t in tfactors]
    variables, restrict = _line_restrictor(factors)
    assert variables == sorted(set().union(*(m.variables() for m in factors)))
    # the same factors over wider layouts restrict alike, over f's names
    wide_names, wide = _line_restrictor(
        [widened(m, {"a", "q", "u"}) for m in factors])
    assert wide_names == variables
    norm = prod(sum(map(abs, r.values())) for r in refs)
    degree = max(sum(m.degree() for m in factors), 0)
    # one restrictor serves many lines
    for p, d in ((point, direction), (direction, point)):
        want = ref_line_restriction(refs, p, d)
        on_line = [p[v] for v in variables], [d[v] for v in variables]
        assert restrict(*on_line) == wide(*on_line) == want
        # the bound that sizes the digits holds
        reach = max((abs(p[v]) + abs(d[v]) for v in variables), default=0)
        assert all(abs(c) <= norm * max(reach, 1) ** degree for c in want)


@given(operand, st.dictionaries(st.sampled_from(["a", "w", "x", "y", "z", "q"]),
                                st.integers(0, 3), max_size=3))
@settings(max_examples=60, deadline=None)
def test_terms_get_matches_reference(ta, probe):
    a, ra = build(ta)
    for m, c in ra.items():
        key = a.layout.pack(m)
        assert a.terms[key] == c
        assert a.layout.exponents(key) == m
    # pack gives None for a name outside the layout, which no key equals
    pairs = tuple(sorted((v, e) for v, e in probe.items() if e))
    assert a.terms.get(a.layout.pack(pairs), 0) == ra.get(pairs, 0)


@given(operand, st.sampled_from(["x", "y", "z", "w", "a"]))
@settings(max_examples=80, deadline=None)
def test_divide_by_variable_matches_reference(ta, divisor):
    a, ra = build(ta)
    want = ref_divide_by_variable(ra, divisor)
    if want is None:
        with pytest.raises(NotDivisibleError):
            divide_by_variable(a, divisor)
    else:
        assert ref_of(divide_by_variable(a, divisor)) == want


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


def outcome(f, *args):
    """f(*args), or the type of the exception it raises."""
    try:
        return f(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def seen(p):
    """What a caller reads off p; none of it is the layout."""
    return (ref_of(p), str(p), hash(p), p.degree(), list(ref_degrees(p).items()),
            p.variables(), p.is_constant(), order_at_origin(p))


@given(operand, operand, st.sets(names, min_size=1, max_size=4),
       st.sampled_from([3, 5]), st.sets(names, max_size=3))
@example([], [({"x": 1}, 1)], {"x", "q"}, 3, {"x"})  # zero
@example([({}, -7)], [({"y": 2}, 1)], {"q", "y"}, 3, {"q"})  # a constant
@example([({"x": 2}, 3)], [({"x": 1}, 1)], {"q"}, 3, set())  # q: in no term
@settings(max_examples=100, deadline=None)
def test_superset_layout_matches_own_layout(ta, tb, extra, prime, window):
    a, b = Polynomial(ta), Polynomial(tb)
    wa, wb = widened(a, extra), widened(b, extra)
    assert set(extra) <= set(wa.layout.names)
    for p, w in ((a, wa), (b, wb)):
        assert w == p and p == w
        assert seen(w) == seen(p)
        if p.is_constant():
            c = p.constant_value()
            assert w == c and hash(w) == hash(c)
            with pytest.raises(ValueError):
                squarefree_probe(w, trials=2)
        else:
            assert squarefree_probe(w, trials=2) == squarefree_probe(p, trials=2)
        (vw, tw), (vp, tp) = (window_trace([g], window, prime) for g in (w, p))
        assert (vw.serialize(), tw) == (vp.serialize(), tp)
        zeros = dict.fromkeys(window, 0)
        assert seen(w.substitute(zeros)) == seen(p.substitute(zeros))
        for v in "aqwxyz":
            assert (outcome(lambda: seen(divide_by_variable(w, v)))
                    == outcome(lambda: seen(divide_by_variable(p, v))))
            if v in w.layout.names and v not in p.variables():
                assert v not in w.variables()
                if not p.is_zero():
                    with pytest.raises(NotDivisibleError):
                        divide_by_variable(w, v)
    for x, y in ((wa, b), (a, wb), (wa, wb)):
        assert seen(x + y) == seen(a + b)
        assert seen(x - y) == seen(a - b)
        assert seen(x * y) == seen(a * b)
        assert (x == y) == (a == b)


@pytest.mark.parametrize("verdict", [
    lambda: local_splitting_coefficient(build_group_datum("A", 5), 5),
    lambda: local_splitting_coefficient(build_group_datum("C", 3), 5),
    lambda: local_splitting_coefficient(build_group_datum("D", 4), 3),
    lambda: equivariance_suite(GroupSections(build_group_datum("D", 3))),
    lambda: max_multiplicity_verdict(GroupSections(build_group_datum("D", 3))),
], ids=["sl5-p5", "sp3-p5", "so4-p3", "so3-equivariance", "so3-orders"])
def test_chart_and_suite_arithmetic_never_repacks(monkeypatch, verdict):
    # every polynomial of one chart or suite shares its layout, so no sum,
    # product or comparison moves a key between layouts
    moves = []
    repack = poly._repack

    def counting(terms, source, target):
        if source is not target:
            moves.append(len(terms))
        return repack(terms, source, target)

    monkeypatch.setattr(poly, "_repack", counting)
    verdict()
    assert moves == []


def test_product_at_the_degree_limit_keeps_fields_apart():
    x, y = Polynomial.variable("x"), Polynomial.variable("y")
    half = (MAX_DEGREE - 1) // 2
    f = power(x, half) * y
    g = f * power(x, half)  # total degree exactly MAX_DEGREE
    assert g.degree() == MAX_DEGREE
    assert ref_of(g) == {(("x", 2 * half), ("y", 1)): 1}
    with pytest.raises(DegreeOverflowError):
        g * x
    with pytest.raises(DegreeOverflowError):
        power(x, MAX_DEGREE + 1)
    with pytest.raises(DegreeOverflowError):
        Polynomial([({"x": MAX_DEGREE, "y": 1}, 1)])
    with pytest.raises(DegreeOverflowError):
        x.layout.pack([("x", MAX_DEGREE + 1)])


def test_field_positions_ignore_unrelated_names():
    # names seen earlier in the process must not widen later keys
    for i in range(1000):
        Polynomial.variable(f"u{i:04d}") * Polynomial.variable(f"k{i}")
    x, y, z = (Polynomial.variable(v) for v in ("m", "u0500", "v"))
    f = power(x + 2 * y * z + 1, 2) - x * z
    limit = (len(f.variables()) + 1) * FIELD_BITS
    assert all(key.bit_length() <= limit for key in (f * f).terms)

import hashlib
import itertools
import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from flagsplit import sections, splitting
from flagsplit.charts import big_cell_chart, sl_entry_big_cell
from flagsplit.cli import SuiteConfig, appendix_check, load_golden_chain, run_suite
from flagsplit.poly import (
    MAX_DEGREE,
    Layout,
    NotDivisibleError,
    Polynomial,
    divide_by_variable,
    order_at_origin,
    poly_from_string,
)
from flagsplit.rootdata import build_group_datum
from flagsplit.sections import GroupSections, SectionProduct, build_sigma_pair
from flagsplit.splitting import (
    NOT_COMPUTED,
    ResourceGuard,
    RncCertificate,
    RncVerifyError,
    _line_restrictor,
    is_odd_prime,
    local_splitting_coefficient,
    rnc_search,
    rnc_verify,
    skew_minor_claim,
    splitting_coefficient,
    squarefree_probe,
)
from reference import (
    RecordingGuard,
    chain_state,
    homogeneous_part,
    power,
    rational_matrix_rank,
    ref_of,
    ref_gcd_degree_rational,
    ref_pow,
    ref_splitting_coefficient,
    ref_window_trace,
    term_items,
    widened,
)


def sigma_minus_on_entry_cell(n):
    group = build_group_datum("A", n)
    chart = sl_entry_big_cell(n)
    _, minus = build_sigma_pair(group)
    return minus.evaluate(chart.matrix), chart


# ---------------------------------------------------------------------------
# golden chain
# ---------------------------------------------------------------------------

def test_golden_chain_verifies_against_fresh_sigma_minus():
    cert = appendix_check()
    assert cert.variable_order == list("gdhbeiacfj")
    assert cert.unit == 1


def test_golden_chain_anchor_values():
    chain = load_golden_chain().chain
    assert chain[5] == poly_from_string("a*c*f*i*j - a*c*i^2 - a*e*i*j")
    assert chain[6] == poly_from_string("a*c*f*j - a*c*i")
    assert chain[7] == poly_from_string("c*f*j")
    assert chain[8] == poly_from_string("f*j")
    assert chain[9] == poly_from_string("j")
    assert chain[10] == Polynomial.one()


def test_golden_chain_serializes_to_the_shipped_file():
    # the shipped strings are in print order, so this pins that order
    shipped = (Path(splitting.__file__).parent / "data"
               / "appendix_n5_chain.json")
    assert load_golden_chain().serialize() == json.loads(shipped.read_text())


def test_golden_chain_tamper_detection():
    cert = load_golden_chain()
    f0 = cert.chain[0]
    bad = RncCertificate(cert.variable_order, list(cert.chain), cert.unit)
    bad.chain[7] = poly_from_string("c*f*j + c")
    with pytest.raises(RncVerifyError):
        rnc_verify(f0, bad)


# ---------------------------------------------------------------------------
# rnc verify / search
# ---------------------------------------------------------------------------

def test_rnc_verify_normal_crossing():
    f0 = poly_from_string("x*y")
    cert = RncCertificate(
        ["x", "y"], [f0, poly_from_string("y"), Polynomial.one()], 1
    )
    assert rnc_verify(f0, cert)


def test_rnc_verify_rejects_non_reduced():
    f0 = poly_from_string("x^2")
    cert = RncCertificate(
        ["x"], [f0, poly_from_string("x")], 1
    )
    with pytest.raises(RncVerifyError):
        rnc_verify(f0, cert)


def test_rnc_search_single_variable():
    out = rnc_search(poly_from_string("x"))
    assert isinstance(out, RncCertificate)
    assert out.variable_order == ["x"]
    assert out.chain[-1] == Polynomial.one()


def test_rnc_search_exhausted_matches_brute_force():
    f0 = poly_from_string("x*y + y*z + z*x")
    out = rnc_search(f0)
    assert out["status"] == "exhausted"
    # independent brute force over every variable order
    for order in itertools.permutations("xyz"):
        state = f0
        alive = True
        for v in order:
            items = term_items(state)
            if any(v not in exps for exps, _ in items):
                alive = False
                break
            state = Polynomial([
                ({**exps, v: exps[v] - 1}, c) for exps, c in items
            ]).substitute({v: 0})
            if state.is_zero():
                alive = False
                break
        assert not (alive and state.is_constant()), order


@pytest.mark.parametrize("n", range(2, 7))
def test_rnc_search_finds_chain_for_sigma_minus(n):
    f, _ = sigma_minus_on_entry_cell(n)
    out = rnc_search(f)
    assert isinstance(out, RncCertificate)
    assert len(out.chain) == len(out.variable_order) + 1
    assert rnc_verify(f, out)  # round trip
    assert out.unit in (1, -1)
    # RNC with unit implies the coefficient of t_1...t_N in f is that unit
    square_free = f.layout.pack([(v, 1) for v in out.variable_order])
    assert f.terms.get(square_free, 0) in (1, -1)


def test_chain_state_set_independence():
    f, _ = sigma_minus_on_entry_cell(4)
    out = rnc_search(f)
    chosen = out.variable_order[:3]
    states = set()
    valid_orders = 0
    for order in itertools.permutations(chosen):
        state = f
        try:
            for v in order:
                state = divide_by_variable(state, v).substitute({v: 0})
        except NotDivisibleError:
            continue  # this ordering is not a valid chain prefix
        valid_orders += 1
        states.add(state)
    assert valid_orders >= 1
    assert len(states) == 1
    assert states.pop() == chain_state(f, chosen)
    # a case where every ordering is a valid prefix
    g = poly_from_string("x*y*z + x*y*z^2")
    states = set()
    for order in itertools.permutations("xy"):
        state = g
        for v in order:
            state = divide_by_variable(state, v).substitute({v: 0})
        states.add(state)
    assert states == {chain_state(g, ("x", "y"))}
    assert chain_state(g, ("x", "y")) == poly_from_string("z + z^2")


def test_certificate_serialization_round_trip():
    f, _ = sigma_minus_on_entry_cell(4)
    cert = rnc_search(f)
    data = cert.serialize()
    loaded = RncCertificate.deserialize(data)
    assert rnc_verify(f, loaded)
    assert loaded.variable_order == cert.variable_order


# ---------------------------------------------------------------------------
# splitting coefficient
# ---------------------------------------------------------------------------

def test_coefficient_one_variable():
    f = poly_from_string("t")
    for p in (3, 5, 7):
        verdict = splitting_coefficient([f], ["t"], p)
        assert verdict.coefficient == 1 and verdict.splits


@pytest.mark.parametrize("family,n,p", [
    ("A", 2, 3), ("A", 3, 3), ("A", 4, 3), ("A", 5, 3),
    ("C", 2, 3), ("C", 2, 5), ("D", 3, 3),
])
def test_local_splitting_coefficient(family, n, p):
    g = build_group_datum(family, n)
    verdict = local_splitting_coefficient(g, p)
    assert verdict.status == "computed"
    assert verdict.splits


def test_two_routes_agree_on_entry_cell():
    for n in range(2, 6):
        f, chart = sigma_minus_on_entry_cell(n)
        cert = rnc_search(f)
        assert isinstance(cert, RncCertificate)
        verdict = splitting_coefficient([f], chart.variables, 3)
        assert verdict.splits  # RNC implies the coefficient route splits


def test_top_degree_shortcut_agrees():
    # on the entry cell deg sigma_minus equals the variable count
    f, chart = sigma_minus_on_entry_cell(4)
    assert f.degree() == len(chart.variables)
    full = splitting_coefficient([f], chart.variables, 3)
    top = splitting_coefficient([homogeneous_part(f, len(chart.variables))],
                                chart.variables, 3)
    assert full.coefficient == top.coefficient


def test_resource_guard_reports_not_computed():
    # the windowed g of sl5 at p = 5 has 3 terms after its second product
    # (sl4's keeps 1)
    g = build_group_datum("A", 5)
    guard = ResourceGuard(max_terms=2, max_seconds=60)
    verdict = local_splitting_coefficient(g, 5, guard=guard)
    assert verdict.status == NOT_COMPUTED
    assert verdict.splits is None
    assert "term count" in verdict.guard_reason


def test_guard_checks_every_product():
    # g takes each minor (p - 1)/2 times in a row; a zero product is checked
    big = GroupSections(build_group_datum("A", 5))
    guard = RecordingGuard()
    verdict = splitting_coefficient(big.big_minors, big.big_cell.variables, 5,
                                    guard=guard)
    assert verdict.coefficient == -27999
    assert list(map(len, guard.seen)) == [2, 3, 10, 22, 65, 128, 185, 223]
    guard = RecordingGuard()
    factors = [poly_from_string("x + 1"), Polynomial.zero(),
               poly_from_string("y")]
    verdict = splitting_coefficient(factors, ["x", "y"], 5, guard=guard)
    assert (verdict.coefficient, verdict.degree) == (0, -1)
    assert list(map(len, guard.seen)) == [1, 1, 0, 0, 0, 0]


def counted_products(monkeypatch):
    """The (pairs, size of the dict built) of each product of the
    coefficient's kernel, which forms no Polynomial product."""
    products = []
    product = splitting._window_product

    def counted(g, factor, upper):
        out = product(g, factor, upper)
        products.append((len(g) * len(factor), len(out)))
        return out

    def refused(a, b):
        raise AssertionError("a polynomial product")

    monkeypatch.setattr(splitting, "_window_product", counted)
    monkeypatch.setattr(Polynomial, "__mul__", refused)
    return products


def test_sp3_p7_term_pairs_stay_low(monkeypatch):
    # well under the 125,746 pairs of squaring the windowed f instead
    big = GroupSections(build_group_datum("C", 3))
    minors, variables = big.big_minors, big.big_cell.variables  # not counted
    products = counted_products(monkeypatch)
    verdict = splitting_coefficient(minors, variables, 7)
    assert verdict.coefficient == 1798902379
    assert sum(pairs for pairs, _ in products) <= 50_000


# (family, n, coefficient at p = 3, the largest dict the kernel builds, and
# the most terms of a product of the windowed g by a minor, left unwindowed)
@pytest.mark.parametrize("family,n,coefficient,built,unwindowed", [
    ("C", 4, 125437, 8975, 40392),
    ("A", 7, 480781, 106925, 176968),
    ("D", 5, 7708393, 211288, 1154776),
])
def test_coefficient_reach_builds_only_windowed_dicts(
        monkeypatch, family, n, coefficient, built, unwindowed):
    big = GroupSections(build_group_datum(family, n))
    minors, variables = big.big_minors, big.big_cell.variables  # not counted
    products = counted_products(monkeypatch)
    verdict = splitting_coefficient(minors, variables, 3)
    assert verdict.coefficient == coefficient
    assert max(size for _, size in products) == built < unwindowed


def test_rejects_repeated_variable_names():
    # a repeated name would add up in the target, asking for t^4 here
    with pytest.raises(ValueError, match="repeated"):
        splitting_coefficient([poly_from_string("t^2")], ["t", "t"], 3)


@pytest.mark.parametrize("p", [4, 9, 3.0])
def test_local_coefficient_checks_p_before_any_work(monkeypatch, p):
    built = []

    def broken(group):
        built.append(group)
        raise AssertionError("chart built")

    monkeypatch.setattr(sections, "big_cell_chart", broken)
    with pytest.raises(ValueError, match="odd prime"):
        local_splitting_coefficient(build_group_datum("A", 3), p)
    assert built == []


@pytest.mark.parametrize("family,n", [("A", 4), ("C", 2), ("D", 3)])
def test_local_coefficient_builds_each_section_once(monkeypatch, family, n):
    calls = Counter()

    def count(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    for name in ("big_cell_chart", "build_sigma_pair"):
        monkeypatch.setattr(sections, name,
                            count(name, getattr(sections, name)))
    monkeypatch.setattr(SectionProduct, "evaluate_factors", count(
        "evaluate_factors", SectionProduct.evaluate_factors))
    monkeypatch.setattr(SectionProduct, "evaluate",
                        count("evaluate", SectionProduct.evaluate))
    verdict = local_splitting_coefficient(build_group_datum(family, n), 3)
    assert verdict.splits
    assert calls == {"big_cell_chart": 1, "build_sigma_pair": 1,
                     "evaluate_factors": 1}


@pytest.mark.parametrize("family,n,r", [("A", 4, 2), ("C", 2, None),
                                        ("D", 3, None)])
def test_local_coefficient_matches_the_splitcoeff_check(family, n, r):
    primes = [3, 5, 7]
    report = run_suite(SuiteConfig(family, n, r=r, primes=primes,
                                   checks=["splitcoeff"]))
    group = build_group_datum(family, n)
    assert report.checks[0]["payload"]["verdicts"] == [
        local_splitting_coefficient(group, p).serialize() for p in primes]


@pytest.mark.parametrize("family,n,p", [
    ("D", 4, 3), ("A", 5, 5), ("A", 6, 3), ("C", 3, 5), ("A", 5, 7),
    ("A", 4, 7), ("C", 2, 7), ("D", 3, 7),
])
def test_windowed_coefficient_matches_reference_on_big_cells(family, n, p):
    group = build_group_datum(family, n)
    chart = big_cell_chart(group)
    f = build_sigma_pair(group)[1].evaluate(chart.matrix)
    verdict = local_splitting_coefficient(group, p)
    assert verdict.coefficient == ref_splitting_coefficient(
        f, chart.variables, p)
    assert verdict.degree == f.degree()
    # f as a single factor: its window must agree with the minors' window
    assert splitting_coefficient(
        [f], chart.variables, p).serialize() == verdict.serialize()


@st.composite
def factor_lists(draw):
    """Names a, b, ... (one to four of them) and one to three factors over
    them, each of one to three terms with exponents 0 to 3."""
    names = ["a", "b", "c", "d"][:draw(st.integers(1, 4))]
    term = st.tuples(st.dictionaries(st.sampled_from(names), st.integers(0, 3)),
                     st.integers(-3, 3))
    factor = st.lists(term, min_size=1, max_size=3).map(Polynomial)
    return names, draw(st.lists(factor, min_size=1, max_size=3))


@given(factor_lists(), st.sampled_from([3, 5, 7, 11, 13]))
@example((["a"], [Polynomial.zero(), Polynomial.zero()]), 3)
@example((["a"], [Polynomial.variable("a"), Polynomial.zero()]), 3)
# a name outside the target must stay free: a^2 b^0 needs the terms without b
@example((["a"], [poly_from_string("1 + b"), Polynomial.variable("a")]), 3)
# a^2 * a^5 reaches p - 1 + d_a = 7, which a field sized for p - 1 alone
# cannot hold, and is dropped
@example((["a"], [poly_from_string("a^2"), poly_from_string("a^5 + a")]), 3)
# a free name passes p - 1 and stays: b^6 in g at p = 5
@example((["a"], [poly_from_string("a*b^3 + a + 1")]), 5)
# b is in no factor, so no term reaches b^(p-1)
@example((["a", "b"], [poly_from_string("a + 1")]), 3)
@settings(max_examples=150, deadline=None)
def test_windowed_coefficient_matches_brute_force(case, p):
    names, factors = case
    f = Polynomial.one()
    for factor in factors:
        f = f * factor
    want = ref_pow(ref_of(f), p - 1).get(tuple((v, p - 1) for v in names), 0)
    whole = splitting_coefficient([f], names, p)
    assert (whole.coefficient, whole.degree) == (want, f.degree())
    # the running product of the factors windowed too
    verdict = splitting_coefficient(factors, names, p)
    assert (verdict.coefficient, verdict.degree) == (want, f.degree())


@st.composite
def windowed_cases(draw):
    """Factor lists as above, with `variables` some of their names and
    perhaps "z", a name in no factor."""
    names, factors = draw(factor_lists())
    variables = draw(st.lists(st.sampled_from(names + ["z"]), unique=True))
    return variables, factors


x_top = power(Polynomial.variable("x"), MAX_DEGREE)
y_half = power(Polynomial.variable("y"), MAX_DEGREE // 2)


@given(windowed_cases(), st.sampled_from([3, 5, 7]))
# at the 16-bit limit x^MAX_DEGREE leaves the window; a free y reaches its
# cap MAX_DEGREE - 1 and stays
@example((["x"], [x_top + poly_from_string("x")]), 3)
@example((["x"], [y_half + poly_from_string("x")] * 2), 3)
@example(([], [poly_from_string("a + 1")]), 5)  # every name free
@example((["b"], [poly_from_string("a^3*b + b + 1")]), 5)  # a passes p - 1
@settings(max_examples=150, deadline=None)
def test_window_matches_decoded_exponents(case, p):
    variables, factors = case
    guard = RecordingGuard()
    verdict = splitting_coefficient(factors, variables, p, guard=guard)
    assert verdict.status == "computed"
    assert guard.seen == ref_window_trace(factors, variables, p)


# a and b over the layout of a, b and z, as the minors of a chart share one
a_, b_ = Polynomial.generators(["a", "b", "z"])[:2]


@given(factor_lists(), st.sets(st.sampled_from(["a", "b", "y", "z"])),
       st.sampled_from([3, 5, 7]),
       st.lists(st.integers(-50, 50), min_size=8, max_size=8))
# layouts holding names that no term uses: b and z in a + 1, a and z in
# b^2 + 2, z in a*b + 1
@example((["a"], [a_ + 1]), set(), 3, list(range(8)))
@example((["a", "b"], [b_ * b_ + 2, a_ * b_ + 1]), set(), 5, list(range(-4, 4)))
# z is in the window and the layout, and in no term
@example((["a", "z"], [a_ + 1]), set(), 3, list(range(8)))
# a zero factor and a constant factor over wider layouts
@example((["a"], [a_ - a_, a_ + 1]), set(), 3, list(range(8)))
@example((["a"], [poly_from_string("a + 1"), Polynomial.constant(-2)]),
         {"b", "z"}, 3, list(range(8)))
@settings(max_examples=100, deadline=None)
def test_unused_layout_names_change_no_verdict(case, extra, p, line):
    # the restriction to a line and the splitting verdict of factors over
    # wider layouts match those of the same factors over the names they use
    names, factors = case
    trimmed = [Polynomial(term_items(m)) for m in factors]
    wide = [widened(m, extra) for m in factors]
    want = splitting_coefficient(trimmed, names, p).serialize()
    variables, restrict = _line_restrictor(trimmed)
    n = len(variables)
    for given_factors in (factors, wide):
        assert splitting_coefficient(given_factors, names, p).serialize() == want
        got_variables, got = _line_restrictor(given_factors)
        assert got_variables == variables
        assert got(line[:n], line[4:4 + n]) == restrict(line[:n], line[4:4 + n])


def test_rejects_even_p():
    with pytest.raises(ValueError):
        splitting_coefficient([poly_from_string("t")], ["t"], 4)


def test_rejects_composite_p():
    for p in (9, 15, 21):
        with pytest.raises(ValueError):
            splitting_coefficient([poly_from_string("t")], ["t"], p)


def test_is_odd_prime():
    assert [p for p in range(-3, 40) if is_odd_prime(p)] == [
        3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


@pytest.mark.parametrize("family,n,p,coefficient", [
    ("D", 4, 3, 2353), ("A", 5, 5, -27999), ("A", 6, 3, -161),
    ("C", 3, 5, 11571), ("A", 5, 7, 3161089), ("C", 4, 3, 125437),
    ("A", 7, 3, 480781), ("A", 6, 5, -108975249), ("D", 4, 5, -1134242879),
    ("C", 3, 7, 1798902379), ("A", 5, 13, -18423599769209439),
    ("D", 5, 3, 7708393),
])
def test_golden_coefficients(family, n, p, coefficient):
    verdict = local_splitting_coefficient(build_group_datum(family, n), p)
    assert verdict.status == "computed"
    assert verdict.coefficient == coefficient


def test_degree_limit_gives_not_computed():
    # x^k with k > 4 lies outside the window of p = 5, so it is dropped
    # before g = f*f takes x^k again: 0 is the exact coefficient
    half = (MAX_DEGREE + 1) // 2
    for k in (half, half - 1):
        verdict = splitting_coefficient([power(Polynomial.variable("x"), k)],
                                        ["x"], 5)
        assert verdict.status == "computed" and verdict.coefficient == 0
        assert verdict.degree == k
    # every power of x*y*z*w stays inside the window of p = 16411, so g,
    # built one product at a time, reaches (x*y*z*w)^8192, past the limit
    f = poly_from_string("x*y*z*w")
    past = splitting_coefficient([f], ["w", "x", "y", "z"], 16411)
    assert past.status == NOT_COMPUTED
    assert past.splits is None
    assert "total degree 32768" in past.guard_reason
    assert str(MAX_DEGREE) in past.guard_reason


# ---------------------------------------------------------------------------
# squarefree probe
# ---------------------------------------------------------------------------

def test_probe_flags_square_factor():
    out = squarefree_probe(poly_from_string("x^2*y"), trials=10, seed=1)
    assert out["passes"] == 0


def test_probe_passes_normal_crossing():
    out = squarefree_probe(poly_from_string("x*y"), trials=10, seed=1)
    assert out["all_squarefree"]


@pytest.mark.parametrize("trials", [0, -3])
def test_probe_rejects_trials_below_one(trials):
    with pytest.raises(ValueError):
        squarefree_probe(poly_from_string("x^2"), trials=trials)


@pytest.mark.parametrize("trials", [2.5, True, 1.0])
def test_probe_rejects_trials_that_are_not_ints(trials):
    # 2.5 used to run 3 trials and report a squarefree input as not
    # squarefree; True used to run one
    with pytest.raises(ValueError):
        squarefree_probe(poly_from_string("x*y"), trials=trials)


def test_probe_on_sigma_minus():
    f, _ = sigma_minus_on_entry_cell(4)
    out = squarefree_probe(f, trials=20, seed=0)
    assert out["all_squarefree"]
    assert out["evidence_only"]


@pytest.mark.parametrize("f", [Polynomial.zero(), Polynomial.constant(3),
                               Polynomial.constant(-1)])
def test_probe_rejects_constants(f):
    # a nonzero constant used to redraw 1,001 degenerate lines, then raise
    # RuntimeError
    with pytest.raises(ValueError, match="constant"):
        squarefree_probe(f, trials=20)


def probe_input(family, n, cell):
    group = build_group_datum(family, n)
    chart = sl_entry_big_cell(n) if cell == "entry" else big_cell_chart(group)
    _, minus = build_sigma_pair(group)
    return minus.evaluate(chart.matrix)


def sigma_minus_report(seed):
    return {"trials": 20, "passes": 20, "discarded": 0, "seed": seed,
            "all_squarefree": True, "evidence_only": True}


SIGMA_MINUS_INPUTS = [("A", 4, "entry"), ("A", 5, "entry"), ("C", 2, "big"),
                      ("D", 3, "big")]

# full probe reports recorded from the Fraction-only implementation (seeds 0
# and 1) and from the mod-q implementation (seeds 2-9)
PINNED_PROBES = [
    (("A", 4, "entry"), 0, sigma_minus_report(0)),
    (("A", 4, "entry"), 1, sigma_minus_report(1)),
    (("A", 5, "entry"), 0, sigma_minus_report(0)),
    (("A", 5, "entry"), 1, sigma_minus_report(1)),
    (("C", 2, "big"), 0, sigma_minus_report(0)),
    (("C", 2, "big"), 1, sigma_minus_report(1)),
    (("D", 3, "big"), 0, sigma_minus_report(0)),
    (("D", 3, "big"), 1, sigma_minus_report(1)),
    ("x^2*y", 1, {"trials": 10, "passes": 0, "discarded": 0, "seed": 1,
                  "all_squarefree": False, "evidence_only": True}),
    ("x*y", 1, {"trials": 10, "passes": 10, "discarded": 0, "seed": 1,
                "all_squarefree": True, "evidence_only": True}),
] + [(source, seed, sigma_minus_report(seed))
     for source in SIGMA_MINUS_INPUTS for seed in range(2, 10)]


@pytest.mark.parametrize("source, seed, want", PINNED_PROBES)
def test_probe_report_is_pinned_and_substitutes_nothing(source, seed, want,
                                                        monkeypatch):
    if isinstance(source, str):
        f = poly_from_string(source)
    else:
        f = probe_input(*source)
    calls = []
    original = Polynomial.substitute

    def counting(self, assignment):
        calls.append(1)
        return original(self, assignment)

    monkeypatch.setattr(Polynomial, "substitute", counting)
    assert squarefree_probe(f, trials=want["trials"], seed=seed) == want
    assert not calls


def test_probe_decodes_f_once(monkeypatch):
    # one `Layout.rows` call per factor per probe, whether f comes whole or
    # as its minors
    f = probe_input("A", 5, "entry")
    minors = GroupSections(build_group_datum("A", 5)).entry_minors
    calls = Counter()

    def count(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(Layout, "rows", count("rows", Layout.rows))
    monkeypatch.setattr(Polynomial, "degree",
                        count("degree", Polynomial.degree))
    for factors in ([f], minors):
        calls.clear()
        assert squarefree_probe(*factors, trials=20, seed=0) == sigma_minus_report(0)
        assert calls == {"rows": len(factors), "degree": len(factors)}


@pytest.mark.parametrize("nvars", range(1, 13))
def test_probe_draws_are_randint_draws(nvars, monkeypatch):
    # each trial's point and direction are the values that randint calls,
    # point first, would draw from random.Random(seed), over f's names in
    # order however f is split into factors
    f = poly_from_string(" + ".join(f"x{i}" for i in range(nvars)))
    names = sorted(f.variables())
    lines = []
    restrictor = splitting._line_restrictor

    def line_restrictor(factors):
        variables, _ = restrictor(factors)
        assert variables == names

        def restrict(point, direction):
            lines.append(tuple(dict(zip(variables, v))
                               for v in (point, direction)))
            return [1, 1]
        return variables, restrict

    monkeypatch.setattr(splitting, "_line_restrictor", line_restrictor)
    for seed in range(50):
        rng = random.Random(seed)
        want = [tuple({v: rng.randint(-10**6, 10**6) for v in names}
                      for _ in ("point", "direction"))
                for _ in range(3)]
        for factors in ([f], Polynomial.generators(names[::-1])):
            lines.clear()
            squarefree_probe(*factors, trials=3, seed=seed)
            assert lines == want


def count_fallbacks(monkeypatch):
    """Rebind the gcd over Z so that each call (the exact path) is
    counted."""
    calls = []
    original = splitting._gcd_degree

    def counting(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(splitting, "_gcd_degree", counting)
    return calls


# the modulus of the probe's former mod-q stage, whose hard cases stay inputs
Q = (1 << 61) - 1


@pytest.mark.parametrize("coeffs, want, fallbacks", [
    ([1 + Q, -(2 + Q), 1], True, 0),  # (s-1)(s-1-q): a double root mod q
    ([0, 1, Q], True, 0),             # q*s^2 + s: leading coefficient 0 mod q
    ([2, -3, 0, 1], False, 1),        # (s-1)^2 (s+2)
    ([-18, 14, -18], True, 1),        # K = 10, gcd(h(X), h'(X)) = 550 > 512
])
def test_univariate_test_falls_back_only_past_the_gcd_bound(coeffs, want,
                                                            fallbacks,
                                                            monkeypatch):
    calls = count_fallbacks(monkeypatch)
    assert splitting._is_squarefree_univariate(coeffs) is want
    assert len(calls) == fallbacks


def test_probe_fallback_counts(monkeypatch):
    # the integer gcd alone decides every trial of the line_probe workload
    fallbacks = count_fallbacks(monkeypatch)
    for source in SIGMA_MINUS_INPUTS:
        f = probe_input(*source)
        for seed in range(10):
            assert squarefree_probe(f, trials=20, seed=seed)["all_squarefree"]
    assert not fallbacks
    out = squarefree_probe(poly_from_string("x^2*y"), trials=10, seed=1)
    assert out["passes"] == 0
    assert len(fallbacks) == out["trials"]


@pytest.mark.parametrize("seed", [0, 1])
def test_probe_of_a_square_takes_the_exact_path(seed, monkeypatch):
    # (so3 big-cell sigma_minus)^2 restricts to squares of degree 14 with
    # 7-digit draws: no trial passes, and each one runs the gcd over Z
    f = probe_input("D", 3, "big")
    fallbacks = count_fallbacks(monkeypatch)
    out = squarefree_probe(f * f, trials=20, seed=seed)
    assert out["passes"] == 0
    assert out["all_squarefree"] is False
    assert len(fallbacks) == out["trials"] == 20


def int_poly(draw_coeffs):
    coeffs = list(draw_coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def around(x):
    return st.integers(x - 3, x + 3) | st.integers(-x - 3, -x + 3)


coeff = st.integers(-9, 9) | around(1 << 61) | around(1 << 200)
factor = st.lists(coeff, min_size=1, max_size=4).map(int_poly)


@given(factor.filter(lambda c: len(c) > 1), factor.filter(bool), st.booleans())
@example([1, 2], [1], False)  # linear
@example([-1, 1], [6, 6], False)  # 6 s^2 - 6: content 6
@example([-1, 1], [2, 1], True)  # (s-1)^2 (s+2)
@example([-1, 1], [1], True)  # (s-1)^2: the gcd at X is X - 1 > X/2
@example([-18, 14, -18], [1], False)  # squarefree, through the fallback
@example([-6, -8, -1, 3, 5, -2], [1], False)  # the same
@settings(max_examples=200, deadline=None)
def test_squarefree_test_matches_reference(g, h, square):
    # f = g^2 h or g h, with coefficients small, near 2^61 or near 2^200
    f = convolve(convolve(g, g), h) if square else convolve(g, h)
    deriv = [i * c for i, c in enumerate(f)][1:]
    assert splitting._is_squarefree_univariate(f) is (
        ref_gcd_degree_rational(f, deriv) == 0)


@given(factor.filter(bool), factor, factor)
@example([1], [2, -3, 0, 1], [-3, 0, 3])  # (s-1)^2 (s+2) and its derivative
@example([1], [0, 1, 7], [1, 14])  # q s^2 + s and its derivative, q = 7
@example([1], [0, 1, Q], [1, 2 * Q])  # the same for q = 2^61 - 1
@example([1], [8, -9, 1], [-9, 2])  # (s-1)(s-1-q), q = 7: double root mod q
@example([1], [1 + Q, -(2 + Q), 1], [-(2 + Q), 2])  # the same for 2^61 - 1
@settings(max_examples=200, deadline=None)
def test_gcd_degree_matches_references(g, h, k):
    # a = g h and b = g k share g, so the gcd is often nontrivial
    a, b = int_poly(convolve(g, h)), int_poly(convolve(g, k))
    assert splitting._gcd_degree(a, b) == ref_gcd_degree_rational(a, b)


# ---------------------------------------------------------------------------
# skew corner minors
# ---------------------------------------------------------------------------

def test_skew_minor_small_cases():
    res = skew_minor_claim(3, 1)
    assert res.minor == poly_from_string("b3_1")
    res = skew_minor_claim(5, 2)
    assert res.minor == poly_from_string("b4_1*b5_2 - b4_2*b5_1")


@pytest.mark.parametrize("n", (3, 5, 7))
def test_skew_minor_full_range(n):
    for k in range(1, n):
        res = skew_minor_claim(n, k)
        assert res.nonzero
        assert order_at_origin(res.minor) == res.minor.degree() == k
        assert res.witness["gram_determinant"] != 0


# sha256 of the JSON lines of skew_minor_claim(n, k, seed).serialize(),
# seeds 0-4, recorded from the Fraction implementation of the witness
SKEW_PINS = {
    (3, 1): "82cc0400e132d58eea862f2470605716171a00fb569c9052b7f0a824687701e0",
    (3, 2): "402b9cd002261220d90db000162658aa6aec1de0f37329c939f6c9279a2f010e",
    (5, 1): "c28e59c7836ee8cafd8806c59c957b592ed1c7a9bd26d1616456ac2fcb404e90",
    (5, 2): "335def5facd44c3202ee358bf7572a7280df8fac05c9bfca5f4ae1bae1802fb1",
    (5, 3): "ef1bf011c9f610fba2d254e3656e89dbcf20509429a4d0ed45657af513dbe1ea",
    (5, 4): "dc408746c92a6a36ae373dab5a17143236896b92788f0918117482cf1769b9e1",
    (7, 1): "7e8529b7c67d946efcf9b1d00ce21778e358319710fe0740a7ca869b5d553cae",
    (7, 2): "d9290aa7b47d0318864473f60b54382b9957c64e7c72991e5f84861d3f1c0ecd",
    (7, 3): "c1b781774ada0f552626eafdccb0c808d071c93ad13e259b566b719036580b90",
    (7, 4): "ff9b3fe0d8c9fbf7f55e3a53ec0480735d8d848b79106aacaf5580e2e999096b",
    (7, 5): "9d0e4f5a6b42838a4ac3675ad38641686071aaab4d741f15043e6908676b24fa",
    (7, 6): "eaa92360c936febcfca392c56d5338dff0350ce8f56cdb4b1e603d730eb6629a",
}


def test_skew_witness_bytes_are_pinned():
    for (n, k), pin in SKEW_PINS.items():
        digest = hashlib.sha256()
        for seed in range(5):
            text = json.dumps(skew_minor_claim(n, k, seed).serialize(),
                              sort_keys=True)
            digest.update(text.encode() + b"\n")
        assert digest.hexdigest() == pin, (n, k)


@st.composite
def skew_shaped_rows(draw):
    """k x n integer rows, 1 <= k < n, entries as the witness draws them."""
    n = draw(st.integers(2, 7))
    k = draw(st.integers(1, n - 1))
    row = st.lists(st.integers(-5, 5), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=k, max_size=k)), n


@given(skew_shaped_rows())
@settings(max_examples=200, deadline=None)
@example(([[0, 0, 0], [1, -2, 3]], 3))  # a zero row
# W + [radical] with W meeting the radical of the rank-4 form on Q^5
@example(([[1, 0, 0, 0, 3], [0, 0, 0, 0, -2], [0, 0, 0, 0, 1]], 5))
def test_rank_matches_fraction_reference(case):
    rows, n = case
    assert splitting._rank(rows, n) == rational_matrix_rank(rows)


def test_skew_minor_rejects_even_n():
    with pytest.raises(ValueError):
        skew_minor_claim(4, 2)

import itertools

import pytest

from flagsplit.charts import big_cell_chart, sl_entry_big_cell
from flagsplit.cli import appendix_check, load_golden_chain
from flagsplit.poly import MAX_DEGREE, Monomial, Polynomial, poly_from_string
from flagsplit.rootdata import build_group_datum
from flagsplit.sections import build_sigma_pair
from flagsplit.splitting import (
    NOT_COMPUTED,
    ResourceGuard,
    RncCertificate,
    RncVerifyError,
    local_splitting_coefficient,
    rnc_search,
    rnc_verify,
    skew_minor_claim,
    splitting_coefficient,
    squarefree_probe,
)
from reference import chain_state, homogeneous_part


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
            if any(m.exponent(v) == 0 for m in state.terms):
                alive = False
                break
            state = Polynomial([
                (Monomial({**dict(m.exps), v: m.exponent(v) - 1}), c)
                for m, c in state.terms.items()
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
    square_free_mono = Monomial({v: 1 for v in out.variable_order})
    assert f.terms.get(square_free_mono, 0) in (1, -1)


def test_chain_state_set_independence():
    from flagsplit.poly import NotDivisibleError, zero_out_and_divide

    f, _ = sigma_minus_on_entry_cell(4)
    out = rnc_search(f)
    chosen = out.variable_order[:3]
    states = set()
    valid_orders = 0
    for order in itertools.permutations(chosen):
        state = f
        try:
            for v in order:
                state = zero_out_and_divide(state, (), v).substitute({v: 0})
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
            state = zero_out_and_divide(state, (), v).substitute({v: 0})
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
        verdict = splitting_coefficient(f, ["t"], p)
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
        verdict = splitting_coefficient(f, chart.variables, 3)
        assert verdict.splits  # RNC implies the coefficient route splits


def test_top_degree_shortcut_agrees():
    # on the entry cell deg sigma_minus equals the variable count
    f, chart = sigma_minus_on_entry_cell(4)
    assert f.degree() == len(chart.variables)
    full = splitting_coefficient(f, chart.variables, 3)
    top = splitting_coefficient(homogeneous_part(f, len(chart.variables)),
                                chart.variables, 3)
    assert full.coefficient == top.coefficient


def test_resource_guard_reports_not_computed():
    g = build_group_datum("A", 4)
    guard = ResourceGuard(max_terms=2, max_seconds=60)
    verdict = local_splitting_coefficient(g, 5, guard=guard)
    assert verdict.status == NOT_COMPUTED
    assert verdict.splits is None
    assert "term count" in verdict.guard_reason


def test_rejects_even_p():
    with pytest.raises(ValueError):
        splitting_coefficient(poly_from_string("t"), ["t"], 4)


def test_rejects_composite_p():
    for p in (9, 15, 21):
        with pytest.raises(ValueError):
            splitting_coefficient(poly_from_string("t"), ["t"], p)


@pytest.mark.parametrize("family,n,p,coefficient", [
    ("D", 4, 3, 2353), ("A", 5, 5, -27999), ("A", 6, 3, -161),
    ("C", 3, 5, 11571), ("A", 5, 7, 3161089),
])
def test_golden_coefficients(family, n, p, coefficient):
    verdict = local_splitting_coefficient(build_group_datum(family, n), p)
    assert verdict.status == "computed"
    assert verdict.coefficient == coefficient


def test_degree_limit_gives_not_computed():
    # for p = 5, g = f^2 squares f, so x^k trips once 2k > MAX_DEGREE
    half = (MAX_DEGREE + 1) // 2
    past = splitting_coefficient(Polynomial.variable("x") ** half, ["x"], 5)
    assert past.status == NOT_COMPUTED
    assert past.splits is None
    assert str(MAX_DEGREE) in past.guard_reason
    below = splitting_coefficient(
        Polynomial.variable("x") ** (half - 1), ["x"], 5)
    assert below.status == "computed" and below.coefficient == 0


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


def test_probe_on_sigma_minus():
    f, _ = sigma_minus_on_entry_cell(4)
    out = squarefree_probe(f, trials=20, seed=0)
    assert out["all_squarefree"]
    assert out["evidence_only"]


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
        assert all(m.degree() == k for m in res.minor.terms)
        assert res.witness["gram_determinant"] != 0


def test_skew_minor_rejects_even_n():
    with pytest.raises(ValueError):
        skew_minor_claim(4, 2)

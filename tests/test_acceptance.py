"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every comparison is exact; there are no tolerances anywhere in this suite.
"""

import itertools
import json
import random

from flagsplit.charts import (
    SO_EVEN_PAIRED,
    SO_ODD_SKEW,
    SP_ANTIDIAG,
    big_cell_chart,
    expected_parameter_count,
    levi_center_chart,
    sl_entry_big_cell,
)
from flagsplit.cli import SuiteConfig, appendix_check, emit_report, run_suite
from flagsplit.matrix import PolyMatrix, determinant
from flagsplit.poly import Polynomial, order_at_origin
from flagsplit.rootdata import build_group_datum
from flagsplit.sections import GroupSections, build_sigma_pair, equivariance_suite
from flagsplit.splitting import (
    RncCertificate,
    local_splitting_coefficient,
    rnc_search,
    rnc_verify,
    skew_minor_claim,
)
from flagsplit.vanishing import max_multiplicity_verdict, order_at_center, sl_order_table_check
from reference import (
    is_zero_rows,
    leibniz_determinant,
    power,
    ref_form_residual,
    shuffled_big_cell,
)


def report(number, label, ok):
    print(f"criterion {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_1_sl_order_tables():
    ok = True
    for n in range(2, 7):
        g = build_group_datum("A", n)
        for r in range(1, n):
            result = sl_order_table_check(GroupSections(g, r))
            ok = ok and result["ok"] and result["total"] == r * (n - r)
    report(1, "SL order tables", ok)


def test_criterion_2_sp_maximal_multiplicity():
    ok = True
    for n in (2, 3):
        g = build_group_datum("C", n)
        sections = GroupSections(g)
        rep = max_multiplicity_verdict(sections, primes=[3])
        ok = ok and rep.factor_orders == list(range(1, n + 1))
        ok = ok and rep.total == n * (n + 1) // 2
        ok = ok and rep.lower_bounds == rep.factor_orders == rep.upper_bounds
        fam = sections.specialization
        ok = ok and fam.kind == SP_ANTIDIAG
        ok = ok and fam.parameter_count() == n == expected_parameter_count(SP_ANTIDIAG, n)
        # membership holds as an exact polynomial identity
        ok = ok and is_zero_rows(ref_form_residual(fam.matrix, g.form))
    report(2, "Sp maximal multiplicity", ok)


def test_criterion_3_so_maximal_multiplicity():
    ok = True
    for n in (2, 3, 4):
        g = build_group_datum("D", n)
        sections = GroupSections(g)
        rep = max_multiplicity_verdict(sections, primes=[3])
        ok = ok and rep.factor_orders == list(range(1, n))
        ok = ok and rep.total == n * (n - 1) // 2
        ok = ok and rep.lower_bounds == rep.factor_orders == rep.upper_bounds
        kind = SO_EVEN_PAIRED if n % 2 == 0 else SO_ODD_SKEW
        fam = sections.specialization
        ok = ok and fam.kind == kind
        ok = ok and fam.parameter_count() == expected_parameter_count(kind, n)
        ok = ok and is_zero_rows(ref_form_residual(fam.matrix, g.form))
    report(3, "SO maximal multiplicity", ok)


def test_criterion_4_skew_claim():
    ok = True
    for n in (3, 5, 7):
        for k in range(1, n):
            res = skew_minor_claim(n, k)
            ok = ok and res.nonzero
            ok = ok and order_at_origin(res.minor) == res.minor.degree() == k
            ok = ok and res.witness["gram_determinant"] != 0
    report(4, "skew corner minors", ok)


def test_criterion_5_appendix_golden():
    cert = appendix_check()  # raises unless the shipped chain verifies
    ok = cert.unit == 1 and len(cert.variable_order) == 10
    for n in range(2, 7):
        g = build_group_datum("A", n)
        _, minus = build_sigma_pair(g)
        f = minus.evaluate(sl_entry_big_cell(n).matrix)
        out = rnc_search(f)
        ok = ok and isinstance(out, RncCertificate) and rnc_verify(f, out)
    report(5, "golden chain and certificate search", ok)


def test_criterion_6_splitting_coefficients():
    cases = (
        [("A", n, p) for n in (2, 3, 4) for p in (3, 5, 7)]
        + [("A", 5, 3), ("C", 2, 3), ("C", 2, 5), ("D", 3, 3)]
    )
    ok = True
    for family, n, p in cases:
        g = build_group_datum(family, n)
        verdict = local_splitting_coefficient(g, p)
        ok = ok and verdict.status == "computed" and verdict.splits
        if family == "A":
            # where certificate search succeeds the two routes must agree
            _, minus = build_sigma_pair(g)
            chart = sl_entry_big_cell(n)
            f = minus.evaluate(chart.matrix)
            cert = rnc_search(f)
            if isinstance(cert, RncCertificate):
                from flagsplit.splitting import splitting_coefficient

                same_f = splitting_coefficient([f], chart.variables, p)
                ok = ok and same_f.splits
    report(6, "splitting coefficients", ok)


def test_criterion_7_equivariance():
    cases = [("A", n) for n in (2, 3, 4, 5)] + [
        ("C", 2), ("C", 3), ("D", 2), ("D", 3),
    ]
    ok = True
    for family, n in cases:
        results = equivariance_suite(GroupSections(build_group_datum(family, n)))
        ok = ok and results["diagonal_scaling"]
        ok = ok and results["right_column_stability"]
        ok = ok and "exponents" in results["left_b_law"]
        ok = ok and "exponents" in results["left_bminus_law"]
    report(7, "equivariance identities", ok)


def test_criterion_8_property_suites():
    ok = True
    # determinant oracle agreement, 100 seeded matrices up to 5x5
    rng = random.Random(1234)
    for _ in range(100):
        size = rng.randint(1, 5)
        m = PolyMatrix([[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)])
        ok = ok and determinant(m) == leibniz_determinant(m)
    # valuation additivity on a chart pullback
    g = build_group_datum("A", 4)
    _, minus = build_sigma_pair(g)
    chart = levi_center_chart(big_cell_chart(g), 2)
    orders, total = order_at_center(minus, chart)
    ok = ok and order_at_origin(minus.evaluate(chart.matrix)) == total
    # order invariance under generator reordering, 3 seeded orders per group
    for family, n, r in (("A", 4, 2), ("C", 2, None), ("D", 3, None)):
        grp = build_group_datum(family, n)
        _, sm = build_sigma_pair(grp)
        base, _ = order_at_center(sm, levi_center_chart(big_cell_chart(grp), r))
        count = len(grp.negative_root_generators())
        for seed in (11, 12, 13):
            perm = list(range(count))
            random.Random(seed).shuffle(perm)
            shuffled = levi_center_chart(shuffled_big_cell(grp, perm), r)
            got, _ = order_at_center(sm, shuffled)
            ok = ok and got == base
    # Frobenius in characteristic 3: 3 divides every coefficient of
    # (x + y)^3 - x^3 - y^3
    x = Polynomial.variable("x")
    y = Polynomial.variable("y")
    defect = power(x + y, 3) - power(x, 3) - power(y, 3)
    ok = ok and not defect.is_zero()
    ok = ok and all(c % 3 == 0 for c in defect.terms.values())
    # chain-state set-independence
    from flagsplit.poly import divide_by_variable, poly_from_string
    from reference import chain_state

    h = poly_from_string("x*y*z + x*y*z^2")
    states = set()
    for order in itertools.permutations("xy"):
        state = h
        for v in order:
            state = divide_by_variable(state, v).substitute({v: 0})
        states.add(state)
    ok = ok and states == {chain_state(h, ("x", "y"))}
    # round trip: verify(search(f))
    f = minus.evaluate(sl_entry_big_cell(4).matrix)
    cert = rnc_search(f)
    ok = ok and isinstance(cert, RncCertificate) and rnc_verify(f, cert)
    report(8, "property suites", ok)


def test_criterion_9_determinism():
    def run():
        import contextlib
        import io

        config = SuiteConfig("C", 2, primes=[3], seed=5)
        with contextlib.redirect_stdout(io.StringIO()):
            return emit_report(run_suite(config), fmt="json", out=None)

    first, second = run(), run()
    ok = first == second and json.loads(first)["checks"]
    report(9, "byte-identical reports", bool(ok))

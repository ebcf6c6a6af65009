"""Vanishing orders of the minor sections at chart centers.

The order of sigma_minus along P/B reduces, by the triangular transformation
law, to its order at the single center point w_0^P; each factor is pulled
back through a chart and its order at the origin read off the exponents.
"""

from __future__ import annotations

from .charts import sl_explicit_chart
from .matrix import PolyMatrix
from .poly import order_at_origin
from .rootdata import FAMILY_A, ConventionError


class OrderReport:
    """Everything the maximal-multiplicity verdict rests on, in one record."""

    def __init__(
        self,
        group_label,
        parabolic,
        factor_orders,
        expected_codim,
        sigma_plus_unit,
        lower_bounds=None,
        upper_bounds=None,
        scaled_checks=None,
        specialization=None,
    ):
        self.group_label = group_label
        self.parabolic = parabolic
        self.factor_orders = list(factor_orders)
        self.total = sum(self.factor_orders)
        self.expected_codim = expected_codim
        self.sigma_plus_unit = sigma_plus_unit
        self.lower_bounds = lower_bounds
        self.upper_bounds = upper_bounds
        self.scaled_checks = scaled_checks or []
        self.specialization = specialization

    @property
    def maximal_multiplicity(self):
        return (
            self.total == self.expected_codim
            and self.sigma_plus_unit in (1, -1)
        )

    def bounds_consistent(self):
        if self.lower_bounds is None or self.upper_bounds is None:
            return True
        return all(
            lo == mid == hi
            for lo, mid, hi in zip(
                self.lower_bounds, self.factor_orders, self.upper_bounds
            )
        )

    def serialize(self):
        return {
            "group": self.group_label,
            "parabolic": self.parabolic,
            "factor_orders": self.factor_orders,
            "total": self.total,
            "expected_codim": self.expected_codim,
            "sigma_plus_unit": self.sigma_plus_unit,
            "lower_bounds": self.lower_bounds,
            "upper_bounds": self.upper_bounds,
            "bounds_consistent": self.bounds_consistent(),
            "maximal_multiplicity": self.maximal_multiplicity,
            "scaled_checks": self.scaled_checks,
            "specialization": self.specialization,
        }


def order_at_center(section, chart):
    """Per-factor orders of the section at the chart's center (t = 0).

    A factor vanishing identically on the chart is a chart bug, not a large
    order, so it raises.
    """
    orders = [order_at_origin(value)
              for value in section.evaluate_factors(chart.matrix)]
    for spec, order in zip(section.factors, orders):
        if order is None:
            raise ConventionError(f"factor {spec} vanishes identically on chart")
    return orders, sum(orders)


def sigma_plus_unit_at_identity(plus, chart):
    """sigma_plus evaluated at the big-cell center; must be +1 or -1."""
    value = plus.evaluate(PolyMatrix(chart.center_matrix()))
    if not value.is_constant() or value.constant_value() not in (1, -1):
        raise ConventionError("sigma_plus is not a unit at the identity coset")
    return value.constant_value()


def sl_four_case_order(n, r, k):
    """Closed-form order of the k-th trailing minor at w_0^{P_r} in SL_n."""
    if k <= r and k + r <= n:
        return k
    if k >= r and k + r <= n:
        return r
    if k >= r and k + r >= n:
        return n - k
    return n - r


def sl_order_table_check(sections):
    """Factor orders on the intrinsic chart AND the explicit picture chart,
    both compared against the four-case formula; totals against r(n-r)."""
    n, r = sections.group.n, sections.r
    _, minus = sections.pair
    intrinsic, intrinsic_total = sections.levi_orders
    explicit, explicit_total = order_at_center(minus, sl_explicit_chart(n, r))
    expected = [sl_four_case_order(n, r, k) for k in range(1, n)]
    expected_total = r * (n - r)
    mismatches = [
        {"k": k, "intrinsic": a, "explicit": b, "expected": e}
        for k, (a, b, e) in enumerate(zip(intrinsic, explicit, expected), start=1)
        if not (a == b == e)
    ]
    return {
        "n": n,
        "r": r,
        "intrinsic": intrinsic,
        "explicit": explicit,
        "expected": expected,
        "total": intrinsic_total,
        "expected_total": expected_total,
        "ok": not mismatches
        and intrinsic_total == explicit_total == expected_total,
        "mismatches": mismatches,
    }


def _expected_codimension(group, r=None):
    """dim G/P = (number of positive roots) - (positive roots of the Levi)."""
    return group.dim_flag_variety() - len(group.levi_longest_word(r).word)


def max_multiplicity_verdict(sections, primes=()):
    """OrderReport for sigma_minus along P/B, with cross-checked bounds.

    For C and D the intrinsic orders are sandwiched per factor: from below by
    the same minors on the ambient SL_{2n} picture chart (the intrinsic chart
    ideal sits inside the ambient maximal ideal), from above by the orders on
    the membership-verified specialization family.  All three must agree.
    """
    group, r = sections.group, sections.r
    plus, minus = sections.pair
    orders, total = sections.levi_orders
    unit = sigma_plus_unit_at_identity(plus, sections.big_cell)
    expected = _expected_codimension(group, r)

    lower = upper = specialization = None
    if group.family != FAMILY_A:
        ambient = sl_explicit_chart(2 * group.n, group.n)
        lower, _ = order_at_center(minus, ambient)
        family = sections.specialization
        upper, _ = order_at_center(minus, family)
        specialization = family.serialize()

    scaled = [
        {
            "p": p,
            "scaled_order": (p - 1) * total,
            "c_times_p_minus_1": expected * (p - 1),
            "equal": (p - 1) * total == expected * (p - 1),
        }
        for p in primes
    ]
    label = f"{group.family}{group.n}"
    parabolic = f"P_{r}" if group.family == FAMILY_A else f"P_{group.n}"
    report = OrderReport(
        label, parabolic, orders, expected, unit, lower, upper, scaled,
        specialization,
    )
    if not report.bounds_consistent():
        raise ConventionError(
            f"bound inconsistency for {label}: lower={lower}, "
            f"intrinsic={orders}, upper={upper}"
        )
    return report

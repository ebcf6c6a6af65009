"""The section pair (sigma_plus, sigma_minus) as products of column-initial
minors, their evaluation on charts, and the equivariance identity suite."""

from __future__ import annotations

from functools import cached_property
from math import prod
from operator import eq, ge, le, lt

from .charts import (
    big_cell_chart,
    levi_center_chart,
    sl_entry_big_cell,
    specialization_family,
)
from .matrix import MinorSpec, PolyMatrix, column_minor
from .poly import Polynomial
from .rootdata import FAMILY_A, ConventionError


class SectionProduct:
    """A formal product of column-initial minors with weight metadata."""

    def __init__(self, group, factors):
        self.group = group
        self.factors = [f if isinstance(f, MinorSpec) else MinorSpec(f) for f in factors]

    def factor_weights(self):
        """Folded weight of each factor: -(chi_{a_1}+...+chi_{a_k})."""
        return [
            self.group.fold_sum([(-1, a) for a in spec.rows])
            for spec in self.factors
        ]

    def weight(self):
        return self.group.fold_sum(
            [(-1, a) for spec in self.factors for a in spec.rows])

    def evaluate_factors(self, matrix):
        """Each factor's minor on the given matrix; memo shared per call."""
        memo = {}
        return [column_minor(matrix, spec, memo) for spec in self.factors]

    def evaluate(self, matrix):
        """The product of the factors on the given matrix."""
        return prod(self.evaluate_factors(matrix), start=Polynomial.one())


def build_sigma_pair(group):
    """sigma_plus uses leading rows (1..k); sigma_minus trailing rows (N..N-k+1).

    Factor counts: n-1 for SL_n, n for Sp_2n, n-1 for SO_2n.  The displayed
    Sp sigma_minus ends with n rows against n columns; a final factor with
    n+1 rows would be malformed, so the n-row reading is used throughout.
    """
    N = group.size
    if group.family == FAMILY_A:
        count = group.n - 1
    elif group.family == "C":
        count = group.n
    else:
        count = group.n - 1
    plus = SectionProduct(
        group,
        [tuple(range(1, k + 1)) for k in range(1, count + 1)],
    )
    minus = SectionProduct(
        group,
        [tuple(range(N, N - k, -1)) for k in range(1, count + 1)],
    )
    if minus.weight() != group.rho:
        raise ConventionError("sigma_minus weight is not rho")
    if plus.weight() != -group.rho:
        raise ConventionError("sigma_plus weight is not -rho")
    return plus, minus


class GroupSections:
    """One request's section pair, charts and sigma_minus pullbacks.

    Each attribute is built on first use and at most once per instance.  A
    build that raises stores nothing, so every later use raises again.
    """

    def __init__(self, group, r=None):
        self.group = group
        self.r = r

    @cached_property
    def pair(self):
        return build_sigma_pair(self.group)

    @cached_property
    def big_cell(self):
        return big_cell_chart(self.group)

    @cached_property
    def levi_chart(self):
        return levi_center_chart(self.big_cell, self.r)

    @cached_property
    def specialization(self):
        return specialization_family(self.levi_chart)

    @cached_property
    def big_minors(self):
        """sigma_minus's factors on the big cell."""
        return self.pair[1].evaluate_factors(self.big_cell.matrix)

    @cached_property
    def f_big(self):
        """sigma_minus on the big cell, the product of `big_minors`."""
        return prod(self.big_minors, start=Polynomial.one())

    @cached_property
    def f_entry(self):
        """sigma_minus on the SL_n big cell in matrix-entry coordinates."""
        return self.pair[1].evaluate(sl_entry_big_cell(self.group.n).matrix)


def generic_matrices(n):
    """The suite's generic n x n matrices by prefix: m full, d diagonal, u
    upper unitriangular, b upper and l lower triangular.  Each free entry
    (i, j) is the variable {prefix}{i}_{j}, all over one layout; u has 1 on
    its diagonal, and every other entry is 0."""
    shapes = {"m": lambda i, j: True, "d": eq, "u": lt, "b": le, "l": ge}
    free = [(p, i, j) for p, keep in shapes.items()
            for i in range(1, n + 1) for j in range(1, n + 1) if keep(i, j)]
    names = [f"{p}{i}_{j}" for p, i, j in free]
    one, zero = Polynomial.one(), Polynomial.zero()
    entries = {p: [[one if p == "u" and i == j else zero for j in range(n)]
                   for i in range(n)] for p in shapes}
    for (p, i, j), x in zip(free, Polynomial.generators(names)):
        entries[p][i - 1][j - 1] = x
    return {p: PolyMatrix(rows) for p, rows in entries.items()}


def row_exponent_vector(section):
    """How many factors contain each row index; the exact exponents in the
    triangular transformation law."""
    counts = [0] * section.group.size
    for spec in section.factors:
        for a in spec.rows:
            counts[a - 1] += 1
    return counts


def equivariance_suite(sections):
    """Verify the minor transformation laws as exact polynomial identities.

    Uses generic matrices with free entries (not group elements), which is
    the level at which the identities hold, all over one layout.  Any
    failure raises with the offending factor.
    """
    group = sections.group
    N = group.size
    plus, minus = sections.pair
    generic = generic_matrices(N)
    M = generic["m"]
    results = {}

    # (i) diagonal scaling per factor: weight -(chi_{a_1}+...+chi_{a_k})
    D = generic["d"]
    DM = D * M
    memo_m, memo_dm = {}, {}
    for section in (plus, minus):
        for spec in section.factors:
            lhs = column_minor(DM, spec, memo_dm)
            scale = Polynomial.one()
            for a in spec.rows:
                scale = scale * D[a, a]
            rhs = scale * column_minor(M, spec, memo_m)
            if lhs != rhs:
                raise ConventionError(f"diagonal scaling fails for {spec}")
    results["diagonal_scaling"] = True

    # (ii) right column-stability under upper unitriangular u
    u = generic["u"]
    Mu = M * u
    memo_mu = {}
    for section in (plus, minus):
        for spec in section.factors:
            if column_minor(Mu, spec, memo_mu) != column_minor(M, spec, memo_m):
                raise ConventionError(f"column stability fails for {spec}")
    results["right_column_stability"] = True

    # (iii) left B-law for sigma_minus: the trailing-row sets are stable
    # under adding higher rows, so a generic upper-triangular b scales
    # sigma_minus by prod b_ii^{e_i} with e the row-multiplicity vector
    b = generic["b"]
    bM = b * M
    exps = row_exponent_vector(minus)
    lhs = minus.evaluate(bM)
    scale = Polynomial.one()
    for i, e in enumerate(exps, start=1):
        scale = scale * b[i, i] ** e
    if lhs != scale * minus.evaluate(M):
        raise ConventionError("left B-law fails for sigma_minus")
    # the exponent vector realizes rho: fold(-sum e_a chi_a) == rho
    realized = group.fold_sum(
        [(-1, a) for a, e in enumerate(exps, start=1) for _ in range(e)]
    )
    if realized != group.rho:
        raise ConventionError("sigma_minus exponents do not realize rho")
    results["left_b_law"] = {"exponents": exps}

    # (iv) left B^- law for sigma_plus
    low = generic["l"]
    lM = low * M
    exps_p = row_exponent_vector(plus)
    scale = Polynomial.one()
    for i, e in enumerate(exps_p, start=1):
        scale = scale * low[i, i] ** e
    if plus.evaluate(lM) != scale * plus.evaluate(M):
        raise ConventionError("left B^- law fails for sigma_plus")
    results["left_bminus_law"] = {"exponents": exps_p}
    return results


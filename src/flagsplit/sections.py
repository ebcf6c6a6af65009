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
from .vanishing import order_at_center


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
    def levi_orders(self):
        """`order_at_center` of sigma_minus on the Levi chart."""
        return order_at_center(self.pair[1], self.levi_chart)

    @cached_property
    def entry_minors(self):
        """sigma_minus's factors on the SL_n big cell in entry coordinates."""
        return self.pair[1].evaluate_factors(sl_entry_big_cell(self.group.n).matrix)

    @cached_property
    def f_entry(self):
        """sigma_minus on the SL_n entry cell, the product of `entry_minors`."""
        return prod(self.entry_minors, start=Polynomial.one())


def generic_matrices(n, k):
    """The suite's generic matrices by prefix: m full n x k, u upper
    unitriangular k x k, and d diagonal, b upper and l lower triangular,
    each n x n.  Each free entry (i, j) is the variable {prefix}{i}_{j},
    all over one layout; u has 1 on its diagonal, and every other entry
    is 0."""
    shapes = {"m": (n, k, lambda i, j: True), "d": (n, n, eq),
              "u": (k, k, lt), "b": (n, n, le), "l": (n, n, ge)}
    free = [(p, i, j) for p, (rows, cols, keep) in shapes.items()
            for i in range(1, rows + 1) for j in range(1, cols + 1)
            if keep(i, j)]
    names = [f"{p}{i}_{j}" for p, i, j in free]
    one, zero = Polynomial.one(), Polynomial.zero()
    entries = {p: [[one if p == "u" and i == j else zero for j in range(cols)]
                   for i in range(rows)]
               for p, (rows, cols, _) in shapes.items()}
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
    the level at which the identities hold, all over one layout.  Every
    minor reads columns 1..k only, k the largest factor size, so M is
    N x k and u is k x k.  The left laws are checked factor by factor: for
    a diagonal T on every factor, an upper triangular b on sigma_minus's
    trailing rows R and a lower triangular l on sigma_plus's leading rows
    R, (T M)[R, 1..k] = T[R, R] M[R, 1..k], so each factor's minor scales
    by the product of T_aa over a in R; the product of these identities is
    the law for the whole section.  Any failure raises with the offending
    factor.
    """
    group = sections.group
    plus, minus = sections.pair
    k = max(spec.k for section in (plus, minus) for spec in section.factors)
    generic = generic_matrices(group.size, k)
    M = generic["m"]
    memo_m = {}

    # (ii) right column-stability under upper unitriangular u
    Mu = M * generic["u"]
    memo_mu = {}
    for section in (plus, minus):
        for spec in section.factors:
            if column_minor(Mu, spec, memo_mu) != column_minor(M, spec, memo_m):
                raise ConventionError(f"column stability fails for {spec}")

    # (i) diagonal scaling, (iii) the left B-law for sigma_minus and (iv)
    # the left B^- law for sigma_plus, one factor at a time
    laws = (("diagonal scaling", generic["d"], (plus, minus)),
            ("left B-law", generic["b"], (minus,)),
            ("left B^- law", generic["l"], (plus,)))
    for law, T, checked in laws:
        specs = [spec for section in checked for spec in section.factors]
        # row a of T M is row a of T times M, and a minor reads only its
        # own rows, so T M is formed on the rows the factors read
        rows = sorted({a for spec in specs for a in spec.rows})
        product = PolyMatrix._of([T.entries[a - 1] for a in rows]) * M
        TM = [[Polynomial.zero()] * k] * group.size
        for a, row in zip(rows, product.entries):
            TM[a - 1] = row
        TM, memo = PolyMatrix._of(TM), {}
        for spec in specs:
            scale = Polynomial.one()
            for a in spec.rows:
                scale = scale * T[a, a]
            lhs = column_minor(TM, spec, memo)
            if lhs != scale * column_minor(M, spec, memo_m):
                raise ConventionError(f"{law} fails for {spec}")

    # the exponent vector realizes rho: fold(-sum e_a chi_a) == rho
    exps = row_exponent_vector(minus)
    realized = group.fold_sum(
        [(-1, a) for a, e in enumerate(exps, start=1) for _ in range(e)]
    )
    if realized != group.rho:
        raise ConventionError("sigma_minus exponents do not realize rho")
    return {
        "diagonal_scaling": True,
        "right_column_stability": True,
        "left_b_law": {"exponents": exps},
        "left_bminus_law": {"exponents": row_exponent_vector(plus)},
    }

"""Coordinate charts on G/B and the specialization families.

The primary chart mechanism is intrinsic: one free coordinate per negative
root, with the chart matrix (center representative) * prod exp(t_b X_b).
The explicit star-entry picture for SL_n is kept as an independent
cross-check, and the Sp/SO specialization families realize bottom-left-corner
subfamilies with exact group membership as the ground truth: one layout table
per kind, and one sign resolver with one sign order for every kind.
"""

from __future__ import annotations

import itertools

from .matrix import PolyMatrix, exp_nilpotent, signed_rows
from .poly import Polynomial
from .rootdata import FAMILY_C, FAMILY_D, ConventionError

SP_ANTIDIAG = "sp_antidiag"
SO_EVEN_PAIRED = "so_even_paired"
SO_ODD_SKEW = "so_odd_skew"


class Chart:
    """A coordinate neighborhood of a point wB, as a symbolic group element."""

    def __init__(self, group, variables, matrix):
        self.group = group
        self.variables = list(variables)
        self.matrix = matrix

    def center_matrix(self):
        """The matrix at t = 0, as integer rows."""
        return [[e.constant_value() for e in row] for row in self.matrix.entries]

    def verify_membership(self):
        if not self.group.in_group(self.matrix):
            raise ConventionError("chart matrix fails exact group membership")


def _chart_variable_names(count):
    width = len(str(count))
    return [f"t{str(i).zfill(width)}" for i in range(1, count + 1)]


def unipotent_factor(group):
    """u(t) = ordered product of exp(t_b X_b) over negative-root generators,
    every t_b over the one layout of the chart's names."""
    gens = group.negative_root_generators()
    names = _chart_variable_names(len(gens))
    u = None
    for (_, X), t in zip(gens, Polynomial.generators(names)):
        u = exp_nilpotent(X, t, u)
    return u, names


def big_cell_chart(group):
    """Chart around eB; the matrix is lower unitriangular."""
    u, names = unipotent_factor(group)
    chart = Chart(group, names, u)
    chart.verify_membership()
    for i in range(1, group.size + 1):
        if chart.matrix[i, i] != Polynomial.one():
            raise ConventionError("big cell matrix is not unitriangular")
        for j in range(i + 1, group.size + 1):
            if not chart.matrix[i, j].is_zero():
                raise ConventionError("big cell matrix is not lower triangular")
    return chart


def levi_center_chart(big_cell, r=None):
    """Chart around w_0^P B: the representative times the big cell's matrix,
    over the big cell's free root coordinates."""
    group = big_cell.group
    rep = group.levi_longest_representative(r)
    chart = Chart(group, big_cell.variables, signed_rows(rep, big_cell.matrix))
    chart.verify_membership()
    if chart.center_matrix() != rep:
        raise ConventionError("chart center does not match the representative")
    return chart


def sl_entry_big_cell(n):
    """The SL_n big cell in matrix-entry coordinates: a lower unitriangular
    matrix with one free variable per below-diagonal entry.

    For n = 5 the entries are named a..j row by row, matching the usual
    hand-computation labels; larger sizes fall back to e{i}_{j}.
    """
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, i)]
    variables = (list("abcdefghij"[:len(cells)]) if n <= 5
                 else [f"e{i}_{j}" for i, j in cells])
    one, zero = Polynomial.one(), Polynomial.zero()
    entries = [[one if i == j else zero for j in range(n)] for i in range(n)]
    for (i, j), x in zip(cells, Polynomial.generators(variables)):
        entries[i - 1][j - 1] = x
    return Chart(None, variables, PolyMatrix(entries))


def sl_explicit_chart(n, r):
    """The explicit SL_n picture chart: anti-identity blocks and free entries.

    Top-left r x r and bottom-right (n-r) x (n-r) blocks carry 1 on their
    anti-diagonals with free entries strictly below them; the bottom-left
    block is entirely free; the top-right block is zero.
    """
    if not 1 <= r <= n - 1:
        raise ValueError("need 1 <= r <= n-1")
    entries = [[Polynomial.zero() for _ in range(n)] for _ in range(n)]
    free = []  # the free entries (i, j), in variable order
    one = Polynomial.one()
    for i in range(1, r + 1):  # top-left block
        for j in range(1, r + 1):
            anti = i + j == r + 1
            if anti:
                entries[i - 1][j - 1] = one
            elif i + j > r + 1:
                free.append((i, j))
    for i in range(r + 1, n + 1):  # bottom-left block: all free
        for j in range(1, r + 1):
            free.append((i, j))
    m = n - r
    for bi in range(1, m + 1):  # bottom-right block
        for bj in range(1, m + 1):
            i, j = r + bi, r + bj
            if bi + bj == m + 1:
                entries[i - 1][j - 1] = one
            elif bi + bj > m + 1:
                free.append((i, j))
    expected = r * (r - 1) // 2 + m * (m - 1) // 2 + r * m
    if len(free) != expected:
        raise ConventionError("unexpected free-variable count in picture chart")
    variables = [f"x{k:03d}" for k in range(1, len(free) + 1)]
    for (i, j), x in zip(free, Polynomial.generators(variables)):
        entries[i - 1][j - 1] = x
    return Chart(None, variables, PolyMatrix(entries))


class SpecializationFamily:
    """A membership-verified subfamily of a Levi-center chart."""

    def __init__(self, group, kind, variables, matrix, sign_assignment):
        self.group = group
        self.kind = kind
        self.variables = list(variables)
        self.matrix = matrix
        self.sign_assignment = sign_assignment

    def parameter_count(self):
        return len(self.variables)

    def serialize(self):
        return {
            "kind": self.kind,
            "variables": self.variables,
            "matrix": self.matrix.to_strings(),
            "sign_assignment": self.sign_assignment,
        }


def expected_parameter_count(kind, n):
    if kind == SP_ANTIDIAG:
        return n
    if kind == SO_EVEN_PAIRED:
        return n // 2
    if kind == SO_ODD_SKEW:
        return n * (n - 1) // 2
    raise ValueError(f"unknown kind {kind!r}")


def specialization_family(levi_chart):
    """Build the bottom-left-corner family of the Levi-center chart's group;
    the chart's center is the representative.

    The kind follows from the group: sp_antidiag for C, so_even_paired for D
    with even n, so_odd_skew for D with odd n; family A has none.  The kind's
    layout gives a literal placement, tried first, and links of entries that
    share a variable.  When the literal reading fails the exact membership
    identity, each link keeps its first entry at +1 and takes the first
    partner signs, +1 before -1 for every kind, under which membership holds
    (the defect is linear in the added block, so links are independent).
    The assignment records which reading held.
    """
    group = levi_chart.group
    n = group.n
    if group.family == FAMILY_C:
        kind, layout = SP_ANTIDIAG, _sp_layout
    elif group.family == FAMILY_D and n % 2 == 0:
        kind, layout = SO_EVEN_PAIRED, _so_even_layout
    elif group.family == FAMILY_D:
        kind, layout = SO_ODD_SKEW, _so_odd_layout
    else:
        raise ValueError(f"family {group.family} has no specialization family")

    literal_label, placements, label, links = layout(n)
    names = [var for _, var in placements.values()] + [var for var, _ in links]
    x = dict(zip(names, Polynomial.generators(names)))
    rep = levi_chart.center_matrix()
    matrix, literal = _try_placement(group, rep, placements, x)
    ok = literal
    if not literal:
        placements = {}
        for var, entries in links:
            link = _resolve_link(group, rep, var, entries, x)
            if link is None:
                break
            placements.update(link)
        else:
            matrix, ok = _try_placement(group, rep, placements, x)
    variables = list(dict.fromkeys(var for _, var in placements.values()))
    if not ok or len(variables) != expected_parameter_count(kind, n):
        raise ConventionError(
            f"no membership-valid placement found for {kind} at n={n}; "
            "this contradicts the implementation's conventions"
        )
    assignment = {
        "placement": literal_label if literal else label,
        "entries": {
            f"({i},{j})": f"{'+' if s > 0 else '-'}{v}"
            for (i, j), (s, v) in placements.items()
        },
    }
    if not literal:
        assignment["literal_reading_failed"] = literal_label
    return SpecializationFamily(group, kind, variables, matrix, assignment)


def _resolve_link(group, rep, var, entries, x):
    """The link's placement, first entry at +1, under the first partner signs
    that pass membership; None when none do.  `x` maps names to variables."""
    first, *rest = entries
    for signs in itertools.product((1, -1), repeat=len(rest)):
        link = {first: (1, var)}
        link.update((entry, (s, var)) for entry, s in zip(rest, signs))
        if _try_placement(group, rep, link, x)[1]:
            return link
    return None


def _try_placement(group, rep, placements, x):
    """rep + sum of s*x[var] at entry (i, j), `x` mapping names to
    variables; returns (matrix, whether it preserves the form)."""
    entries = [list(row) for row in rep]
    for (i, j), (s, var) in placements.items():
        entries[i - 1][j - 1] += x[var] if s > 0 else -x[var]
    matrix = PolyMatrix(entries)
    return matrix, group.preserves_form(matrix)


# Each layout gives (literal label, literal placement, resolved label, links);
# a placement maps entry (i, j) to (sign, variable), and a link is
# (variable, [first entry, *linked entries]).

def _sp_layout(n):
    """Sp: n independent anti-diagonal entries of the bottom-left block read
    literally; resolved, anti-diagonal entries paired by membership (the
    middle one alone for odd n) plus free entries on the block diagonal,
    which keeps n parameters and corner minors equal to monomials."""
    literal = {(n + i, n + 1 - i): (1, f"x{i}") for i in range(1, n + 1)}
    links = [(f"x{i}", [(n + i, n + 1 - i), (2 * n + 1 - i, i)])
             for i in range(1, n // 2 + 1)]
    if n % 2:
        middle = (n + 1) // 2
        links.append((f"x{middle}", [(n + middle, n + 1 - middle)]))
    links += [(f"y{k}", [(n + k, k)]) for k in range(1, n // 2 + 1)]
    return ("literal_antidiagonal", literal,
            "paired_antidiagonal_plus_diagonal", links)


def _so_even_layout(n):
    """SO_2n, n even: anti-diagonal entries of the bottom-left block, paired
    with negated partners in the literal reading."""
    links = [(f"x{k}", [(2 * n + 1 - k, k), (n + k, n + 1 - k)])
             for k in range(1, n // 2 + 1)]
    return ("literal_paired_antidiagonal", _negated_partners(links),
            "sign_resolved_paired_antidiagonal", links)


def _so_odd_layout(n):
    """SO_2n, n odd: the bottom-left block is skew-symmetric in the literal
    reading (up to membership-resolved signs); the diagonal vanishes."""
    links = [(f"x{i}_{j}", [(n + i, j), (n + j, i)])
             for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return ("literal_skew_block", _negated_partners(links),
            "sign_resolved_skew_block", links)


def _negated_partners(links):
    """The placement with each link's first entry at +1, the rest at -1."""
    return {entry: (-1 if k else 1, var)
            for var, entries in links for k, entry in enumerate(entries)}

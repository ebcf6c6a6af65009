"""Coordinate charts on G/B and the specialization families.

The primary chart mechanism is intrinsic: one free coordinate per negative
root, with the chart matrix (center representative) * prod exp(t_b X_b).
The explicit star-entry picture for SL_n is kept as an independent
cross-check, and the Sp/SO specialization families realize bottom-left-corner
subfamilies with exact group membership as the ground truth.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .matrix import PolyMatrix, exp_nilpotent
from .poly import Polynomial
from .rootdata import FAMILY_C, FAMILY_D, ConventionError

SP_ANTIDIAG = "sp_antidiag"
SO_EVEN_PAIRED = "so_even_paired"
SO_ODD_SKEW = "so_odd_skew"


class Chart:
    """A coordinate neighborhood of a point wB, as a symbolic group element."""

    def __init__(self, group, center_word, variables, matrix, roots=None):
        self.group = group
        self.center_word = center_word  # WeylWord or None for the big cell
        self.variables = list(variables)
        self.matrix = matrix
        self.roots = roots  # negative roots in variable order, when intrinsic

    def center_matrix(self):
        return self.matrix.substitute({v: 0 for v in self.variables})

    def verify_membership(self):
        if not self.group.in_group(self.matrix):
            raise ConventionError("chart matrix fails exact group membership")

    def serialize(self):
        return {
            "center": list(self.center_word.permutation) if self.center_word else None,
            "variables": self.variables,
            "matrix": self.matrix.to_strings(),
        }


def _chart_variable_names(count):
    width = len(str(count))
    return [f"t{str(i).zfill(width)}" for i in range(1, count + 1)]


def unipotent_factor(group, generator_order=None):
    """u(t) = ordered product of exp(t_b X_b) over negative-root generators."""
    gens = group.negative_root_generators()
    if generator_order is not None:
        gens = [gens[i] for i in generator_order]
    names = _chart_variable_names(len(gens))
    u = PolyMatrix.identity(group.size)
    roots = []
    for (root, X), name in zip(gens, names):
        u = u * exp_nilpotent(X, name)
        roots.append(root)
    return u, names, roots


def big_cell_chart(group, generator_order=None):
    """Chart around eB; the matrix is lower unitriangular."""
    u, names, roots = unipotent_factor(group, generator_order)
    chart = Chart(group, None, names, u, roots)
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
    chart = Chart(group, group.levi_longest_word(r), big_cell.variables,
                  rep * big_cell.matrix, big_cell.roots)
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
    letters = "abcdefghij"
    entries = [[Polynomial.zero() for _ in range(n)] for _ in range(n)]
    variables = []
    count = 0
    for i in range(1, n + 1):
        entries[i - 1][i - 1] = Polynomial.one()
        for j in range(1, i):
            name = letters[count] if n <= 5 else f"e{i}_{j}"
            count += 1
            variables.append(name)
            entries[i - 1][j - 1] = Polynomial.variable(name)
    return Chart(None, None, variables, PolyMatrix(entries))


def sl_explicit_chart(n, r):
    """The explicit SL_n picture chart: anti-identity blocks and free entries.

    Top-left r x r and bottom-right (n-r) x (n-r) blocks carry 1 on their
    anti-diagonals with free entries strictly below them; the bottom-left
    block is entirely free; the top-right block is zero.
    """
    if not 1 <= r <= n - 1:
        raise ValueError("need 1 <= r <= n-1")
    entries = [[Polynomial.zero() for _ in range(n)] for _ in range(n)]
    variables = []
    counter = itertools.count(1)

    def fresh():
        name = f"x{next(counter):03d}"
        variables.append(name)
        return Polynomial.variable(name)

    one = Polynomial.one()
    for i in range(1, r + 1):  # top-left block
        for j in range(1, r + 1):
            anti = i + j == r + 1
            if anti:
                entries[i - 1][j - 1] = one
            elif i + j > r + 1:
                entries[i - 1][j - 1] = fresh()
    for i in range(r + 1, n + 1):  # bottom-left block: all free
        for j in range(1, r + 1):
            entries[i - 1][j - 1] = fresh()
    m = n - r
    for bi in range(1, m + 1):  # bottom-right block
        for bj in range(1, m + 1):
            i, j = r + bi, r + bj
            if bi + bj == m + 1:
                entries[i - 1][j - 1] = one
            elif bi + bj > m + 1:
                entries[i - 1][j - 1] = fresh()
    matrix = PolyMatrix(entries)
    expected = r * (r - 1) // 2 + m * (m - 1) // 2 + r * m
    if len(variables) != expected:
        raise ConventionError("unexpected free-variable count in picture chart")
    return Chart(None, None, variables, matrix)


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

    def sample_membership(self, trials=5, seed=7):
        """Numeric membership at random rational parameter points."""
        rng = random.Random(seed)
        form = [
            [e.constant_value() for e in row] for row in self.group.form.entries
        ]
        for _ in range(trials):
            point = {
                v: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                for v in self.variables
            }
            m = self.matrix.evaluate(point)
            size = self.group.size
            for i in range(size):
                for j in range(size):
                    acc = sum(m[k][i] * form[k][l] * m[l][j]
                              for k in range(size) for l in range(size))
                    if acc != form[i][j]:
                        return False
        return True

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
    """Build the bottom-left-corner family of the Levi-center chart's group,
    resolving signs by search; the chart's center is the representative.

    The kind follows from the group: sp_antidiag for C, so_even_paired for D
    with even n, so_odd_skew for D with odd n; family A has none.  The
    literal entry placement is tried first; when it fails the exact
    membership identity, a finite space of sign/placement twists is searched
    until membership holds with the expected parameter count.  The resolved
    assignment (and whether the literal reading survived) is recorded.
    """
    group = levi_chart.group
    n = group.n
    if group.family == FAMILY_C:
        kind, candidates = SP_ANTIDIAG, _sp_antidiag_candidates
    elif group.family == FAMILY_D and n % 2 == 0:
        kind, candidates = SO_EVEN_PAIRED, _so_even_candidates
    elif group.family == FAMILY_D:
        kind, candidates = SO_ODD_SKEW, _so_odd_candidates
    else:
        raise ValueError(f"family {group.family} has no specialization family")

    rep = levi_chart.center_matrix()
    literal_failure = None
    for label, variables, placements in candidates(group, rep):
        matrix, ok = _try_placement(group, rep, placements)
        if ok:
            if len(variables) != expected_parameter_count(kind, n):
                continue
            assignment = {
                "placement": label,
                "entries": {
                    f"({i},{j})": f"{'+' if s > 0 else '-'}{v}"
                    for (i, j), (s, v) in placements.items()
                },
            }
            if literal_failure:
                assignment["literal_reading_failed"] = literal_failure
            return SpecializationFamily(group, kind, variables, matrix, assignment)
        if literal_failure is None:
            literal_failure = label
    raise ConventionError(
        f"no membership-valid placement found for {kind} at n={n}; "
        "this contradicts the implementation's conventions"
    )


def _try_placement(group, rep, placements):
    """rep + sum of s*x at entry (i, j); returns (matrix, membership holds)."""
    size = group.size
    entries = [[rep[i, j] for j in range(1, size + 1)] for i in range(1, size + 1)]
    for (i, j), (s, var) in placements.items():
        entries[i - 1][j - 1] = entries[i - 1][j - 1] + Polynomial.variable(var) * s
    matrix = PolyMatrix(entries)
    lhs = matrix.transpose() * group.form * matrix - group.form
    return matrix, lhs.is_zero()


def _resolve_pair_signs(group, rep, pair_maker, pairs):
    """Per-pair sign search; pairs are independent because the membership
    defect is linear in the added block."""
    placements = {}
    for pair in pairs:
        for signs in pair_maker(pair):
            _, ok = _try_placement(group, rep, signs)
            if ok:
                placements.update(signs)
                break
        else:
            return None
    return placements


def _sp_antidiag_candidates(group, rep):
    """Candidate placements for the Sp bottom-left family.

    Literal reading: independent variables on the block anti-diagonal.
    Fallback: membership-paired anti-diagonal entries plus free entries on
    the block diagonal, which restores the stated n-parameter count while
    keeping the corner minors equal to monomials.
    """
    n = group.n

    # literal: n independent anti-diagonal entries
    variables = [f"x{i}" for i in range(1, n + 1)]
    literal = {
        (n + i, n + 1 - i): (1, variables[i - 1]) for i in range(1, n + 1)
    }
    yield "literal_antidiagonal", variables, literal

    # paired anti-diagonal + free diagonal entries
    pair_vars = []
    pairs = []
    for i in range(1, n // 2 + 1):
        var = f"x{i}"
        pair_vars.append(var)
        pairs.append((i, n + 1 - i, var))
    middle = None
    if n % 2:
        middle = (n + 1) // 2
        pair_vars.append(f"x{middle}")
    diag_vars = [f"y{i}" for i in range(1, n // 2 + 1)]

    def pair_maker(pair):
        i, ipart, var = pair
        for s in (1, -1):
            yield {
                (n + i, n + 1 - i): (1, var),
                (n + ipart, n + 1 - ipart): (s, var),
            }

    placements = _resolve_pair_signs(group, rep, pair_maker, pairs)
    if placements is not None:
        if middle is not None:
            single = {(n + middle, n + 1 - middle): (1, f"x{middle}")}
            _, ok = _try_placement(group, rep, single)
            if ok:
                placements.update(single)
            else:
                placements = None
    if placements is not None:
        for k, var in enumerate(diag_vars, start=1):
            single = {(n + k, k): (1, var)}
            _, ok = _try_placement(group, rep, single)
            if not ok:
                placements = None
                break
            placements.update(single)
    if placements is not None:
        yield "paired_antidiagonal_plus_diagonal", pair_vars + diag_vars, placements


def _so_even_candidates(group, rep):
    """SO_2n, n even: anti-diagonal entries paired with negated partners."""
    n = group.n

    variables = [f"x{i}" for i in range(1, n // 2 + 1)]
    # literal reading: rows n+i and partner row 2n+1-i carry x and -x
    literal = {}
    for k, var in enumerate(variables, start=1):
        hi = n + 1 - k  # block row in n/2+1..n  (matrix rows 3n/2+1..2n)
        lo = k          # partner block row (matrix rows n+1..3n/2)
        literal[(n + hi, n + 1 - hi)] = (1, var)
        literal[(n + lo, n + 1 - lo)] = (-1, var)
    yield "literal_paired_antidiagonal", variables, literal

    pairs = [(n + 1 - k, k, var) for k, var in enumerate(variables, start=1)]

    def pair_maker(pair):
        hi, lo, var = pair
        for s in (-1, 1):
            yield {
                (n + hi, n + 1 - hi): (1, var),
                (n + lo, n + 1 - lo): (s, var),
            }

    placements = _resolve_pair_signs(group, rep, pair_maker, pairs)
    if placements is not None:
        yield "sign_resolved_paired_antidiagonal", variables, placements


def _so_odd_candidates(group, rep):
    """SO_2n, n odd: the bottom-left block is a generic skew-symmetric matrix
    (up to membership-resolved signs); the diagonal vanishes."""
    n = group.n

    variables = [f"x{i}_{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    literal = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            var = f"x{i}_{j}"
            literal[(n + i, j)] = (1, var)
            literal[(n + j, i)] = (-1, var)
    yield "literal_skew_block", variables, literal

    pairs = [
        (i, j, f"x{i}_{j}") for i in range(1, n + 1) for j in range(i + 1, n + 1)
    ]

    def pair_maker(pair):
        i, j, var = pair
        for s in (-1, 1):
            yield {(n + i, j): (1, var), (n + j, i): (s, var)}

    placements = _resolve_pair_signs(group, rep, pair_maker, pairs)
    if placements is not None:
        yield "sign_resolved_skew_block", variables, placements

"""Matrices with polynomial entries, column-initial minors, exp(tX) = I + tX.

Constant matrices are plain lists of integer rows; `PolyMatrix` holds the
matrices whose entries carry variables.  The constant matrices that act on a
`PolyMatrix` (a form, a Weyl representative) are signed permutations, so
`signed_rows` applies one by picking and negating rows, with no products.
Products of integer and of polynomial matrices visit only nonzero entries.
Every root generator X of SL, Sp and SO in the natural representation has
X^2 = 0, so exp(tX) = I + tX, and `exp_nilpotent` multiplies by it as
updates of the columns that X's nonzero entries reach.

The determinant workhorse is `column_minor`: expansion along the last column
with memoization keyed by row subsets, so that the nested leading minors of a
fixed row family share all their subproblems.  The one exact elimination is
`integer_nullspace`, fraction-free over the integers.
"""

from __future__ import annotations

from math import gcd, lcm

from .poly import Polynomial


class MinorSpec:
    """Rows a_1,...,a_k in a significant order; columns are always 1..k.

    Indices are 1-based, matching the usual determinant notation
    det(a_1,...,a_k | 1,...,k).
    """

    def __init__(self, rows):
        rows = tuple(rows)
        if not rows:
            raise ValueError("empty row list")
        if len(set(rows)) != len(rows):
            raise ValueError(f"repeated rows in {rows}")
        self.rows = rows

    @property
    def k(self):
        return len(self.rows)

    def validate(self, matrix):
        for a in self.rows:
            if not 1 <= a <= matrix.nrows:
                raise IndexError(f"row {a} out of range for {matrix.nrows} rows")
        if self.k > matrix.ncols:
            raise IndexError(f"{self.k} columns requested, matrix has {matrix.ncols}")

    def __repr__(self):
        return f"MinorSpec({self.rows})"


class PolyMatrix:
    """Dense matrix of integer polynomials."""

    def __init__(self, entries):
        self.entries = []
        ncols = None
        for row in entries:
            row = [e if isinstance(e, Polynomial) else Polynomial.constant(e)
                   for e in row]
            if ncols is None:
                ncols = len(row)
            elif len(row) != ncols:
                raise ValueError("ragged rows")
            self.entries.append(row)
        if not self.entries or ncols == 0:
            raise ValueError("empty matrix")
        self.nrows = len(self.entries)
        self.ncols = ncols

    @classmethod
    def _of(cls, entries):
        """A PolyMatrix over rows of Polynomials, taken as they are."""
        matrix = object.__new__(cls)
        matrix.entries = entries
        matrix.nrows, matrix.ncols = len(entries), len(entries[0])
        return matrix

    def __getitem__(self, ij):
        i, j = ij  # 1-based
        return self.entries[i - 1][j - 1]

    def __mul__(self, other):
        # Only the nonzero (j, b) pairs of each row of `other` are visited;
        # each entry sums its nonzero products a * b in k order.
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        nonzero = [[(j, b) for j, b in enumerate(row) if b.terms]
                   for row in other.entries]
        zero = Polynomial.zero()
        out = []
        for row in self.entries:
            acc = [zero] * other.ncols
            for a, pairs in zip(row, nonzero):
                if a.terms:
                    for j, b in pairs:
                        acc[j] = acc[j] + a * b
            out.append(acc)
        return PolyMatrix._of(out)

    def to_strings(self):
        return [[str(e) for e in row] for row in self.entries]

    def __repr__(self):
        return f"PolyMatrix({self.nrows}x{self.ncols})"


def signed_rows(perm, matrix):
    """perm * matrix for a +-1 permutation matrix `perm` given as integer
    rows: each row of the product is a row of `matrix` or its negation.
    Raises ValueError on a row of perm that is not a single +-1."""
    out = []
    for row in perm:
        (k, s), = [(k, s) for k, s in enumerate(row) if s]
        if s not in (1, -1):
            raise ValueError(f"{s} is not a sign")
        source = matrix.entries[k]
        out.append(list(source) if s == 1 else [-e for e in source])
    return PolyMatrix._of(out)


def column_minor(matrix, spec, memo=None):
    """det of the submatrix on spec.rows (in the listed order) and columns 1..k.

    Expansion along the last column, memoized on frozen row sets, so the
    leading minors det(A | 1..j), j <= k, of one row family cost a single pass.
    """
    if not isinstance(spec, MinorSpec):
        spec = MinorSpec(spec)
    spec.validate(matrix)
    sign = _permutation_sign_to_sorted(spec.rows)
    if memo is None:
        memo = {}
    value = _minor_sorted(matrix, tuple(sorted(spec.rows)), memo)
    return value if sign == 1 else -value


def _permutation_sign_to_sorted(rows):
    rows = list(rows)
    sign = 1
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if rows[i] > rows[j]:
                sign = -sign
    return sign


def _minor_sorted(matrix, rows, memo):
    """det of submatrix with strictly increasing `rows` and columns 1..len(rows)."""
    cached = memo.get(rows)
    if cached is not None:
        return cached
    k = len(rows)
    if k == 1:
        result = matrix[rows[0], 1]
    else:
        acc = Polynomial.zero()
        for i, r in enumerate(rows):
            entry = matrix[r, k]
            if entry.is_zero():
                continue
            sub = _minor_sorted(matrix, rows[:i] + rows[i + 1 :], memo)
            term = entry * sub
            if (i + k) % 2:  # (-1)^{i+k} with i 0-based, column index k
                acc = acc + term
            else:
                acc = acc - term
        result = acc
    memo[rows] = result
    return result


def determinant(matrix):
    if matrix.nrows != matrix.ncols:
        raise ValueError("non-square")
    memo = {}
    return column_minor(matrix, MinorSpec(range(1, matrix.nrows + 1)), memo)


def integer_product(a, b):
    """Product of two integer matrices given as lists of rows: each row
    adds x * (row k of b) for its nonzero entries x, over b's nonzero y."""
    width = len(b[0]) if b else 0
    nonzero = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row in a:
        acc = [0] * width
        for x, pairs in zip(row, nonzero):
            if x:
                for j, y in pairs:
                    acc[j] += x * y
        out.append(acc)
    return out


def square_zero_entries(matrix):
    """The nonzero entries (k, j, c) of an integer matrix X, given as a
    list of rows, in row order; ValueError unless X^2 = 0, found from those
    entries alone: (X^2)[i][l] sums X[i][k] X[k][l] over them."""
    entries = [(k, j, c) for k, row in enumerate(matrix) if any(row)
               for j, c in enumerate(row) if c]
    square = {}
    for i, k, a in entries:
        for j, l, b in entries:
            if j == k:
                square[i, l] = square.get((i, l), 0) + a * b
    if any(square.values()):
        raise ValueError("X^2 != 0, so exp(tX) is not I + tX")
    return entries


def exp_nilpotent(matrix, t, left=None):
    """left * exp(tX) = left * (I + tX) for an integer matrix X with
    X^2 = 0, given as a list of rows, a variable `t` (a Polynomial; c * t
    keeps its layout) and a `PolyMatrix` `left` (the identity when None).

    Column j of the product is column j of `left` plus, for each nonzero
    c = X[k][j], c * t times column k of `left`; no other column changes.
    Raises ValueError unless X^2 = 0, before any product.
    """
    entries = square_zero_entries(matrix)
    size = len(matrix)
    if left is None:
        one, zero = Polynomial.one(), Polynomial.zero()
        left = PolyMatrix._of([[one if i == j else zero for j in range(size)]
                               for i in range(size)])
    elif left.ncols != size:
        raise ValueError("shape mismatch")
    out = [list(row) for row in left.entries]
    for k, j, c in entries:
        step = t.scaled(c)
        for row, old in zip(out, left.entries):
            if old[k].terms:
                row[j] = row[j] + old[k] * step
    return PolyMatrix._of(out)


def primitive(vec):
    """The primitive integer multiple of a nonzero integer vector whose
    first nonzero entry is positive."""
    sign = 1 if next(x for x in vec if x) > 0 else -1
    divisor = sign * gcd(*vec)
    return [x // divisor for x in vec]


def integer_nullspace(rows, ncols):
    """A basis of the rational nullspace of the integer rows on `ncols`
    columns, one primitive vector per free column, by fraction-free
    Gauss-Jordan elimination (Bareiss, Math. Comp. 22, 1968): each row
    update is pivot * row - factor * pivot_row, divided by its content."""
    m = [list(row) for row in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top, p = m[rank], m[rank][col]
        for r, row in enumerate(m):
            factor = row[col]
            if r != rank and factor:
                row = [p * x - factor * y for x, y in zip(row, top)]
                content = gcd(*row) or 1
                m[r] = [x // content for x in row]
        pivots.append(col)
    scale = lcm(*(row[c] for row, c in zip(m, pivots)))
    basis = []
    for f in range(ncols):
        if f not in pivots:
            vec = [0] * ncols
            vec[f] = scale
            for row, c in zip(m, pivots):
                vec[c] = -row[f] * scale // row[c]
            basis.append(primitive(vec))
    return basis

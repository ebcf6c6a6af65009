"""Matrices with polynomial entries, column-initial minors, nilpotent exp.

The determinant workhorse is `column_minor`: expansion along the last column
with memoization keyed by row subsets, so that the nested leading minors of a
fixed row family share all their subproblems.
"""

from __future__ import annotations

from fractions import Fraction

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

    def __eq__(self, other):
        return isinstance(other, MinorSpec) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)


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
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, nrows, ncols=None):
        ncols = ncols or nrows
        return cls([[0] * ncols for _ in range(nrows)])

    def __getitem__(self, ij):
        i, j = ij  # 1-based
        return self.entries[i - 1][j - 1]

    def __mul__(self, other):
        if isinstance(other, PolyMatrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch")
            zero = Polynomial.zero()
            out = []
            for i in range(self.nrows):
                row = []
                for j in range(other.ncols):
                    acc = zero
                    for k in range(self.ncols):
                        a = self.entries[i][k]
                        b = other.entries[k][j]
                        if a.is_zero() or b.is_zero():
                            continue
                        acc = acc + a * b
                    row.append(acc)
                out.append(row)
            return PolyMatrix(out)
        # scalar
        return PolyMatrix([[e * other for e in row] for row in self.entries])

    def __add__(self, other):
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch")
        return PolyMatrix([
            [a + b for a, b in zip(r1, r2)]
            for r1, r2 in zip(self.entries, other.entries)
        ])

    def __sub__(self, other):
        return self + (other * (-1))

    def transpose(self):
        return PolyMatrix(
            [[self.entries[i][j] for i in range(self.nrows)] for j in range(self.ncols)]
        )

    def __eq__(self, other):
        return isinstance(other, PolyMatrix) and self.entries == other.entries

    def is_zero(self):
        return all(e.is_zero() for row in self.entries for e in row)

    def substitute(self, assignment):
        return PolyMatrix(
            [[e.substitute(assignment) for e in row] for row in self.entries]
        )

    def evaluate(self, point):
        """Numeric matrix (list of lists of numbers) at a point."""
        return [[e.evaluate(point) for e in row] for row in self.entries]

    def to_strings(self):
        return [[str(e) for e in row] for row in self.entries]

    def __repr__(self):
        return f"PolyMatrix({self.nrows}x{self.ncols})"


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


def exp_nilpotent(matrix, t):
    """I + tX + t^2 X^2/2! + ... for nilpotent X; division must be exact.

    `t` is a variable id.  Raises ValueError if X^N != 0 for N = nrows, and
    ArithmeticError if some factorial fails to divide an entry of X^m exactly.
    """
    powers = []
    power = PolyMatrix.identity(matrix.nrows)
    for _ in range(matrix.nrows):
        power = power * matrix
        if power.is_zero():
            break
        powers.append(power)
    else:
        raise ValueError("matrix is not nilpotent")
    tvar = Polynomial.variable(t)
    result = PolyMatrix.identity(matrix.nrows)
    tpow = Polynomial.one()
    factorial = 1
    for m, power in enumerate(powers, start=1):
        factorial *= m
        tpow = tpow * tvar
        scaled = PolyMatrix(
            [[_exact_divide(e, factorial) for e in row] for row in power.entries]
        )
        result = result + scaled * tpow
    return result


def _exact_divide(poly, divisor):
    out = []
    for mono, c in poly.terms.items():
        q, r = divmod(c, divisor)
        if r:
            raise ArithmeticError(f"{c} not exactly divisible by {divisor}")
        out.append((mono, q))
    return Polynomial(out)


def row_reduce(rows, ncols):
    """Exact Gauss-Jordan elimination over Q on the first `ncols` columns.

    Entries are ints or Fractions; columns past `ncols` (an augmented
    right-hand side) are carried along but never pivoted on.  Returns the
    reduced row echelon form, its pivot columns, and the determinant, which
    is 0 unless the matrix is square and of full rank.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    det = Fraction(1)
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            det = -det
        det *= m[rank][col]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                factor = m[r][col]
                m[r] = [x - factor * y for x, y in zip(m[r], m[rank])]
        pivots.append(col)
    if not len(pivots) == len(m) == ncols:
        det = Fraction(0)
    return m, pivots, det


def rational_matrix_rank(rows):
    """Rank of a numeric matrix (lists of ints/Fractions), exact elimination."""
    return len(row_reduce(rows, len(rows[0]) if rows else 0)[1])


def rational_nullspace(rows, ncols):
    """Nullspace basis of a numeric constraint matrix, exact over Q."""
    m, pivots, _ = row_reduce(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -m[r][f]
        basis.append(vec)
    return basis

"""Classical group data in explicit matrix conventions.

Families:
  A: SL_n, upper-triangular Borel, diagonal torus.
  C: Sp_2n with the anti-diagonal skew form J[i][i*] = +1 (i < i*), -1 (i > i*).
  D: SO_2n with the anti-diagonal symmetric form S[i][i*] = 1.
Here k* = N + 1 - k with N the matrix size.

Root data is computed, not hardcoded: the Lie algebra is cut out by
X^T J + J X = 0 (trace zero for A), weight-decomposed under the diagonal
torus, and the resulting roots are checked against the expected lists.
Heights come from one walk up from the simple roots.  Constant matrices (the
form, the root generators and the Weyl representatives) are lists of integer
rows; the form and the representatives are signed permutations, which act on
a chart's `PolyMatrix` through `signed_rows`.
"""

from __future__ import annotations

from operator import add, sub

from .matrix import (
    PolyMatrix,
    determinant,
    integer_nullspace,
    integer_product,
    signed_rows,
    square_zero_entries,
)
from .poly import Polynomial

FAMILY_A = "A"
FAMILY_C = "C"
FAMILY_D = "D"
_FAMILIES = (FAMILY_A, FAMILY_C, FAMILY_D)


class ConventionError(RuntimeError):
    """A construction-time consistency check failed; indicates a bug."""


class Weight:
    """A torus character in chi-coordinates, stored doubled (2*lambda).

    Doubling keeps the half-integral spin weights of family D integral.
    For family A, weights are taken modulo the all-ones vector (the chi_k
    sum to zero on the SL torus); the canonical representative has last
    coordinate zero and every coordinate even.  The constructor raises
    ValueError on an unknown family, a non-integral coordinate or an odd
    family-A one; +, - and `scale` keep weights canonical with no checks.
    """

    __slots__ = ("family", "doubled")

    def __init__(self, family, doubled):
        if family not in _FAMILIES:
            raise ValueError(f"unknown family {family!r}")
        doubled = tuple(doubled)
        coords = tuple(map(int, doubled))
        if coords != doubled:
            raise ValueError(f"non-integral coordinates {doubled}")
        if family == FAMILY_A:
            if any(x % 2 for x in coords):
                raise ValueError("family A weights have even doubled coordinates")
            coords = tuple(x - coords[-1] for x in coords)
        self.family = family
        self.doubled = coords

    @classmethod
    def _canonical(cls, family, doubled):
        """A Weight from a tuple already in canonical form."""
        w = object.__new__(cls)
        w.family, w.doubled = family, doubled
        return w

    def __add__(self, other):
        if self.family != other.family:
            raise ValueError("family mismatch")
        return Weight._canonical(
            self.family, tuple(map(add, self.doubled, other.doubled)))

    def __neg__(self):
        return Weight._canonical(self.family, tuple(-a for a in self.doubled))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, m):
        """m times this weight; ValueError unless m is an integer."""
        if m != int(m):
            raise ValueError(f"{m} is not an integer")
        m = int(m)
        return Weight._canonical(self.family, tuple(m * a for a in self.doubled))

    def __eq__(self, other):
        return (
            isinstance(other, Weight)
            and self.family == other.family
            and self.doubled == other.doubled
        )

    def __hash__(self):
        return hash((self.family, self.doubled))

    def __repr__(self):
        return f"Weight({self.family}, doubled={self.doubled})"

    @classmethod
    def zero(cls, family, rank):
        return cls(family, [0] * rank)


class WeylWord:
    """A (signed) permutation together with a reduced word in simple reflections."""

    def __init__(self, permutation, word, inversions):
        self.permutation = tuple(permutation)  # on 1..N, matrix-level
        self.word = tuple(word)  # simple reflection indices, 1-based
        if len(self.word) != inversions:
            raise ConventionError(
                f"word length {len(self.word)} != inversion count {inversions}"
            )

    def __repr__(self):
        return f"WeylWord(perm={self.permutation}, word={self.word})"


class GroupDatum:
    """Everything downstream modules need about one classical group."""

    def __init__(self, family, n):
        if family not in _FAMILIES:
            raise ValueError(f"unsupported family {family!r}")
        if n < 2:
            raise ValueError("rank must be at least 2")
        self.family = family
        self.n = n
        self.size = n if family == FAMILY_A else 2 * n
        self.form = self._form_rows()
        self._build_root_data()
        self._verify_invariants()

    # -- construction -----------------------------------------------------

    def _form_rows(self):
        if self.family == FAMILY_A:
            return None
        N = self.size
        entries = [[0] * N for _ in range(N)]
        for i in range(1, N + 1):
            j = N + 1 - i
            if self.family == FAMILY_D:
                entries[i - 1][j - 1] = 1
            else:
                entries[i - 1][j - 1] = 1 if i < j else -1
        return entries

    def star(self, k):
        return self.size + 1 - k

    def chi(self, a):
        """chi_a folded into rank-length doubled coordinates."""
        return self.fold_sum([(1, a)])

    def fold_sum(self, signed_indices):
        """Weight of a formal sum of +-chi_a terms given as (sign, a) pairs."""
        coords = [0] * self.n
        for sign, a in signed_indices:
            c = 2 if sign > 0 else -2
            if a <= self.n:
                coords[a - 1] += c
            else:
                coords[self.star(a) - 1] -= c
        return Weight(self.family, coords)

    def _lie_constraint_ok(self, X):
        """Trace zero for A; X^T F + F X = 0 for C and D, from X's nonzero
        entries.  F is one +-1 per row, s_c at (c, c*), so X[i][j] adds
        s_i X[i][j] to entry (j, i*) and s_{i*} X[i][j] to entry (i*, j),
        and no other entry is nonzero."""
        if self.family == FAMILY_A:
            return sum(X[i][i] for i in range(self.size)) == 0
        last = self.size - 1  # c* = last - c, 0-based
        sign = [row[last - c] for c, row in enumerate(self.form)]
        sums = {}
        for i, row in enumerate(X):
            for j, x in enumerate(row):
                if x:
                    for pos, s in (((j, last - i), sign[i]),
                                   ((last - i, j), sign[last - i])):
                        sums[pos] = sums.get(pos, 0) + s * x
        return not any(sums.values())

    def _build_root_data(self):
        # positions by E_ij's weight chi_i - chi_j, a canonical tuple
        N = self.size
        chis = [self.chi(a).doubled for a in range(1, N + 1)]
        groups = {}
        for i, x in enumerate(chis, start=1):
            for j, y in enumerate(chis, start=1):
                if i != j:
                    groups.setdefault(tuple(map(sub, x, y)), []).append((i, j))
        classes = sorted(((Weight(self.family, raw), group)
                          for raw, group in groups.items() if any(raw)),
                         key=lambda kv: (kv[0].doubled, kv[1]))

        self.lie_basis = []
        root_generator = {}
        for weight, group in classes:
            basis = self._root_space_basis(group)
            if not basis:
                continue
            if len(basis) != 1:
                raise ConventionError(
                    f"root space for {weight} has dimension {len(basis)}"
                )
            X = basis[0]
            self.lie_basis.append((X, weight))
            root_generator[weight] = X

        self.root_generator = root_generator
        self.positive_roots = []
        self.negative_roots = []
        for X, weight in self.lie_basis:
            if _is_strictly_upper(X):
                self.positive_roots.append(weight)
            elif _is_strictly_lower(X):
                self.negative_roots.append(weight)
            else:
                raise ConventionError("root generator is neither upper nor lower")

        self.simple_roots = self._expected_simple_roots()
        self.fundamental_weights = self._fundamental_weights()
        self.rho = Weight.zero(self.family, self.n)
        for w in self.fundamental_weights:
            self.rho = self.rho + w
        self._height = self._walk_heights()

    def _root_space_basis(self, group):
        """Solve the Lie-algebra membership constraints on one weight class."""
        if self.family == FAMILY_A:
            return [self._unit_matrix({pos: 1}) for pos in group]
        # constraint: s_{b*} X[b*,a] + s_a X[a*,b] = 0 for all (a,b),
        # where J[c,c*] = s_c.  Restricted to the unknowns in this class,
        # only the rows (a,b) = (j,i*) and (i*,j) of a position (i,j) of the
        # class are nonzero; they are taken in the order of the full loop.
        index = {pos: i for i, pos in enumerate(group)}
        star = self.star
        sign = {c: 1 if (self.family == FAMILY_D or c < star(c)) else -1
                for c in range(1, self.size + 1)}
        rows = []
        for a, b in sorted({ab for i, j in group
                            for ab in ((j, star(i)), (star(i), j))}):
            row = [0] * len(group)
            for pos, s in (((star(b), a), sign[star(b)]),
                           ((star(a), b), sign[a])):
                if pos in index:
                    row[index[pos]] += s
            rows.append(row)
        return [self._unit_matrix({pos: c for pos, c in zip(group, vec) if c})
                for vec in integer_nullspace(rows, len(group))]

    def _unit_matrix(self, coeffs):
        N = self.size
        entries = [[0] * N for _ in range(N)]
        for (i, j), c in coeffs.items():
            entries[i - 1][j - 1] = c
        return entries

    def _walk_heights(self):
        """Height h of every positive root and -h of its negative, keyed by
        doubled coordinates.  A positive root that is not simple is a positive
        root plus a simple root (Humphreys, Introduction to Lie Algebras and
        Representation Theory, 10.2), so one walk up from the simple roots,
        staying inside the positive roots, reaches them all."""
        positive = set(self.positive_roots)
        heights = dict.fromkeys(self.simple_roots, 1)
        level = self.simple_roots
        while level:
            above = []
            for beta in level:
                for alpha in self.simple_roots:
                    gamma = beta + alpha
                    if gamma in positive and gamma not in heights:
                        heights[gamma] = heights[beta] + 1
                        above.append(gamma)
            level = above
        unreached = positive.difference(heights)
        if unreached:
            raise ConventionError(f"{unreached} not reached from the simple roots")
        heights = {beta.doubled: h for beta, h in heights.items()}
        return heights | {tuple(-x for x in b): -h for b, h in heights.items()}

    def _expected_simple_roots(self):
        n = self.n
        roots = [self.chi(i) - self.chi(i + 1) for i in range(1, n)]
        if self.family == FAMILY_C:
            roots.append(self.chi(n).scale(2))
        elif self.family == FAMILY_D:
            roots.append(self.chi(n - 1) + self.chi(n))
        return roots

    def _fundamental_weights(self):
        """chi_1+...+chi_k for k up to n-1 (A), n (C) or n-2 (D); then, for
        D, the two spin weights."""
        n = self.n
        count = {FAMILY_A: n - 1, FAMILY_C: n, FAMILY_D: n - 2}[self.family]
        out = []
        w = Weight.zero(self.family, n)
        for k in range(1, count + 1):
            w = w + self.chi(k)
            out.append(w)
        if self.family == FAMILY_D:
            # (chi_1+...+chi_{n-1} -+ chi_n)/2, doubled stays integral
            out.append(Weight(FAMILY_D, [1] * (n - 1) + [-1]))
            out.append(Weight(FAMILY_D, [1] * n))
        return out

    # -- invariant checks --------------------------------------------------

    def dim_flag_variety(self):
        n = self.n
        if self.family == FAMILY_A:
            return n * (n - 1) // 2
        if self.family == FAMILY_C:
            return n * n
        return n * (n - 1)

    def _verify_invariants(self):
        if len(self.positive_roots) != self.dim_flag_variety():
            raise ConventionError(
                f"{len(self.positive_roots)} positive roots, expected "
                f"{self.dim_flag_variety()}"
            )
        if len(self.negative_roots) != len(self.positive_roots):
            raise ConventionError("positive/negative root count mismatch")
        pos = set(self.positive_roots)
        for alpha in self.simple_roots:
            if alpha not in pos:
                raise ConventionError(f"simple root {alpha} is not a positive root")
        for X, _ in self.lie_basis:
            if not self._lie_constraint_ok(X):
                raise ConventionError("Lie-algebra constraint violated")
        # rho is also half the sum of positive roots
        total = Weight.zero(self.family, self.n)
        for w in self.positive_roots:
            total = total + w
        if total != self.rho.scale(2):
            raise ConventionError("sum of positive roots != 2*rho")

    def root_height(self, root):
        """h for a positive root of height h, -h for its negative; raises
        ConventionError on a weight that is not a root."""
        if root.family == self.family and root.doubled in self._height:
            return self._height[root.doubled]
        raise ConventionError(f"{root} is not a root")

    # -- derived machinery --------------------------------------------------

    def negative_root_generators(self):
        """(root, nilpotent generator) pairs, ordered by height then lex.

        Height is that of the corresponding positive root; order is the
        canonical chart coordinate order and is recorded in reports.
        """
        roots = sorted(self.negative_roots,
                       key=lambda root: (-self.root_height(root), root.doubled))
        return [(root, self.root_generator[root]) for root in roots]

    def preserves_form(self, M):
        """M^T F M = F, exactly, for a polynomial matrix M and the form F.
        F is symmetric (D) or skew (C), so M^T F M is too, over any
        commutative ring, and its entries (i, j) with i <= j decide."""
        fm = signed_rows(self.form, M).entries
        for i, column in enumerate(zip(*M.entries)):
            pairs = [(a, row) for a, row in zip(column, fm) if a.terms]
            for j in range(i, M.ncols):
                if sum((a * row[j] for a, row in pairs if row[j].terms),
                       Polynomial.zero()) != self.form[i][j]:
                    return False
        return True

    def in_group(self, M):
        """Exact membership identity for a polynomial matrix."""
        if self.family != FAMILY_A and not self.preserves_form(M):
            return False
        if self.family in (FAMILY_A, FAMILY_D):
            if determinant(M) != Polynomial.one():
                return False
        return True

    def simple_reflection_representative(self, i):
        """n_alpha = exp(X) exp(-Y) exp(X) for the i-th simple root (1-based),
        as integer rows; ConventionError unless it is a +-1 monomial matrix
        in the group."""
        alpha = self.simple_roots[i - 1]
        rep = _numeric_exp_triple(self.root_generator[alpha],
                                  self.root_generator[-alpha])
        if (rep is None or not _is_sign_monomial(rep)
                or not self.in_group(PolyMatrix(rep))):
            raise ConventionError(f"no valid representative for simple root {alpha}")
        return rep

    def levi_longest_word(self, r=None):
        """Reduced word and permutation for w_0^P.

        Family A takes P = P_r for any 1 <= r <= n-1; families C and D use
        P = P_n, whose Levi is a GL_n acting on the first n basis vectors.
        """
        n = self.n
        if self.family == FAMILY_A:
            if r is None or not 1 <= r <= n - 1:
                raise ValueError("family A needs a maximal parabolic P_r")
            word = _reversal_word(1, r) + _reversal_word(r + 1, n)
            perm = [r + 1 - i for i in range(1, r + 1)] + [
                n + r + 1 - i for i in range(r + 1, n + 1)
            ]
            inv = r * (r - 1) // 2 + (n - r) * (n - r - 1) // 2
            return WeylWord(perm, word, inv)
        if r is not None and r != n:
            raise ValueError("families C and D support only P_n")
        word = _reversal_word(1, n)
        perm = [n + 1 - i for i in range(1, n + 1)] + [
            3 * n + 1 - i for i in range(n + 1, 2 * n + 1)
        ]
        return WeylWord(perm, word, n * (n - 1) // 2)

    def levi_longest_representative(self, r=None):
        """Representative of w_0^P, a monomial matrix with entries +-1, as
        integer rows; each distinct simple reflection of the word is built
        once."""
        weyl = self.levi_longest_word(r)
        size = self.size
        rep = [[int(i == j) for j in range(size)] for i in range(size)]
        reflections = {i: self.simple_reflection_representative(i)
                       for i in set(weyl.word)}
        for i in weyl.word:
            rep = integer_product(rep, reflections[i])
        if not self.in_group(PolyMatrix(rep)):
            raise ConventionError("representative fails group membership")
        if not _is_sign_monomial(rep):
            raise ConventionError("representative is not a +-1 monomial matrix")
        if _monomial_permutation(rep) != weyl.permutation:
            raise ConventionError("representative has the wrong permutation")
        return rep


def build_group_datum(family, n):
    return GroupDatum(family, n)


def _reversal_word(lo, hi):
    """Reduced word for the longest element of the S_{hi-lo+1} on lo..hi."""
    word = []
    for top in range(lo, hi):
        word.extend(range(top, lo - 1, -1))
    return word


def _numeric_exp_triple(X, Y):
    """exp(X) exp(-Y) exp(X) = (I + X)(I - Y)(I + X) in integers; None
    unless X^2 = Y^2 = 0."""
    try:
        ex = _identity_plus(X, 1)
        ey = _identity_plus(Y, -1)
    except ValueError:
        return None
    return integer_product(integer_product(ex, ey), ex)


def _identity_plus(X, sign):
    """I + sign * X as integer rows; ValueError unless X^2 = 0."""
    out = [[int(i == j) for j in range(len(X))] for i in range(len(X))]
    for k, j, c in square_zero_entries(X):
        out[k][j] += sign * c
    return out


def _is_strictly_upper(X):
    return not any(any(row[:i + 1]) for i, row in enumerate(X))


def _is_strictly_lower(X):
    return not any(any(row[i:]) for i, row in enumerate(X))


def _is_sign_monomial(M):
    """Exactly one nonzero entry, +1 or -1, in each row and each column."""
    for line in (*M, *zip(*M)):
        nonzero = [x for x in line if x]
        if len(nonzero) != 1 or nonzero[0] not in (1, -1):
            return False
    return True


def _monomial_permutation(M):
    """sigma with M e_j = +- e_{sigma(j)}."""
    return tuple(next(i for i, x in enumerate(col, 1) if x) for col in zip(*M))

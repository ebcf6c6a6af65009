"""Classical group data in explicit matrix conventions.

Families:
  A: SL_n, upper-triangular Borel, diagonal torus.
  C: Sp_2n with the anti-diagonal skew form J[i][i*] = +1 (i < i*), -1 (i > i*).
  D: SO_2n with the anti-diagonal symmetric form S[i][i*] = 1.
Here k* = N + 1 - k with N the matrix size.

Root data is computed, not hardcoded: the Lie algebra is cut out by
X^T J + J X = 0 (trace zero for A), weight-decomposed under the diagonal
torus, and the resulting roots are checked against the expected lists.
"""

from __future__ import annotations

from fractions import Fraction

from .matrix import (
    PolyMatrix,
    determinant,
    exp_nilpotent,
    rational_nullspace,
    row_reduce,
)
from .poly import Polynomial

FAMILY_A = "A"
FAMILY_C = "C"
FAMILY_D = "D"


class ConventionError(RuntimeError):
    """A construction-time consistency check failed; indicates a bug."""


class Weight:
    """A torus character in chi-coordinates, stored doubled (2*lambda).

    Doubling keeps the half-integral spin weights of family D integral.
    For family A, weights are taken modulo the all-ones vector (the chi_k
    sum to zero on the SL torus); the canonical representative has last
    coordinate zero.
    """

    __slots__ = ("family", "doubled")

    def __init__(self, family, doubled):
        doubled = tuple(int(x) for x in doubled)
        if family == FAMILY_A:
            shift = doubled[-1]
            if shift % 2:
                raise ValueError("family A weights have even doubled coordinates")
            doubled = tuple(x - shift for x in doubled)
        self.family = family
        self.doubled = doubled

    @property
    def rank(self):
        return len(self.doubled)

    def __add__(self, other):
        if self.family != other.family:
            raise ValueError("family mismatch")
        return Weight(self.family, [a + b for a, b in zip(self.doubled, other.doubled)])

    def __neg__(self):
        return Weight(self.family, [-a for a in self.doubled])

    def __sub__(self, other):
        return self + (-other)

    def scale(self, m):
        return Weight(self.family, [m * a for a in self.doubled])

    def is_zero(self):
        return all(a == 0 for a in self.doubled)

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
        if family not in (FAMILY_A, FAMILY_C, FAMILY_D):
            raise ValueError(f"unsupported family {family!r}")
        if n < 2:
            raise ValueError("rank must be at least 2")
        self.family = family
        self.n = n
        self.size = n if family == FAMILY_A else 2 * n
        self.rank = n - 1 if family == FAMILY_A else n
        self.not_simple = family == FAMILY_D and n == 2  # D_2 = A_1 x A_1, flagged
        self.form = self._build_form()
        self._build_root_data()
        self._verify_invariants()

    # -- construction -----------------------------------------------------

    def _build_form(self):
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
        return PolyMatrix(entries)

    def star(self, k):
        return self.size + 1 - k

    def chi(self, a):
        """chi_a folded into rank-length doubled coordinates."""
        n = self.n
        coords = [0] * n
        if a <= n:
            coords[a - 1] = 2
        else:
            coords[self.star(a) - 1] = -2
        return Weight(self.family, coords)

    def fold_sum(self, signed_indices):
        """Weight of a formal sum of +-chi_a terms given as (sign, a) pairs."""
        total = Weight.zero(self.family, self.n)
        for sign, a in signed_indices:
            term = self.chi(a)
            total = total + (term if sign > 0 else -term)
        return total

    def _entry_weight(self, i, j):
        """Folded torus weight of the matrix unit E_ij (adjoint action)."""
        return self.chi(i) - self.chi(j)

    def _lie_constraint_ok(self, X):
        if self.family == FAMILY_A:
            tr = Polynomial.zero()
            for i in range(1, self.size + 1):
                tr = tr + X[i, i]
            return tr.is_zero()
        lhs = X.transpose() * self.form + self.form * X
        return lhs.is_zero()

    def _build_root_data(self):
        N = self.size
        positions = [(i, j) for i in range(1, N + 1) for j in range(1, N + 1) if i != j]
        groups = {}
        for pos in positions:
            groups.setdefault(self._entry_weight(*pos), []).append(pos)

        self.lie_basis = []
        root_generator = {}
        for weight, group in sorted(
            groups.items(), key=lambda kv: (kv[0].doubled, kv[1])
        ):
            if weight.is_zero():
                continue
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
            if self._is_strictly_upper(X):
                self.positive_roots.append(weight)
            elif self._is_strictly_lower(X):
                self.negative_roots.append(weight)
            else:
                raise ConventionError("root generator is neither upper nor lower")

        self.simple_roots = self._expected_simple_roots()
        self._simple_root_index = {a: i for i, a in enumerate(self.simple_roots)}
        self.fundamental_weights = self._fundamental_weights()
        self.rho = Weight.zero(self.family, self.n)
        for w in self.fundamental_weights:
            self.rho = self.rho + w

    def _root_space_basis(self, group):
        """Solve the Lie-algebra membership constraints on one weight class."""
        if self.family == FAMILY_A:
            return [self._unit_matrix({pos: 1}) for pos in group]
        # constraint: s_{b*} X[b*,a] + s_a X[a*,b] = 0 for all (a,b),
        # where J[c,c*] = s_c.  Restricted to the unknowns in this class.
        index = {pos: i for i, pos in enumerate(group)}
        sign = {}
        N = self.size
        for c in range(1, N + 1):
            sign[c] = 1 if (self.family == FAMILY_D or c < self.star(c)) else -1
        rows = []
        for a in range(1, N + 1):
            for b in range(1, N + 1):
                p1 = (self.star(b), a)
                p2 = (self.star(a), b)
                row = [0] * len(group)
                touched = False
                if p1 in index:
                    row[index[p1]] += sign[self.star(b)]
                    touched = True
                if p2 in index:
                    row[index[p2]] += sign[a]
                    touched = True
                if touched:
                    rows.append(row)
        basis = rational_nullspace(rows, len(group))
        out = []
        for vec in basis:
            scale = _primitive_scale(vec)
            coeffs = {pos: int(v * scale) for pos, v in zip(group, vec) if v}
            out.append(self._unit_matrix(coeffs))
        return out

    def _unit_matrix(self, coeffs):
        N = self.size
        entries = [[0] * N for _ in range(N)]
        for (i, j), c in coeffs.items():
            entries[i - 1][j - 1] = c
        return PolyMatrix(entries)

    def _is_strictly_upper(self, X):
        return all(
            X[i, j].is_zero()
            for i in range(1, self.size + 1)
            for j in range(1, i + 1)
        )

    def _is_strictly_lower(self, X):
        return all(
            X[i, j].is_zero()
            for i in range(1, self.size + 1)
            for j in range(i, self.size + 1)
        )

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
        for alpha in self.positive_roots:
            self.root_height(alpha)  # raises if not a positive simple combo

    def root_height(self, root):
        """Sum of the simple-root coefficients; raises on a non-root."""
        coeffs = self._decompose_in_simple_roots(root)
        return sum(coeffs)

    def _decompose_in_simple_roots(self, root):
        generators = [list(a.doubled) for a in self.simple_roots]
        if self.family == FAMILY_A:
            # weights are classes mod the all-ones vector; give the solver
            # that direction as an extra free generator
            generators = generators + [[2] * self.n]
        ngen = len(generators)
        # one row per coordinate: generator columns, then the root
        aug = [[g[j] for g in generators] + [t] for j, t in enumerate(root.doubled)]
        rref, pivots, _ = row_reduce(aug, ngen)
        if any(row[-1] for row in rref[len(pivots):]):
            raise ConventionError(f"{root} is not in the root lattice span")
        coeffs = [Fraction(0)] * ngen
        for row, col in zip(rref, pivots):
            coeffs[col] = row[-1]
        coeffs = coeffs[: len(self.simple_roots)]
        out = []
        for c in coeffs:
            if c.denominator != 1:
                raise ConventionError(f"non-integral simple-root coefficient {c}")
            out.append(int(c))
        if not (all(c >= 0 for c in out) or all(c <= 0 for c in out)):
            raise ConventionError(f"{root} is neither positive nor negative")
        return out

    # -- derived machinery --------------------------------------------------

    def negative_root_generators(self):
        """(root, nilpotent generator) pairs, ordered by height then lex.

        Height is that of the corresponding positive root; order is the
        canonical chart coordinate order and is recorded in reports.
        """
        items = []
        for root in self.negative_roots:
            X = self.root_generator[root]
            height = -self.root_height(root)
            items.append((height, root.doubled, root, X))
        items.sort(key=lambda t: (t[0], t[1]))
        return [(root, X) for _, _, root, X in items]

    def in_group(self, M):
        """Exact membership identity for a polynomial matrix."""
        if self.family != FAMILY_A:
            if not (M.transpose() * self.form * M - self.form).is_zero():
                return False
        if self.family in (FAMILY_A, FAMILY_D):
            if determinant(M) != Polynomial.one():
                return False
        return True

    def simple_reflection_representative(self, i):
        """n_alpha = exp(X) exp(-Y) exp(X) for the i-th simple root (1-based)."""
        alpha = self.simple_roots[i - 1]
        X = self.root_generator[alpha]
        Y = self.root_generator[-alpha]
        for s in (1, -1):
            rep = _numeric_exp_triple(X, Y * s)
            if rep is not None and _is_sign_monomial(rep) and self.in_group(rep):
                return rep
        raise ConventionError(f"no valid representative for simple root {alpha}")

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
        """Matrix representative of w_0^P, a monomial matrix with entries +-1."""
        weyl = self.levi_longest_word(r)
        rep = PolyMatrix.identity(self.size)
        for i in weyl.word:
            rep = rep * self.simple_reflection_representative(i)
        if not self.in_group(rep):
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


def _primitive_scale(vec):
    """Scale making a rational vector primitive integral."""
    from math import gcd

    denoms = [v.denominator for v in vec if v]
    if not denoms:
        return Fraction(1)
    lcm = 1
    for d in denoms:
        lcm = lcm * d // gcd(lcm, d)
    scaled = [v * lcm for v in vec]
    g = 0
    for v in scaled:
        g = gcd(g, abs(v.numerator))
    scale = Fraction(lcm, g)
    # fix overall sign: first nonzero entry positive
    for v in vec:
        if v:
            if v * scale < 0:
                scale = -scale
            break
    return scale


def _numeric_exp_triple(X, Y):
    """exp(X) exp(-Y) exp(X) with t specialized to 1; None if exp fails."""
    try:
        ex = exp_nilpotent(X, "_t").substitute({"_t": 1})
        ey = exp_nilpotent(Y * (-1), "_t").substitute({"_t": 1})
    except (ValueError, ArithmeticError):
        return None
    return ex * ey * ex


def _is_sign_monomial(M):
    one = Polynomial.one()
    for i in range(1, M.nrows + 1):
        nonzero = [j for j in range(1, M.ncols + 1) if not M[i, j].is_zero()]
        if len(nonzero) != 1:
            return False
        e = M[i, nonzero[0]]
        if e != one and e != -one:
            return False
    for j in range(1, M.ncols + 1):
        nonzero = [i for i in range(1, M.nrows + 1) if not M[i, j].is_zero()]
        if len(nonzero) != 1:
            return False
    return True


def _monomial_permutation(M):
    """sigma with M e_i = +- e_{sigma(i)}."""
    perm = []
    for j in range(1, M.ncols + 1):
        for i in range(1, M.nrows + 1):
            if not M[i, j].is_zero():
                perm.append(i)
                break
    return tuple(perm)

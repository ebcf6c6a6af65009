"""Local splitting coefficients, residually-normal-crossing certificates,
the squarefreeness probe, and the skew corner-minor oracle.

Two independent routes establish splitting: the coefficient of
(t_1 ... t_N)^{p-1} in f^{p-1} mod p, and a residually-normal-crossing
certificate for f.  Both are implemented; tests require them to agree.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from .charts import big_cell_chart
from .matrix import (
    PolyMatrix,
    column_minor,
    rational_matrix_rank,
    rational_nullspace,
    row_reduce,
)
from .poly import (
    DegreeOverflowError,
    Monomial,
    NotDivisibleError,
    Polynomial,
    _is_prime,
    poly_from_string,
    poly_to_string,
    zero_out_and_divide,
)
from .sections import build_sigma_pair

COMPUTED = "computed"
NOT_COMPUTED = "not_computed"


class ResourceGuard:
    """Hard limits on term count and wall-clock for symbolic expansion."""

    def __init__(self, max_terms=2_000_000, max_seconds=300.0):
        self.max_terms = max_terms
        self.max_seconds = max_seconds
        self.started = time.monotonic()
        self.tripped = None

    def check(self, poly):
        if len(poly.terms) > self.max_terms:
            self.tripped = f"term count {len(poly.terms)} > {self.max_terms}"
            return False
        elapsed = time.monotonic() - self.started
        if elapsed > self.max_seconds:
            self.tripped = f"elapsed {elapsed:.1f}s > {self.max_seconds}s"
            return False
        return True


class SplitVerdict:
    def __init__(self, p, status, coefficient=None, nvars=None, degree=None,
                 guard_reason=None):
        self.p = p
        self.status = status
        self.coefficient = coefficient
        self.coefficient_mod_p = None if coefficient is None else coefficient % p
        self.splits = (
            None if coefficient is None else self.coefficient_mod_p != 0
        )
        self.nvars = nvars
        self.degree = degree
        self.guard_reason = guard_reason

    def serialize(self):
        return {
            "p": self.p,
            "status": self.status,
            "coefficient": self.coefficient,
            "coefficient_mod_p": self.coefficient_mod_p,
            "splits": self.splits,
            "nvars": self.nvars,
            "degree": self.degree,
            "guard_reason": self.guard_reason,
        }


def splitting_coefficient(f, variables, p, guard=None):
    """Coefficient of prod(v^(p-1)) in f^(p-1), exact over the integers,
    reduced mod p only at the very end.

    f^(p-1) is assembled as g*g with g = f^((p-1)/2); the target coefficient
    is then a single hash-join over the terms of g, never materializing the
    full square.  A degree past the packed-exponent limit gives a
    not-computed verdict whose reason names the limit.
    """
    if p < 3 or not _is_prime(p):
        raise ValueError("p must be an odd prime")
    variables = list(variables)
    n = len(variables)
    degree = f.degree()
    guard = guard or ResourceGuard()
    half = (p - 1) // 2
    g = Polynomial.one()
    base = f
    e = half
    try:
        while e:
            if e & 1:
                g = g * base
                if not guard.check(g):
                    return SplitVerdict(p, NOT_COMPUTED, nvars=n, degree=degree,
                                        guard_reason=guard.tripped)
            e >>= 1
            if e:
                base = base * base
                if not guard.check(base):
                    return SplitVerdict(p, NOT_COMPUTED, nvars=n, degree=degree,
                                        guard_reason=guard.tripped)
        target = g.layout.pack(Monomial({v: p - 1 for v in variables}).exps)
    except DegreeOverflowError as exc:
        return SplitVerdict(p, NOT_COMPUTED, nvars=n, degree=degree,
                            guard_reason=str(exc))
    total = 0
    if target is not None:  # else some variable is missing from g
        # t divides the target iff no field of (target | guard_bits) - t
        # borrows, i.e. every guard bit survives; the cofactor is then that
        # difference with the guard bits cleared
        guard_bits = g.layout.guard
        top = target | guard_bits
        terms = g.packed
        for t, c in terms.items():
            rest = top - t
            if rest & guard_bits == guard_bits:
                total += c * terms.get(rest ^ guard_bits, 0)
    return SplitVerdict(p, COMPUTED, coefficient=total, nvars=n, degree=degree)


def local_splitting_coefficient(group, p, guard=None):
    """Splitting verdict for sigma_minus on the big cell, where sigma_plus
    restricts to 1, so f = sigma_minus pulled back to chart coordinates."""
    chart = big_cell_chart(group)
    _, minus = build_sigma_pair(group)
    f = minus.evaluate(chart.matrix)
    return splitting_coefficient(f, chart.variables, p, guard=guard)


# ---------------------------------------------------------------------------
# Residually normal crossing
# ---------------------------------------------------------------------------

class RncCertificate:
    """Variable order t_1..t_N and chain f_0..f_N with
    (f_i at t_1..t_i = 0) = t_{i+1} * f_{i+1} exactly; f_N is the unit."""

    def __init__(self, variable_order, chain, unit=1):
        self.variable_order = list(variable_order)
        self.chain = list(chain)
        self.unit = unit

    def serialize(self):
        return {
            "variable_order": self.variable_order,
            "chain": [poly_to_string(f) for f in self.chain],
            "unit": self.unit,
        }

    @classmethod
    def deserialize(cls, data):
        return cls(
            data["variable_order"],
            [poly_from_string(s) for s in data["chain"]],
            data.get("unit", 1),
        )


class RncVerifyError(AssertionError):
    pass


def rnc_verify(f0, cert):
    """Exact check of every chain equation and both endpoints.

    Raises RncVerifyError naming the first failing index and the residual.
    """
    order = cert.variable_order
    chain = cert.chain
    if len(chain) != len(order) + 1:
        raise RncVerifyError(
            f"chain length {len(chain)} != {len(order)} variables + 1"
        )
    if chain[0] != f0:
        raise RncVerifyError("f_0 differs from the target polynomial")
    for i, t in enumerate(order):
        zeros = {v: 0 for v in order[:i]}
        lhs = chain[i].substitute(zeros) if zeros else chain[i]
        rhs = Polynomial.variable(t) * chain[i + 1]
        if lhs != rhs:
            raise RncVerifyError(
                f"chain fails at index {i}: residual {lhs - rhs}"
            )
    last = chain[-1]
    if not last.is_constant() or last.constant_value() != cert.unit:
        raise RncVerifyError(f"f_N = {last} is not the recorded unit {cert.unit}")
    if cert.unit not in (1, -1):
        raise RncVerifyError(f"unit {cert.unit} is not invertible over the integers")
    return True


def rnc_search(f0, variable_order_universe=None):
    """Backtracking search for a certificate using canonical quotient lifts.

    The state after choosing the set S is f_0 with exactly-once occurrences
    of the S variables stripped and S set to zero; it depends only on the
    set, so dead sets are memoized.  Candidates are tried in ascending
    variable order, making the result deterministic.  Exhaustion means no
    certificate exists with canonical lifts; non-canonical lifts are out of
    scope and the outcome says so.
    """
    if f0.is_zero():
        raise ValueError("target polynomial is zero")
    universe = variable_order_universe or sorted(f0.variables())
    dead = set()

    def dfs(state, chosen, order, chain):
        if len(order) == len(universe):
            if state.is_constant():
                return order, chain, state.constant_value()
            return None
        for v in universe:
            if v in chosen:
                continue
            key = frozenset(chosen | {v})
            if key in dead:
                continue
            try:
                # state is f_i at t_1..t_i = 0, so this is f_{i+1}
                quotient = zero_out_and_divide(state, (), v)
            except NotDivisibleError:
                # divisibility depends on the predecessor set, so the
                # target set may still be reachable another way
                continue
            nxt = quotient.substitute({v: 0})
            if nxt.is_zero():
                dead.add(key)  # the set-state itself vanished
                continue
            found = dfs(nxt, chosen | {v}, order + [v], chain + [quotient])
            if found:
                return found
            dead.add(key)
        return None

    found = dfs(f0, frozenset(), [], [f0])
    if not found:
        return {
            "status": "exhausted",
            "detail": "no certificate with canonical quotient lifts",
        }
    order, chain, unit = found
    if unit not in (1, -1):
        return {
            "status": "exhausted",
            "detail": f"canonical chain ends at non-unit constant {unit}",
        }
    cert = RncCertificate(order, chain, unit)
    rnc_verify(f0, cert)
    return cert


# ---------------------------------------------------------------------------
# Squarefreeness probe
# ---------------------------------------------------------------------------

def _univariate_coeffs(f, var):
    coeffs = [Fraction(0)] * (f.degree() + 1)
    for m, c in f.terms.items():
        coeffs[m.exponent(var)] += Fraction(c)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _poly_mod(a, b):
    a = list(a)
    while len(a) >= len(b) and any(a):
        if not a[-1]:
            a.pop()
            continue
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] -= factor * bc
        a.pop()
    while a and not a[-1]:
        a.pop()
    return a


def _univariate_gcd_degree(a, b):
    while b:
        a, b = b, _poly_mod(a, b)
    return len(a) - 1 if a else -1


def _is_squarefree_univariate(coeffs):
    deriv = [c * i for i, c in enumerate(coeffs)][1:]
    if not deriv:
        return False  # constant: degenerate, caller redraws
    return _univariate_gcd_degree(coeffs, deriv) == 0


def squarefree_probe(f, trials=20, seed=0):
    """Heuristic: restrict f to random affine lines and test the univariate
    restrictions for squarefreeness via gcd with the derivative.

    Evidence only, not a proof; degenerate draws (constant restrictions) are
    discarded and redrawn.
    """
    if f.is_zero():
        raise ValueError("zero polynomial")
    rng = random.Random(seed)
    variables = sorted(f.variables())
    passes = 0
    completed = 0
    discarded = 0
    bound = 10**6  # wide draws keep accidental discriminant hits negligible
    s = Polynomial.variable("s")
    while completed < trials:
        point = {v: rng.randint(-bound, bound) for v in variables}
        direction = {v: rng.randint(-bound, bound) for v in variables}
        # parametrize the line v -> point_v + direction_v * s directly;
        # the substitution stays univariate the whole way
        restricted = f.substitute(
            {v: s * direction[v] + point[v] for v in variables}
        )
        coeffs = _univariate_coeffs(restricted, "s")
        if len(coeffs) <= 1:
            discarded += 1
            if discarded > 50 * trials:
                raise RuntimeError("too many degenerate line draws")
            continue
        completed += 1
        if _is_squarefree_univariate(coeffs):
            passes += 1
    return {
        "trials": trials,
        "passes": passes,
        "discarded": discarded,
        "seed": seed,
        "all_squarefree": passes == trials,
        "evidence_only": True,
    }


# ---------------------------------------------------------------------------
# Skew corner-minor claim
# ---------------------------------------------------------------------------

class SkewClaimResult:
    def __init__(self, n, k, minor, witness):
        self.n = n
        self.k = k
        self.minor = minor
        self.nonzero = not minor.is_zero()
        self.witness = witness

    def serialize(self):
        return {
            "n": self.n,
            "k": self.k,
            "minor": poly_to_string(self.minor),
            "nonzero": self.nonzero,
            "homogeneous_degree": self.minor.degree() if self.nonzero else None,
            "witness": {
                key: (str(val) if isinstance(val, Fraction) else val)
                for key, val in self.witness.items()
            },
        }


def generic_skew_matrix(n, prefix="b"):
    entries = [[Polynomial.zero() for _ in range(n)] for _ in range(n)]
    for i in range(2, n + 1):
        for j in range(1, i):
            v = Polynomial.variable(f"{prefix}{i}_{j}")
            entries[i - 1][j - 1] = v
            entries[j - 1][i - 1] = -v
    return PolyMatrix(entries)


def skew_minor_claim(n, k, seed=11):
    """The corner minor det B[{n-k+1..n} x {1..k}] of a generic skew matrix,
    plus a constructive rational witness.

    The witness follows the subspace argument: a rank-(n-1) skew form on an
    odd-dimensional space, a k-dimensional W avoiding the 1-dimensional
    radical, its perp W_perp, and a complement W_prime of W_perp; the k x k
    pairing matrix of W_prime against W must be invertible.
    """
    if n % 2 == 0:
        raise ValueError("n must be odd")
    if not 1 <= k <= n - 1:
        raise ValueError("need 1 <= k <= n-1")
    B = generic_skew_matrix(n)
    minor = column_minor(B, tuple(range(n - k + 1, n + 1)))
    if minor.is_zero():
        raise AssertionError(f"corner minor vanished for n={n}, k={k}")
    if any(m.degree() != k for m in minor.terms):
        raise AssertionError("corner minor is not homogeneous of degree k")

    # rank-(n-1) form: symplectic pairs on the first n-1 basis vectors,
    # the last basis vector spans the radical
    form = [[Fraction(0)] * n for _ in range(n)]
    for i in range(0, n - 1, 2):
        form[i][i + 1] = Fraction(1)
        form[i + 1][i] = Fraction(-1)
    rng = random.Random(seed)
    radical = [Fraction(0)] * (n - 1) + [Fraction(1)]

    def pair(u, v):
        return sum(
            u[a] * form[a][b] * v[b] for a in range(n) for b in range(n)
        )

    while True:
        W = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(k)]
        if rational_matrix_rank(W) != k:
            continue
        if rational_matrix_rank(W + [radical]) != k + 1:
            continue  # W meets the radical, redraw
        break
    constraints = [
        [sum(form[a][b] * w[b] for b in range(n)) for a in range(n)] for w in W
    ]
    w_perp = rational_nullspace(constraints, n)
    if len(w_perp) != n - k:
        raise AssertionError("perp of W has the wrong dimension")
    # complement of W_perp, chosen greedily from standard basis then W
    candidates = [
        [Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)
    ] + W
    w_prime = []
    span = list(w_perp)
    for cand in candidates:
        if len(w_prime) == k:
            break
        if rational_matrix_rank(span + [cand]) > len(span):
            w_prime.append(cand)
            span.append(cand)
    if len(w_prime) != k:
        raise AssertionError("failed to extend W_perp to the full space")
    gram = [[pair(u, w) for w in W] for u in w_prime]
    det = row_reduce(gram, k)[2]
    if det == 0:
        raise AssertionError("witness pairing matrix is singular")
    overlap = (
        rational_matrix_rank(W)
        + rational_matrix_rank(w_prime)
        - rational_matrix_rank(W + w_prime)
    )
    witness = {
        "seed": seed,
        "w_basis": [[str(x) for x in v] for v in W],
        "w_prime_basis": [[str(x) for x in v] for v in w_prime],
        "gram": [[str(x) for x in row] for row in gram],
        "gram_determinant": det,
        "w_meets_w_prime_dim": overlap,
    }
    return SkewClaimResult(n, k, minor, witness)

"""Local splitting coefficients, residually-normal-crossing certificates,
the squarefreeness probe, and the skew corner-minor oracle.

Two independent routes establish splitting: the coefficient of
(t_1 ... t_N)^{p-1} in f^{p-1} mod p, and a residually-normal-crossing
certificate for f.  Both are implemented; tests require them to agree.
"""

from __future__ import annotations

import random
import time
from math import gcd, isqrt, prod
from operator import lshift

# not called here: flagbench/test_flagbench.py checks that the benchmark's
# tracer rebinds `splitting.big_cell_chart`
from .charts import big_cell_chart  # noqa: F401
from .matrix import PolyMatrix, column_minor, determinant, integer_nullspace
from .poly import (
    MAX_DEGREE,
    DegreeOverflowError,
    NotDivisibleError,
    Polynomial,
    divide_by_variable,
    order_at_origin,
    poly_from_string,
    poly_to_string,
)
from .sections import GroupSections

COMPUTED = "computed"
NOT_COMPUTED = "not_computed"
DEFAULT_MAX_TERMS = 2_000_000
DEFAULT_MAX_SECONDS = 300.0


def is_odd_prime(p):
    return (isinstance(p, int) and p >= 3
            and all(p % d for d in range(2, isqrt(p) + 1)))


class ResourceGuard:
    """Hard limits on term count and wall-clock for symbolic expansion."""

    def __init__(self, max_terms=DEFAULT_MAX_TERMS, max_seconds=DEFAULT_MAX_SECONDS):
        self.max_terms = max_terms
        self.max_seconds = max_seconds
        self.started = time.monotonic()
        self.tripped = None

    def check(self, terms):
        if len(terms) > self.max_terms:
            self.tripped = f"term count {len(terms)} > {self.max_terms}"
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


def _window_product(g, factor, upper):
    """g times `factor`, (key, coefficient) pairs, over the pairs of terms
    whose key r - m keeps every guard bit of `upper`.  Zero sums stay."""
    out = {}
    get = out.get
    for m, c in factor:
        for r, d in g.items():
            k = r - m
            if k & upper == upper:
                out[k] = get(k, 0) + c * d
    return out


def _decoded(m):
    """m's rows (total degree, e_1, ..., e_n) from `Layout.rows`, and the
    largest exponent of each name some term uses, in name order."""
    rows = m.layout.rows(m.terms)
    tops = list(map(max, zip(*rows)))[1:]
    return rows, {v: e for v, e in zip(m.layout.names, tops) if e}


def splitting_coefficient(factors, variables, p, guard=None):
    """Coefficient of prod(v^(p-1)) in f^(p-1), f the product of
    `factors`, exact over the integers, reduced mod p only at the very end.

    f^(p-1) is g*g with g the product of the factors, each multiplied in
    (p - 1)/2 times in a row, in the given order.  No exponent is negative,
    so after every product only the terms of g with p - 1 - room_v <= e_v
    <= p - 1 for each v of `variables` can reach the target, room_v being
    the v-degree still to come into g plus the bound (p - 1)/2 * d_v(f) on
    the other copy of g.  `_window_product` drops a pair of terms past
    p - 1 before summing it, the zero sums go with the terms under a lower
    bound, and the guard checks every product; one hash-join of g with
    itself then gives the target.

    g's keys are narrow, each factor repacked once: from bit 0 up a field
    per name, holding a guard bit plus cap - e_v, then MAX_DEGREE - degree.
    cap is p - 1 for a name of `variables`, whose field fits p - 1 plus one
    factor's degree; a free name's cap and field fit all of g's exponents.

    The verdict's `degree` is that of the whole f, -1 if a factor is zero.
    A degree past the packed-exponent limit gives a not-computed verdict
    whose reason names the limit.
    """
    if not is_odd_prime(p):
        raise ValueError("p must be an odd prime")
    variables = list(variables)
    if len(window := set(variables)) != len(variables):
        raise ValueError(f"repeated variable names in {variables}")
    n = len(variables)
    factors = list(factors)
    degree = (-1 if any(v.is_zero() for v in factors)
              else sum(v.degree() for v in factors))
    guard = guard or ResourceGuard()
    decoded = list(map(_decoded, factors))
    factor_degrees = [d for _, d in decoded]
    room, shifts = {}, {}
    # full: the key of 1; low: twice each guard bit, plus min(room_v, p - 1)
    # in the field of each v of `variables`
    full = low = upper = target = shift = 0
    for v in sorted(window.union(*factor_degrees)):
        tops = [d.get(v, 0) for d in factor_degrees]
        cap = (p - 1) // 2 * sum(tops)
        width = cap.bit_length()
        if v in window:
            room[v] = 2 * cap
            low += min(2 * cap, p - 1) << shift
            cap, width = p - 1, (p - 1 + max(tops, default=0)).bit_length()
            upper += 1 << width << shift
            target += cap << shift
        shifts[v] = shift
        full += ((1 << width) + cap) << shift
        low += 2 << width << shift
        shift += width + 1
    full += MAX_DEGREE << shift
    low += (MAX_DEGREE + 1) << shift
    g = {full: 1}
    try:
        for value, (rows, d) in zip(factors, decoded):
            moves = [shift] + [shifts.get(v, 0) for v in value.layout.names]
            terms = [(sum(map(lshift, r, moves)), c)
                     for r, c in zip(rows, value.terms.values())]
            reach = MAX_DEGREE + value.degree()
            steps = [(v, e, shifts[v]) for v, e in d.items() if v in window]
            for _ in range((p - 1) // 2):
                # g's largest degree is MAX_DEGREE - (min(g) >> shift)
                if g and terms and reach - (min(g) >> shift) > MAX_DEGREE:
                    raise DegreeOverflowError(reach - (min(g) >> shift))
                g = _window_product(g, terms, upper)
                for v, e, s in steps:
                    r = room[v]
                    low -= (min(r, p - 1) - min(r - e, p - 1)) << s
                    room[v] = r - e
                # cap - e_v <= room_v iff a field of low - k keeps its guard
                for k in [k for k, c in g.items()
                          if not c or (low - k) & upper != upper]:
                    del g[k]
                if not guard.check(g):
                    return SplitVerdict(p, NOT_COMPUTED, nvars=n, degree=degree,
                                        guard_reason=guard.tripped)
        if n * (p - 1) > MAX_DEGREE:
            raise DegreeOverflowError(n * (p - 1))
    except DegreeOverflowError as exc:
        return SplitVerdict(p, NOT_COMPUTED, nvars=n, degree=degree,
                            guard_reason=str(exc))
    # every field of a sum of two keys carries exactly one into the next,
    # so r + r' = pair iff e + e' is the target field by field
    pair = 2 * full - target - (n * (p - 1) << shift)
    total = sum(c * g.get(pair - r, 0) for r, c in g.items())
    return SplitVerdict(p, COMPUTED, coefficient=total, nvars=n, degree=degree)


def local_splitting_coefficient(group, p, guard=None):
    """Splitting verdict for sigma_minus on the big cell, where sigma_plus
    restricts to 1, so f = sigma_minus pulled back to chart coordinates,
    given to `splitting_coefficient` as its minors.
    """
    if not is_odd_prime(p):
        raise ValueError("p must be an odd prime")
    sections = GroupSections(group)
    return splitting_coefficient(sections.big_minors,
                                 sections.big_cell.variables, p, guard=guard)


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


def rnc_search(f0):
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
    universe = sorted(f0.variables())
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
                quotient = divide_by_variable(state, v)
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

def _gcd_degree(a, b):
    """Degree of gcd(a, b) over Q; integer lists from the constant term up
    with nonzero last entries.  Each step a <- lc(b) a - lead s^k b needs no
    inverse, and each remainder is divided by its content (primitive PRS
    over Z).
    """
    while b:
        a, lb, tail = list(a), b[-1], b[:-1]
        while len(a) >= len(b):
            lead = a.pop()
            if lead:
                a = [lb * c for c in a]
                for i, c in enumerate(tail, len(a) - len(tail)):
                    a[i] -= lead * c
        while a and not a[-1]:
            a.pop()
        if a:
            content = gcd(*a)
            a = [c // content for c in a]
        a, b = b, a
    return len(a) - 1 if a else -1


def _is_squarefree_univariate(coeffs):
    """Whether the integer polynomial h with these coefficients, constant
    term first and of degree d >= 1, is squarefree over Q.

    One integer gcd proves it in almost every case (the bound behind Char,
    Geddes and Gonnet's heuristic gcd).  Let X = 2^K with
    K = bits(||h||_1) + d + 2, so 2^d ||h||_1 < X/4.  Were h not
    squarefree, some primitive D in Z[s] of degree m >= 1 would divide both
    h and h' in Z[s] (Gauss).  By Mignotte, ||D||_inf <= 2^m ||h||_1 < X/4,
    so |D(X)| > X^m - (X/4)(X^m - 1)/(X - 1) >= X^m/2 >= X/2.  D(X)
    divides h(X) and h'(X), and h(X) != 0, so gcd(h(X), h'(X)) <= X/2
    proves h squarefree.  Any larger gcd runs the exact gcd over Z.
    """
    d = len(coeffs) - 1
    k = sum(map(abs, coeffs)).bit_length() + d + 2
    hx = dx = 0  # Horner at X for h and h'
    for i in range(d, 0, -1):
        hx = (hx << k) + coeffs[i]
        dx = (dx << k) + i * coeffs[i]
    hx = (hx << k) + coeffs[0]
    if gcd(hx, dx) <= 1 << (k - 1):
        return True
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    return _gcd_degree(coeffs, deriv) == 0


def _line_restrictor(factors):
    """(variables, restrict): f's names, the union of the names the terms
    of its `factors` use, in name order, and a function of (point,
    direction), integer sequences in that order, that returns the integer
    coefficients of f(point + direction*s), constant term first, without
    trailing zeros.

    Each factor is decoded here, by one `Layout.rows` call, and f is never
    multiplied out: on a line the factors' values at s = X = 2^B multiply
    to f's (Kronecker substitution).  A factor's layout may hold names that
    none of its terms use, which are not f's; only nonzero exponents and
    top exponents are looked up.  No coefficient exceeds
    ||f||_1 * max(reach, 1)^deg f in size, with reach the largest
    |point_v| + |direction_v|, and ||f||_1 <= prod ||m_i||_1, so B below
    puts each one strictly inside (-X/2, X/2) and the signed base-X digits
    of the value are exactly the coefficients.
    """
    decoded = list(map(_decoded, factors))
    variables = sorted(set().union(*(tops for _, tops in decoded)))
    index = {v: i for i, v in enumerate(variables)}
    # per factor: (position, top exponent) of each name it uses, and each
    # term's coefficient with the (position, e) of its nonzero exponents
    prepared = []
    for m, (rows, tops) in zip(factors, decoded):
        at = [index.get(v) for v in m.layout.names]  # None: a name no term uses
        prepared.append(([(index[v], top) for v, top in tops.items()],
                         [(c, [(i, e) for i, e in zip(at, row[1:]) if e])
                          for row, c in zip(rows, m.terms.values())]))
    degree = max(sum(m.degree() for m in factors), 0)
    norm_bits = prod(sum(map(abs, m.terms.values()))
                     for m in factors).bit_length()

    def restrict(point, direction):
        reach = max((abs(p) + abs(d) for p, d in zip(point, direction)),
                    default=0)
        bits = norm_bits + degree * reach.bit_length() + 1
        n = 1
        powers = [None] * len(point)  # [i][e]: (point[i] + direction[i]*X)^e
        for tops, terms in prepared:
            for i, top in tops:
                base = point[i] + (direction[i] << bits)
                powers[i] = pw = [1]
                for _ in range(top):
                    pw.append(pw[-1] * base)
            value = 0
            for c, exps in terms:
                for i, e in exps:
                    c *= powers[i][e]
                value += c
            n *= value
        half = 1 << (bits - 1)
        mask = (1 << bits) - 1
        out = []
        while n:
            digit = ((n + half) & mask) - half
            out.append(digit)
            n = (n - digit) >> bits
        return out

    return variables, restrict


def squarefree_probe(*factors, trials=20, seed=0):
    """Restrict f, the product of `factors`, to random affine lines and test
    each restriction for squarefreeness via its gcd with the derivative.

    A trial restricts f to point + direction*s, both with 7-digit entries,
    by one big-integer evaluation of each factor (`_line_restrictor`); it
    draws over f's names, the union of the factors'.  A constant
    restriction is discarded and redrawn.  The trial passes when the
    restriction is squarefree over Q: one integer gcd at a power of two
    proves that almost always, and the gcd over Z decides every other case,
    so each trial is exact.  The report is evidence only, not a proof.
    """
    variables, restrict = _line_restrictor(factors)
    if not variables or any(m.is_zero() for m in factors):
        raise ValueError("f is constant: nothing to restrict")
    if isinstance(trials, bool) or not isinstance(trials, int) or trials < 1:
        raise ValueError(f"trials must be an int of at least 1, got {trials!r}")
    rng = random.Random(seed)
    passes = 0
    completed = 0
    discarded = 0
    bound = 10**6  # wide draws keep accidental discriminant hits negligible
    # rng.randint(-bound, bound) returns the first getrandbits(bits) value
    # below width, minus bound; this loop draws the same values inline
    width = 2 * bound + 1
    bits = width.bit_length()
    nvars = len(variables)
    while completed < trials:
        draws = []
        while len(draws) < 2 * nvars:
            r = rng.getrandbits(bits)
            if r < width:
                draws.append(r - bound)
        coeffs = restrict(draws[:nvars], draws[nvars:])
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
            "witness": dict(self.witness, gram_determinant=str(
                self.witness["gram_determinant"])),
        }


def generic_skew_matrix(n):
    entries = [[Polynomial.zero() for _ in range(n)] for _ in range(n)]
    cells = [(i, j) for i in range(2, n + 1) for j in range(1, i)]
    names = [f"b{i}_{j}" for i, j in cells]
    for (i, j), v in zip(cells, Polynomial.generators(names)):
        entries[i - 1][j - 1] = v
        entries[j - 1][i - 1] = -v
    return PolyMatrix(entries)


def skew_minor_claim(n, k, seed=11):
    """The corner minor det B[{n-k+1..n} x {1..k}] of a generic skew matrix,
    plus a constructive integer witness.

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
    if not order_at_origin(minor) == minor.degree() == k:
        raise AssertionError("corner minor is not homogeneous of degree k")

    # rank-(n-1) form: symplectic pairs on the first n-1 basis vectors,
    # the last basis vector spans the radical
    form = [[0] * n for _ in range(n)]
    for i in range(0, n - 1, 2):
        form[i][i + 1] = 1
        form[i + 1][i] = -1
    rng = random.Random(seed)
    radical = [0] * (n - 1) + [1]

    def pair(u, v):
        return sum(
            u[a] * form[a][b] * v[b] for a in range(n) for b in range(n)
        )

    while True:
        W = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(k)]
        if _rank(W, n) != k:
            continue
        if _rank(W + [radical], n) != k + 1:
            continue  # W meets the radical, redraw
        break
    constraints = [
        [sum(form[a][b] * w[b] for b in range(n)) for a in range(n)] for w in W
    ]
    w_perp = integer_nullspace(constraints, n)
    if len(w_perp) != n - k:
        raise AssertionError("perp of W has the wrong dimension")
    # complement of W_perp, chosen greedily from standard basis then W
    candidates = [[int(j == i) for j in range(n)] for i in range(n)] + W
    w_prime = []
    span = list(w_perp)
    for cand in candidates:
        if len(w_prime) == k:
            break
        if _rank(span + [cand], n) > len(span):
            w_prime.append(cand)
            span.append(cand)
    if len(w_prime) != k:
        raise AssertionError("failed to extend W_perp to the full space")
    gram = [[pair(u, w) for w in W] for u in w_prime]
    det = determinant(PolyMatrix(gram)).constant_value()
    if det == 0:
        raise AssertionError("witness pairing matrix is singular")
    # dim(W meet W_prime) = dim W + dim W_prime - dim(W + W_prime), both k
    overlap = 2 * k - _rank(W + w_prime, n)
    witness = {
        "seed": seed,
        "w_basis": [[str(x) for x in v] for v in W],
        "w_prime_basis": [[str(x) for x in v] for v in w_prime],
        "gram": [[str(x) for x in row] for row in gram],
        "gram_determinant": det,
        "w_meets_w_prime_dim": overlap,
    }
    return SkewClaimResult(n, k, minor, witness)


def _rank(rows, n):
    """Rank of integer rows of length n, by their integer nullspace."""
    return n - len(integer_nullspace(rows, n))

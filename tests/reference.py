"""Test-only references and helpers.

The `ref_*` functions are the naive reference for `flagsplit.poly`: a
polynomial is a dict from exponent tuples (sorted (variable, exponent)
pairs, zero exponents left out) to nonzero integer coefficients, and every
operation is written out term by term.

The `ref_*` functions on group data are the earlier implementation of
`flagsplit.rootdata`: root heights from an exact Fraction solve in
simple-root coordinates, root spaces from the Lie-algebra constraint of
every (a, b) solved by the Fraction `rational_nullspace`, and exp of a
nilpotent matrix from powers of a `PolyMatrix`, with t set to 1 by
`ref_substitute` for the Weyl representatives; `ref_chi` gives chi_a
through the validating `Weight` constructor.  Their
identity, product, sum and scalar multiple of matrices are the
`ref_matrix_*` helpers here; `ref_matrix_product` forms every product,
zeros included, so these references never use the sparse
`PolyMatrix.__mul__` they check.  `ref_form_residual` writes out
M^T F M - F with every product formed, and `ref_lie_constraint_ok` the
Lie-algebra identity X^T F + F X = 0.

`ref_splitting_coefficient` is the splitting coefficient without a
window: it forms every term of f^((p-1)/2), through `power`,
square-and-multiply over `Polynomial.__mul__`.  `ref_window_trace` is the
window itself on decoded exponents: the terms that the coefficient keeps
after each product, which `RecordingGuard` records from the library.
`ref_equivariance_suite` is the equivariance suite with its left laws on
whole section products over N x N generic matrices.

`ref_line_restriction` is the squarefree probe's restriction to a line
without Kronecker substitution: it multiplies the factors out and restricts
the product term by term.  `horner_schemes` records the Horner scheme that
the probe's restrictor builds for each factor, and `scheme_products` counts
the big-integer products one line's evaluation of a scheme takes.

`ref_gcd_degree_rational` is the earlier gcd loop of the squarefree
probe, Euclid over Fractions: the reference for both the integer-gcd proof
and the gcd over Z behind it.  `shuffled_big_cell` is the big cell with its
root generators taken in another order.

`row_reduce`, `rational_matrix_rank` and `rational_nullspace` are the
earlier Fraction Gauss-Jordan kernel of `flagsplit.matrix`: the reference
that `matrix.integer_nullspace` and the skew witness's integer rank are
checked against, and the solver behind `ref_root_height` and
`ref_primitive_nullspace`.

`ref_row` reads a packed key's fields one at a time, each by its own
shift and mask: the reference for `Layout.rows`.  `ref_degrees` takes the
largest exponent of each name from those rows.  `term_items` decodes a
polynomial's packed keys into exponent dicts, and `widened` rebuilds a
polynomial over a layout with more names.  The other helpers were library
code that only the tests used.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import lcm

from flagsplit.charts import Chart
from flagsplit.matrix import PolyMatrix, column_minor, exp_nilpotent, primitive
from flagsplit.poly import FIELD_BITS, Polynomial, layout_of
from flagsplit.rootdata import FAMILY_A, FAMILY_D, ConventionError, Weight
from flagsplit.sections import generic_matrices, row_exponent_vector
from flagsplit.splitting import ResourceGuard


def _clean(terms):
    return {m: c for m, c in terms.items() if c}


def ref_of(poly):
    return {poly.layout.exponents(k): c for k, c in poly.terms.items()}


def ref_row(layout, key):
    """(total degree, e_1, ..., e_n) of a key over `layout`: field j of
    n + 1, from the most significant, by its own shift and mask."""
    n = len(layout.names)
    mask = (1 << FIELD_BITS) - 1
    return tuple((key >> (FIELD_BITS * (n - j))) & mask for j in range(n + 1))


def ref_degrees(poly):
    """The largest exponent of each name that some term of poly uses, in
    name order, read off `ref_row`."""
    rows = [ref_row(poly.layout, k) for k in poly.terms]
    return {v: top for j, v in enumerate(poly.layout.names, 1)
            if (top := max((r[j] for r in rows), default=0))}


def widened(poly, names):
    """The same polynomial over the layout of its own names and `names`,
    each key decoded and packed again."""
    layout = layout_of(sorted(set(poly.layout.names).union(names)))
    return Polynomial._raw(layout, {
        layout.pack(poly.layout.exponents(k)): c for k, c in poly.terms.items()})


def term_items(poly):
    """(dict variable -> exponent, coefficient) pairs of poly's terms."""
    return [(dict(exps), c) for exps, c in ref_of(poly).items()]


def ref_from_terms(terms):
    """(dict variable -> exponent, coefficient) pairs summed."""
    out = {}
    for exps, c in terms:
        m = tuple(sorted((v, e) for v, e in exps.items() if e))
        out[m] = out.get(m, 0) + c
    return _clean(out)


def ref_add(a, b):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return _clean(out)


def ref_neg(a):
    return {m: -c for m, c in a.items()}


def _mono_mul(m1, m2):
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return _clean(out)


def ref_pow(a, e):
    out = {(): 1}
    for _ in range(e):
        out = ref_mul(out, a)
    return out


def power(f, e):
    """f^e for a Polynomial f and an int e >= 0, by square-and-multiply."""
    if e < 0:
        raise ValueError("exponent must be non-negative")
    result = Polynomial.one()
    while e:
        if e & 1:
            result = result * f
        e >>= 1
        if e:
            f = f * f
    return result


def ref_splitting_coefficient(f, variables, p):
    """The coefficient of prod(v^(p-1)) in f^(p-1) with no window: every
    term of g = f^((p-1)/2) is formed, and the target is read off g*g one
    pair at a time.  This was the library path before the window."""
    g = ref_of(power(f, (p - 1) // 2))
    total = 0
    for m, c in g.items():
        rest = dict.fromkeys(variables, p - 1)
        for v, e in m:
            rest[v] = rest.get(v, 0) - e
        if min(rest.values(), default=0) >= 0:
            total += c * g.get(tuple(sorted((v, e) for v, e in rest.items()
                                            if e)), 0)
    return total


def ref_window_trace(factors, variables, p):
    """The sorted coefficients of g after each product of
    `splitting_coefficient`: g takes each factor (p - 1)/2 times in a row,
    and keeps the terms with p - 1 - room_v <= e_v <= p - 1 for each v of
    `variables`, room_v being the v-degree still to come into g*g."""
    refs = [ref_of(f) for f in factors]
    room = {v: (p - 1) * sum(max((dict(m).get(v, 0) for m in ref), default=0)
                             for ref in refs) for v in variables}
    g, trace = {(): 1}, []
    for ref in refs:
        for _ in range((p - 1) // 2):
            g = ref_mul(g, ref)
            for v in variables:
                room[v] -= max((dict(m).get(v, 0) for m in ref), default=0)
            g = {m: c for m, c in g.items() if all(
                p - 1 - room[v] <= dict(m).get(v, 0) <= p - 1
                for v in variables)}
            trace.append(sorted(g.values()))
    return trace


class RecordingGuard(ResourceGuard):
    """A guard that records the sorted coefficients of every g it checks."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def check(self, terms):
        self.seen.append(sorted(terms.values()))
        return super().check(terms)


def ref_gcd_degree_rational(a, b):
    """Degree of gcd(a, b) over Q by Euclid over Fractions; integer lists
    from the constant term up with nonzero last entries."""
    a, b = [Fraction(c) for c in a], [Fraction(c) for c in b]
    while b:
        a = list(a)
        while len(a) >= len(b):
            lead = a.pop()
            if lead:
                factor = lead / b[-1]
                for i, c in enumerate(b[:-1], len(a) - len(b) + 1):
                    a[i] -= factor * c
        while a and not a[-1]:
            a.pop()
        a, b = b, a
    return len(a) - 1 if a else -1


def ref_substitute(a, assignment):
    """`assignment` maps a variable to a reference polynomial."""
    out = {}
    for m, c in a.items():
        term = {(): c}
        for v, e in m:
            factor = assignment.get(v, {((v, 1),): 1})
            term = ref_mul(term, ref_pow(factor, e))
        out = ref_add(out, term)
    return out


def ref_line_restriction(factors, point, direction):
    """Coefficients of the product of the reference polynomials `factors`
    on point + direction*s, constant term first, without trailing zeros:
    the product expanded, then restricted term by term."""
    f = {(): 1}
    for m in factors:
        f = ref_mul(f, m)
    restricted = ref_substitute(f, {
        v: ref_from_terms([({"s": 1}, direction[v]), ({}, point[v])])
        for m in f for v, _ in m})
    degree = max((e for m in restricted for _, e in m), default=0)
    want = [restricted.get((("s", j),) if j else (), 0)
            for j in range(degree + 1)]
    while want and not want[-1]:
        want.pop()
    return want


def horner_schemes(factors):
    """(variables, restrict, schemes) for `factors`: `_line_restrictor`'s
    result and the Horner scheme it built for each factor, in order."""
    from flagsplit import splitting

    built, depth = [], [0]
    original = splitting._horner

    def outermost(*args):  # the recursion calls it too
        depth[0] += 1
        try:
            scheme = original(*args)
        finally:
            depth[0] -= 1
        if not depth[0]:
            built.append(scheme)
        return scheme

    splitting._horner = outermost
    try:
        variables, restrict = splitting._line_restrictor(factors)
    finally:
        splitting._horner = original
    return variables, restrict, built


def scheme_products(scheme):
    """(leaf products, Horner steps) of one line's evaluation of a scheme
    (position, body): a leaf multiplies each term's coefficient by one
    power per nonzero exponent, and a node's part with a nonzero gap takes
    one step."""
    position, body = scheme
    if position is None:
        return sum(len(exps) for _, exps in body), 0
    leaf = steps = 0
    for part_position, part_body, gap in body:
        below = scheme_products((part_position, part_body))
        leaf += below[0]
        steps += below[1] + (gap > 0)
    return leaf, steps


def poly_of(ref):
    """The library polynomial of a reference polynomial."""
    return Polynomial([(dict(m), c) for m, c in ref.items()])


def substituted(poly, values):
    """A library polynomial with each variable of `values` replaced by an
    int or a Polynomial, through ref_substitute."""
    return poly_of(ref_substitute(ref_of(poly), {
        v: ref_of(Polynomial.constant(p) if isinstance(p, int) else p)
        for v, p in values.items()}))


def ref_divide_by_variable(a, v):
    """The exact quotient a / v, or None when some monomial lacks v."""
    out = {}
    for m, c in a.items():
        exps = dict(m)
        if v not in exps:
            return None
        exps[v] -= 1
        out[tuple(sorted((w, e) for w, e in exps.items() if e))] = c
    return out


def chain_state(f0, chosen):
    """The canonical quotient state for a set of chosen variables.

    Directly: keep the monomials of f0 with exponent exactly 1 in every
    chosen variable, divided by their product.  This depends only on the
    set, which is what makes memoizing the certificate search on sets
    sound; the step-by-step quotients agree with it whenever their
    divisibility conditions hold.
    """
    out = []
    for exps, c in term_items(f0):
        if all(exps.get(v) == 1 for v in chosen):
            for v in chosen:
                del exps[v]
            out.append((exps, c))
    if not out:
        return None
    return Polynomial(out)


def sigma_plus_is_one_on_big_cell(plus, chart):
    """sigma_plus restricts to the constant 1 on any big cell."""
    return plus.evaluate(chart.matrix) == Polynomial.one()


def ref_equivariance_suite(sections):
    """The equivariance suite with the left laws on whole products: every
    generic matrix is N x N, and sigma_minus(bM) and sigma_plus(lM) are
    multiplied out and compared with prod T_ii^(e_i) times the section on
    M.  This was the library suite before its left laws went factor by
    factor."""
    group = sections.group
    N = group.size
    plus, minus = sections.pair
    generic = generic_matrices(N, N)
    M = generic["m"]
    memo_m = {}
    D = generic["d"]
    DM = D * M
    memo_dm = {}
    for section in (plus, minus):
        for spec in section.factors:
            scale = Polynomial.one()
            for a in spec.rows:
                scale = scale * D[a, a]
            if column_minor(DM, spec, memo_dm) != scale * column_minor(M, spec, memo_m):
                raise ConventionError(f"diagonal scaling fails for {spec}")
    Mu = M * generic["u"]
    memo_mu = {}
    for section in (plus, minus):
        for spec in section.factors:
            if column_minor(Mu, spec, memo_mu) != column_minor(M, spec, memo_m):
                raise ConventionError(f"column stability fails for {spec}")
    results = {"diagonal_scaling": True, "right_column_stability": True}
    for key, T, section in (("left_b_law", generic["b"], minus),
                            ("left_bminus_law", generic["l"], plus)):
        exps = row_exponent_vector(section)
        scale = Polynomial.one()
        for i, e in enumerate(exps, start=1):
            scale = scale * power(T[i, i], e)
        if section.evaluate(T * M) != scale * section.evaluate(M):
            raise ConventionError(f"{key} fails")
        results[key] = {"exponents": exps}
    exps = results["left_b_law"]["exponents"]
    realized = group.fold_sum(
        [(-1, a) for a, e in enumerate(exps, start=1) for _ in range(e)])
    if realized != group.rho:
        raise ConventionError("sigma_minus exponents do not realize rho")
    return results


def homogeneous_part(poly, d):
    """The terms of poly of total degree d."""
    return Polynomial([(exps, c) for exps, c in term_items(poly)
                       if sum(exps.values()) == d])


def leibniz_determinant(matrix, rows=None, cols=None):
    """Brute-force Leibniz sum; the independent oracle for column_minor."""
    rows = list(rows) if rows else list(range(1, matrix.nrows + 1))
    cols = list(cols) if cols else list(range(1, len(rows) + 1))
    if len(rows) != len(cols):
        raise ValueError("non-square")
    total = Polynomial.zero()
    for perm in permutations(range(len(rows))):
        inversions = sum(
            perm[i] > perm[j]
            for i in range(len(perm)) for j in range(i + 1, len(perm))
        )
        prod = Polynomial.one()
        for i, p in enumerate(perm):
            prod = prod * matrix[rows[i], cols[p]]
        total = total + (-prod if inversions % 2 else prod)
    return total


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


def ref_root_height(group, root):
    """Sum of the simple-root coefficients of a root, by a Fraction solve."""
    generators = [list(a.doubled) for a in group.simple_roots]
    if group.family == FAMILY_A:
        # weights are classes mod the all-ones vector; give the solver
        # that direction as an extra free generator
        generators.append([2] * group.n)
    ngen = len(generators)
    aug = [[g[j] for g in generators] + [t] for j, t in enumerate(root.doubled)]
    rref, pivots, _ = row_reduce(aug, ngen)
    if any(row[-1] for row in rref[len(pivots):]):
        raise ValueError(f"{root} is not in the root lattice span")
    coeffs = [Fraction(0)] * ngen
    for row, col in zip(rref, pivots):
        coeffs[col] = row[-1]
    coeffs = coeffs[: len(group.simple_roots)]
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError(f"non-integral simple-root coefficients {coeffs}")
    if not (all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs)):
        raise ValueError(f"{root} is neither positive nor negative")
    return int(sum(coeffs))


def ref_negative_roots(group):
    """Negative roots ordered by the height of their positive, then lex."""
    return sorted(group.negative_roots,
                  key=lambda root: (-ref_root_height(group, root), root.doubled))


def ref_matrix_identity(n):
    return PolyMatrix([[int(i == j) for j in range(n)] for i in range(n)])


def ref_matrix_add(a, b):
    return PolyMatrix([[x + y for x, y in zip(r, s)]
                       for r, s in zip(a.entries, b.entries)])


def ref_matrix_scale(a, c):
    """Every entry of the PolyMatrix a times c, an int or a Polynomial."""
    return PolyMatrix([[e * c for e in row] for row in a.entries])


def ref_matrix_substitute(a, values):
    return PolyMatrix([[substituted(e, values) for e in row] for row in a.entries])


def ref_matrix_product(a, b):
    """The product of two matrices given as rows of ints or Polynomials,
    with every product formed, zeros included."""
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def ref_polymatrix_product(a, b):
    """The PolyMatrix a * b through ref_matrix_product."""
    return PolyMatrix(ref_matrix_product(a.entries, b.entries))


def ref_form_residual(matrix, form):
    """The rows of M^T F M - F for a PolyMatrix M and integer rows F."""
    rows = matrix.entries
    product = ref_matrix_product(ref_matrix_product(list(zip(*rows)), form), rows)
    return [[x - f for x, f in zip(row, frow)] for row, frow in zip(product, form)]


def is_zero_rows(rows):
    return all(e == 0 for row in rows for e in row)


def ref_lie_constraint_ok(group, X):
    """X^T F + F X = 0 for integer rows X and the form F of a C or D group,
    with every product formed."""
    lhs = ref_matrix_product(list(zip(*X)), group.form)
    rhs = ref_matrix_product(group.form, X)
    return all(a + b == 0 for r1, r2 in zip(lhs, rhs) for a, b in zip(r1, r2))


def ref_exp_nilpotent(matrix, t):
    """I + tX + t^2 X^2/2! + ... for a nilpotent PolyMatrix X."""
    powers = []
    power = ref_matrix_identity(matrix.nrows)
    for _ in range(matrix.nrows):
        power = ref_polymatrix_product(power, matrix)
        if is_zero_rows(power.entries):
            break
        powers.append(power)
    else:
        raise ValueError("matrix is not nilpotent")
    tvar = Polynomial.variable(t)
    result = ref_matrix_identity(matrix.nrows)
    tpow = Polynomial.one()
    factorial = 1
    for m, power in enumerate(powers, start=1):
        factorial *= m
        tpow = tpow * tvar
        scaled = []
        for row in power.entries:
            scaled.append([])
            for e in row:
                if any(c % factorial for c in e.terms.values()):
                    raise ArithmeticError(f"{factorial} does not divide {e}")
                scaled[-1].append(Polynomial(
                    [(exps, c // factorial) for exps, c in term_items(e)]))
        result = ref_matrix_add(result, ref_matrix_scale(PolyMatrix(scaled), tpow))
    return result


def ref_simple_reflection(group, i):
    """exp(X) exp(-Y) exp(X) at t = 1 for the i-th simple root, as the first
    sign of Y that gives a +-1 monomial matrix in the group."""
    alpha = group.simple_roots[i - 1]
    X = PolyMatrix(group.root_generator[alpha])
    Y = PolyMatrix(group.root_generator[-alpha])
    for s in (1, -1):
        try:
            ex = ref_matrix_substitute(ref_exp_nilpotent(X, "_t"), {"_t": 1})
            ey = ref_matrix_substitute(
                ref_exp_nilpotent(ref_matrix_scale(Y, -s), "_t"), {"_t": 1})
        except (ValueError, ArithmeticError):
            continue
        rep = ref_polymatrix_product(ref_polymatrix_product(ex, ey), ex)
        values = [[e.constant_value() for e in row] for row in rep.entries]
        if all(sorted(map(abs, line)) == [0] * (len(line) - 1) + [1]
               for line in (*values, *zip(*values))) and group.in_group(rep):
            return rep
    raise ValueError(f"no representative for simple root {alpha}")


def ref_levi_longest_representative(group, r=None):
    rep = ref_matrix_identity(group.size)
    for i in group.levi_longest_word(r).word:
        rep = ref_polymatrix_product(rep, ref_simple_reflection(group, i))
    return rep


def ref_unipotent_factor(group, names):
    """The product of exp(t_b X_b) over the negative roots in reference order."""
    u = ref_matrix_identity(group.size)
    for root, name in zip(ref_negative_roots(group), names):
        u = ref_polymatrix_product(
            u, ref_exp_nilpotent(PolyMatrix(group.root_generator[root]), name))
    return u


def shuffled_big_cell(group, order):
    """The big cell u(t) = prod exp(t_b X_b) with the negative-root
    generators taken in `order` (a permutation of their indices)."""
    gens = group.negative_root_generators()
    names = [f"t{i}" for i in range(len(gens))]
    u = None
    for i, name in zip(order, names):
        u = exp_nilpotent(gens[i][1], Polynomial.variable(name), u)
    chart = Chart(group, names, u)
    chart.verify_membership()
    return chart


def ref_root_space_basis(group, positions):
    """Root-space basis on one weight class of positions (i, j), as integer
    rows: for C and D, the nullspace of the constraint
    s_{b*} X[b*,a] + s_a X[a*,b] = 0 written out for every (a, b) of the
    N x N grid, keeping each row that names a position of the class."""
    N = group.size

    def unit(coeffs):
        rows = [[0] * N for _ in range(N)]
        for (i, j), c in coeffs.items():
            rows[i - 1][j - 1] = c
        return rows

    if group.family == FAMILY_A:
        return [unit({pos: 1}) for pos in positions]
    index = {pos: i for i, pos in enumerate(positions)}
    star = group.star
    sign = {c: 1 if group.family == FAMILY_D or c < star(c) else -1
            for c in range(1, N + 1)}
    rows = []
    for a in range(1, N + 1):
        for b in range(1, N + 1):
            row = [0] * len(positions)
            touched = False
            for pos, s in (((star(b), a), sign[star(b)]),
                           ((star(a), b), sign[a])):
                if pos in index:
                    row[index[pos]] += s
                    touched = True
            if touched:
                rows.append(row)
    return [unit({pos: c for pos, c in zip(positions, vec) if c})
            for vec in ref_primitive_nullspace(rows, len(positions))]


def ref_primitive_nullspace(rows, ncols):
    """`primitive` of each vector of the Fraction `rational_nullspace`,
    with its denominators cleared first."""
    out = []
    for vec in rational_nullspace(rows, ncols):
        scale = lcm(*(v.denominator for v in vec))
        out.append(primitive([int(v * scale) for v in vec]))
    return out


def ref_chi(group, a):
    """chi_a as a validated Weight: 2e_a for a <= n, and -2e_{a*} past n,
    a* = N + 1 - a."""
    coords = [0] * group.n
    if a <= group.n:
        coords[a - 1] = 2
    else:
        coords[group.size - a] = -2
    return Weight(group.family, coords)


def ref_lie_basis(group):
    """(root generator, weight) per root, weight classes in sorted order,
    each class's basis from ref_root_space_basis."""
    N = group.size
    classes = {}
    for i in range(1, N + 1):
        for j in range(1, N + 1):
            if i != j:
                classes.setdefault(ref_chi(group, i) - ref_chi(group, j),
                                   []).append((i, j))
    out = []
    for weight, positions in sorted(classes.items(),
                                    key=lambda kv: (kv[0].doubled, kv[1])):
        if any(weight.doubled):
            out.extend((X, weight)
                       for X in ref_root_space_basis(group, positions))
    return out

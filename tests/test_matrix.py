import random

import pytest

from flagsplit.matrix import (
    MinorSpec,
    PolyMatrix,
    column_minor,
    determinant,
    exp_nilpotent,
    integer_nullspace,
    integer_product,
    signed_rows,
)
from flagsplit.poly import Polynomial, poly_from_string
from flagsplit.splitting import _rank
from reference import (
    leibniz_determinant,
    rational_matrix_rank,
    ref_exp_nilpotent,
    ref_matrix_identity,
    ref_matrix_product,
    ref_polymatrix_product,
    row_reduce,
)

T = Polynomial.variable("t")  # the variable of exp(tX)


def random_matrix(rng, size, with_variables=False):
    def entry():
        if with_variables and rng.random() < 0.3:
            return Polynomial.variable(rng.choice("uvw"))
        return Polynomial.constant(rng.randint(-4, 4))

    return PolyMatrix([[entry() for _ in range(size)] for _ in range(size)])


def test_determinant_against_leibniz_oracle():
    rng = random.Random(20240817)
    for trial in range(100):
        size = rng.randint(1, 5)
        m = random_matrix(rng, size, with_variables=trial % 3 == 0)
        assert determinant(m) == leibniz_determinant(m), f"trial {trial}"


def test_column_minor_listed_row_order_sign():
    m = PolyMatrix([
        [poly_from_string(s) for s in row]
        for row in (["a", "b"], ["c", "d"])
    ])
    assert column_minor(m, (1, 2)) == poly_from_string("a*d - b*c")
    assert column_minor(m, (2, 1)) == poly_from_string("b*c - a*d")


def test_minor_memo_shared_across_nested_specs():
    rng = random.Random(5)
    m = random_matrix(rng, 5)
    memo = {}
    for k in range(1, 6):
        spec = MinorSpec(range(5, 5 - k, -1))
        assert column_minor(m, spec, memo) == leibniz_determinant(
            m, rows=list(range(5, 5 - k, -1)), cols=list(range(1, k + 1))
        )


def test_row_scaling_law():
    rng = random.Random(9)
    m = random_matrix(rng, 4, with_variables=True)
    t = Polynomial.variable("t")
    scaled_rows = [
        [e * t for e in m.entries[0]],
        *[list(row) for row in m.entries[1:]],
    ]
    scaled = PolyMatrix(scaled_rows)
    assert determinant(scaled) == t * determinant(m)


def test_triangular_determinant_is_diagonal_product():
    m = PolyMatrix([
        [poly_from_string("a"), 0, 0],
        [poly_from_string("x"), poly_from_string("b"), 0],
        [poly_from_string("y"), poly_from_string("z"), poly_from_string("c")],
    ])
    assert determinant(m) == poly_from_string("a*b*c")


# rank one, X = u v^T with v . u = 0: X^2 = u (v . u) v^T = 0, though X has
# nonzero entries in the rows and columns it maps to
SQUARE_ZERO = [[1, 0, 1], [2, 0, 2], [-1, 0, -1]]


def transpose(x):
    return [list(col) for col in zip(*x)]


def test_exp_nilpotent_group_law():
    for x in ([[1, -1], [1, -1]],  # X^2 = 0 only because its products cancel
              [[0, 0, 0], [0, 0, 0], [2, 0, 0]],
              SQUARE_ZERO):
        e = exp_nilpotent(x, T)
        minus = exp_nilpotent([[-v for v in row] for row in x], T)
        assert (e * minus).entries == ref_matrix_identity(len(x)).entries
        assert determinant(e) == Polynomial.one()


@pytest.mark.parametrize("x", [
    # column 2 gains from column 0, which itself gains from columns 0, 1
    # and 2, and must read column 0 as it was in `left`
    SQUARE_ZERO,
    transpose(SQUARE_ZERO),
])
def test_exp_nilpotent_with_left_factor_against_reference(x):
    want = ref_exp_nilpotent(PolyMatrix(x), "t")
    assert exp_nilpotent(x, T).entries == want.entries
    poly_left = PolyMatrix([
        [poly_from_string(s) for s in row]
        for row in (["t + 1", "0", "u^2"], ["0", "0", "3"], ["-u*t", "2", "0"])
    ])
    for left in (ref_matrix_identity(3), poly_left):
        assert (exp_nilpotent(x, T, left).entries
                == ref_polymatrix_product(left, want).entries)


# nilpotent, but X^2 = E_31 != 0
SHIFT = [[0, 0, 0], [1, 0, 0], [0, 1, 0]]


def test_exp_nilpotent_rejects_inexact_division():
    with pytest.raises(ValueError, match="X\\^2 != 0"):
        exp_nilpotent(SHIFT, T)


def test_exp_nilpotent_rejects_invertible():
    with pytest.raises(ValueError, match="X\\^2 != 0"):
        exp_nilpotent([[1, 0], [0, 1]], T)


def test_exp_nilpotent_rejects_singular_non_nilpotent():
    # X^2 = X != 0
    with pytest.raises(ValueError, match="X\\^2 != 0"):
        exp_nilpotent([[1, 0], [0, 0]], T)


@pytest.mark.parametrize("left", ["identity", "polynomial"])
def test_exp_nilpotent_with_left_factor_rejects_as_without(left):
    def factor(size):
        if left == "identity":
            return ref_matrix_identity(size)
        return PolyMatrix([[poly_from_string("u") if i == j else int(j < i)
                            for j in range(size)] for i in range(size)])

    for x in (SHIFT, [[1, 0], [0, 1]], [[1, 0], [0, 0]]):
        with pytest.raises(ValueError, match="X\\^2 != 0"):
            exp_nilpotent(x, T, factor(len(x)))


def test_exp_nilpotent_rejects_a_left_factor_of_the_wrong_width():
    with pytest.raises(ValueError, match="shape mismatch"):
        exp_nilpotent([[0, 0], [1, 0]], T, ref_matrix_identity(3))


def test_exp_nilpotent_against_polymatrix_reference():
    """Random square-zero X = u v^T, v . u = 0, with entries beyond +-1,
    against the general series, with left None, the identity and a matrix
    of polynomials."""
    rng = random.Random(31)
    for trial in range(30):
        size = rng.randint(2, 5)
        u = [rng.randint(-3, 3) for _ in range(size)]
        u[rng.randrange(size)] = rng.choice([-2, -1, 1, 2])
        v = [rng.randint(-3, 3) for _ in range(size)]
        i = next(i for i, a in enumerate(u) if a)
        # scale v by u_i and fix v_i so that v . u = 0
        v = [u[i] * b for b in v]
        v[i] = -sum(a * b for j, (a, b) in enumerate(zip(u, v)) if j != i) // u[i]
        x = [[a * b for b in v] for a in u]
        want = ref_exp_nilpotent(PolyMatrix(x), "t")
        assert exp_nilpotent(x, T).entries == want.entries, trial
        for left in (ref_matrix_identity(size),
                     random_matrix(rng, size, with_variables=True)):
            assert (exp_nilpotent(x, T, left).entries
                    == ref_polymatrix_product(left, want).entries), trial


def random_sparse_rows(rng, nrows, ncols, density, entry):
    """Rows with each entry nonzero with probability `density`, then one
    row and one column cleared at random."""
    rows = [[entry() if rng.random() < density else 0 for _ in range(ncols)]
            for _ in range(nrows)]
    rows[rng.randrange(nrows)] = [0] * ncols
    j = rng.randrange(ncols)
    for row in rows:
        row[j] = 0
    return rows


def test_integer_product_against_dense_product():
    rng = random.Random(51)
    for trial in range(300):
        n, k, m = (rng.randint(1, 8) for _ in range(3))
        density = rng.choice((0, 0.1, 0.3, 0.6, 1))
        a = random_sparse_rows(rng, n, k, density, lambda: rng.randint(-5, 5))
        b = random_sparse_rows(rng, k, m, density, lambda: rng.randint(-5, 5))
        assert integer_product(a, b) == ref_matrix_product(a, b), trial


def test_polymatrix_product_against_dense_product():
    rng = random.Random(52)

    def entry():
        return Polynomial([({rng.choice("uvw"): rng.randint(1, 2)},
                            rng.randint(-3, 3)), ({}, rng.randint(-3, 3))])

    for trial in range(150):
        n, k, m = (rng.randint(1, 6) for _ in range(3))
        density = rng.choice((0, 0.2, 0.5, 1))
        a = PolyMatrix(random_sparse_rows(rng, n, k, density, entry))
        b = PolyMatrix(random_sparse_rows(rng, k, m, density, entry))
        assert (a * b).entries == ref_matrix_product(a.entries, b.entries), trial


def test_polymatrix_times_a_scalar_is_a_type_error():
    m = PolyMatrix([[poly_from_string("x"), 1], [0, 1]])
    for scalar in (2, Polynomial.constant(2)):
        with pytest.raises(TypeError):
            m * scalar
        with pytest.raises(TypeError):
            scalar * m
    with pytest.raises(ValueError):
        m * PolyMatrix([[1, 2, 3]])


def random_signed_permutation(rng, size):
    perm = list(range(size))
    rng.shuffle(perm)
    return [[rng.choice((1, -1)) if j == perm[i] else 0 for j in range(size)]
            for i in range(size)]


def test_signed_rows_against_dense_product(monkeypatch):
    rng = random.Random(41)
    products = []
    multiply = Polynomial.__mul__

    def counted(self, other):
        products.append((self, other))
        return multiply(self, other)

    for trial in range(60):
        size, ncols = rng.randint(1, 6), rng.randint(1, 5)
        perm = random_signed_permutation(rng, size)
        m = PolyMatrix([
            [Polynomial([({rng.choice("uvw"): rng.randint(1, 2)}, rng.randint(-3, 3)),
                         ({}, rng.randint(-3, 3))]) for _ in range(ncols)]
            for _ in range(size)
        ])
        want = ref_matrix_product(perm, m.entries)
        with monkeypatch.context() as patch:
            patch.setattr(Polynomial, "__mul__", counted)
            patch.setattr(Polynomial, "__rmul__", counted)
            got = signed_rows(perm, m)
        assert got.entries == want, trial
    assert not products


def test_signed_rows_rejects_rows_that_are_not_one_sign():
    m = PolyMatrix([[poly_from_string("x")], [1]])
    for perm in ([[2, 0], [0, 1]], [[1, 1], [0, 1]], [[0, 0], [1, 0]]):
        with pytest.raises(ValueError):
            signed_rows(perm, m)


def test_rational_rank_and_nullspace():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert _rank(rows, 3) == 2
    # primitive, first nonzero entry positive
    assert integer_nullspace(rows, 3) == [[1, 1, -1]]


def _random_rows(rng, nrows, ncols):
    # low rank is common: a third of the rows repeat a multiple of another
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.3:
            base = rng.choice(rows)
            rows.append([rng.randint(-2, 2) * x for x in base])
        else:
            rows.append([rng.randint(-4, 4) for _ in range(ncols)])
    return rows


def test_row_reduce_determinant_against_leibniz_oracle():
    rng = random.Random(31)
    for trial in range(100):
        size = rng.randint(1, 5)
        rows = _random_rows(rng, size, size)
        assert row_reduce(rows, size)[2] == leibniz_determinant(
            PolyMatrix(rows)
        ), f"trial {trial}"


def test_rank_nullity_on_random_matrices():
    rng = random.Random(32)
    for trial in range(100):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = _random_rows(rng, nrows, ncols)
        basis = integer_nullspace(rows, ncols)
        assert rational_matrix_rank(rows) + len(basis) == ncols, f"trial {trial}"
        if basis:
            assert rational_matrix_rank(basis) == len(basis), f"trial {trial}"
        for v in basis:
            for row in rows:
                assert sum(a * b for a, b in zip(row, v)) == 0, f"trial {trial}"


def _solve(rows, rhs):
    """Read x with rows * x = rhs off the reduced augmented matrix, or None."""
    ncols = len(rows[0])
    rref, pivots, _ = row_reduce([row + [b] for row, b in zip(rows, rhs)], ncols)
    if any(row[-1] for row in rref[len(pivots):]):
        return None
    x = [0] * ncols
    for row, col in zip(rref, pivots):
        x[col] = row[-1]
    return x


def test_row_reduce_solves_augmented_systems():
    rng = random.Random(33)
    for trial in range(100):
        nrows, ncols = rng.randint(1, 5), rng.randint(1, 5)
        rows = _random_rows(rng, nrows, ncols)
        x = [rng.randint(-3, 3) for _ in range(ncols)]
        rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
        solution = _solve(rows, rhs)
        assert solution is not None, f"trial {trial}"
        got = [sum(a * b for a, b in zip(row, solution)) for row in rows]
        assert got == rhs, f"trial {trial}"
    # row 2 is twice row 1, so only a right-hand side doubling with it solves
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert _solve(rows, [1, 2, 0]) is not None
    assert _solve(rows, [1, 3, 0]) is None

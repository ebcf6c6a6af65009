import random

import pytest

from flagsplit.matrix import (
    MinorSpec,
    PolyMatrix,
    column_minor,
    determinant,
    exp_nilpotent,
    rational_matrix_rank,
    rational_nullspace,
    row_reduce,
)
from flagsplit.poly import Polynomial, poly_from_string
from reference import leibniz_determinant


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


def test_exp_nilpotent_group_law():
    # X^2 = 2*E_31, so X^2/2! stays integral
    x = PolyMatrix([[0, 0, 0], [2, 0, 0], [0, 1, 0]])
    e = exp_nilpotent(x, "t")
    minus = exp_nilpotent(x * (-1), "t")
    assert e * minus == PolyMatrix.identity(3)
    assert determinant(e) == Polynomial.one()


def test_exp_nilpotent_rejects_inexact_division():
    # X^2 = E_31, and 1/2! is not an integer
    with pytest.raises(ArithmeticError):
        exp_nilpotent(PolyMatrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]]), "t")


def test_exp_nilpotent_rejects_invertible():
    with pytest.raises(ValueError):
        exp_nilpotent(PolyMatrix.identity(2), "t")


def test_exp_nilpotent_rejects_singular_non_nilpotent():
    # X^2 = X != 0; the rejection must come before dividing X^2 by 2!
    with pytest.raises(ValueError, match="not nilpotent"):
        exp_nilpotent(PolyMatrix([[1, 0], [0, 0]]), "t")


def test_rational_rank_and_nullspace():
    rows = [[1, 2, 3], [2, 4, 6], [0, 1, 1]]
    assert rational_matrix_rank(rows) == 2
    basis = rational_nullspace(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    for row in rows:
        assert sum(a * b for a, b in zip(row, v)) == 0


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
        basis = rational_nullspace(rows, ncols)
        assert rational_matrix_rank(rows) + len(basis) == ncols, f"trial {trial}"
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

"""Test-only references and helpers.

The `ref_*` functions are the naive reference for `flagsplit.poly`: a
polynomial is a dict from exponent tuples (sorted (variable, exponent)
pairs, zero exponents left out) to nonzero integer coefficients, and every
operation is written out term by term.

The other helpers were library code that only the tests used.
"""

from __future__ import annotations

from itertools import permutations

from flagsplit.poly import Monomial, Polynomial


def _clean(terms):
    return {m: c for m, c in terms.items() if c}


def ref_of(poly):
    return {m.exps: c for m, c in poly.terms.items()}


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


def ref_zero_out_and_divide(a, zeroed, divisor):
    """The quotient, None when nothing survives, or "not divisible"."""
    out = {}
    for m, c in a.items():
        exps = dict(m)
        if any(v in exps for v in zeroed):
            continue
        if divisor not in exps:
            return "not divisible"
        exps[divisor] -= 1
        out[tuple(sorted((v, e) for v, e in exps.items() if e))] = c
    return out or None


def chain_state(f0, chosen):
    """The canonical quotient state for a set of chosen variables.

    Directly: keep the monomials of f0 with exponent exactly 1 in every
    chosen variable, divided by their product.  This depends only on the
    set, which is what makes memoizing the certificate search on sets
    sound; the step-by-step quotients agree with it whenever their
    divisibility conditions hold.
    """
    out = []
    for m, c in f0.terms.items():
        exps = dict(m.exps)
        if all(exps.get(v) == 1 for v in chosen):
            for v in chosen:
                del exps[v]
            out.append((Monomial(exps), c))
    if not out:
        return None
    return Polynomial(out)


def sigma_plus_is_one_on_big_cell(plus, chart):
    """sigma_plus restricts to the constant 1 on any big cell."""
    return plus.evaluate(chart.matrix) == Polynomial.one()


def homogeneous_part(poly, d):
    """The terms of poly of total degree d."""
    return Polynomial([(m, c) for m, c in poly.terms.items() if m.degree() == d])


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

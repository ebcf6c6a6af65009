"""Test-only references and helpers.

The `ref_*` functions are the naive reference for `flagsplit.poly`: a
polynomial is a dict from exponent tuples (sorted (variable, exponent)
pairs, zero exponents left out) to nonzero coefficients, and every
operation is written out term by term.  `p` is the modulus of GF(p), or
None over the integers.

The other helpers were library code that only the tests used.
"""

from __future__ import annotations

from flagsplit.poly import ZZ, Monomial, Polynomial


def _clean(terms, p):
    out = {}
    for m, c in terms.items():
        if p:
            c %= p
        if c:
            out[m] = c
    return out


def ref_of(poly):
    return {m.exps: c for m, c in poly.terms.items()}


def ref_from_terms(terms, p=None):
    """(dict variable -> exponent, coefficient) pairs summed."""
    out = {}
    for exps, c in terms:
        m = tuple(sorted((v, e) for v, e in exps.items() if e))
        out[m] = out.get(m, 0) + c
    return _clean(out, p)


def ref_add(a, b, p=None):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, 0) + c
    return _clean(out, p)


def ref_neg(a, p=None):
    return _clean({m: -c for m, c in a.items()}, p)


def _mono_mul(m1, m2):
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def ref_mul(a, b, p=None):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mono_mul(m1, m2)
            out[m] = out.get(m, 0) + c1 * c2
    return _clean(out, p)


def ref_pow(a, e, p=None):
    out = {(): 1}
    for _ in range(e):
        out = ref_mul(out, a, p)
    return out


def ref_substitute(a, assignment, p=None):
    """`assignment` maps a variable to a reference polynomial."""
    out = {}
    for m, c in a.items():
        term = {(): c}
        for v, e in m:
            factor = assignment.get(v, {((v, 1),): 1})
            term = ref_mul(term, ref_pow(factor, e, p), p)
        out = ref_add(out, term, p)
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


def map_ring(poly, ring):
    """Reinterpret coefficients in another ring (e.g. reduce mod p)."""
    return Polynomial(ring, poly.terms)


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
    return Polynomial(f0.ring, out)


def sigma_plus_is_one_on_big_cell(plus, chart):
    """sigma_plus restricts to the constant 1 on any big cell."""
    return plus.evaluate(chart.matrix) == Polynomial.one(ZZ)

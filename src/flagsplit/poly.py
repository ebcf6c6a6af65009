"""Sparse exact multivariate polynomial arithmetic.

Coefficients are arbitrary-precision integers; a verdict that needs a
residue mod p reduces an integer coefficient at the end.  No polynomial
stores a zero coefficient, and every operation is deterministic.

Terms are stored with packed exponent vectors, after Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors" (CASC 2007).  Each polynomial has a layout: a sorted tuple of names
that holds every variable it uses and may hold more.  The builders of one
chart or one identity suite give all its variables one layout
(`Polynomial.generators`), so sums and products within it never repack;
mixed-layout keys are decoded and packed into the union.  Equality, hashing
and `variables` read the names from the keys, so they do not depend on the
layout.  Over a layout of n names a monomial is one int of n + 1 fields of
FIELD_BITS bits each.  Field 0, the most significant, holds the total
degree; field i + 1 holds the exponent of the i-th name.  The top bit of
every field stays clear, so a product of monomials is one int addition.
Exponents and total degrees are limited to MAX_DEGREE; a product that would
pass it raises DegreeOverflowError before any key is formed, so a carry
never reaches the neighbouring field.

The packed key is the only monomial.  `Layout.rows` is the one decoder: it
turns keys, in bulk, into rows (total degree, e_1, ..., e_n), which text,
hashing, repacking and the splitting verdicts read; `Layout.pairs` gives a
row's (name, exponent) pairs.  Printing sorts terms by total degree, then
by those pairs, both descending, which is not key order.
"""

from __future__ import annotations

import numbers
import re
from functools import reduce
from operator import lshift, or_
from struct import iter_unpack

# a field is a big-endian unsigned short ("H") to `Layout.rows`
FIELD_BITS = 16
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1
_FIELD = (1 << FIELD_BITS) - 1


class NotDivisibleError(ArithmeticError):
    """Raised by divide_by_variable when some monomial lacks the variable."""

    def __init__(self, exponents, divisor):
        monomial = _monomial_text(exponents) or "1"
        super().__init__(f"monomial {monomial} not divisible by {divisor}")


class DegreeOverflowError(ArithmeticError):
    """A total degree or exponent too large for a packed field."""

    def __init__(self, degree):
        self.degree = degree
        super().__init__(
            f"total degree {degree} exceeds the packed-exponent limit "
            f"{MAX_DEGREE}"
        )


def _integer(c):
    """c as an int; raises ValueError unless c has an integral value."""
    n = int(c)
    if n != c:
        raise ValueError(f"{c} is not an integer")
    return n


class Layout:
    """Field positions of packed monomials over one sorted tuple of names.

    Obtain layouts through `layout_of`, which interns them: polynomials over
    the same names share one Layout, so aligning them is an identity test.
    A field's position depends on the names alone, never on what else the
    process has seen.
    """

    __slots__ = ("names", "shifts", "degree_shift")

    def __init__(self, names):
        n = len(names)
        self.names = names
        # each name's shift, from the most significant name field down
        self.shifts = {v: FIELD_BITS * (n - 1 - i) for i, v in enumerate(names)}
        self.degree_shift = FIELD_BITS * n

    def pack(self, exps):
        """Key of a monomial given as (name, exponent) pairs, or None when
        it uses a name outside the layout.  A repeated name adds up."""
        degree = sum(e for _, e in exps)
        if degree > MAX_DEGREE:
            raise DegreeOverflowError(degree)
        key = degree << self.degree_shift
        shifts = self.shifts
        for v, e in exps:
            s = shifts.get(v)
            if s is None:
                return None
            key += e << s
        return key

    def rows(self, keys):
        """Each of `keys` as a tuple (total degree, e_1, ..., e_n), the
        exponents in name order; one unpack decodes them all."""
        size = len(self.names) + 1
        return list(iter_unpack(f">{size}H", b"".join(
            k.to_bytes(2 * size, "big") for k in keys)))

    def pairs(self, row):
        """The (name, exponent) pairs of a row's nonzero exponents, in name
        order."""
        return tuple((v, e) for v, e in zip(self.names, row[1:]) if e)

    def exponents(self, key):
        """The (name, exponent) pairs of one key."""
        return self.pairs(self.rows((key,))[0])


_LAYOUTS = {}


def layout_of(names):
    """The interned Layout of a sorted sequence of names."""
    names = tuple(names)
    layout = _LAYOUTS.get(names)
    if layout is None:
        layout = _LAYOUTS[names] = Layout(names)
    return layout


EMPTY_LAYOUT = layout_of(())
_UNIT = {0: 1}  # the terms of the constant 1


def _repack(terms, source, target):
    """Keys over `source` decoded and packed again over `target`, which
    holds every name they use."""
    if source is target:
        return terms
    # a name no key uses may be missing from target: its exponents are 0
    moves = [target.degree_shift] + [target.shifts.get(v, 0) for v in source.names]
    return {sum(map(lshift, row, moves)): c
            for row, c in zip(source.rows(terms), terms.values())}


class Polynomial:
    """Sparse multivariate polynomial with integer coefficients.

    `terms` is the storage, a dict from packed monomials over `layout` to
    nonzero coefficients.  The constructor sums (exponents, coefficient)
    pairs, the exponents a dict or (name, exponent) pairs, over the layout
    of exactly the names that the nonzero sums use.  Terms print in graded
    pair order: total degree, then those pairs, both descending.
    """

    __slots__ = ("layout", "terms")

    def __init__(self, terms=()):
        monomials = []
        for exps, c in terms:
            pairs = [(v, e) for v, e in
                     (exps.items() if isinstance(exps, dict) else exps) if e]
            if any(e < 0 for _, e in pairs):
                raise ValueError("negative exponent")
            c = _integer(c)
            if c:
                monomials.append((pairs, c))
        layout = layout_of(sorted({v for pairs, _ in monomials for v, _ in pairs}))
        packed = {}
        for pairs, c in monomials:
            key = layout.pack(pairs)
            packed[key] = packed.get(key, 0) + c
        if len(packed) < len(monomials):  # terms met, so some may cancel
            packed = {k: c for k, c in packed.items() if c}
            # lay out only the names that the remaining terms use
            used = layout_of(
                v for v, _ in layout.exponents(reduce(or_, packed, 0)))
            packed, layout = _repack(packed, layout, used), used
        self.layout, self.terms = layout, packed

    @classmethod
    def _raw(cls, layout, terms):
        p = object.__new__(cls)
        p.layout = layout
        p.terms = terms
        return p

    @classmethod
    def zero(cls):
        return cls._raw(EMPTY_LAYOUT, {})

    @classmethod
    def constant(cls, c):
        c = _integer(c)
        return cls._raw(EMPTY_LAYOUT, {0: c} if c else {})

    @classmethod
    def generators(cls, names):
        """The variable of each of `names`, in that order, all over the one
        layout of the names."""
        layout = layout_of(sorted(set(names)))
        top = 1 << layout.degree_shift
        return [cls._raw(layout, {top | (1 << layout.shifts[v]): 1})
                for v in names]

    @classmethod
    def variable(cls, var):
        return cls.generators((var,))[0]

    @classmethod
    def one(cls):
        return cls.constant(1)

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not any(self.terms)  # a constant's only key is 0

    def constant_value(self):
        return self.terms.get(0, 0)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.terms) >> self.layout.degree_shift

    def variables(self):
        """The names that some term uses, in name order."""
        # a field of the OR of the keys is nonzero iff some key's is
        return [v for v, _ in self.layout.exponents(reduce(or_, self.terms, 0))]

    def _wrap(self, other):
        if isinstance(other, Polynomial):
            return other
        return Polynomial.constant(other)

    def _aligned(self, other):
        """(layout, self's keys, other's keys) over one common layout.  O(1)
        when both share a layout, as all polynomials of one chart or suite
        do, or when one is over the empty layout (its only key, 0, means 1
        in every layout); otherwise both are decoded and packed again over
        the union layout."""
        a, b = self.layout, other.layout
        if a is b or b is EMPTY_LAYOUT:
            return a, self.terms, other.terms
        if a is EMPTY_LAYOUT:
            return b, self.terms, other.terms
        union = layout_of(sorted(set(a.names).union(b.names)))
        return union, _repack(self.terms, a, union), _repack(other.terms, b, union)

    def __add__(self, other):
        other = self._wrap(other)
        if not other.terms:
            return self
        if not self.terms:
            return other
        layout, a, b = self._aligned(other)
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        for m, c in b.items():
            acc = out.get(m, 0) + c
            if acc:
                out[m] = acc
            else:
                del out[m]
        return Polynomial._raw(layout, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.layout, {m: -c for m, c in self.terms.items()})

    def scaled(self, c):
        """c * self for a nonzero integer c, over self's layout, without a
        polynomial product."""
        return Polynomial._raw(self.layout, {m: c * v for m, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) - self

    def __mul__(self, other):
        # A factor 1 returns the other unchanged: no code mutates `terms`.
        other = self._wrap(other)
        if other.terms == _UNIT:
            return self
        if self.terms == _UNIT:
            return other
        layout, a, b = self._aligned(other)
        if not a or not b:
            return Polynomial.zero()
        top = layout.degree_shift
        degree = (max(a) >> top) + (max(b) >> top)
        if degree > MAX_DEGREE:
            raise DegreeOverflowError(degree)
        if len(a) > len(b):
            a, b = b, a
        if len(a) == 1:
            # one term shifts every key of b by the same amount: no collisions
            ((m1, c1),) = a.items()
            return Polynomial._raw(layout, {m1 + m2: c1 * c2 for m2, c2 in b.items()})
        out = {}
        get = out.get
        for m1, c1 in a.items():
            for m2, c2 in b.items():
                m = m1 + m2
                out[m] = get(m, 0) + c1 * c2
        return Polynomial._raw(layout, {m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, numbers.Rational):
            if other.denominator != 1:
                return False
            other = Polynomial.constant(other)
        if not (isinstance(other, Polynomial)
                and len(self.terms) == len(other.terms)):
            return False
        _, a, b = self._aligned(other)
        return a == b

    def __hash__(self):
        if self.is_constant():  # equal to an int, so hash as one
            return hash(self.constant_value())
        layout, terms = self.layout, self.terms
        return hash(frozenset(zip(map(layout.pairs, layout.rows(terms)),
                                  terms.values())))

    def substitute(self, assignment):
        """Send the variables of `assignment` to zero: drop every term that
        one of them divides.  Every value must be zero; any other raises
        ValueError.
        """
        for v, value in assignment.items():
            if value != 0:
                raise ValueError(f"{v} is sent to {value}, not to zero")
        zero_mask = 0
        for v, s in self.layout.shifts.items():
            if v in assignment:
                zero_mask |= _FIELD << s
        return Polynomial._raw(
            self.layout,
            {k: c for k, c in self.terms.items() if not k & zero_mask})

    def __repr__(self):
        return f"Polynomial({poly_to_string(self)!r})"

    def __str__(self):
        return poly_to_string(self)


def order_at_origin(a):
    """Minimum total degree of the stored monomials; None for 0."""
    if a.is_zero():
        return None
    # the degree is the most significant field, so the least key has it
    return min(a.terms) >> a.layout.degree_shift


def divide_by_variable(a, v):
    """The exact quotient a / v.  Raises NotDivisibleError, naming the
    monomial, when some monomial of a lacks v."""
    layout = a.layout
    shift = layout.shifts.get(v)
    if shift is not None:
        step = (1 << shift) | (1 << layout.degree_shift)
    out = {}
    for m, c in a.terms.items():
        if shift is None or not (m >> shift) & _FIELD:
            raise NotDivisibleError(layout.exponents(m), v)
        out[m - step] = c
    return Polynomial._raw(layout, out)


# ---------------------------------------------------------------------------
# Text grammar:  terms joined by `+`/`-`; a term is an optional integer
# coefficient and `*`-separated factors `var` or `var^k`.
# ---------------------------------------------------------------------------

def _monomial_text(exponents):
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in exponents)


def poly_to_string(a):
    if a.is_zero():
        return "0"
    parts = []
    layout = a.layout
    # graded pair order, descending; key order would put x*z before y^2
    terms = [(row[0], layout.pairs(row), c)
             for row, c in zip(layout.rows(a.terms), a.terms.values())]
    for _, exps, c in sorted(terms, reverse=True):
        neg = c < 0
        mag = -c if neg else c
        factors = _monomial_text(exps)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = factors
        else:
            body = f"{mag}*{factors}"
        if not parts:
            parts.append(f"-{body}" if neg else body)
        else:
            parts.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(parts)


_TERM_RE = re.compile(r"\s*([+-])?\s*([^+-]+)")
_FACTOR_RE = re.compile(r"^([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?$")


def poly_from_string(text):
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text; zero is written 0")
    if text == "0":
        return Polynomial.zero()
    terms = []
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or not m.group(2).strip():
            raise ValueError(f"cannot parse polynomial near {text[pos:]!r}")
        sign, body = m.group(1), m.group(2).strip()
        if sign is None and not first:
            raise ValueError(f"missing sign near {body!r}")
        coeff = -1 if sign == "-" else 1
        exps = {}
        for factor in body.split("*"):
            factor = factor.strip()
            if not factor:
                raise ValueError(f"empty factor in {body!r}")
            if re.fullmatch(r"\d+", factor):
                coeff *= int(factor)
                continue
            fm = _FACTOR_RE.match(factor)
            if not fm:
                raise ValueError(f"bad factor {factor!r}")
            var, e = fm.group(1), int(fm.group(2) or 1)
            exps[var] = exps.get(var, 0) + e
        terms.append((exps, coeff))
        pos = m.end()
        first = False
    return Polynomial(terms)

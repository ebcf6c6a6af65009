"""Sparse exact multivariate polynomial arithmetic.

Coefficients are arbitrary-precision integers; a verdict that needs a
residue mod p reduces an integer coefficient at the end.  Polynomials are
kept in canonical form at all times (no zero coefficients, and a layout
holding exactly the variables that occur), so equality is a layout identity
test plus dict equality, and every operation is deterministic.

Terms are stored with packed exponent vectors, after Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors" (CASC 2007).  Each polynomial has a layout: the sorted tuple of its
variable names.  Over a layout of n names a monomial is one int of n + 1
fields of FIELD_BITS bits each.  Field 0, the most significant, holds the
total degree; field i + 1 holds the exponent of the i-th name.  The top bit
of every field is a guard bit that stays clear, so a product of monomials is
one int addition and a divisibility test is one subtraction (a field that
borrows clears its guard bit).  Exponents and total degrees are limited to
MAX_DEGREE; a product that would pass it raises DegreeOverflowError before
any key is formed, so a carry never reaches the neighbouring field.
"""

from __future__ import annotations

import re
from collections.abc import ItemsView, Mapping
from fractions import Fraction
from functools import reduce
from operator import or_

FIELD_BITS = 16
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1
_FIELD = (1 << FIELD_BITS) - 1
_GUARD_BIT = 1 << (FIELD_BITS - 1)


class NotDivisibleError(ArithmeticError):
    """Raised by zero_out_and_divide when some monomial resists division."""

    def __init__(self, monomial):
        self.monomial = monomial
        super().__init__(f"monomial {monomial!r} not divisible by divisor")


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


def _is_prime(p):
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class Monomial:
    """A power product, stored as a sorted tuple of (variable, exponent).

    Zero exponents are never stored; the empty monomial is 1.
    """

    __slots__ = ("exps",)

    def __init__(self, exponents=()):
        if isinstance(exponents, dict):
            items = exponents.items()
        else:
            items = exponents
        cleaned = []
        for var, e in items:
            if e < 0:
                raise ValueError("negative exponent")
            if e:
                cleaned.append((var, e))
        cleaned.sort()
        self.exps = tuple(cleaned)

    @classmethod
    def _raw(cls, exps):
        m = object.__new__(cls)
        m.exps = exps
        return m

    def degree(self):
        return sum(e for _, e in self.exps)

    def variables(self):
        return [v for v, _ in self.exps]

    def exponent(self, var):
        for v, e in self.exps:
            if v == var:
                return e
        return 0

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.exps == other.exps

    def __hash__(self):
        return hash(self.exps)

    def sort_key(self):
        # graded lexicographic by variable-id; for determinism only
        return (self.degree(), self.exps)

    def __repr__(self):
        if not self.exps:
            return "1"
        return "*".join(v if e == 1 else f"{v}^{e}" for v, e in self.exps)


class Layout:
    """Field positions of packed monomials over one sorted tuple of names.

    Obtain layouts through `layout_of`, which interns them: polynomials over
    the same names share one Layout, so aligning them is an identity test.
    A field's position depends on the names alone, never on what else the
    process has seen.  Each layout caches its unions with other layouts and
    the moves that repack keys between them.
    """

    __slots__ = ("names", "fields", "shifts", "degree_shift", "guard",
                 "_unions", "_moves")

    def __init__(self, names):
        n = len(names)
        self.names = names
        # (name, shift) from the most significant name field down
        self.fields = tuple(
            (v, FIELD_BITS * (n - 1 - i)) for i, v in enumerate(names)
        )
        self.shifts = dict(self.fields)
        self.degree_shift = FIELD_BITS * n
        self.guard = sum(_GUARD_BIT << (FIELD_BITS * j) for j in range(n + 1))
        self._unions = {}
        self._moves = {}

    def pack(self, exps):
        """Key of a monomial given as (name, exponent) pairs, or None when
        it uses a name outside the layout."""
        degree = sum(e for _, e in exps)
        if degree > MAX_DEGREE:
            raise DegreeOverflowError(degree)
        key = degree << self.degree_shift
        shifts = self.shifts
        for v, e in exps:
            s = shifts.get(v)
            if s is None:
                return None
            key |= e << s
        return key

    def monomial(self, key):
        return Monomial._raw(tuple(
            (v, e) for v, s in self.fields if (e := (key >> s) & _FIELD)
        ))

    def union(self, other):
        """(layout of both name sets, moves for self's keys, moves for
        other's keys)."""
        joined = self._unions.get(other)
        if joined is None:
            union = layout_of(sorted(set(self.names).union(other.names)))
            joined = (union, self.moves_to(union), other.moves_to(union))
            self._unions[other] = joined
        return joined

    def moves_to(self, target):
        """Block moves (source shift, mask, target shift) that repack this
        layout's keys into `target`; None when target is this layout.  A key
        may use only names that target holds."""
        if target is self:
            return None
        moves = self._moves.get(target)
        if moves is None:
            # (source field, target field) pairs, counted from the least
            # significant field, most significant pair first
            pairs = [(len(self.names), len(target.names))] + [
                (s // FIELD_BITS, target.shifts[v] // FIELD_BITS)
                for v, s in self.fields if v in target.shifts
            ]
            runs = []
            for src, dst in pairs:
                if runs and runs[-1][0] == src + 1 and runs[-1][1] == dst + 1:
                    runs[-1] = [src, dst, runs[-1][2] + 1]
                else:
                    runs.append([src, dst, 1])
            moves = tuple(
                (FIELD_BITS * src, (1 << (FIELD_BITS * width)) - 1,
                 FIELD_BITS * dst)
                for src, dst, width in runs
            )
            self._moves[target] = moves
        return moves


_LAYOUTS = {}


def layout_of(names):
    """The interned Layout of a sorted sequence of names."""
    names = tuple(names)
    layout = _LAYOUTS.get(names)
    if layout is None:
        layout = _LAYOUTS[names] = Layout(names)
    return layout


EMPTY_LAYOUT = layout_of(())


def _repack(packed, moves):
    if moves is None:
        return packed
    if len(moves) == 1:
        ((s, mask, t),) = moves
        return {((k >> s) & mask) << t: c for k, c in packed.items()}
    out = {}
    for k, c in packed.items():
        moved = 0
        for s, mask, t in moves:
            moved |= ((k >> s) & mask) << t
        out[moved] = c
    return out


class _Terms(Mapping):
    """Read-only Monomial -> coefficient view of a polynomial's terms."""

    __slots__ = ("_poly",)

    def __init__(self, poly):
        self._poly = poly

    def __len__(self):
        return len(self._poly.packed)

    def __iter__(self):
        return map(self._poly.layout.monomial, self._poly.packed)

    def __getitem__(self, mono):
        try:
            return self._poly.packed[self._poly._key(mono)]
        except KeyError:
            raise KeyError(mono) from None

    def items(self):
        return _TermItems(self)


class _TermItems(ItemsView):
    __slots__ = ()

    def __iter__(self):
        poly = self._mapping._poly
        monomial = poly.layout.monomial
        for k, c in poly.packed.items():
            yield monomial(k), c


class Polynomial:
    """Sparse multivariate polynomial with integer coefficients.

    `packed` maps packed monomials over `layout` to nonzero coefficients;
    `terms` is the same as a Monomial -> coefficient view.
    """

    __slots__ = ("layout", "packed")

    def __init__(self, terms=None):
        canonical = {}
        if terms:
            for mono, c in (terms.items() if isinstance(terms, Mapping) else terms):
                if not isinstance(mono, Monomial):
                    mono = Monomial(mono)
                c = _integer(c)
                if c:
                    acc = canonical.get(mono)
                    if acc is None:
                        canonical[mono] = c
                    else:
                        acc = acc + c
                        if acc:
                            canonical[mono] = acc
                        else:
                            del canonical[mono]
        self.layout = layout_of(sorted({v for m in canonical for v, _ in m.exps}))
        self.packed = {self.layout.pack(m.exps): c for m, c in canonical.items()}

    @classmethod
    def _raw(cls, layout, packed):
        p = object.__new__(cls)
        p.layout = layout
        p.packed = packed
        return p

    @classmethod
    def _trimmed(cls, layout, packed):
        """A polynomial over the names of `layout` that `packed` uses."""
        if not packed:
            return cls._raw(EMPTY_LAYOUT, packed)
        used = reduce(or_, packed)
        names = tuple(v for v, s in layout.fields if (used >> s) & _FIELD)
        if len(names) < len(layout.names):
            target = layout_of(names)
            packed = _repack(packed, layout.moves_to(target))
            layout = target
        return cls._raw(layout, packed)

    @classmethod
    def zero(cls):
        return cls._raw(EMPTY_LAYOUT, {})

    @classmethod
    def constant(cls, c):
        c = _integer(c)
        return cls._raw(EMPTY_LAYOUT, {0: c} if c else {})

    @classmethod
    def variable(cls, var):
        return cls._raw(layout_of((var,)), {(1 << FIELD_BITS) | 1: 1})

    @classmethod
    def one(cls):
        return cls.constant(1)

    @property
    def terms(self):
        return _Terms(self)

    def _key(self, mono):
        """Packed key of a monomial in this layout, or None if no term of
        this polynomial can have it."""
        if not isinstance(mono, Monomial):
            mono = Monomial(mono)
        try:
            return self.layout.pack(mono.exps)
        except DegreeOverflowError:
            return None

    def is_zero(self):
        return not self.packed

    def is_constant(self):
        return self.layout is EMPTY_LAYOUT

    def constant_value(self):
        return self.packed.get(0, 0)

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.packed:
            return -1
        return max(self.packed) >> self.layout.degree_shift

    def variables(self):
        return list(self.layout.names)

    def coeff_of(self, mono):
        return self.packed.get(self._key(mono), 0)

    def _wrap(self, other):
        if isinstance(other, Polynomial):
            return other
        return Polynomial.constant(other)

    def _aligned(self, other):
        """(layout, self's keys, other's keys) over one common layout; O(1)
        when both share a layout or one is constant (its only key, 0, means
        1 in every layout)."""
        a, b = self.layout, other.layout
        if a is b or b is EMPTY_LAYOUT:
            return a, self.packed, other.packed
        if a is EMPTY_LAYOUT:
            return b, self.packed, other.packed
        union, moves_a, moves_b = a.union(b)
        return union, _repack(self.packed, moves_a), _repack(other.packed, moves_b)

    def __add__(self, other):
        other = self._wrap(other)
        if not other.packed:
            return self
        if not self.packed:
            return other
        layout, a, b = self._aligned(other)
        if len(a) < len(b):
            a, b = b, a
        out = dict(a)
        cancelled = False
        for m, c in b.items():
            acc = out.get(m)
            if acc is None:
                out[m] = c
            else:
                acc = acc + c
                if acc:
                    out[m] = acc
                else:
                    del out[m]
                    cancelled = True
        if cancelled:
            return Polynomial._trimmed(layout, out)
        return Polynomial._raw(layout, out)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.layout, {m: -c for m, c in self.packed.items()})

    def __sub__(self, other):
        return self + (-self._wrap(other))

    def __rsub__(self, other):
        return self._wrap(other) - self

    def __mul__(self, other):
        # The integers have no zero divisors, so a nonzero product keeps
        # every variable of both factors and the union layout stays exact.
        other = self._wrap(other)
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

    def __pow__(self, e):
        if e < 0:
            raise ValueError("exponent must be non-negative")
        result = Polynomial.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base_needed = e >> 1
            if base_needed:
                base = base * base
            e = base_needed
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(other)
        return (
            isinstance(other, Polynomial)
            and self.layout is other.layout
            and self.packed == other.packed
        )

    def __hash__(self):
        return hash((self.layout.names, frozenset(self.packed.items())))

    def substitute(self, assignment):
        """Substitute polynomials (or integers) for variables."""
        out = Polynomial.zero()
        for m, c in self.terms.items():
            term = Polynomial._raw(EMPTY_LAYOUT, {0: c})
            for v, e in m.exps:
                if v in assignment:
                    rep = assignment[v]
                    if not isinstance(rep, Polynomial):
                        rep = Polynomial.constant(rep)
                    term = term * rep**e
                else:
                    term = term * Polynomial._raw(
                        layout_of((v,)), {(e << FIELD_BITS) | e: 1}
                    )
            out = out + term
        return out

    def evaluate(self, point):
        """Evaluate at a point given as a dict variable -> number."""
        total = 0
        for m, c in self.terms.items():
            val = c
            for v, e in m.exps:
                val = val * point[v] ** e
            total = total + val
        return total

    def homogeneous_part(self, d):
        top = self.layout.degree_shift
        return Polynomial._trimmed(
            self.layout, {m: c for m, c in self.packed.items() if m >> top == d}
        )

    def __repr__(self):
        return f"Polynomial({poly_to_string(self)!r})"

    def __str__(self):
        return poly_to_string(self)


class InfiniteOrder:
    """Order of the zero polynomial: larger than every integer, not a number."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __gt__(self, other):
        return not isinstance(other, InfiniteOrder)

    def __lt__(self, other):
        return False

    def __ge__(self, other):
        return True

    def __le__(self, other):
        return isinstance(other, InfiniteOrder)

    def __repr__(self):
        return "INFINITE_ORDER"


INFINITE_ORDER = InfiniteOrder()


def order_at_origin(a):
    """Minimum total degree of the stored monomials; INFINITE_ORDER for 0."""
    if a.is_zero():
        return INFINITE_ORDER
    # the degree is the most significant field, so the least key has it
    return min(a.packed) >> a.layout.degree_shift


def zero_out_and_divide(a, zeroed, divisor):
    """Set the given variables to zero, then divide exactly by `divisor`.

    Returns the quotient, or None when the substitution kills the whole
    polynomial (a dead end for certificate search, not an error).  Raises
    NotDivisibleError, carrying the offending monomial, when some surviving
    monomial lacks the divisor.
    """
    if divisor in zeroed:
        raise ValueError("divisor must not be among the zeroed variables")
    layout = a.layout
    zero_mask = 0
    for v in zeroed:
        if v in layout.shifts:
            zero_mask |= _FIELD << layout.shifts[v]
    shift = layout.shifts.get(divisor)
    if shift is not None:
        step = (1 << shift) | (1 << layout.degree_shift)
    out = {}
    for m, c in a.packed.items():
        if m & zero_mask:
            continue
        if shift is None or not (m >> shift) & _FIELD:
            raise NotDivisibleError(layout.monomial(m))
        out[m - step] = c
    if not out:
        return None
    return Polynomial._trimmed(layout, out)


def line_restrict(a, direction, line_variable="s"):
    """Restrict along the line variable_i -> direction_i * s.

    `direction` maps every variable of interest to an integer.  The
    result is univariate in `line_variable`.
    """
    by_degree = {}
    for m, c in a.terms.items():
        val = c
        for v, e in m.exps:
            val = val * direction[v] ** e
        d = m.degree()
        by_degree[d] = by_degree.get(d, 0) + val
    return Polynomial(
        [(Monomial({line_variable: d}), c) for d, c in by_degree.items()]
    )


# ---------------------------------------------------------------------------
# Text grammar:  terms joined by `+`/`-`; a term is an optional integer
# coefficient and `*`-separated factors `var` or `var^k`.
# ---------------------------------------------------------------------------

def poly_to_string(a):
    if a.is_zero():
        return "0"
    parts = []
    for m, c in sorted(a.terms.items(), key=lambda mc: mc[0].sort_key(),
                       reverse=True):
        neg = c < 0
        mag = -c if neg else c
        factors = "*".join(v if e == 1 else f"{v}^{e}" for v, e in m.exps)
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
        terms.append((Monomial(exps), coeff))
        pos = m.end()
        first = False
    return Polynomial(terms)

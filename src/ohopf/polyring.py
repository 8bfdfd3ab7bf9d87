"""Exact sparse multivariate polynomials over the rationals.

Every symbolic identity in this package is decided here: an identity holds
iff its residual polynomial has no terms left after cancellation, so the
representation is exact end to end.

  coefficient   int or fractions.Fraction (reduced, positive denominator)
  monomial      packed integer key, five bits of exponent per variable
  polynomial    dict mapping monomial keys to nonzero coefficients

Variables live in a ring context (PolyRing) and come in three kinds: base
coordinates x^i and y^i, which support partial derivation, and section
variables (components of sections, matrix unknowns, scalar parameters),
which are formal parameters and may not be derived.  The canonical term
order is graded lexicographic in the (kind, index) variable order.

Five exponent bits per variable hold exponents up to 31.  Only a product
raises an exponent, and every product of polynomials, Polynomial * Polynomial
and Deferred included, is a sum_of_products call, which refuses
(ExponentOverflow) any factor with an exponent of 16 or more: factors whose
exponents are all at most 15 give products whose exponents are at most 30, so
no field ever carries into its neighbour.  Whether a polynomial has such an
exponent is found once and kept on it.  Addition, derive and the signed
variable permutations of PolyRing.permutation never raise an exponent.
Nothing in this package exceeds ten.  Coefficients stay plain ints as long as the inputs are integral,
which keeps the identity suites fast.

A sum of many products, such as a coefficient of an octonion product or a
derivation applied to a function, is a Deferred polynomial: it keeps its
(s, a, b) triples, and sums, differences, negation and scalar multiples of
deferred values only join or re-sign triple lists.  The terms are filled by
one sum_of_products call, in one dict for the whole sum, the first time
anything reads them (is_zero, ==, derive, str, use as a factor of a
product), and are kept from then on.  The guards stay eager: building a
Deferred checks the ring of every pair and applies the exponent guard to it,
so RingMismatch and ExponentOverflow come from the call that forms the
product, never from a later read.
"""

from __future__ import annotations

import enum
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]

_SHIFT = 5
_MASK = (1 << _SHIFT) - 1


class RingMismatch(ValueError):
    """Raised when polynomials from different ring contexts are combined."""


class ExponentOverflow(ValueError):
    """Raised when a product could overflow the five exponent bits of a variable."""


class VarKind(enum.IntEnum):
    """Variable classes, listed in canonical order."""

    BASE_X = 0
    BASE_Y = 1
    SECTION = 2


@dataclass(frozen=True)
class Variable:
    kind: VarKind
    index: int
    name: str


class PolyRing:
    """Ordered set of variables shared by a family of polynomials.

    Base variables are named ``x0..x{d-1}`` and ``y0..y{d-1}``; section
    variables keep the names they are registered with, in registration
    order.  Two polynomials interoperate only if they share the same ring
    object.
    """

    def __init__(self, base_dim: int = 0, sections: Iterable[str] = ()):
        variables = [Variable(VarKind.BASE_X, i, "x%d" % i) for i in range(base_dim)]
        variables += [Variable(VarKind.BASE_Y, i, "y%d" % i) for i in range(base_dim)]
        for pos, name in enumerate(sections):
            variables.append(Variable(VarKind.SECTION, pos, str(name)))
        self.base_dim = base_dim
        self.variables = tuple(variables)
        # the top bit of every exponent field: set iff that exponent is >= 16
        self._high_bits = sum(1 << (_SHIFT * o + _SHIFT - 1) for o in range(len(variables)))
        self._ordinals = {v.name: o for o, v in enumerate(self.variables)}
        if len(self._ordinals) != len(self.variables):
            raise ValueError("duplicate variable name in ring")
        self.zero = Polynomial(self, {})
        self.one = Polynomial(self, {0: 1})

    def __repr__(self):
        return "PolyRing(base_dim=%d, nvars=%d)" % (self.base_dim, len(self.variables))

    def ordinal(self, var) -> int:
        name = var.name if isinstance(var, Variable) else var
        try:
            return self._ordinals[name]
        except KeyError:
            raise KeyError("variable %r not in ring" % name) from None

    def variable(self, var) -> Variable:
        return self.variables[self.ordinal(var)]

    def poly(self, var) -> "Polynomial":
        """The given variable as a degree-one polynomial."""
        return Polynomial(self, {1 << (_SHIFT * self.ordinal(var)): 1})

    def x(self, i: int) -> "Polynomial":
        return self.poly("x%d" % i)

    def y(self, i: int) -> "Polynomial":
        return self.poly("y%d" % i)

    def const(self, value) -> "Polynomial":
        value = _coerce(value)
        return Polynomial(self, {0: value} if value else {})

    def _base_bits(self) -> int:
        """Width of the base-variable fields at the low end of a monomial key."""
        return _SHIFT * 2 * self.base_dim

    def exponents(self, key: int) -> tuple:
        """Decode a monomial key into one exponent per variable."""
        exps = []
        for _ in self.variables:
            exps.append(key & _MASK)
            key >>= _SHIFT
        return tuple(exps)

    def _signed_variable(self, p: "Polynomial") -> tuple:
        """(ordinal, sign) of a polynomial that is plus or minus one variable."""
        if p.ring is not self:
            raise RingMismatch("polynomials belong to different rings")
        ((key, c),) = p.terms.items() if len(p.terms) == 1 else ((0, 0),)
        ordinal = (key.bit_length() - 1) // _SHIFT
        if c not in (1, -1) or not key or key != 1 << (_SHIFT * ordinal):
            raise ValueError("%s is not plus or minus one variable" % p)
        return ordinal, c

    def permutation(self, pairs):
        """The ring automorphism phi that sends each variable to plus or minus a variable.

        pairs holds (variable, image) pairs of polynomials of this ring: each
        variable a single variable, each image one variable or its negative.
        phi sends every variable of a pair to its image and fixes every other
        one; the variables must be distinct and a permutation of their
        images' variables, so phi is invertible.  It returns a function of a
        polynomial of this ring that moves the exponent fields of each key
        with one mask per distance moved, and reads the sign of each term off
        the low bits of the negated variables' fields (the parity of their
        exponent sum), without decoding the key.

        phi commutes with every ring operation.  It commutes with derive when
        it fixes the base variables; one that moves them obeys the chain rule
        instead.
        """
        moves, odd = {}, 0
        for variable, image in pairs:
            (source, one), (target, sign) = (self._signed_variable(p) for p in (variable, image))
            if one != 1 or source in moves:
                raise ValueError("%s is not a variable named once" % variable)
            moves[source] = target
            odd |= (sign < 0) << (_SHIFT * source)
        if sorted(moves) != sorted(moves.values()):
            raise ValueError("the variables are not a permutation of their images")
        masks: dict = {}
        for source, target in moves.items():
            masks[target - source] = masks.get(target - source, 0) | _MASK << (_SHIFT * source)
        keep = ~reduce(operator.or_, (m for d, m in masks.items() if d), 0)
        up = [(m, _SHIFT * d) for d, m in masks.items() if d > 0]
        down = [(m, -_SHIFT * d) for d, m in masks.items() if d < 0]

        def phi(p: Polynomial) -> Polynomial:
            if p.ring is not self:
                raise RingMismatch("polynomials belong to different rings")
            out = {}
            for k, c in p.terms.items():
                moved = k & keep
                for m, s in up:
                    moved |= (k & m) << s
                for m, s in down:
                    moved |= (k & m) >> s
                out[moved] = -c if (k & odd).bit_count() & 1 else c
            return Polynomial(self, out)

        return phi


def _coerce(value) -> Scalar:
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError("expected int or Fraction, got %r" % type(value).__name__)


def _total_degree(key: int) -> int:
    deg = 0
    while key:
        deg += key & _MASK
        key >>= _SHIFT
    return deg


class Polynomial:
    """Immutable-by-convention sparse polynomial over a PolyRing.

    The term dict is owned by the instance and never mutated after
    construction; all operations build fresh dicts.  Two fields are filled
    lazily, at most once each, by a function of the value alone: the terms
    of a Deferred on first read, and the exponent guard's flag on first use
    as a factor.  Values are therefore safe to share across threads: two
    threads that read a fresh value at once may both compute such a field,
    and both see the same result.
    """

    __slots__ = ("ring", "terms", "_wide")

    def __init__(self, ring: PolyRing, terms: dict):
        self.ring = ring
        self.terms = terms
        self._wide = None  # see _is_wide

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def min_total_degree(self):
        """Smallest total degree among terms, or None for the zero polynomial."""
        if not self.terms:
            return None
        return min(_total_degree(k) for k in self.terms)

    def depends_on_base(self) -> bool:
        base_mask = (1 << self.ring._base_bits()) - 1
        return any(key & base_mask for key in self.terms)

    def vanishes_at_base_origin(self) -> bool:
        """p(x = 0, y = 0) = 0 for all section values: every term has a base variable."""
        base_mask = (1 << self.ring._base_bits()) - 1
        return all(key & base_mask for key in self.terms)

    def section_linear_terms(self):
        """Split the terms of a polynomial linear in the section variables.

        Returns one (base monomial key, section index, coefficient) triple per
        term, the index counting section variables in registration order.
        Raises ValueError on a term that is not of degree one in exactly one
        section variable.
        """
        bits = self.ring._base_bits()
        base_mask = (1 << bits) - 1
        out = []
        for key, c in self.terms.items():
            sec = key >> bits
            index = (sec.bit_length() - 1) // _SHIFT
            if not sec or sec != 1 << (_SHIFT * index):
                raise ValueError("term is not linear in exactly one section variable")
            out.append((key & base_mask, index, c))
        return out

    def section_degree_part(self, degree: int) -> "Polynomial":
        """The terms of the given total degree in the section variables."""
        bits = self.ring._base_bits()
        return Polynomial(
            self.ring,
            {k: c for k, c in self.terms.items() if _total_degree(k >> bits) == degree},
        )

    # -- ring operations ----------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ring is not other.ring:
            raise RingMismatch("polynomials belong to different rings")

    def __add__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            big, small = self.terms, other.terms
            if len(big) < len(small):
                big, small = small, big
            terms = dict(big)
            for k, c in small.items():
                s = terms.get(k, 0) + c
                if s:
                    terms[k] = s
                else:
                    terms.pop(k, None)
            return Polynomial(self.ring, terms)
        if isinstance(other, (int, Fraction)):
            if not other:
                return self
            terms = dict(self.terms)
            s = terms.get(0, 0) + other
            if s:
                terms[0] = s
            else:
                terms.pop(0, None)
            return Polynomial(self.ring, terms)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            terms = dict(self.terms)
            for k, c in other.terms.items():
                s = terms.get(k, 0) - c
                if s:
                    terms[k] = s
                else:
                    terms.pop(k, None)
            return Polynomial(self.ring, terms)
        if isinstance(other, (int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            return sum_of_products(self.ring, [(1, self, other)])
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.ring.zero
            return Polynomial(self.ring, {k: c * other for k, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("polynomial division by zero")
            return self * (Fraction(1, other) if isinstance(other, int) else 1 / other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = self.ring.one
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.ring is other.ring and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            if not other:
                return not self.terms
            return self.terms == {0: other}
        return NotImplemented

    __hash__ = None  # mutable dict inside; not hashable

    # -- calculus and evaluation ----------------------------------------

    def derive(self, var) -> "Polynomial":
        """Formal partial derivative in a base variable.

        Section variables are parameters, not coordinates, so derivation
        with respect to them is rejected.
        """
        v = self.ring.variable(var)
        if v.kind is VarKind.SECTION:
            raise ValueError("cannot derive in section variable %r" % v.name)
        shift = _SHIFT * self.ring.ordinal(v)
        out = {}
        for k, c in self.terms.items():
            e = (k >> shift) & _MASK
            if e:
                out[k - (1 << shift)] = c * e
        return Polynomial(self.ring, out)

    def evaluate(self, assignment: Mapping) -> Fraction:
        """Exact value at a point; the assignment must cover every variable."""
        vals = self._assignment_vector(assignment)
        total = Fraction(0)
        for key, c in self.terms.items():
            acc = Fraction(c)
            o = 0
            while key:
                e = key & _MASK
                if e:
                    val = vals[o]
                    if val is None:
                        raise ValueError(
                            "missing variable %r in assignment" % self.ring.variables[o].name
                        )
                    acc *= val ** e
                key >>= _SHIFT
                o += 1
            total += acc
        return total

    def _assignment_vector(self, assignment: Mapping):
        vals = [None] * len(self.ring.variables)
        for name, value in assignment.items():
            if isinstance(name, Variable):
                name = name.name
            vals[self.ring.ordinal(name)] = Fraction(value)
        return vals

    # -- canonical display ----------------------------------------------

    def sorted_terms(self):
        """Terms in graded lexicographic order, highest degree first."""
        decorated = []
        for key, c in self.terms.items():
            exps = self.ring.exponents(key)
            decorated.append((-_total_degree(key), tuple(-e for e in exps), exps, c))
        decorated.sort()
        return [(exps, c) for _, _, exps, c in decorated]

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, c in self.sorted_terms():
            factors = []
            for o, e in enumerate(exps):
                if e == 1:
                    factors.append(self.ring.variables[o].name)
                elif e:
                    factors.append("%s^%d" % (self.ring.variables[o].name, e))
            mono = "*".join(factors)
            if not mono:
                term = str(c)
            elif c == 1:
                term = mono
            elif c == -1:
                term = "-" + mono
            else:
                term = "%s*%s" % (c, mono)
            parts.append(term)
        text = parts[0]
        for term in parts[1:]:
            text += " - " + term[1:] if term.startswith("-") else " + " + term
        return text

    def __repr__(self):
        return "Polynomial(%s)" % self


def _is_wide(p: Polynomial) -> bool:
    """Some exponent of p is 16 or more; computed once and kept on p."""
    wide = p._wide
    if wide is None:
        wide = p._wide = bool(reduce(operator.or_, p.terms, 0) & p.ring._high_bits)
    return wide


def _check_pairs(ring: PolyRing, triples):
    """The ring check and exponent guard of every product s * a * b."""
    for _, a, b in triples:
        if a.ring is not ring or b.ring is not ring:
            raise RingMismatch("polynomials belong to different rings")
        if _is_wide(a) or _is_wide(b):
            raise ExponentOverflow("a factor has an exponent of 16 or more")


def sum_of_products(ring: PolyRing, triples) -> Polynomial:
    """The sum of s * a * b over (s, a, b) triples, accumulated in one dict.

    triples is a list; a and b are Polynomials of ring and s an int or
    Fraction factor.  Each pair is checked against the ring and the exponent
    guard of a product, and the zero coefficients are dropped once, at the
    end.
    """
    _check_pairs(ring, triples)
    out: dict = {}
    get = out.get
    for s, a, b in triples:
        ta, tb = a.terms, b.terms
        if len(ta) > len(tb):
            ta, tb = tb, ta
        for k1, c1 in ta.items():
            c1 *= s
            for k2, c2 in tb.items():
                k = k1 + k2
                out[k] = get(k, 0) + c1 * c2
    return Polynomial(ring, {k: c for k, c in out.items() if c})


class Deferred(Polynomial):
    """The sum of s * a * b over (s, a, b) triples, computed on first read.

    Building one checks every pair as sum_of_products would.  Until the
    terms are read, +, -, negation and int or Fraction multiples join or
    re-sign triple lists; a materialized polynomial p joins as (1, p, one).
    The first read of the terms fills them with one sum_of_products call and
    drops the triples.
    """

    __slots__ = ("triples",)

    def __init__(self, ring: PolyRing, triples: list):
        _check_pairs(ring, triples)
        self.ring = ring
        self.triples = triples
        self._wide = None

    def __getattr__(self, name):
        # reached only while the terms slot is unset, before the first read
        if name != "terms":
            raise AttributeError(name)
        triples = self.triples
        if triples is not None:
            self.terms = sum_of_products(self.ring, triples).terms
            self.triples = None
        return self.terms

    def _join(self, other, sign: int):
        """self + sign * other, deferred unless an addend must be added now."""
        if isinstance(other, (int, Fraction)):
            other = self.ring.const(other)
        elif not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        mine, theirs = _summands(self), _summands(other)
        if mine is None or theirs is None:
            return Polynomial.__add__(self, other) if sign > 0 else Polynomial.__sub__(self, other)
        if sign < 0:
            theirs = [(-s, a, b) for s, a, b in theirs]
        return _deferred(self.ring, mine + theirs)

    def __add__(self, other):
        return self._join(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._join(other, -1)

    def __rsub__(self, other):
        out = self._join(other, -1)
        return out if out is NotImplemented else -out

    def __neg__(self):
        triples = self.triples
        if triples is None:
            return Polynomial.__neg__(self)
        return _deferred(self.ring, [(-s, a, b) for s, a, b in triples])

    def __mul__(self, other):
        # a product with a polynomial reads the terms; a scalar re-signs
        triples = self.triples
        if triples is None or not isinstance(other, (int, Fraction)):
            return Polynomial.__mul__(self, other)
        if not other:
            return self.ring.zero
        return _deferred(self.ring, [(s * other, a, b) for s, a, b in triples])

    __rmul__ = __mul__


def _deferred(ring: PolyRing, triples: list) -> Deferred:
    """A Deferred of triples already checked."""
    out = Deferred.__new__(Deferred)
    out.ring = ring
    out.triples = triples
    out._wide = None
    return out


def _summands(p: Polynomial):
    """p as the triples of a deferred sum.

    None when p has an exponent of 16 or more: the guard would refuse p as a
    factor of (1, p, one), so p is added at once instead.
    """
    if p.__class__ is Deferred:
        triples = p.triples
        if triples is not None:
            return triples
    terms = p.terms
    if not terms:
        return []
    if _is_wide(p):
        return None
    return [(1, p, p.ring.one)]

"""Exact free-boson Fock space.

A basis state is a partition ``(a1 >= a2 >= ... >= ak)`` of positive
integers, standing for the product of creation operators with those
mode numbers applied to the vacuum (the empty partition).  States are
finite rational combinations of basis states and all arithmetic is
exact: a FockVector holds integer numerators over one positive common
denominator, in lowest terms, so the kernels here and in voa and
quadratic sum integers and reduce once per vector.  Fractions are built
only at the boundary: the constructor and ``scaled`` take them (never a
float), ``terms`` and ``coeff`` return them.

The single field obeys the commutation rule
``[h(m), h(n)] = m * delta(m + n, 0)``: negative modes create (append a
part), positive modes annihilate (remove a matching part, weighted by
the mode number times its multiplicity), and ``h(0)`` kills everything.
The two halves of a vertex-operator mode live here too: the states that
a product of annihilators reaches from a basis state (``_annihilated``)
and the cached partitions that a product of creators makes
(``_created``); voa._mode_on_basis joins them.  The weighted sum that
voa's cell tables are built with lives here as well (``_weighted_sum``,
and ``_fraction_sum`` for Fraction weights), since it reads the integer
numerators directly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Mapping

__all__ = [
    "Partition",
    "make_partition",
    "weight",
    "FockVector",
    "h_apply",
    "partitions_of",
    "basis_of_weight",
    "basis_up_to",
    "weight_components",
    "graded_dim",
    "character_offset",
]

Partition = "tuple[int, ...]"


def make_partition(parts: Iterable[int]) -> tuple[int, ...]:
    """Canonicalize a multiset of positive parts into descending order."""
    out = tuple(sorted(parts, reverse=True))
    if out and out[-1] < 1:
        raise ValueError(f"parts must be positive integers, got {out}")
    return out


def weight(partition: tuple[int, ...]) -> int:
    return sum(partition)


class FockVector:
    """Finite rational combination of partition basis states.

    Stored as integer numerators over one common denominator: ``_num``
    maps partitions to nonzero ints and ``_den`` is a positive int with
    ``gcd(_den, *_num.values()) == 1``, so the zero vector has ``_den``
    1 and two equal vectors have equal ``(_den, _num)``.  Immutable in
    practice: every operation returns a new vector, and the empty vector
    is falsy.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms: Mapping[tuple[int, ...], Fraction | int] | None = None):
        # keys are canonicalized, so equal states in any order add up
        fracs: "dict[tuple[int, ...], Fraction]" = {}
        for part, coeff in (terms or {}).items():
            p = make_partition(part)
            fracs[p] = fracs.get(p, 0) + _exact(coeff)
        fracs = {p: c for p, c in fracs.items() if c}
        # numerators over the lcm of reduced denominators share no factor
        # with it: a prime's top power in the lcm comes from one term
        # whose numerator it does not divide
        den = math.lcm(*(c.denominator for c in fracs.values()))
        self._num = {p: c.numerator * (den // c.denominator) for p, c in fracs.items()}
        self._den = den

    @classmethod
    def from_ints(cls, num: "dict[tuple[int, ...], int]", den: int = 1) -> "FockVector":
        """The vector sum_p num[p]/den |p>, taking ownership of ``num``.

        ``num`` holds no zero values and ``den`` is positive; the result
        is brought to lowest terms with one gcd."""
        if den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {p: x // g for p, x in num.items()}
                den //= g
        return _reduced(num, den)

    @classmethod
    def zero(cls) -> "FockVector":
        return cls.from_ints({})

    @classmethod
    def vacuum(cls, coeff: Fraction | int = 1) -> "FockVector":
        return cls({(): coeff})

    @classmethod
    def basis(cls, parts: Iterable[int]) -> "FockVector":
        return cls.from_ints({make_partition(parts): 1})

    def terms(self) -> Iterator[tuple[tuple[int, ...], Fraction]]:
        """Stored terms, sorted by (weight, partition) for determinism."""
        den = self._den
        for p in sorted(self._num, key=lambda p: (sum(p), p)):
            yield p, Fraction(self._num[p], den)

    def coeff(self, parts: Iterable[int]) -> Fraction:
        return Fraction(self._num.get(make_partition(parts), 0), self._den)

    def scaled(self, c: Fraction | int) -> "FockVector":
        if type(c) is int:
            a, b = c, 1
        else:
            c = _exact(c)
            a, b = c.numerator, c.denominator
        if not a or not self._num:
            return FockVector.zero()
        # a/b and the vector are each in lowest terms, so only a common
        # factor of a and the denominator, or of b and every numerator,
        # can cancel
        g = math.gcd(a, self._den)
        a //= g
        den = self._den // g
        if b != 1:
            h = math.gcd(b, *self._num.values())
            den *= b // h
            if h != 1:
                return _reduced({p: x // h * a for p, x in self._num.items()}, den)
        return _reduced({p: x * a for p, x in self._num.items()}, den)

    def __add__(self, other: "FockVector") -> "FockVector":
        if not isinstance(other, FockVector):
            return NotImplemented
        if not other._num:
            return self
        if not self._num:
            return other
        d1, d2 = self._den, other._den
        if d1 == d2:
            num = dict(self._num)
            m2 = 1
        else:
            den = math.lcm(d1, d2)
            m1, m2 = den // d1, den // d2
            num = {p: x * m1 for p, x in self._num.items()}
            d1 = den
        for p, x in other._num.items():
            s = num.get(p, 0) + x * m2
            if s:
                num[p] = s
            else:
                del num[p]
        return FockVector.from_ints(num, d1)

    def __neg__(self) -> "FockVector":
        return _reduced({p: -x for p, x in self._num.items()}, self._den)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + (-other)

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FockVector):
            return self._den == other._den and self._num == other._num
        if other == 0:
            return not self._num
        return NotImplemented

    def __len__(self) -> int:
        return len(self._num)

    def __repr__(self) -> str:
        if not self._num:
            return "FockVector(0)"
        bits = []
        for part, coeff in self.terms():
            label = "|" + ",".join(str(a) for a in part) + ">"
            bits.append(f"{coeff}*{label}")
        return "FockVector(" + " + ".join(bits) + ")"


def _reduced(num: "dict[tuple[int, ...], int]", den: int) -> FockVector:
    """A vector from numerators already in lowest terms over den."""
    out = FockVector.__new__(FockVector)
    out._num = num
    out._den = den
    return out


def _weighted_sum(terms, den: int = 1) -> FockVector:
    """The sum of c * vec over (c, vec) pairs with int c, divided by den.
    The numerators are summed over the lcm of the denominators and
    reduced once, with no vector built per term; voa's cell tables sum
    their weighted mode images with it."""
    terms = [(c, vec) for c, vec in terms if c and vec]
    # a list, not a generator: unpacking a generator resizes the argument
    # tuple, and freeing a resized tuple grows the tuple free list
    lcm = math.lcm(*[vec._den for _, vec in terms])
    acc: "dict[tuple[int, ...], int]" = {}
    for c, vec in terms:
        c *= lcm // vec._den
        for p, x in vec._num.items():
            acc[p] = acc.get(p, 0) + c * x
    return FockVector.from_ints({p: x for p, x in acc.items() if x}, den * lcm)


def _fraction_sum(terms) -> FockVector:
    """The sum of c * vec over (c, vec) pairs with Fraction c and vec a
    FockVector or None for zero: one _weighted_sum of the numerators
    over the common denominator of the weights."""
    terms = list(terms)
    den = math.lcm(*[c.denominator for c, _ in terms])
    return _weighted_sum(((c.numerator * (den // c.denominator), vec) for c, vec in terms), den)


def _exact(c: object) -> Fraction:
    """c as a Fraction; floats (and bools) are refused, not converted."""
    if type(c) is Fraction:
        return c
    if isinstance(c, (float, bool)):
        raise TypeError(f"FockVector coefficients must be exact, got {type(c).__name__}")
    return Fraction(c)


def h_apply(n: int, v: FockVector) -> FockVector:
    """Apply the mode-``n`` field operator to ``v``.

    ``n < 0`` appends the part ``-n``; ``n > 0`` removes one copy of the
    part ``n`` from each state that has one, scaled by ``n`` times the
    multiplicity; ``n = 0`` acts as zero.  Both maps are injective on
    basis states, so no two terms merge: creation keeps the numerators
    (and lowest terms), annihilation scales them by integers over the
    same denominator.
    """
    if n == 0:
        return FockVector.zero()
    if n < 0:
        p = -n
        return _reduced({make_partition(part + (p,)): x for part, x in v._num.items()}, v._den)
    out: dict[tuple[int, ...], int] = {}
    for part, x in v._num.items():
        count = part.count(n)
        if count:
            i = part.index(n)
            out[part[:i] + part[i + 1 :]] = x * n * count
    return FockVector.from_ints(out, v._den)


# The partitions in voa's cached mode images, in the creation tables and
# in quadratic's cached images, one tuple object per partition: equal keys
# in different cache entries are shared
_PARTS: "dict[tuple[int, ...], tuple[int, ...]]" = {}


def _annihilated(u_parts, v_parts) -> list:
    """The annihilating half of a vertex mode (see voa._mode_on_basis):
    (C, split weight, A_S(v, .)) for every sub-multiset S of the factors
    u_parts, with C the complement of S as a descending tuple and
    A_S(v, .) as {(rest, a): coefficient}.  The multisets grow one
    distinct part x of u at a time, taking j of its copies into S with
    weight C(mult_u(x), j), one _annihilate step per copy."""
    levels = [((), 1, {(v_parts, 0): 1})]
    for x in sorted(set(u_parts), reverse=True):
        mult = u_parts.count(x)
        grown = []
        for c_parts, split, states in levels:
            for j in range(mult + 1):
                if j:
                    states = _annihilate(states, x - 1)
                grown.append((c_parts + (x,) * (mult - j), split * math.comb(mult, j), states))
        levels = grown
    return levels


def _annihilate(states, k):
    """One annihilating factor of part k + 1 on {(rest, a): coefficient}:
    h(m) removes the first of the count copies of a part m of rest, which
    keeps it descending, with weight (-1)^k C(m+k, k) * m * count."""
    out: "dict[tuple, int]" = {}
    for (rest, a), c in states.items():
        for m in set(rest):
            i = rest.index(m)
            key = (rest[:i] + rest[i + 1 :], a + m)
            out[key] = out.get(key, 0) + c * (-1) ** k * math.comb(m + k, k) * m * rest.count(m)
    return out


@lru_cache(maxsize=None)
def _created(c_parts: "tuple[int, ...]", c: int) -> "tuple[tuple[tuple[int, ...], int], ...]":
    """The creating half of a vertex mode (see voa._mode_on_basis): the
    (partition, coefficient) pairs K_C(c) that the factors c_parts = C
    make at created weight c, each factor n_i a part p_i >= n_i with
    weight C(p_i - 1, n_i - 1)."""
    if not c_parts:
        return (((), 1),) if c == 0 else ()
    ni, more = c_parts[0], c_parts[1:]
    acc: "dict[tuple[int, ...], int]" = {}
    for p in range(ni, c - sum(more) + 1):
        for q, y in _created(more, c - p):
            key = tuple(sorted(q + (p,), reverse=True))
            acc[key] = acc.get(key, 0) + math.comb(p - 1, ni - 1) * y
    intern = _PARTS.setdefault
    return tuple((intern(q, q), y) for q, y in acc.items())


@lru_cache(maxsize=None)
def partitions_of(n: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of ``n`` with parts bounded by ``max_part``, descending."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)
    if max_part is None or max_part > n:
        max_part = n
    out: list[tuple[int, ...]] = []
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def basis_of_weight(w: int) -> list[FockVector]:
    return [FockVector.basis(p) for p in partitions_of(w)]


def basis_up_to(w_cap: int) -> list[FockVector]:
    """Basis states of every weight from 0 through ``w_cap``."""
    out: list[FockVector] = []
    for w in range(w_cap + 1):
        out.extend(basis_of_weight(w))
    return out


def weight_components(v: FockVector) -> list[tuple[int, FockVector]]:
    """Split ``v`` into homogeneous pieces, ascending in weight."""
    buckets: dict[int, dict[tuple[int, ...], int]] = {}
    for part, x in v._num.items():
        buckets.setdefault(sum(part), {})[part] = x
    return [(w, FockVector.from_ints(buckets[w], v._den)) for w in sorted(buckets)]


# partition counts p(0), p(1), ..., extended on demand by graded_dim
_PARTITION_COUNTS = [1]


def graded_dim(n: int) -> int:
    """Dimension of the weight-``n`` graded piece (the partition count).

    Euler's pentagonal-number recurrence, p(m) = sum over k >= 1 of
    (-1)^(k+1) (p(m - k(3k-1)/2) + p(m - k(3k+1)/2)), with p of a
    negative number 0, extends the table one m at a time, so no call
    recurses."""
    if n < 0:
        raise ValueError("weight must be nonnegative")
    p = _PARTITION_COUNTS
    while len(p) <= n:
        m, total, k = len(p), 0, 1
        while (g := k * (3 * k - 1) // 2) <= m:
            term = p[m - g] + (p[m - g - k] if g + k <= m else 0)
            total += term if k % 2 else -term
            k += 1
        p.append(total)
    return p[n]


def character_offset() -> Fraction:
    """Exponent shift relating the graded dimension series to the eta function."""
    return Fraction(-1, 24)

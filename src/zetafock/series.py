"""Exact multivariate truncated formal Laurent series.

A :class:`Series` stores finitely many exact rational (or Fock-space
vector valued) coefficients, together with one :class:`VarWindow` per
variable carrying two nested pieces of information:

* a *known box* ``[low, high]``: inside the product of these ranges the
  stored data is complete (absent means zero);
* a *support band* ``[support_low, support_high]``: a promise that the
  true object, including every coefficient outside the known box, has
  no support outside the band.

Outside the known box and inside the band a series is *unknown*, never
implicitly zero; outside the band it is known to vanish.  This is what
lets doubly infinite objects such as the formal delta distribution
``sum of x^n over all integers n`` (band everywhere, box a finite
window) live in the same ring as truncated power series (box
``(-inf, order]``, band ``[0, inf)``).

Bands are essential for soundness of products in several variables: a
coefficient of a product is only known when no pair of exponents, one
possibly-nonzero and one unknown, can reach it, and "possibly nonzero"
must bound the unknown region too.  Stored exponents never widen a
band; construction normalizes each band to the smallest interval that
provably contains all possible support.

Products whose coefficients would be infinite sums of possibly nonzero
terms (the square of a delta, or an expansion unbounded below against
one unbounded above in the same variable) raise
:class:`IllDefinedProductError`.  Such objects are still multipliable
when exponent correlations across variables make the sums finite, but
that knowledge lives in dedicated routines, not in this generic ring.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Any, Iterable, Iterator, Mapping

__all__ = [
    "NEG_INF",
    "POS_INF",
    "SeriesError",
    "IllDefinedProductError",
    "WindowUnderflowError",
    "WindowInsufficientError",
    "VariableMismatchError",
    "VarWindow",
    "Series",
    "mul",
    "sum_series",
    "diff_on_box",
]

NEG_INF = float("-inf")
POS_INF = float("inf")


class SeriesError(Exception):
    """Base class for formal-series failures."""


class IllDefinedProductError(SeriesError):
    """A convolution would sum infinitely many possibly nonzero terms."""


class WindowUnderflowError(SeriesError):
    """No coefficient inside the possible support came out complete."""


class WindowInsufficientError(SeriesError):
    """Requested data lies outside the region where the series is known."""


class VariableMismatchError(SeriesError):
    """Operands disagree about their variable sets."""


def _check_bound(b: Any) -> None:
    if isinstance(b, bool) or not (isinstance(b, int) or b in (NEG_INF, POS_INF)):
        raise ValueError(f"window bound must be an int or +/-inf, got {b!r}")


class VarWindow:
    """Known box and support band of one variable.

    ``low <= high`` always; the band may be empty (canonically
    ``(+inf, -inf)``), which marks a series that provably vanishes in
    every completion.
    """

    __slots__ = ("name", "low", "high", "support_low", "support_high")

    def __init__(
        self,
        name: str,
        low: "int | float",
        high: "int | float",
        support_low: "int | float" = NEG_INF,
        support_high: "int | float" = POS_INF,
    ):
        if not isinstance(name, str) or not name:
            raise ValueError("variable name must be a nonempty string")
        for b in (low, high, support_low, support_high):
            _check_bound(b)
        if low > high:
            raise ValueError(f"known box for {name!r} is empty: [{low}, {high}]")
        if support_low > support_high:
            support_low, support_high = POS_INF, NEG_INF
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)
        object.__setattr__(self, "support_low", support_low)
        object.__setattr__(self, "support_high", support_high)

    def __setattr__(self, *a: Any) -> None:
        raise AttributeError("VarWindow is immutable")

    def contains(self, e: int) -> bool:
        return self.low <= e <= self.high

    def in_band(self, e: int) -> bool:
        return self.support_low <= e <= self.support_high

    @property
    def band_empty(self) -> bool:
        return self.support_low > self.support_high

    def __eq__(self, other: Any) -> bool:
        return (
            isinstance(other, VarWindow)
            and self.name == other.name
            and self.low == other.low
            and self.high == other.high
            and self.support_low == other.support_low
            and self.support_high == other.support_high
        )

    def __hash__(self) -> int:
        return hash((self.name, self.low, self.high, self.support_low, self.support_high))

    def __repr__(self) -> str:
        return (
            f"VarWindow({self.name!r}, {self.low}, {self.high}, "
            f"{self.support_low}, {self.support_high})"
        )

    # Constructors for the common shapes.

    @classmethod
    def power_series(cls, name: str, order: int, valuation: int = 0) -> "VarWindow":
        """Known through ``order``, supported at or above ``valuation``."""
        return cls(name, NEG_INF, order, valuation, POS_INF)

    @classmethod
    def box(cls, name: str, n: int) -> "VarWindow":
        """Symmetric window [-n, n] with unknown tails on both sides."""
        return cls(name, -n, n)

    @classmethod
    def full(cls, name: str) -> "VarWindow":
        return cls(name, NEG_INF, POS_INF)


def _value_add(a: Any, b: Any) -> Any:
    return a + b


def _value_mul(a: Any, b: Any) -> Any:
    # Scalars are Fraction or int; anything else is a module element
    # (a Fock-space vector) that knows how to be scaled.
    a_scalar = isinstance(a, (int, Fraction))
    if a_scalar and isinstance(b, (int, Fraction)):
        return a * b
    if a_scalar:
        return b.scaled(a)
    if isinstance(b, (int, Fraction)):
        return a.scaled(b)
    raise TypeError("cannot multiply two vector-valued series")


Exps = "tuple[int, ...]"


class Series:
    """Immutable sparse Laurent series with per-variable windows.

    ``coeffs`` maps exponent tuples (aligned with the windows, which
    are kept sorted by variable name) to values: exact scalars or
    vectors.  Stored exponents must lie inside both the box and the
    band; zero values are dropped.  Bands are normalized at
    construction: where the declared band provably overstates the
    possible support it is shrunk, so window arithmetic downstream is
    as sharp as the data allows.
    """

    __slots__ = ("_names", "_wins", "_coeffs", "_unknown")

    def __init__(self, windows: Iterable[VarWindow], coeffs: "Mapping[Exps, Any]"):
        wins = tuple(windows)
        names = tuple(w.name for w in wins)
        if len(set(names)) != len(names):
            raise VariableMismatchError(f"duplicate variable names in {names}")
        order = sorted(range(len(wins)), key=lambda i: wins[i].name)
        wins = tuple(wins[i] for i in order)
        data: "dict[tuple[int, ...], Any]" = {}
        for exps, val in coeffs.items():
            if len(exps) != len(wins):
                raise ValueError(f"exponent tuple {exps} has wrong arity")
            key = tuple(exps[i] for i in order)
            for e, w in zip(key, wins):
                if not isinstance(e, int) or isinstance(e, bool):
                    raise ValueError(f"exponents must be ints, got {e!r}")
                if not w.contains(e):
                    raise ValueError(
                        f"stored exponent {e} of {w.name!r} outside box "
                        f"[{w.low}, {w.high}]"
                    )
                if not w.in_band(e):
                    raise ValueError(
                        f"stored exponent {e} of {w.name!r} outside support "
                        f"band [{w.support_low}, {w.support_high}]"
                    )
            if not val:
                continue
            if key in data:
                val = _value_add(data[key], val)
                if not val:
                    del data[key]
                    continue
            data[key] = val
        wins = _normalize_bands(wins, data)
        object.__setattr__(self, "_names", tuple(w.name for w in wins))
        object.__setattr__(self, "_wins", {w.name: w for w in wins})
        object.__setattr__(self, "_coeffs", data)
        object.__setattr__(self, "_unknown", None)

    def __setattr__(self, *a: Any) -> None:
        raise AttributeError("Series is immutable")

    @classmethod
    def _raw(
        cls, wins_sorted: "tuple[VarWindow, ...]", data: "dict[tuple[int, ...], Any]"
    ) -> "Series":
        # Trusted fast path: windows sorted and normalized, data clean.
        self = object.__new__(cls)
        object.__setattr__(self, "_names", tuple(w.name for w in wins_sorted))
        object.__setattr__(self, "_wins", {w.name: w for w in wins_sorted})
        object.__setattr__(self, "_coeffs", data)
        object.__setattr__(self, "_unknown", None)
        return self

    @classmethod
    def constant(cls, value: Any) -> "Series":
        return cls((), {(): value})

    @classmethod
    def zero(cls, names: Iterable[str] = ()) -> "Series":
        wins = tuple(
            VarWindow(nm, NEG_INF, POS_INF, POS_INF, NEG_INF) for nm in sorted(names)
        )
        return cls._raw(wins, {})

    # ------------------------------------------------------------------
    # Introspection

    @property
    def variables(self) -> "tuple[str, ...]":
        return self._names

    def window(self, name: str) -> VarWindow:
        try:
            return self._wins[name]
        except KeyError:
            raise VariableMismatchError(f"no variable {name!r} in {self._names}") from None

    def windows(self) -> "tuple[VarWindow, ...]":
        return tuple(self._wins[n] for n in self._names)

    def terms(self) -> "Iterator[tuple[tuple[int, ...], Any]]":
        for key in sorted(self._coeffs):
            yield key, self._coeffs[key]

    def __len__(self) -> int:
        return len(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def provably_zero(self) -> bool:
        """True when every completion vanishes identically."""
        if self._coeffs:
            return False
        return not self.unknown_variables()

    def unknown_variables(self) -> "tuple[str, ...]":
        """Variables whose band leaves the known box somewhere."""
        u = self._unknown
        if u is None:
            u = tuple(
                nm
                for nm in self._names
                if not _band_inside_box(self._wins[nm])
            )
            object.__setattr__(self, "_unknown", u)
        return u

    def _index(self, name: str) -> int:
        return self._names.index(name)

    def coefficient(self, exps: "Mapping[str, int]") -> Any:
        """Exact coefficient at the given exponents (unnamed vars: 0).

        Exponents outside some band are known zeros; inside all bands
        the known box must cover the point, else
        :class:`WindowInsufficientError`.
        """
        for nm, e in exps.items():
            if nm not in self._wins:
                if e != 0:
                    return 0
            elif not self._wins[nm].in_band(e):
                return 0
        key = []
        for nm in self._names:
            e = exps.get(nm, 0)
            if not self._wins[nm].contains(e):
                raise WindowInsufficientError(
                    f"coefficient at {nm}^{e} outside known box of {nm!r}"
                )
            key.append(e)
        return self._coeffs.get(tuple(key), 0)

    def known_on(self, box: "Mapping[str, tuple[int, int]]") -> bool:
        """Is every coefficient on the box determined?"""
        clipped = []
        for nm, (lo, hi) in box.items():
            if nm not in self._wins:
                continue  # genuinely constant in nm
            w = self._wins[nm]
            blo, bhi = max(lo, w.support_low), min(hi, w.support_high)
            if blo > bhi:
                return True  # box misses the band: all known zeros
            clipped.append((w, blo, bhi))
        return all(w.low <= blo and bhi <= w.high for w, blo, bhi in clipped)

    def __repr__(self) -> str:
        parts = []
        for w in self.windows():
            parts.append(
                f"{w.name}:[{w.low},{w.high}]s[{w.support_low},{w.support_high}]"
            )
        return f"<Series {' '.join(parts)} terms={len(self._coeffs)}>"

    def __eq__(self, other: Any) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return (
            self._names == other._names
            and all(self._wins[n] == other._wins[n] for n in self._names)
            and self._coeffs == other._coeffs
        )

    __hash__ = None  # type: ignore[assignment]

    # ------------------------------------------------------------------
    # Ring operations

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        if self._names != other._names:
            raise VariableMismatchError(
                f"cannot add series in {self._names} and {other._names}"
            )
        wins = []
        for nm in self._names:
            a, b = self._wins[nm], other._wins[nm]
            lo, hi = max(a.low, b.low), min(a.high, b.high)
            if lo > hi:
                raise WindowUnderflowError(
                    f"sum has empty known box for {nm!r}: [{lo}, {hi}]"
                )
            if a.band_empty:
                slo, shi = b.support_low, b.support_high
            elif b.band_empty:
                slo, shi = a.support_low, a.support_high
            else:
                slo = min(a.support_low, b.support_low)
                shi = max(a.support_high, b.support_high)
            wins.append(VarWindow(nm, lo, hi, slo, shi))
        wins_t = tuple(wins)
        data = dict(_items_in_boxes(self, wins_t))
        for exps, val in _items_in_boxes(other, wins_t):
            if exps in data:
                s = _value_add(data[exps], val)
                if s:
                    data[exps] = s
                else:
                    del data[exps]
            else:
                data[exps] = val
        return Series._raw(_normalize_bands(wins_t, data), data)

    def __sub__(self, other: "Series") -> "Series":
        return self + (-other)

    def __neg__(self) -> "Series":
        return self.scale(-1)

    def scale(self, c: Any) -> "Series":
        """Multiply every coefficient by a fixed scalar or vector."""
        data = {}
        if not (isinstance(c, (int, Fraction)) and not c):
            for exps, val in self._coeffs.items():
                v = _value_mul(val, c)
                if v:
                    data[exps] = v
        return Series._raw(tuple(self._wins[n] for n in self._names), data)

    def __mul__(self, other: Any) -> "Series":
        if isinstance(other, Series):
            return mul(self, other)
        return self.scale(other)

    def __rmul__(self, other: Any) -> "Series":
        if isinstance(other, Series):
            return NotImplemented
        return self.scale(other)

    # ------------------------------------------------------------------
    # Shape manipulation

    def restrict(self, box: "Mapping[str, tuple[int | float, int | float]]") -> "Series":
        """Intersect known boxes with ``box``, dropping terms outside."""
        wins = []
        for nm in self._names:
            w = self._wins[nm]
            lo, hi = w.low, w.high
            if nm in box:
                lo, hi = max(lo, box[nm][0]), min(hi, box[nm][1])
                if lo > hi:
                    raise WindowUnderflowError(f"restriction empties box of {nm!r}")
            wins.append(VarWindow(nm, lo, hi, w.support_low, w.support_high))
        wins_t = tuple(wins)
        data = {
            exps: val
            for exps, val in self._coeffs.items()
            if all(w.contains(e) for e, w in zip(exps, wins_t))
        }
        return Series._raw(_normalize_bands(wins_t, data), data)

    def with_variables(self, names: Iterable[str]) -> "Series":
        """Adjoin variables in which this series is genuinely constant
        (full box, support band {0})."""
        extra = tuple(names)
        if not extra:
            return self
        for nm in extra:
            if nm in self._wins:
                raise VariableMismatchError(f"variable {nm!r} already present")
        wins = sorted(
            list(self.windows()) + [VarWindow(nm, NEG_INF, POS_INF, 0, 0) for nm in extra],
            key=lambda w: w.name,
        )
        order = [w.name for w in wins]
        pos = {nm: order.index(nm) for nm in self._names}
        zero = [0] * len(order)
        data = {}
        for exps, val in self._coeffs.items():
            key = zero[:]
            for nm, e in zip(self._names, exps):
                key[pos[nm]] = e
            data[tuple(key)] = val
        return Series._raw(tuple(wins), data)

    def rename(self, mapping: "Mapping[str, str]") -> "Series":
        new_names = [mapping.get(nm, nm) for nm in self._names]
        if len(set(new_names)) != len(new_names):
            raise VariableMismatchError(f"rename collides: {new_names}")
        wins = tuple(
            VarWindow(
                mapping.get(w.name, w.name),
                w.low,
                w.high,
                w.support_low,
                w.support_high,
            )
            for w in self.windows()
        )
        return Series(wins, dict(self._coeffs))

    def slice_at(self, name: str, e: int) -> "Series":
        """Coefficient of ``name``^e as a series in the other variables."""
        w = self.window(name)
        rest = tuple(self._wins[n] for n in self._names if n != name)
        if not w.in_band(e):
            return Series.zero(ww.name for ww in rest)
        if not w.contains(e):
            raise WindowInsufficientError(
                f"slice at {name}^{e} outside known box [{w.low}, {w.high}]"
            )
        i = self._index(name)
        data = {
            exps[:i] + exps[i + 1 :]: val
            for exps, val in self._coeffs.items()
            if exps[i] == e
        }
        return Series._raw(_normalize_bands(rest, data), data)

    def slices(self, name: str) -> "dict[int, Series]":
        """Stored slices along ``name``, keyed by exponent."""
        i = self._index(name)
        grouped: "dict[int, dict[tuple[int, ...], Any]]" = {}
        for exps, val in self._coeffs.items():
            grouped.setdefault(exps[i], {})[exps[:i] + exps[i + 1 :]] = val
        rest = tuple(self._wins[n] for n in self._names if n != name)
        return {
            e: Series._raw(_normalize_bands(rest, data), data)
            for e, data in grouped.items()
        }

    # ------------------------------------------------------------------
    # Calculus on exponents

    def derivative(self, name: str) -> "Series":
        """Formal d/d(name)."""
        i = self._index(name)
        w = self._wins[name]
        lo = w.low if w.low == NEG_INF else w.low - 1
        hi = w.high if w.high == POS_INF else w.high - 1
        if lo > hi:
            raise WindowUnderflowError(f"derivative empties box of {name!r}")
        if w.band_empty:
            slo, shi = w.support_low, w.support_high
        else:
            # the constant term dies: a band touching 0 shifts to the
            # nearest exponent a surviving term can reach
            slo = 0 if w.support_low == 0 else w.support_low - 1
            shi = -2 if w.support_high == 0 else w.support_high - 1
        data = {}
        for exps, val in self._coeffs.items():
            e = exps[i]
            if e == 0:
                continue
            key = exps[:i] + (e - 1,) + exps[i + 1 :]
            v = _value_mul(val, e)
            if v:
                data[key] = v
        wins = tuple(
            VarWindow(nm, lo, hi, slo, shi) if nm == name else self._wins[nm]
            for nm in self._names
        )
        return Series._raw(_normalize_bands(wins, data), data)

    def euler_derivative(self, name: str) -> "Series":
        """x d/dx: multiply each coefficient by its exponent."""
        i = self._index(name)
        data = {}
        for exps, val in self._coeffs.items():
            if exps[i]:
                v = _value_mul(val, exps[i])
                if v:
                    data[exps] = v
        return Series._raw(tuple(self._wins[n] for n in self._names), data)

    def shift(self, name: str, by: int) -> "Series":
        """Multiply by ``name``^by (exponent translation)."""
        if by == 0:
            return self
        i = self._index(name)
        w = self._wins[name]
        lo = w.low if w.low == NEG_INF else w.low + by
        hi = w.high if w.high == POS_INF else w.high + by
        slo = w.support_low if w.support_low in (NEG_INF, POS_INF) else w.support_low + by
        shi = w.support_high if w.support_high in (NEG_INF, POS_INF) else w.support_high + by
        wins = tuple(
            VarWindow(nm, lo, hi, slo, shi) if nm == name else self._wins[nm]
            for nm in self._names
        )
        data = {
            exps[:i] + (exps[i] + by,) + exps[i + 1 :]: val
            for exps, val in self._coeffs.items()
        }
        return Series._raw(wins, data)

    def residue(self, name: str) -> "Series":
        """Coefficient of ``name``^-1 as a series in the other variables."""
        return self.slice_at(name, -1)


def _items_in_boxes(
    s: Series, wins: "tuple[VarWindow, ...]"
) -> "Iterable[tuple[tuple[int, ...], Any]]":
    """The terms of s whose exponents lie in the boxes of wins (aligned
    with s).  s stores exponents only inside its own boxes, so when those
    equal the boxes of wins every term qualifies without a test."""
    items = s._coeffs.items()
    if all(s._wins[w.name].low == w.low and s._wins[w.name].high == w.high for w in wins):
        return items
    return [
        (exps, val)
        for exps, val in items
        if all(w.contains(e) for e, w in zip(exps, wins))
    ]


def _band_inside_box(w: VarWindow) -> bool:
    if w.band_empty:
        return True
    return w.low <= w.support_low and w.support_high <= w.high


def _normalize_bands(
    wins: "tuple[VarWindow, ...]", data: "Mapping[tuple[int, ...], Any]"
) -> "tuple[VarWindow, ...]":
    """Shrink declared bands to what the data and boxes allow.

    The possible support of variable v is contained in
    ``hull(stored_v) ∪ (band_v outside box_v)`` as long as v is the
    only variable whose band escapes its box; when several escape,
    completions may place terms anywhere in the joint band, so only
    the declared band of v is safe.  Iterates because every shrink can
    turn another variable into the only escapee.
    """
    wins = tuple(wins)
    n = len(wins)
    if n == 0:
        return wins
    hulls: "list[list[int | float]]" = [[POS_INF, NEG_INF] for _ in range(n)]
    for exps in data:
        for i in range(n):
            e = exps[i]
            h = hulls[i]
            if e < h[0]:
                h[0] = e
            if e > h[1]:
                h[1] = e
    while True:
        escapes = [w.name for w in wins if not _band_inside_box(w)]
        changed = False
        new = []
        for i, w in enumerate(wins):
            if escapes and escapes != [w.name]:
                new.append(w)
                continue
            hlo, hhi = hulls[i]
            if not w.band_empty and not _band_inside_box(w):
                # parts of the band outside the box stay possible
                if w.support_low < w.low:
                    hlo = min(hlo, w.support_low)
                    hhi = max(hhi, w.low - 1)
                if w.support_high > w.high:
                    hlo = min(hlo, w.high + 1)
                    hhi = max(hhi, w.support_high)
            if hlo > hhi:
                hlo, hhi = POS_INF, NEG_INF
            if (hlo, hhi) != (w.support_low, w.support_high):
                new.append(VarWindow(w.name, w.low, w.high, hlo, hhi))
                changed = True
            else:
                new.append(w)
        wins = tuple(new)
        if not changed:
            return wins


# ----------------------------------------------------------------------
# Product


def _unknown_interval(w: VarWindow) -> "list[tuple[int | float, int | float]]":
    """Parts of the band outside the known box (up to two intervals).

    Any completion term outside the joint known box escapes it in some
    variable, and in that variable its exponent falls in this set; a
    product window that excludes, variable by variable, every sum of
    an unknown exponent with a possibly supported one therefore sees
    only fully stored pairs.
    """
    out = []
    if w.support_low < w.low:
        out.append((w.support_low, w.low - 1))
    if w.support_high > w.high:
        out.append((w.high + 1, w.support_high))
    return out


def _mul_var_window(nm: str, wa: VarWindow, wb: VarWindow) -> VarWindow:
    """Window of a product in one variable.

    A product coefficient at e is complete unless some pair p+q=e puts
    an unknown exponent of one factor against a possibly supported
    exponent of the other.  Bad exponent sets are unions of intervals
    anchored at band edges; the result box is the complement component
    most overlapping the band sum.
    """
    asl, ash = wa.support_low, wa.support_high
    bsl, bsh = wb.support_low, wb.support_high
    if (ash == POS_INF and bsl == NEG_INF) or (asl == NEG_INF and bsh == POS_INF):
        raise IllDefinedProductError(
            f"product ill-defined in {nm!r}: support bands "
            f"[{asl},{ash}] and [{bsl},{bsh}] give infinite convolutions"
        )
    bad: "list[tuple[int | float, int | float]]" = []
    for lo, hi in _unknown_interval(wa):
        bad.append((lo + bsl, hi + bsh))
    for lo, hi in _unknown_interval(wb):
        bad.append((lo + asl, hi + ash))
    # merge and take the complement component best covering the band sum
    bad.sort()
    merged: "list[list[int | float]]" = []
    for lo, hi in bad:
        if merged and lo <= merged[-1][1] + 1:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    comps: "list[tuple[int | float, int | float]]" = []
    cur = NEG_INF
    for lo, hi in merged:
        if lo > cur:
            comps.append((cur, lo - 1))
        cur = max(cur, hi + 1) if hi != POS_INF else POS_INF
        if cur == POS_INF:
            break
    if cur != POS_INF:
        comps.append((cur, POS_INF))
    if not comps:
        raise WindowUnderflowError(
            f"no complete coefficient of {nm!r} (enlarge input windows)"
        )
    pslo, pshi = asl + bsl, ash + bsh
    best = None
    best_len = -1.0
    for lo, hi in comps:
        olo, ohi = max(lo, pslo), min(hi, pshi)
        if olo > ohi:
            length = -1.0
        elif olo == NEG_INF or ohi == POS_INF:
            length = POS_INF
        else:
            length = float(ohi - olo)
        if length > best_len:
            best, best_len = (lo, hi), length
    if best_len < 0:
        # every complete component misses the possible support: the
        # factors provably contribute nothing on any of them, so each is
        # an all-zero complete region; keep the widest one
        for lo, hi in comps:
            length = POS_INF if (lo == NEG_INF or hi == POS_INF) else float(hi - lo)
            if length > best_len:
                best, best_len = (lo, hi), length
    return VarWindow(nm, best[0], best[1], pslo, pshi)


def _clipped_mul_window(
    nm: str,
    wa: VarWindow,
    wb: VarWindow,
    clip: "tuple[int | float, int | float]",
) -> VarWindow:
    """Window of a product in one variable, its box narrowed to ``clip``,
    which must sit inside the provably complete box."""
    w = _mul_var_window(nm, wa, wb)
    clo, chi = clip
    if clo < w.low or chi > w.high:
        raise WindowInsufficientError(
            f"product not determined on clip box of {nm!r}: "
            f"complete box [{w.low},{w.high}], clip [{clo},{chi}]"
        )
    if clo > chi:
        raise ValueError(f"empty clip for {nm!r}")
    return VarWindow(nm, clo, chi, w.support_low, w.support_high)


_CONST_WINDOW_CACHE: "dict[str, VarWindow]" = {}


def _const_window(nm: str) -> VarWindow:
    w = _CONST_WINDOW_CACHE.get(nm)
    if w is None:
        w = VarWindow(nm, NEG_INF, POS_INF, 0, 0)
        _CONST_WINDOW_CACHE[nm] = w
    return w


def mul(
    a: Series,
    b: Series,
    clip: "Mapping[str, tuple[int | float, int | float]] | None" = None,
) -> Series:
    """Exact convolution product on the largest provably complete box.

    Variables missing from one factor are genuine constants there.
    ``clip`` narrows the result box (it must sit inside the provably
    complete box, else :class:`WindowInsufficientError`); use it to
    keep intermediate results small.
    """
    names = sorted(set(a._names) | set(b._names))
    # a factor that provably vanishes kills the product
    if any(a._wins[nm].band_empty for nm in a._names) or any(
        b._wins[nm].band_empty for nm in b._names
    ):
        return Series.zero(names)
    wins: "list[VarWindow]" = []
    for nm in names:
        wa = a._wins.get(nm) or _const_window(nm)
        wb = b._wins.get(nm) or _const_window(nm)
        if clip is not None and nm in clip:
            wins.append(_clipped_mul_window(nm, wa, wb, clip[nm]))
        else:
            wins.append(_mul_var_window(nm, wa, wb))
    wins_t = tuple(wins)

    if not a._coeffs or not b._coeffs:
        data: "dict[tuple[int, ...], Any]" = {}
        return Series._raw(_normalize_bands(wins_t, data), data)

    # align exponent tuples with the merged variable list
    def aligned(s: Series) -> "list[tuple[tuple[int, ...], Any]]":
        pos = [s._names.index(nm) if nm in s._wins else -1 for nm in names]
        return [
            (tuple(exps[p] if p >= 0 else 0 for p in pos), val)
            for exps, val in s._coeffs.items()
        ]

    ta, tb = aligned(a), aligned(b)
    if len(ta) < len(tb):
        ta, tb = tb, ta
    los = tuple(w.low for w in wins_t)
    his = tuple(w.high for w in wins_t)
    rng = range(len(names))
    out: "dict[tuple[int, ...], Any]" = {}
    for eb2, vb in tb:
        for ea2, va in ta:
            key = tuple(ea2[i] + eb2[i] for i in rng)
            ok = True
            for i in rng:
                e = key[i]
                if e < los[i] or e > his[i]:
                    ok = False
                    break
            if not ok:
                continue
            v = _value_mul(va, vb)
            if key in out:
                s = _value_add(out[key], v)
                if s:
                    out[key] = s
                else:
                    del out[key]
            elif v:
                out[key] = v
    return Series._raw(_normalize_bands(wins_t, out), out)


def sum_series(terms: "Iterable[Series]") -> Series:
    """Sum a nonempty iterable of series (boxes intersect, bands join)."""
    it = iter(terms)
    try:
        acc = next(it)
    except StopIteration:
        raise ValueError("sum_series needs at least one term") from None
    for t in it:
        acc = acc + t
    return acc


def diff_on_box(
    a: Series,
    b: Series,
    box: "Mapping[str, tuple[int, int]]",
) -> "list[tuple[dict[str, int], Any, Any]]":
    """Coefficient mismatches of two series on an explicit finite box.

    Both series must be known on the whole box
    (:class:`WindowInsufficientError` otherwise).  Returns a sorted
    list of (exponents, lhs, rhs).
    """
    for s, side in ((a, "lhs"), (b, "rhs")):
        if not s.known_on(box):
            raise WindowInsufficientError(f"{side} not known on the whole box {box}")
    names = sorted(box)
    ranges = [range(box[nm][0], box[nm][1] + 1) for nm in names]
    bad = []
    for point in itertools.product(*ranges):
        exps = dict(zip(names, point))
        va = a.coefficient(exps)
        vb = b.coefficient(exps)
        if va != vb:
            bad.append((exps, va, vb))
    return bad

"""Power-series toolbox built on the windowed series core.

Univariate coefficient kernels (exponentials, Bernoulli and Todd
numbers), binomial expansions of variable differences, substitution of
series into formal variables, and the pinned convolution routines that
multiply a series by doubly infinite delta-type kernels which the
generic product ruleset rightly refuses.

Every routine preserves the window discipline: result boxes only cover
coefficients fully determined by the input boxes, and result bands are
widened wherever a truncated slice enumeration could hide support.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Callable, Iterable, Mapping, Sequence

from .series import (
    NEG_INF,
    POS_INF,
    IllDefinedProductError,
    Series,
    VariableMismatchError,
    VarWindow,
    WindowInsufficientError,
    _clipped_mul_window,
    _const_window,
    _normalize_bands,
    _value_mul,
    mul,
    sum_series,
)

# ----------------------------------------------------------------------
# Univariate coefficient arithmetic on plain dicts {exponent: Fraction}.
# Exponents are nonnegative; ``order`` is an inclusive truncation cap.


def u_trim(a: Mapping[int, Fraction], order: int) -> "dict[int, Fraction]":
    return {k: v for k, v in a.items() if k <= order and v}


def u_mul(
    a: Mapping[int, Fraction], b: Mapping[int, Fraction], order: int
) -> "dict[int, Fraction]":
    out: "dict[int, Fraction]" = {}
    for i, x in a.items():
        if i > order or not x:
            continue
        for j, y in b.items():
            k = i + j
            if k > order:
                continue
            s = out.get(k, 0) + x * y
            if s:
                out[k] = s
            elif k in out:
                del out[k]
    return out


def u_inv(a: Mapping[int, Fraction], order: int) -> "dict[int, Fraction]":
    """Multiplicative inverse of a unit power series, exactly."""
    a0 = a.get(0, 0)
    if not a0:
        raise ZeroDivisionError("constant term vanishes; not a unit")
    inv0 = Fraction(1) / a0
    out = {0: inv0}
    for n in range(1, order + 1):
        acc = Fraction(0)
        for i in range(1, n + 1):
            ai = a.get(i, 0)
            if ai:
                bj = out.get(n - i, 0)
                if bj:
                    acc += ai * bj
        c = -inv0 * acc
        if c:
            out[n] = c
    return out


def u_pow(a: Mapping[int, Fraction], n: int, order: int) -> "dict[int, Fraction]":
    """n-th power of a power series; negative n needs a unit."""
    if n < 0:
        return u_pow(u_inv(a, order), -n, order)
    out: "dict[int, Fraction]" = {0: Fraction(1)}
    base = u_trim(a, order)
    while n:
        if n & 1:
            out = u_mul(out, base, order)
        n >>= 1
        if n:
            base = u_mul(base, base, order)
    return out


# ----------------------------------------------------------------------
# Named coefficient kernels


def binom(a: int, k: int) -> Fraction:
    """Generalized binomial coefficient with integer upper argument."""
    if k < 0:
        return Fraction(0)
    num = 1
    for i in range(k):
        num *= a - i
    return Fraction(num, math.factorial(k))


def em1_unit(order: int) -> "dict[int, Fraction]":
    """Coefficients of (exp(t) - 1)/t."""
    return {j: Fraction(1, math.factorial(j + 1)) for j in range(order + 1)}


def bernoulli_list(n: int) -> "list[Fraction]":
    """Bernoulli numbers B_0 .. B_n via inversion of (exp(x) - 1)/x.

    Convention with B_1 = -1/2."""
    inv = u_inv(em1_unit(n), n)
    return [inv.get(k, Fraction(0)) * math.factorial(k) for k in range(n + 1)]


def todd_coeffs(order: int) -> "list[Fraction]":
    """Taylor coefficients of t/(1 - exp(-t))."""
    unit = {j: Fraction((-1) ** j, math.factorial(j + 1)) for j in range(order + 1)}
    g = u_inv(unit, order)
    return [g.get(k, Fraction(0)) for k in range(order + 1)]


# ----------------------------------------------------------------------
# Elementary series builders

_EXP_CACHE: "dict[tuple[str, int, Any], Series]" = {}


def monomial(exps: Mapping[str, int], value: Any = 1) -> Series:
    """Fully known single-term series."""
    names = sorted(exps)
    if not value:
        return Series.zero(names)
    # a full box around a one-point band holding the one term: already
    # normalized, and VarWindow refuses a non-integer exponent
    wins = tuple(VarWindow(nm, NEG_INF, POS_INF, exps[nm], exps[nm]) for nm in names)
    return Series._raw(wins, {tuple(exps[nm] for nm in names): value})


def exp_series(var: str, order: int, scale: Any = 1) -> Series:
    """exp(scale * var) truncated at var^order (complete on that box)."""
    key = (var, order, scale)
    s = _EXP_CACHE.get(key)
    if s is not None:
        return s
    if order < 0:
        raise ValueError("exponential truncation order must be >= 0")
    if not scale:
        s = Series([VarWindow(var, NEG_INF, POS_INF, 0, 0)], {(0,): Fraction(1)})
    else:
        data = {}
        c = Fraction(1)
        for j in range(order + 1):
            data[(j,)] = c
            c = c * scale / (j + 1)
        s = Series([VarWindow(var, NEG_INF, order, 0, POS_INF)], data)
    _EXP_CACHE[key] = s
    return s


def binomial_difference(a_var: str, b_var: str, n: int, b_cap: int = 0) -> Series:
    """(a - b)^n expanded in nonnegative powers of b.

    For n >= 0 this is a complete polynomial.  For n < 0 the expansion
    is infinite; it is truncated at b^b_cap, capping the knowable a-box
    below at n - b_cap.
    """
    if a_var == b_var:
        raise VariableMismatchError("difference needs two distinct variables")
    k_hi = n if n >= 0 else b_cap
    data = {}
    for k in range(k_hi + 1):
        c = binom(n, k) * (-1) ** k
        if c:
            key = (n - k, k) if a_var < b_var else (k, n - k)
            data[key] = c
    if n >= 0:
        wins = [VarWindow(a_var, NEG_INF, POS_INF), VarWindow(b_var, NEG_INF, POS_INF)]
    else:
        wins = [
            VarWindow(a_var, n - b_cap, POS_INF, NEG_INF, n),
            VarWindow(b_var, NEG_INF, b_cap, 0, POS_INF),
        ]
    return Series(sorted(wins, key=lambda w: w.name), data)


# ----------------------------------------------------------------------
# Window plumbing helpers


def aligned_sum(terms: "Sequence[Series]") -> Series:
    """Sum series over possibly different variable sets; missing
    variables are adjoined as genuine constants."""
    if not terms:
        raise ValueError("aligned_sum needs at least one term")
    names = sorted(set().union(*(set(t.variables) for t in terms)))
    padded = [
        t.with_variables([nm for nm in names if nm not in t.variables])
        for t in terms
    ]
    return sum_series(padded)


def widen_band(
    s: Series, name: str, lo: "int | float", hi: "int | float"
) -> Series:
    """Replace one support band by hull(band, [lo, hi]).

    A weaker promise, so always sound.  Needed after slice-enumerating
    constructions whose omitted slices may carry support the enumerated
    terms never showed.  An empty [lo, hi] adds nothing.
    """
    add_empty = lo > hi or lo == POS_INF or hi == NEG_INF
    wins = []
    for w in s.windows():
        if w.name == name:
            if add_empty:
                nlo, nhi = w.support_low, w.support_high
            elif w.band_empty:
                nlo, nhi = lo, hi
            else:
                nlo, nhi = min(w.support_low, lo), max(w.support_high, hi)
            wins.append(VarWindow(w.name, w.low, w.high, nlo, nhi))
        else:
            wins.append(w)
    # the data of s already lies in its boxes and in the old band, which
    # the new band contains; only the bands need normalizing again
    data = s._coeffs
    return Series._raw(_normalize_bands(tuple(wins), data), data)


def _vanishes(f: Series) -> bool:
    """True when some empty band makes every completion of f zero."""
    return any(f.window(nm).band_empty for nm in f.variables)


def _band_floor(f: Series, name: str) -> "int | float":
    """Lowest possible exponent of a variable in f (0 when absent)."""
    if name not in f.variables:
        return 0
    w = f.window(name)
    return w.support_low


def _require_known_slices(f: Series, s: str, lo: int, hi: int) -> None:
    if lo > hi:
        return
    if not f.known_on({s: (lo, hi)}):
        raise WindowInsufficientError(
            f"substitution needs slices {s}^{lo}..{s}^{hi} but the box of "
            f"{s!r} is [{f.window(s).low}, {f.window(s).high}]"
        )


# ----------------------------------------------------------------------
# Substitutions.  Each routine eliminates one formal variable s of f by
# enumerating its slices; the enumeration cutoffs are justified against
# the result boxes, and bands are widened wherever slices beyond the
# cutoff could contribute support the boxes do not see.


def substitute_valuation(
    f: Series,
    s: str,
    t: str,
    unit_fn: "Callable[[int], Mapping[int, Fraction]]",
    t_cap: int,
) -> Series:
    """Substitute s = t * unit(t).

    ``unit_fn(order)`` must return the coefficients of an invertible
    power series in the fresh variable t, complete up to ``order``; a
    callable is required because negative slices of f need the unit to
    more t-orders than t_cap itself.  The slice s^a contributes from
    t^a upward, so slices above t_cap fall outside the t box entirely.
    """
    if t in f.variables:
        raise VariableMismatchError(f"target variable {t!r} already present")
    if not unit_fn(0).get(0):
        raise ValueError("unit part must have nonzero constant term")
    if _vanishes(f):
        return Series.zero(sorted(set(f.variables) - {s} | {t}))
    w = f.window(s)
    if w.support_low == NEG_INF:
        raise IllDefinedProductError(
            f"unbounded negative powers of {s!r} cannot be substituted"
        )
    a_min = int(w.support_low)
    if a_min > t_cap:
        # every slice lands above the t box: zero there, support beyond
        wins = [ww for ww in f.windows() if ww.name != s]
        wins.append(VarWindow(t, NEG_INF, t_cap, a_min, POS_INF))
        return Series(sorted(wins, key=lambda ww: ww.name), {})
    _require_known_slices(f, s, a_min, t_cap)
    # the most negative slice needs the deepest unit expansion
    unit = unit_fn(t_cap - a_min)
    terms = []
    for a in range(a_min, t_cap + 1):
        up = u_pow(unit, a, t_cap - a)
        rep = Series(
            [VarWindow(t, NEG_INF, t_cap, a, POS_INF)],
            {(a + j,): c for j, c in up.items() if c},
        )
        terms.append(mul(f.slice_at(s, a), rep))
    return aligned_sum(terms)


def subst_monomial(f: Series, s: str, v: str, cap: int) -> Series:
    """Substitute s = v and cap the box of v at ``cap``.

    v may already occur in f.  The slice s^k shifts v by k, so with
    ``floor`` the lowest exponent of v in f, slices above cap - floor lie
    above the capped box; they are omitted, and the band of v is widened
    upward to cover what they would add.
    """
    if _vanishes(f):
        return Series.zero(sorted(set(f.variables) - {s} | {v}))
    w = f.window(s)
    if w.support_low == NEG_INF:
        raise IllDefinedProductError(
            f"unbounded negative powers of {s!r} cannot be substituted"
        )
    floor = _band_floor(f, v)
    if floor == NEG_INF:
        raise IllDefinedProductError(
            f"unbounded negative powers of {v!r} leave the slices of {s!r} uncut"
        )
    k_min = int(w.support_low)
    k_hi = int(min(cap - floor, w.support_high))
    if k_min > k_hi:
        raise WindowInsufficientError("caps exclude every slice of the input")
    _require_known_slices(f, s, k_min, k_hi)
    terms = []
    for k in range(k_min, k_hi + 1):
        sl = f.slice_at(s, k)
        if v not in sl.variables:
            sl = sl.with_variables([v])
        terms.append(sl.shift(v, k))
    out = aligned_sum(terms).restrict({v: (NEG_INF, cap)})
    if w.support_high > k_hi:
        out = widen_band(out, v, floor + k_min, POS_INF)
    return out


def _compositions(k: int, caps: "Sequence[int]") -> "Iterable[tuple[int, ...]]":
    """All tuples of nonnegative integers summing to k whose entry i is
    at most caps[i]."""
    if not caps:
        if k == 0:
            yield ()
        return
    for first in range(min(k, caps[0]) + 1):
        for rest in _compositions(k - first, caps[1:]):
            yield (first,) + rest


def subst_taylor_linear(
    f: Series,
    s: str,
    base: str,
    parts: "Sequence[tuple[int, str]]",
    caps: Mapping[str, int],
) -> Series:
    """Substitute s = base + sum(coeff*var), Taylor-expanding around base.

    Slices may be Laurent: s^a maps to sum_j binom(a, j) base^(a-j) P^j
    with P the linear part.  base and the part variables must be fresh.
    The truncation j <= sum(caps) is complete inside the capped part
    boxes, and unknown slices above the s box cap the base box.  Terms
    outside that result box are never kept: no part exponent above its
    cap is formed, and each slice product is clipped to the box and
    added to the running sum as it is built.
    """
    fresh = [base] + [v for _, v in parts]
    if len(set(fresh)) != len(fresh):
        raise VariableMismatchError("substitution variables must be distinct")
    for v in fresh:
        if v in f.variables:
            raise VariableMismatchError(f"substitution variable {v!r} not fresh")
    names_out = sorted(set(f.variables) - {s} | set(fresh))
    if _vanishes(f):
        return Series.zero(names_out)
    w = f.window(s)
    if w.support_low == NEG_INF:
        raise IllDefinedProductError(
            f"unbounded negative powers of {s!r} cannot be substituted"
        )
    j_cap = sum(caps[v] for _, v in parts)
    a_lo = int(w.support_low)
    complete = w.support_high <= w.high
    if complete:
        if w.support_high == POS_INF:
            raise IllDefinedProductError(f"infinitely many slices of {s!r}")
        a_hi = int(w.support_high)
    else:
        if w.high == POS_INF:
            raise IllDefinedProductError(f"infinitely many unknown slices of {s!r}")
        a_hi = int(w.high)
    if a_lo > a_hi:
        raise WindowInsufficientError("the s box excludes every slice of the input")
    _require_known_slices(f, s, a_lo, a_hi)
    box: "dict[str, tuple[int | float, int | float]]" = {
        v: (NEG_INF, caps[v]) for _, v in parts
    }
    if not complete:
        box[base] = (NEG_INF, a_hi - j_cap)
    part_caps = [caps[v] for _, v in parts]
    perm = sorted(range(len(fresh)), key=lambda i: fresh[i])
    wins = [VarWindow(fresh[i], NEG_INF, POS_INF) for i in perm]
    out = None
    for a in range(a_lo, a_hi + 1):
        data: "dict[tuple[int, ...], Fraction]" = {}
        for j in range(j_cap + 1):
            cj = binom(a, j)
            if not cj:
                continue
            jfact = math.factorial(j)
            for js in _compositions(j, part_caps):
                c = cj * jfact
                for jj in js:
                    c /= math.factorial(jj)
                for (coeff, _), jj in zip(parts, js):
                    c *= Fraction(coeff) ** jj
                if c:
                    full = (a - j,) + tuple(js)
                    key = tuple(full[i] for i in perm)
                    prev = data.get(key, 0) + c
                    if prev:
                        data[key] = prev
                    elif key in data:
                        del data[key]
        prod = mul(f.slice_at(s, a), Series(wins, data), clip=box)
        out = prod if out is None else out + prod
    out = out.restrict(box)  # a provably zero slice product skips the clip
    for _, v in parts:
        out = widen_band(out, v, 0, POS_INF)
    out = widen_band(out, base, NEG_INF, a_hi if complete else POS_INF)
    return out


def taylor_shift(f: Series, var: str, t: str, sign: int, t_cap: int) -> Series:
    """Replace var by var + sign*t (fresh t): formal exp(sign*t*d/dvar).

    Negative powers of var expand by the binomial convention in
    nonnegative powers of t, truncated at t_cap."""
    if t in f.variables:
        raise VariableMismatchError(f"shift variable {t!r} already present")
    if _vanishes(f):
        return Series.zero(sorted(set(f.variables) | {t}))
    tmp = "__shift_src"
    g = f.rename({var: tmp})
    return subst_taylor_linear(g, tmp, var, [(sign, t)], {t: t_cap})


# ----------------------------------------------------------------------
# Pinned delta-kernel products.  These kernels carry support along a
# full diagonal line, so the per-variable window calculus cannot see
# their internal correlation; instead every lattice piece is a fully
# known monomial, and multiplying f by it only translates exponents.


def delta_product(
    f: Series,
    out_var: str,
    pos_var: str,
    neg_var: str,
    box: Mapping[str, "tuple[int, int]"],
    n_sign: int = 1,
) -> Series:
    """f times sum_n n_sign^n (pos - neg)^n out^(-n-1), each difference
    power expanded in nonnegative powers of neg_var.

    The variables of f must be among out_var, pos_var and neg_var
    (:class:`VariableMismatchError` otherwise), ``box`` must give each
    of them a range with integer ends (ValueError otherwise), and one of
    out_var / pos_var must be absent from f so the kernel index is
    pinned by that box.  The result has exactly the three kernel
    variables, box ``box[nm]`` and band (-inf, +inf) in each.

    The kernel piece (n, k) is the fully known monomial
    c x_out^(-n-1) x_pos^(n-k) x_neg^k, c = C(n, k) (-1)^k n_sign^n, so
    its product with f translates every stored exponent of f and scales
    its value.  One pass adds c*val at every translated key inside the
    box to one dict and drops zeros once at the end.  It equals the sum
    over pieces of ``mul(piece, f, clip=box)`` widened to full bands in
    the three variables, windows included:

    * data: each clipped product keeps exactly the translated terms
      inside the box, every product and the sum share the box, so the
      sum keeps them all; values add exactly, so the order is free;
    * boxes: every product's box is its clip ``box[nm]``, and sums of
      equal boxes and band widening keep it;
    * bands: widening to (-inf, +inf) gives the full band whatever band
      the sum had.  A full band around a finite box escapes it on both
      sides, and normalization keeps every part of a band outside the
      box, so later normalizations leave it full.  After the third
      widening all three bands are full.

    Before the data pass each piece's windows go through the same check
    as ``mul(piece, f, clip=box)``, variable by variable in piece
    order, so an input box too small for the requested box raises the
    same :class:`WindowInsufficientError` (or
    :class:`IllDefinedProductError`) at the same piece.  A check that
    passed is not repeated: it depends only on the variable and the
    piece's exponent in it.  A provably vanishing f skips the checks and
    gives the zero series, as ``mul`` does.
    """
    kernel_vars = (out_var, pos_var, neg_var)
    for nm in kernel_vars:
        if nm not in box:
            raise ValueError(f"kernel variable {nm!r} needs a box entry")
        if not all(isinstance(b, int) and not isinstance(b, bool) for b in box[nm]):
            raise ValueError(f"box of kernel variable {nm!r} needs integer ends")
    fvars = set(f.variables)
    if not fvars <= set(kernel_vars):
        raise VariableMismatchError(
            f"delta_product input in {f.variables} has variables outside "
            f"the kernel variables {kernel_vars}"
        )
    out_lo, out_hi = box[out_var]
    pos_lo, pos_hi = box[pos_var]
    neg_hi = box[neg_var][1]
    neg_floor = _band_floor(f, neg_var)
    pos_floor = _band_floor(f, pos_var)
    if neg_floor == NEG_INF or pos_floor == NEG_INF:
        raise IllDefinedProductError(
            "kernel factors need inputs bounded below in the paired variables"
        )
    k_cap = neg_hi - int(min(neg_floor, neg_hi))
    if out_var not in fvars:
        n_lo, n_hi = -out_hi - 1, -out_lo - 1
    elif pos_var not in fvars:
        n_lo, n_hi = pos_lo, pos_hi + k_cap
    else:
        raise ValueError(
            "either the residue variable or the positive variable must be "
            "absent from the input to pin the kernel index"
        )
    names = tuple(sorted(kernel_vars))
    # each piece as (c, exponent shift aligned with names)
    pieces = []
    for n in range(n_lo, n_hi + 1):
        k_hi_n = min(k_cap, n) if n >= 0 else k_cap
        k_lo_n = max(0, n - (pos_hi - int(min(pos_floor, pos_hi))))
        for k in range(k_lo_n, k_hi_n + 1):
            c = binom(n, k) * (-1) ** k * Fraction(n_sign) ** n
            if c:
                shift = {out_var: -n - 1, pos_var: n - k, neg_var: k}
                pieces.append((c, tuple(shift[nm] for nm in names)))
    if not pieces:
        raise ValueError("empty kernel range; widen the requested box")
    if _vanishes(f):
        return Series.zero(names)
    fwins = [f.window(nm) if nm in fvars else _const_window(nm) for nm in names]
    checked = set()
    for _, shift in pieces:
        for nm, e, fw in zip(names, shift, fwins):
            if (nm, e) not in checked:
                piece_win = VarWindow(nm, NEG_INF, POS_INF, e, e)
                _clipped_mul_window(nm, piece_win, fw, box[nm])
                checked.add((nm, e))
    at = [names.index(nm) for nm in f.variables]
    fterms = []
    for exps, val in f.terms():
        full = [0, 0, 0]
        for i, e in zip(at, exps):
            full[i] = e
        fterms.append((full[0], full[1], full[2], val))
    (lo0, hi0), (lo1, hi1), (lo2, hi2) = (box[nm] for nm in names)
    acc: "dict[tuple[int, int, int], Any]" = {}
    for c, (d0, d1, d2) in pieces:
        for e0, e1, e2, val in fterms:
            a0, a1, a2 = e0 + d0, e1 + d1, e2 + d2
            if lo0 <= a0 <= hi0 and lo1 <= a1 <= hi1 and lo2 <= a2 <= hi2:
                key = (a0, a1, a2)
                v = _value_mul(c, val)
                prev = acc.get(key)
                acc[key] = v if prev is None else prev + v
    data = {key: val for key, val in acc.items() if val}
    return Series._raw(tuple(VarWindow(nm, *box[nm]) for nm in names), data)


# ----------------------------------------------------------------------
# Regularized geometric kernel


def inv_one_minus_exp(y_pos: str, y_neg: str, order: int) -> Series:
    """Laurent expansion of 1/(1 - exp(y_neg - y_pos)) near the diagonal.

    Written as sum_k g_k (y_pos - y_neg)^(k-1) with g the Todd
    coefficients; the k = 0 pole is expanded in nonnegative powers of
    y_neg.  Complete on the box y_pos in [-1-order, order], y_neg up to
    order.
    """
    g = todd_coeffs(2 * order + 1)
    terms = [binomial_difference(y_pos, y_neg, -1, order).scale(g[0])]
    for k in range(1, 2 * order + 2):
        if g[k]:
            terms.append(binomial_difference(y_pos, y_neg, k - 1).scale(g[k]))
    out = aligned_sum(terms)
    out = out.restrict({y_pos: (NEG_INF, order), y_neg: (NEG_INF, order)})
    out = widen_band(out, y_pos, NEG_INF, POS_INF)
    out = widen_band(out, y_neg, 0, POS_INF)
    return out


# ----------------------------------------------------------------------
# Residue invariance under change of variable


def residue_change_check(
    laurent: Mapping[int, Fraction], unit: Mapping[int, Fraction]
) -> bool:
    """Exact check that the residue of a Laurent polynomial is preserved
    by substituting x = y*unit(y) and multiplying by the derivative.

    ``unit`` must be invertible (nonzero constant term)."""
    if not unit.get(0):
        raise ValueError("change of variable must have nonzero leading coefficient")
    lhs = laurent.get(-1, Fraction(0))
    total = Fraction(0)
    fp = {k: (k + 1) * c for k, c in unit.items()}  # (y*unit)' shifted by y^-k
    for a, c in laurent.items():
        if not c or a >= 0:
            continue
        need = -1 - a
        comp = u_mul(u_pow(unit, a, need), fp, need)
        total += c * comp.get(need, Fraction(0))
    return total == lhs

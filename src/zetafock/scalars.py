"""Exact univariate power-series kernels on plain dicts.

Truncated products, inverses and powers of power series in one
variable, stored as {exponent: Fraction}, and the named coefficient
tables built from them: binomial coefficients, (exp(t) - 1)/t, the
Bernoulli numbers and the Todd coefficients of t/(1 - exp(-t)).  The
residue-invariance check under a change of variable closes the module.

These are the only series kernels the catalog checks run; the windowed
multi-variable ring (``series``, ``calculus``) is not imported here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

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

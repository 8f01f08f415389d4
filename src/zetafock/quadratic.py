"""Zeta-regularized quadratic mode operators and their bracket checks.

The operators here are the weighted quadratic sums

    Q(n) = (1/2) sum_j : j^{r1} h(j) (n-j)^{r2} h(n-j) :

acting on the free-boson Fock space, together with their regularized
variants: at mode zero with r1 = r2 = r the divergent constant is
assigned its zeta value and the operator gains (-1)^r (1/2) zeta(-2r-1)
times the identity.  For r = 0 these are the Virasoro modes and their
shift by -1/24.

The checks verify, coefficient by coefficient on explicit windows and
on every partition basis state up to a weight cap:

* the Virasoro bracket with central term (m^3 - m)/12,
* the shifted bracket whose central term is the pure monomial m^3/12,
* extraction of the identity component of mixed brackets of higher
  regularized operators (central_term / pure_monomial_check),
* the Wick rule splitting a product of two mode generating functions
  into its normal-ordered part and a geometric contraction kernel,
* the commutator identity for dilated quadratic generating functions
  (check id THEOREM1), whose right side combines dilation-shifted
  operators with an entire scalar kernel left over from regularization.

All arithmetic is exact; failures are reported, never tolerated.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from operator import mul
from typing import Iterable

from .fock import _PARTS, FockVector, basis_up_to, h_apply, partitions_of
from .reports import mismatch_entry, note_diff
from .scalars import bernoulli_list, binom, todd_coeffs, u_mul

F = Fraction

__all__ = [
    "bernoulli",
    "zeta_neg",
    "reg_constant",
    "pair_apply",
    "quad_apply",
    "l_mode",
    "lbar_mode",
    "lbar_r",
    "gen_quadratic_coeff",
    "mixed_reg_constant",
    "mode_bracket_diffs",
    "virasoro_central",
    "modvir_central",
    "central_term",
    "pure_monomial_check",
    "wick_diffs",
    "theorem1_diffs",
    "dilated_bracket_lhs",
]


# ----------------------------------------------------------------------
# Exact Bernoulli / zeta input data


@lru_cache(maxsize=None)
def _bernoulli_row(n: int) -> tuple[Fraction, ...]:
    return tuple(bernoulli_list(n))


def bernoulli(k: int) -> Fraction:
    """B_k with the B_1 = -1/2 convention, by inversion of (e^x - 1)/x."""
    if k < 0:
        raise ValueError("Bernoulli index must be nonnegative")
    return _bernoulli_row(k)[k]


def zeta_neg(k: int) -> Fraction:
    """zeta(-k+1) = -B_k / k, defined here for k >= 2 only.

    k = 1 is rejected: the B_1 sign convention would give +1/2 where the
    analytic value of zeta(0) is -1/2, so mode-zero regularization never
    consults this function at k = 1."""
    if k < 2:
        raise ValueError("zeta_neg needs k >= 2")
    return -bernoulli(k) / k


def reg_constant(r: int) -> Fraction:
    """Identity coefficient added at mode zero: (-1)^r (1/2) zeta(-2r-1)."""
    if r < 0:
        raise ValueError("order must be nonnegative")
    return F((-1) ** r, 2) * zeta_neg(2 * r + 2)


# ----------------------------------------------------------------------
# Normal-ordered quadratic application


@lru_cache(maxsize=None)
def _pair_on_basis(j: int, k: int, parts: tuple[int, ...]) -> FockVector:
    """:h(j)h(k): applied to one basis state; larger mode index acts first."""
    if j < k:
        j, k = k, j
    return h_apply(k, h_apply(j, FockVector.basis(parts)))


def pair_apply(j: int, k: int, v: FockVector) -> FockVector:
    """Normal-ordered pair :h(j)h(k): on an arbitrary vector."""
    if j < k:
        j, k = k, j
    # h_apply gives a basis state integral coefficients, so every
    # _pair_on_basis image has denominator 1 and v's denominator carries over
    acc: dict[tuple[int, ...], int] = {}
    for parts, c in v._num.items():
        for p2, c2 in _pair_on_basis(j, k, parts)._num.items():
            acc[p2] = acc.get(p2, 0) + c * c2
    return FockVector.from_ints({p: x for p, x in acc.items() if x}, v._den)


def _h_on_parts(m: int, parts: tuple[int, ...]) -> "tuple[tuple[int, ...], int] | None":
    """h(m), m nonzero, on one basis state by the rule of fock.h_apply:
    the image state and its integer factor, or None when h(m)
    annihilates the state."""
    if m < 0:
        return tuple(sorted(parts + (-m,), reverse=True)), 1
    count = parts.count(m)
    if not count:
        return None
    i = parts.index(m)
    return parts[:i] + parts[i + 1 :], m * count


@lru_cache(maxsize=None)
def _quad_on_basis(
    r_left: int, r_right: int, n: int, parts: tuple[int, ...]
) -> "tuple[tuple[tuple[int, ...], int], ...]":
    """Twice the unregularized quadratic operator on one basis state.

    Returns the image sum_j j^r_left (n-j)^r_right :h(j)h(n-j): |parts>
    as (partition, integer coefficient) pairs with zeros dropped.  Each
    h(m) sends a basis state to at most one basis state, so a pair term
    is one step, and only the j that can act are visited:

    * j in parts, or j = n - p with p in parts;
    * j in (n, 0) when n < 0.

    No nonzero term is lost.  Take j, k = n - j, both nonzero; the larger
    of the two acts first.  If j > 0, h(j) annihilates, and a nonzero term
    needs j in parts (if k > j, k acts first and leaves j among the
    remaining parts, still a part of parts).  If j < 0 and k > 0, h(k)
    acts first and needs k in parts, so j = n - k is a candidate.  If
    both are negative, both create, the term is never zero, and n < j < 0.
    Every candidate has |j| <= weight + |n|, so the full mode sum over
    that window adds exactly the same nonzero terms."""
    cands = set(parts)
    cands.update(n - p for p in parts)
    if n < 0:
        cands.update(range(n + 1, 0))
    acc: dict[tuple[int, ...], int] = {}
    for j in cands:
        k = n - j
        if j == 0 or k == 0:
            continue
        hi, lo = (j, k) if j >= k else (k, j)
        first = _h_on_parts(hi, parts)
        if first is None:
            continue
        second = _h_on_parts(lo, first[0])
        if second is None:
            continue
        p2 = second[0]
        acc[p2] = acc.get(p2, 0) + j**r_left * k**r_right * first[1] * second[1]
    return tuple((_PARTS.setdefault(p, p), x) for p, x in acc.items() if x)


def quad_apply(
    r_left: int, r_right: int, n: int, v: FockVector, regularized: bool = False
) -> FockVector:
    """Exact image of v under (1/2) sum_j j^r_left (n-j)^r_right :h(j)h(n-j):.

    r_left and r_right are the polynomial weights on the two mode
    indices; they coincide for the named graded operators and differ
    only for generating-function coefficients.  Per basis component the mode sum visits only the j for which
    :h(j)h(n-j): can act (the parts, n minus a part, and the two-creator
    range n < j < 0); `_quad_on_basis` shows that every other term
    annihilates.  Coefficients are summed as integer numerators over
    twice the denominator of v.  The regularizing constant enters only at
    n = 0 with r_left = r_right."""
    acc: dict[tuple[int, ...], int] = {}
    for parts, s in v._num.items():
        for p2, x in _quad_on_basis(r_left, r_right, n, parts):
            acc[p2] = acc.get(p2, 0) + s * x
    out = FockVector.from_ints({p: x for p, x in acc.items() if x}, 2 * v._den)
    if regularized and n == 0 and r_left == r_right:
        out = out + v.scaled(reg_constant(r_left))
    return out


def l_mode(n: int, v: FockVector) -> FockVector:
    """Virasoro mode L(n)."""
    return quad_apply(0, 0, n, v)


def lbar_mode(n: int, v: FockVector) -> FockVector:
    """Shifted Virasoro mode: L(n) for n != 0, L(0) - 1/24 at n = 0."""
    return quad_apply(0, 0, n, v, True)


def lbar_r(r: int, n: int, v: FockVector) -> FockVector:
    """Regularized graded operator of order r at mode n."""
    return quad_apply(r, r, n, v, True)


# ----------------------------------------------------------------------
# Generating-function coefficients

_fact = math.factorial


@lru_cache(maxsize=None)
def mixed_reg_constant(a: int, b: int) -> Fraction:
    """Identity part of the order-(a, b) generating coefficient at mode 0.

    Coefficient of y1^a y2^b in -(1/2) d/dy1 of the contraction kernel
    1/(1 - e^(y2 - y1)).  The kernel's pole contributes only negative
    powers of y1, so for a, b >= 0 a single Taylor coefficient of the
    derivative of t/(1 - e^-t) remains."""
    if a < 0 or b < 0:
        raise ValueError("orders must be nonnegative")
    m = a + b
    G = todd_coeffs(m + 2)
    return -F(1, 2) * (m + 1) * G[m + 2] * binom(m, b) * (-1) ** b


def gen_quadratic_coeff(
    a: int, b: int, n: int, v: FockVector, regularized: bool = False
) -> FockVector:
    """Coefficient of y1^a y2^b x^(-n) of the dilated quadratic field on v.

    Equals (1/2) sum over j+k=n of (-j)^a (-k)^b / (a! b!) :h(j)h(k): v,
    plus the mixed regularizing constant at n = 0 when requested."""
    if a < 0 or b < 0:
        raise ValueError("orders must be nonnegative")
    sign = F((-1) ** (a + b), _fact(a) * _fact(b))
    out = quad_apply(a, b, n, v).scaled(sign)
    if regularized and n == 0:
        out = out + v.scaled(mixed_reg_constant(a, b))
    return out


# ----------------------------------------------------------------------
# Bracket checks on the mode level


def mode_bracket_diffs(mismatches: list, R: int, W: int, mode, central) -> None:
    """[mode(m), mode(n)] = (m-n) mode(m+n) + central(m) delta_{m+n,0} for
    m, n in [-R, R] on every basis state of weight <= W.  Per state v, each
    mode(k, v) and mode(m, mode(n, v)) is computed once; mismatches are
    listed pair by pair in (m, n) order, prefixed by [m, n]."""
    grid = [(m, n) for m in range(-R, R + 1) for n in range(-R, R + 1)]
    per_pair: dict = {mn: [] for mn in grid}
    for v in basis_up_to(W):
        single = {k: mode(k, v) for k in range(-2 * R, 2 * R + 1)}
        double = {(m, n): mode(m, single[n]) for m, n in grid}
        for m, n in grid:
            rhs = single[m + n].scaled(m - n)
            if m + n == 0:
                rhs = rhs + v.scaled(central(m))
            note_diff(per_pair[m, n], [m, n], double[m, n] - double[n, m], rhs, v)
    mismatches.extend(itertools.chain(*per_pair.values()))


def virasoro_central(m: int) -> Fraction:
    """Central term (m^3 - m)/12 of the Virasoro bracket."""
    return F(m**3 - m, 12)


def modvir_central(m: int) -> Fraction:
    """Central term m^3/12 of the bracket of the shifted modes."""
    return F(m**3, 12)


# ----------------------------------------------------------------------
# Identity-component extraction for mixed regularized brackets


def _solve_exact(
    rows: "list[list[Fraction]]", rhs: "list[Fraction]"
) -> "list[Fraction] | None":
    """Solve an overdetermined rational system exactly.

    Returns a solution satisfying every row, or None when the rows are
    inconsistent.  Raises if the system leaves a free direction: the
    caller needs a unique answer."""
    if not rows:
        raise ValueError("no equations")
    ncols = len(rows[0])
    aug = [row[:] + [val] for row, val in zip(rows, rhs)]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(aug)) if aug[i][col]), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        lead = aug[r][col]
        aug[r] = [x / lead for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(col)
        r += 1
        if r == len(aug):
            break
    for i in range(r, len(aug)):
        if aug[i][ncols]:
            return None
    if len(pivots) < ncols:
        raise ValueError("system is underdetermined; raise the weight cap")
    sol = [F(0)] * ncols
    for i, col in enumerate(pivots):
        sol[col] = aug[i][ncols]
    return sol


def _diag_eigenvalue(t: int, parts: tuple[int, ...]) -> Fraction:
    """Eigenvalue of the order-t regularized operator at mode 0."""
    return (-1) ** t * sum(p ** (2 * t + 1) for p in parts) + reg_constant(t)


@lru_cache(maxsize=None)
def _eigen_rows(
    T: int, W: int
) -> "tuple[tuple[tuple[int, ...], tuple[Fraction, ...], tuple[int, ...]], ...]":
    """(parts, eigenvalue row of orders 0..T, integer row) for every basis
    state of weight <= W, in weight order; shared by every (r, s, m) with
    r + s = T.  The integer row is the eigenvalue row with a trailing 1 for
    the identity, times the common denominator of all rows, so its last
    entry is that denominator."""
    eigs = [
        (parts, tuple(_diag_eigenvalue(t, parts) for t in range(T + 1)))
        for w in range(W + 1)
        for parts in partitions_of(w)
    ]
    den = math.lcm(*[e.denominator for _, eig in eigs for e in eig])
    return tuple(
        (parts, eig, tuple(e.numerator * (den // e.denominator) for e in eig) + (den,))
        for parts, eig in eigs
    )


@lru_cache(maxsize=None)
def _fit_inverse(
    T: int, W: int
) -> "tuple[tuple[int, ...], tuple[tuple[Fraction, ...], ...]] | None":
    """The fitting system of central_term reduced once per (T, W).

    Its rows are the non-vacuum eigenvalue rows with a trailing 1 for the
    identity.  Returns the indices of the first rows that are linearly
    independent, one per unknown, and the inverse of that square block;
    None when the rows leave a free direction.  With full column rank a
    solution of the whole system, if any, is the block's solution."""
    rows = [list(eig) + [F(1)] for parts, eig, _ in _eigen_rows(T, W) if parts]
    ncols = T + 2
    picked: list[int] = []
    reduced: list[tuple[int, list[Fraction]]] = []
    for i, row in enumerate(rows):
        red = list(row)
        for col, base in reduced:
            if red[col]:
                f = red[col]
                red = [x - f * y for x, y in zip(red, base)]
        col = next((c for c, x in enumerate(red) if x), None)
        if col is None:
            continue
        reduced.append((col, [x / red[col] for x in red]))
        picked.append(i)
        if len(picked) == ncols:
            break
    if len(picked) < ncols:
        return None
    block = [rows[i] for i in picked]
    unit = [[F(int(i == k)) for i in range(ncols)] for k in range(ncols)]
    columns = [_solve_exact(block, e) for e in unit]
    inverse = tuple(tuple(columns[k][r] for k in range(ncols)) for r in range(ncols))
    return tuple(picked), inverse


def central_term(r: int, s: int, m: int, W: "int | None" = None) -> Fraction:
    """Identity coefficient of the bracket of regularized operators.

    Computes [Q_r(m), Q_s(-m)] on every basis state of weight <= W,
    fits the unique diagonal combination of mode-zero regularized
    operators of orders 0..r+s plus a multiple of the identity that
    reproduces the action on all non-vacuum states, verifies the fit
    on the whole basis including the vacuum, and returns the identity
    coefficient.  Inconsistency at this W raises ValueError.

    The fitting rows depend on T = r + s and W only, so they and their
    elimination are cached (_eigen_rows, _fit_inverse); a system without
    full column rank goes through _solve_exact, which reports it.  Both
    checks read each state's diagonal value, one integer dot product."""
    if m == 0:
        raise ValueError("mode must be nonzero")
    if W is None:
        W = 2 * r + 2 * s + 4
    T = r + s
    states = _eigen_rows(T, W)
    kvs = []
    for parts, _, _ in states:
        v = FockVector.basis(parts)
        kvs.append(lbar_r(r, m, lbar_r(s, -m, v)) - lbar_r(s, -m, lbar_r(r, m, v)))
    vals = [F(kv._num.get(parts, 0), kv._den) for (parts, _, _), kv in zip(states, kvs) if parts]
    fit = _fit_inverse(T, W)
    if fit is None:
        # fewer than T + 2 independent rows: _solve_exact raises, or
        # returns None when the rows are inconsistent
        sol = _solve_exact([list(eig) + [F(1)] for parts, eig, _ in states if parts], vals)
    else:
        picked, inverse = fit
        sol = [sum((c * vals[i] for c, i in zip(row, picked)), F(0)) for row in inverse]
    if sol is not None:
        # a state's diagonal value is sum(C * ints) / (den * ints[-1])
        den = math.lcm(*[x.denominator for x in sol])
        C = [x.numerator * (den // x.denominator) for x in sol]
        agree = [
            kv._num.get(parts, 0) * den * ints[-1] == sum(map(mul, C, ints)) * kv._den
            for (parts, _, ints), kv in zip(states, kvs)
        ]
    if sol is None or not all(ok for (parts, _, _), ok in zip(states, agree) if parts):
        raise ValueError("identity-part extraction is inconsistent at this weight cap")
    if not all(agree) or any(kv._num.keys() - {parts} for (parts, _, _), kv in zip(states, kvs)):
        raise ValueError("bracket is not a diagonal combination plus identity at this weight cap")
    return sol[-1]


def pure_monomial_check(
    r: int, s: int, ms: Iterable[int], W: "int | None" = None
) -> "tuple[bool, list[tuple[int, Fraction]]]":
    """Whether central_term(r, s, m) / m^(2r+2s+3) is constant over ms."""
    values = [(m, central_term(r, s, m, W)) for m in ms]
    ratios = {lam / F(m) ** (2 * r + 2 * s + 3) for m, lam in values}
    return len(ratios) <= 1, values


# ----------------------------------------------------------------------
# Wick splitting of a product of two generating functions


def _dilated_geometric(N: int, y_order: int) -> "dict[tuple[int, int, int, int], Fraction]":
    """sum over k >= 0 of (e^(y2-y1) x2/x1)^k, keyed by (x1, x2, y1, y2)
    exponents, on x1 in [-N, 0], x2 in [0, N] and y1, y2 in [0, y_order];
    an absent cell is zero."""
    data: dict[tuple[int, int, int, int], Fraction] = {}
    for k in range(N + 1):
        for c in range(y_order + 1):
            for d in range(y_order + 1):
                val = F((-k) ** c * k**d, _fact(c) * _fact(d))
                if val:
                    data[(-k, k, c, d)] = val
    return data


def _kernel_mismatches(geo, N: int, y_order: int) -> list:
    """(cell, lhs, rhs) wherever x2 d/dx2 of the kernel table geo (see
    _dilated_geometric) differs from -d/dy1 of it, on x1 in [-N, 0], x2 in
    [0, N], y1 in [0, y_order - 1] and y2 in [0, y_order], the cells where
    both are known, walked row-major over (x1, x2, y1, y2), the order of
    series' box comparison."""
    out = []
    for cell in itertools.product(range(-N, 1), range(N + 1), range(y_order), range(y_order + 1)):
        x1, x2, y1, y2 = cell
        lhs = x2 * geo.get(cell, 0)
        rhs = -(y1 + 1) * geo.get((x1, x2, y1 + 1, y2), 0)
        if lhs != rhs:
            out.append((cell, lhs, rhs))
    return out


def wick_diffs(params: dict, mismatches: list) -> None:
    """Product of two mode generating functions vs normal order + kernel.

    Checks, on every basis state of weight <= W and all mode exponents
    with absolute value <= N: the x1^(-a) x2^(-b) coefficient of the
    product equals the normal-ordered coefficient plus the contraction
    a * delta_{b,-a} [a > 0] times the identity; the dilated variant
    carries the factor (-a)^c (-b)^d / (c! d!) on both sides and the
    kernel e^(k(y2-y1)) on the contraction.  Also checks the kernel
    identities: applying x2 d/dx2 to the dilated geometric series
    agrees with applying -d/dy1."""
    N, W, y_order = params["x-window"], params["weight-cap"], params["y-order"]
    for cell, va, vb in _kernel_mismatches(_dilated_geometric(N, y_order), N, y_order):
        mismatches.append(mismatch_entry(list(cell), va, vb, FockVector.vacuum()))

    for v in basis_up_to(W):
        for a in range(-N, N + 1):
            for b in range(-N, N + 1):
                if a == 0 or b == 0:
                    continue
                plain_lhs = h_apply(a, h_apply(b, v))
                pair = pair_apply(a, b, v)
                contraction = a if (a > 0 and b == -a) else 0
                plain_rhs = pair + v.scaled(contraction)
                for c in range(y_order + 1):
                    for d in range(y_order + 1):
                        factor = F((-a) ** c * (-b) ** d, _fact(c) * _fact(d))
                        lhs = plain_lhs.scaled(factor)
                        rhs = pair.scaled(factor)
                        if contraction:
                            # at b = -a the kernel factor matches the
                            # operator dilation factor exactly
                            rhs = rhs + v.scaled(
                                F(contraction * (-a) ** c * a**d, _fact(c) * _fact(d))
                            )
                        note_diff(mismatches, [-a, -b, c, d], lhs, rhs, v)
                note_diff(mismatches, [-a, -b], plain_lhs, plain_rhs, v)


# ----------------------------------------------------------------------
# The dilated-bracket identity (THEOREM1)
#
# Both sides are assembled coefficientwise from closed forms.  The
# operator sectors of both sides are integer numerators over the shared
# denominator 4 a1! a2! a3! a4!, weighted by one loop (_add_weighted).
# The scalar sector is the multinomial expansion of the entire kernel
#   Phi_n(u) = g''(u)(e^(nu) - 1) + n g'(u)(1 + e^(nu)),
# g(u) = 1/(1 - e^(-u)), whose pole parts cancel identically.


def _phi_coeffs(n: int, order: int) -> "list[Fraction]":
    """Taylor coefficients 0..order of Phi_n; raises if a pole survives.

    g(u) = sum over k of G_k u^(k-1), G_k the Todd coefficients, so g'
    and g'' start at u^-2 and u^-3, and these truncations reach every
    product term at or below u^order."""
    G = todd_coeffs(order + 3)
    g1 = {k - 2: (k - 1) * gk for k, gk in enumerate(G)}
    g2 = {k - 3: (k - 1) * (k - 2) * gk for k, gk in enumerate(G)}
    expn = {p: F(n**p, _fact(p)) for p in range(order + 4)}
    em1 = {**expn, 0: F(0)}
    ep1 = {p: n * c for p, c in expn.items()}
    ep1[0] += n
    phi = u_mul(g2, em1, order)
    for e, c in u_mul(g1, ep1, order).items():
        phi[e] = phi.get(e, 0) + c
    bad = sorted(e for e, c in phi.items() if e < 0 and c)
    if bad:
        raise ArithmeticError(f"scalar kernel kept pole terms at orders {bad}")
    return [phi.get(e, F(0)) for e in range(order + 1)]


def _int_items(vec: FockVector) -> "list[tuple[tuple[int, ...], int]]":
    # basis states have integral matrix elements; a fractional one here
    # means the caller fed a non-basis target into the integer fast path
    if vec._den != 1:
        raise ArithmeticError("expected integral coefficients on basis states")
    return list(vec._num.items())


def _pow_over_fact(x: "tuple[int, ...]", b: "tuple[int, ...]") -> Fraction:
    """x^b / b!, the product over i of x_i^(b_i) / b_i!."""
    return F(math.prod(map(pow, x, b)), math.prod(map(_fact, b)))


def _scalar_sector(
    n: int, caps: "tuple[int, int, int, int]"
) -> "dict[tuple[int, int, int, int], Fraction]":
    """Identity-coefficient of the bracket right side at (x1^n, x2^-n).

    It is 1/4 of the sum, over the two pairs (u, e) of linear forms
    below, of Phi_n(u.y) e^(e.y) in the dilation variables y.  By the
    multinomial theorem (u.y)^p is the sum over |b| = p of
    p! (u^b / b!) y^b, so the y^a coefficient is the sum over b + c = a
    of phi_|b| |b|! (u^b / b!) (e^c / c!), read for every a <= caps."""
    phi = _phi_coeffs(n, sum(caps))
    monos = list(itertools.product(*(range(c + 1) for c in caps)))
    acc = dict.fromkeys(monos, F(0))
    for u, e in (((-1, 1, 1, -1), (n, 0, -n, 0)), ((-1, 1, -1, 1), (n, 0, 0, -n))):
        e_terms = [(c, _pow_over_fact(e, c)) for c in monos]
        e_terms = [(c, wc) for c, wc in e_terms if wc]
        for b in monos:
            wb = phi[sum(b)] * _fact(sum(b)) * _pow_over_fact(u, b)
            if not wb:
                continue
            for c, wc in e_terms:
                a = tuple(bi + ci for bi, ci in zip(b, c))
                if a in acc:  # a <= caps
                    acc[a] += wb * wc
    return {a: t / 4 for a, t in acc.items() if t}


def _add_weighted(
    block: list,
    caps: "tuple[int, int, int, int]",
    factor_sets: "Iterable[tuple[int, int, int, int]]",
    scale: int,
    vec: FockVector,
) -> None:
    """Add scale * (sum over f in factor_sets of prod_i f_i^(a_i)) * vec to
    the integer numerators block[idx] of each dilation monomial
    (a1, a2, a3, a4) <= caps, idx its row-major index.  The weights are
    summed per monomial before any dict is touched."""
    if not vec:
        return
    items = _int_items(vec)
    weights = None
    for f in factor_sets:
        w = [scale]
        for cap, x in zip(caps, f):
            powers = [x**k for k in range(cap + 1)]
            w = [wi * xk for wi in w for xk in powers]
        weights = w if weights is None else [s + t for s, t in zip(weights, w)]
    for idx, wgt in enumerate(weights):
        if wgt:
            d = block[idx]
            if d is None:
                d = block[idx] = {}
            for p, cc in items:
                d[p] = d.get(p, 0) + wgt * cc


def _dilated_lhs_blocks(
    v: FockVector, N: int, wbound: int, caps: "tuple[int, int, int, int]"
) -> dict:
    """Commutator of two dilated normal-ordered pairs applied to v.

    Returns {(e1, e2): block} keyed by the mode exponents e_i = -n_i,
    where block is a flat list over dilation monomials (a1, a2, a3, a4)
    in row-major order up to caps.  Each entry is either None or a dict
    mapping partition tuples to integer numerators; the true coefficient
    carries an implicit denominator 4 * a1! * a2! * a3! * a4!.

    wbound must dominate the weight of v; pair indices beyond
    wbound + |n1| + |n2| act as zero on both orderings.  Each pair image
    of v itself is computed once per (j, k)."""
    nmono = math.prod(c + 1 for c in caps)
    pair_on_v = lru_cache(maxsize=None)(lambda j, k: pair_apply(j, k, v))
    lhs: dict[tuple[int, int], list] = {}
    for n1 in range(-N, N + 1):
        for n2 in range(-N, N + 1):
            block = [None] * nmono
            lhs[(-n1, -n2)] = block
            jb = wbound + abs(n1) + abs(n2)
            for j2 in range(-jb, jb + 1):
                k2 = n2 - j2
                if j2 == 0 or k2 == 0:
                    continue
                cands = {-j2, -k2, n1 + j2, n1 + k2}
                inner = pair_on_v(j2, k2)
                for j1 in cands:
                    k1 = n1 - j1
                    if j1 == 0 or k1 == 0:
                        continue
                    com = pair_apply(j1, k1, inner) - pair_apply(j2, k2, pair_on_v(j1, k1))
                    _add_weighted(block, caps, [(-j1, -k1, -j2, -k2)], 1, com)
    return lhs


def _dilated_rhs_blocks(
    v: FockVector, N: int, wbound: int, caps: "tuple[int, int, int, int]"
) -> dict:
    """Operator sector of the closed bracket form applied to v, in the
    block format of _dilated_lhs_blocks (same keys, monomial order and
    implicit denominators).  wbound must dominate the weight of v.

    The pair h(jp) h(kp), kp = n2p - jp, at key (n, -n - n2p) carries
    the dilation weight -P (P^a1 Q^a2 + Q^a1 P^a2)(A^a3 B^a4 + B^a3 A^a4)
    with P = jp + n, Q = -jp, A = -P and B = -kp: the four factor sets
    (P, Q, A, B), (Q, P, A, B), (P, Q, B, A), (Q, P, B, A), scaled by -P."""
    nmono = math.prod(c + 1 for c in caps)
    rhs: dict[tuple[int, int], list] = {}
    for n in range(-N, N + 1):
        for n2p in range(-n - N, -n + N + 1):
            key = (n, -n - n2p)
            block = rhs.get(key)
            if block is None:
                block = rhs[key] = [None] * nmono
            jb = wbound + abs(n2p)
            for jp in range(-jb, jb + 1):
                kp = n2p - jp
                if jp == 0 or kp == 0 or jp + n == 0:
                    continue
                P, Q, B = jp + n, -jp, -kp
                factor_sets = ((P, Q, -P, B), (Q, P, -P, B), (P, Q, B, -P), (Q, P, B, -P))
                _add_weighted(block, caps, factor_sets, -P, pair_apply(jp, kp, v))
    return rhs


def _block_vectors(blocks: dict, caps: "tuple[int, int, int, int]") -> dict:
    """Integer blocks as {(e1, e2): {(a1, a2, a3, a4): FockVector}}, with
    the 1 / (4 * a1! * a2! * a3! * a4!) normalization folded in and zero
    entries dropped."""
    monos = list(itertools.product(*(range(c + 1) for c in caps)))
    denom = [4 * math.prod(map(_fact, mono)) for mono in monos]
    out: dict = {}
    for key, block in blocks.items():
        table: dict = {}
        for mono, den, d in zip(monos, denom, block):
            if d:
                vec = FockVector.from_ints({p: c for p, c in d.items() if c}, den)
                if vec:
                    table[mono] = vec
        if table:
            out[key] = table
    return out


def dilated_bracket_lhs(
    v: FockVector, N: int, caps: "tuple[int, int, int, int]"
) -> dict:
    """Exact dilated-pair commutator coefficients applied to v.

    Returns {(e1, e2): {(a1, a2, a3, a4): FockVector}} with the
    1 / (4 * a1! * a2! * a3! * a4!) normalization folded in and zero
    entries dropped."""
    wbound = max(map(sum, v._num), default=0)
    return _block_vectors(_dilated_lhs_blocks(v, N, wbound, caps), caps)


def theorem1_diffs(params: dict, mismatches: list) -> None:
    """Commutator of two dilated quadratic fields vs its closed bracket form.

    Verifies, for every partition basis state of weight <= weight-cap,
    every coefficient with x1 and x2 exponents in [-x-window, x-window]
    and dilation-variable orders up to y-orders.  The zero-order
    dilation slice is additionally cross-checked against the shifted
    Virasoro bracket computed by quad_apply, so a transcription error in
    either engine cannot hide; a cell failing both comparisons is listed
    twice, the second time against the mode-level bracket.

    The left side is dilated_bracket_lhs, the table SPECIALIZE reads.
    Its pair bound wt(v) <= weight-cap drops only pair terms that act as
    zero: an index beyond wt(v) + |n1| + |n2| makes one of the two pair
    modes annihilate more weight than any state it meets has.  The
    right side is the operator sector (_dilated_rhs_blocks) through the
    same block conversion, plus the scalar sector v.scaled(c) on the
    diagonal e1 + e2 = 0.  Each (e1, e2) cell of either side is
    homogeneous of weight wt(v) + e1 + e2, so note_diff lists a cell's
    partitions in (weight, parts) order, which is plain parts order."""
    caps = tuple(params["y-orders"])
    N, W = params["x-window"], params["weight-cap"]
    scalar_cache = {n: _scalar_sector(n, caps) for n in range(-N, N + 1)}

    for v in basis_up_to(W):
        lhs = dilated_bracket_lhs(v, N, caps)
        rhs = _block_vectors(_dilated_rhs_blocks(v, N, W, caps), caps)
        for n1 in range(-N, N + 1):
            for n2 in range(-N, N + 1):
                e = (-n1, -n2)
                lt, rt = lhs.get(e, {}), rhs.get(e, {})
                scal = scalar_cache[e[0]] if e[0] + e[1] == 0 else {}
                for mono in sorted(lt.keys() | rt.keys() | scal.keys()):
                    rv = rt.get(mono, FockVector.zero())
                    if mono in scal:
                        rv = rv + v.scaled(scal[mono])
                    note_diff(mismatches, e + mono, lt.get(mono), rv, v)
        # ---- zero-order slice against the mode-level bracket engine
        for n1 in range(-N, N + 1):
            for n2 in range(-N, N + 1):
                slice_vec = lhs.get((-n1, -n2), {}).get((0, 0, 0, 0))
                expect = lbar_mode(n1 + n2, v).scaled(n1 - n2)
                if n1 + n2 == 0:
                    expect = expect + v.scaled(F(n1**3, 12))
                note_diff(mismatches, [-n1, -n2, 0, 0, 0, 0], slice_vec, expect, v)

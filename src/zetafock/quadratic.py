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
  regularized operators (central_term),
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
from .reports import cell_diffs, note_diff
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


def _pair_step(j: int, k: int, parts: tuple[int, ...]) -> "tuple[tuple[int, ...], int] | None":
    """:h(j)h(k): on one basis state by the rule of fock.h_apply, the
    larger mode index acting first: the image state and its integer
    factor, or None when the pair annihilates the state.  h(m) sends a
    basis state to at most one basis state: m < 0 appends the part -m,
    and m > 0 removes one of the count copies of the part m, times
    m * count (so h(0) annihilates every state)."""
    x = 1
    for m in (j, k) if j >= k else (k, j):
        if m < 0:
            parts = tuple(sorted(parts + (-m,), reverse=True))
            continue
        count = parts.count(m)
        if not count:
            return None
        i = parts.index(m)
        parts, x = parts[:i] + parts[i + 1 :], x * m * count
    return parts, x


# the pair step per (j, k, basis state), with j >= k
_pair_on_basis = lru_cache(maxsize=None)(_pair_step)


def _pair_image(j: int, k: int, parts: tuple[int, ...]) -> "tuple[tuple[int, ...], int] | None":
    """_pair_on_basis with (j, k) in the caller's order."""
    return _pair_on_basis(j, k, parts) if j >= k else _pair_on_basis(k, j, parts)


def _pair_terms(j: int, k: int, num: "dict[tuple[int, ...], int]") -> list:
    """:h(j)h(k): on the integer combination num as (partition, int) items."""
    steps = ((_pair_image(j, k, parts), c) for parts, c in num.items())
    return [(step[0], c * step[1]) for step, c in steps if step]


def pair_apply(j: int, k: int, v: FockVector) -> FockVector:
    """Normal-ordered pair :h(j)h(k): on an arbitrary vector."""
    # distinct basis states have distinct images with integer factors, so
    # no two terms merge and v's denominator carries over
    return FockVector.from_ints(dict(_pair_terms(j, k, v._num)), v._den)


@lru_cache(maxsize=None)
def _quad_on_basis(
    r_left: int, r_right: int, n: int, parts: tuple[int, ...]
) -> "tuple[tuple[tuple[int, ...], int], ...]":
    """Twice the unregularized quadratic operator on one basis state.

    Returns the image sum_j j^r_left (n-j)^r_right :h(j)h(n-j): |parts>
    as (partition, integer coefficient) pairs with zeros dropped.  A pair
    term is one _pair_step, and only the j that can act are visited:

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
        step = _pair_step(j, k, parts)
        if step:
            p2, x = step
            acc[p2] = acc.get(p2, 0) + j**r_left * k**r_right * x
    return tuple((_PARTS.setdefault(p, p), x) for p, x in acc.items() if x)


def quad_apply(
    r_left: int, r_right: int, n: int, v: FockVector, regularized: bool = False
) -> FockVector:
    """Exact image of v under (1/2) sum_j j^r_left (n-j)^r_right :h(j)h(n-j):.

    r_left and r_right are the polynomial weights on the two mode
    indices; they coincide for the named graded operators and differ
    only for generating-function coefficients.  Per basis component the
    mode sum visits only the j for which :h(j)h(n-j): can act (the
    parts, n minus a part, and the two-creator range n < j < 0);
    `_quad_on_basis` shows that every other term annihilates.
    Coefficients are summed as integer numerators over twice the
    denominator of v.  The regularizing constant enters only at n = 0
    with r_left = r_right."""
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


def mode_bracket_diffs(mismatches: list, R: int, W: int, regularized: bool, central) -> None:
    """[L(m), L(n)] = (m-n) L(m+n) + central(m) delta_{m+n,0} for m, n in
    [-R, R] on every basis state of weight <= W, L(k) the Virasoro mode
    plus reg_constant(0) at k = 0 when regularized is set (lbar_mode, else
    l_mode).

    Per state v, each L(k)v and L(m)L(n)v is read once from
    _quad_on_basis as integer numerators over the fixed denominators d
    and d^2, d = lcm(2, denominator of reg_constant(0)).  A cell compares
    the numerators of both sides cross-multiplied by the denominator of
    central(m); only a cell that differs is turned into vectors for
    note_diff.  Mismatches are listed pair by pair in (m, n) order,
    prefixed by [m, n]."""
    quad = _quad_on_basis
    c0 = reg_constant(0) if regularized else F(0)
    d = math.lcm(2, c0.denominator)
    half, shift = d // 2, c0.numerator * (d // c0.denominator)

    def mode(k: int, vec: "dict[tuple[int, ...], int]") -> "dict[tuple[int, ...], int]":
        # d * L(k) on the integer combination vec; zero values may remain
        acc: dict[tuple[int, ...], int] = {}
        for p, c in vec.items():
            ch = c * half
            for p2, x in quad(0, 0, k, p):
                acc[p2] = acc.get(p2, 0) + ch * x
            if k == 0 and shift:
                acc[p] = acc.get(p, 0) + c * shift
        return acc

    grid = [(m, n) for m in range(-R, R + 1) for n in range(-R, R + 1)]
    per_pair: dict = {mn: [] for mn in grid}
    cen = {m: F(central(m)) for m in range(-R, R + 1)}
    for v in basis_up_to(W):
        (parts,) = v._num
        single = {k: mode(k, {parts: 1}) for k in range(-2 * R, 2 * R + 1)}
        double = {(m, n): mode(m, single[n]) for m, n in grid}
        for m, n in grid:
            c = cen[m] if m + n == 0 else 0
            a, b = c.numerator, c.denominator
            lhs = dict(double[m, n])  # d^2 [L(m), L(n)]v
            for p, x in double[n, m].items():
                lhs[p] = lhs.get(p, 0) - x
            # lhs - d^2 (m-n) L(m+n)v must vanish off |parts> and equal
            # central(m) d^2 = a d^2 / b on it
            diff = dict(lhs)
            k = (m - n) * d
            for p, x in single[m + n].items():
                diff[p] = diff.get(p, 0) - k * x
            diff[parts] = diff.get(parts, 0) * b - a * d * d
            if not any(diff.values()):
                continue
            rhs = {p: k * b * x for p, x in single[m + n].items()}
            rhs[parts] = rhs.get(parts, 0) + a * d * d
            note_diff(
                per_pair[m, n],
                [m, n],
                FockVector.from_ints({p: x for p, x in lhs.items() if x}, d * d),
                FockVector.from_ints({p: x for p, x in rhs.items() if x}, b * d * d),
                v,
            )
    mismatches.extend(itertools.chain(*per_pair.values()))


def virasoro_central(m: int) -> Fraction:
    """Central term (m^3 - m)/12 of the Virasoro bracket."""
    return F(m**3 - m, 12)


def modvir_central(m: int) -> Fraction:
    """Central term m^3/12 of the bracket of the shifted modes."""
    return F(m**3, 12)


# ----------------------------------------------------------------------
# Identity-component extraction for mixed regularized brackets


def _bracket(r: int, s: int, m: int, parts: tuple[int, ...]) -> FockVector:
    """[Q_r(m), Q_s(-m)] on the basis state |parts>.

    Both orderings chain _quad_on_basis images, twice each operator, as
    integer numerators over 4.  m != 0, so neither mode is zero and no
    regularizing constant enters."""
    quad = _quad_on_basis
    acc: dict[tuple[int, ...], int] = {}
    for (r1, n1), (r2, n2), sign in (((s, -m), (r, m), 1), ((r, m), (s, -m), -1)):
        for p1, x in quad(r1, r1, n1, parts):
            for p2, y in quad(r2, r2, n2, p1):
                acc[p2] = acc.get(p2, 0) + sign * x * y
    return FockVector.from_ints({p: x for p, x in acc.items() if x}, 4)


@lru_cache(maxsize=None)
def _central_fit(
    T: int,
) -> "tuple[tuple[tuple[tuple[int, ...], tuple[int, ...]], ...], tuple[tuple[Fraction, ...], ...]]":
    """The fit of central_term for every (r, s) with r + s = T.

    Returns (parts, row) for every basis state of weight <= 2T + 4, in
    weight order, with row = (p_1, p_3, ..., p_(2T+1), 1) and p_k the
    k-th power sum of the parts, and the inverse of the block of rows of
    the one-part states (1), ..., (T + 2).

    The block is nonsingular.  A vector (D_0, ..., D_T, E) it sends to
    zero is a polynomial E + sum_t D_t x^(2t+1) with the T + 2 positive
    roots 1, ..., T + 2.  Its at most T + 2 nonzero coefficients change
    sign at most T + 1 times, so by Descartes' rule of signs a nonzero
    one has at most T + 1 positive roots: the vector is zero."""
    rows = {
        parts: tuple(sum(p ** (2 * t + 1) for p in parts) for t in range(T + 1)) + (1,)
        for w in range(2 * T + 5)
        for parts in partitions_of(w)
    }
    n = T + 2
    aug = [list(map(F, rows[(k + 1,)])) + [F(int(i == k)) for i in range(n)] for k in range(n)]
    for col in range(n):
        piv = next(i for i in range(col, n) if aug[i][col])
        aug[col], aug[piv] = aug[piv], aug[col]
        lead = aug[col][col]
        aug[col] = [x / lead for x in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[col])]
    return tuple(rows.items()), tuple(tuple(row[n:]) for row in aug)


def central_term(r: int, s: int, m: int) -> Fraction:
    """Identity coefficient of the bracket of regularized operators.

    Computes [Q_r(m), Q_s(-m)] on every basis state of weight <= 2T + 4,
    T = r + s, writes it as sum_t C_t Qbar_t(0) + c, a combination of
    the mode-zero regularized operators of orders 0..T plus a multiple
    of the identity, and returns c.

    Qbar_t(0) has eigenvalue (-1)^t p_(2t+1) + reg_constant(t) on a
    state, p_k the k-th power sum of its parts, so the diagonal value is
    E + sum_t D_t p_(2t+1) with D_t = (-1)^t C_t and
    E = c + sum_t C_t reg_constant(t), an invertible change of unknowns.
    D and E are solved on the one-part states by the cached inverse of
    _central_fit.  Every non-vacuum state must then match its fitted
    value, else the extraction is inconsistent; the vacuum must match
    too, and no image may leave its state, else the bracket is not a
    diagonal combination.  Each state is one integer dot product of its
    row over the fit's common denominator."""
    if m == 0:
        raise ValueError("mode must be nonzero")
    states, inverse = _central_fit(r + s)
    kvs = {parts: _bracket(r, s, m, parts) for parts, _ in states}
    vals = [kvs[(k,)].coeff((k,)) for k in range(1, len(inverse) + 1)]
    sol = [sum(map(mul, row, vals), F(0)) for row in inverse]
    den = math.lcm(*[x.denominator for x in sol])
    fit = [x.numerator * (den // x.denominator) for x in sol]
    agree = {
        parts: kv._num.get(parts, 0) * den == sum(map(mul, fit, row)) * kv._den
        for (parts, row), kv in zip(states, kvs.values())
    }
    if not all(ok for parts, ok in agree.items() if parts):
        raise ValueError("identity-part extraction is inconsistent at this weight cap")
    if not agree[()] or any(kv._num.keys() - {parts} for parts, kv in kvs.items()):
        raise ValueError("bracket is not a diagonal combination plus identity at this weight cap")
    return sol[-1] - sum((-1) ** t * d * reg_constant(t) for t, d in enumerate(sol[:-1]))


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
    vac = FockVector.vacuum()
    for cell, va, vb in _kernel_mismatches(_dilated_geometric(N, y_order), N, y_order):
        note_diff(mismatches, cell, vac.scaled(va), vac.scaled(vb), vac)

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
# operator sectors of both sides are integer blocks: numerators over the
# shared denominator 4 a1! a2! a3! a4!, summed from pair steps on basis
# states (_pair_image) and weighted by one loop (_add_weighted).
# SPECIALIZE reads the left side's blocks (_dilated_lhs_blocks) as they
# are; THEOREM1 compares both sides as flat vector tables.
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
    items: list,
) -> None:
    """Add scale * (sum over f in factor_sets of prod_i f_i^(a_i)) times
    the (partition, int) items to the integer numerators block[idx] of
    each dilation monomial (a1, a2, a3, a4) <= caps, idx its row-major
    index.  The weights are summed per monomial before any dict is
    touched."""
    if not items:
        return
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


def _empty_blocks(v: FockVector, N: int, caps: "tuple[int, int, int, int]"):
    """(blocks, wbound): {(e1, e2): [None] * nmono} for |e_i| <= N, e1
    outermost, and the top weight of v.  The blocks hold integer
    numerators, so a v with a denominator is refused."""
    if v._den != 1:
        raise ArithmeticError("expected integral coefficients on basis states")
    nmono = math.prod(c + 1 for c in caps)
    keys = itertools.product(range(N, -N - 1, -1), repeat=2)
    return {key: [None] * nmono for key in keys}, max(map(sum, v._num), default=0)


def _commutator_terms(j1: int, k1: int, j2: int, k2: int, num) -> list:
    """[:h(j1)h(k1):, :h(j2)h(k2):] on the integer combination num as
    (partition, int) items, zeros dropped: at most two per basis state."""
    acc: dict[tuple[int, ...], int] = {}
    for parts, c in num.items():
        for (ja, ka), (jb, kb), sign in (((j2, k2), (j1, k1), c), ((j1, k1), (j2, k2), -c)):
            step = _pair_image(ja, ka, parts)
            if step and (step2 := _pair_image(jb, kb, step[0])):
                p, x = step2
                acc[p] = acc.get(p, 0) + sign * step[1] * x
    return [(p, x) for p, x in acc.items() if x]


def _dilated_lhs_blocks(v: FockVector, N: int, caps: "tuple[int, int, int, int]") -> dict:
    """Commutator of two dilated normal-ordered pairs applied to v, as
    integer blocks {(e1, e2): [dict | None] * nmono}, e_i = -n_i with
    |n_i| <= N: entry idx holds the numerators over 4 a1! a2! a3! a4!
    of the dilation monomial a <= caps of row-major index idx.

    Pair indices beyond wt(v) + |n1| + |n2| act as zero on both
    orderings, and two pairs commute unless an index of one is minus an
    index of the other."""
    blocks, wbound = _empty_blocks(v, N, caps)
    for (e1, e2), block in blocks.items():
        n1, n2 = -e1, -e2
        jb = wbound + abs(n1) + abs(n2)
        for j2 in range(-jb, jb + 1):
            k2 = n2 - j2
            if j2 == 0 or k2 == 0:
                continue
            for j1 in {-j2, -k2, n1 + j2, n1 + k2}:
                k1 = n1 - j1
                if j1 and k1:
                    com = _commutator_terms(j1, k1, j2, k2, v._num)
                    _add_weighted(block, caps, [(-j1, -k1, -j2, -k2)], 1, com)
    return blocks


def _block_vectors(blocks: dict, caps: "tuple[int, int, int, int]") -> dict:
    """Integer blocks {(e1, e2): block} (see _dilated_lhs_blocks) as the
    flat cell table {(e1, e2, a1, a2, a3, a4): FockVector}, with the
    1 / (4 * a1! * a2! * a3! * a4!) normalization folded in and zero
    entries dropped."""
    monos = list(itertools.product(*(range(c + 1) for c in caps)))
    denom = [4 * math.prod(map(_fact, mono)) for mono in monos]
    out: dict = {}
    for key, block in blocks.items():
        for mono, den, d in zip(monos, denom, block):
            if d:
                vec = FockVector.from_ints({p: c for p, c in d.items() if c}, den)
                if vec:
                    out[key + mono] = vec
    return out


@lru_cache(maxsize=None)
def _resummation(caps: "tuple[int, int, int, int]", alpha: int, beta: int, g1: int, g2: int):
    """(D, terms), D the lcm of a1! a2! a3! a4! over the monomials
    a <= caps: 4 times the sum of C(a1, alpha) C(a3, beta) over the
    table cells a = (a1, alpha + g1 - a1, a3, beta + g2 - a3) of one
    block of _dilated_lhs_blocks is the sum of wgt * block[idx] over
    (idx, wgt) in terms, divided by D."""
    monos = list(itertools.product(*(range(c + 1) for c in caps)))
    facts = [math.prod(map(_fact, a)) for a in monos]
    D = math.lcm(*facts)
    return D, [
        (idx, math.comb(a1, alpha) * math.comb(a3, beta) * D // facts[idx])
        for idx, (a1, a2, a3, a4) in enumerate(monos)
        if a1 >= alpha and a3 >= beta and (a1 + a2, a3 + a4) == (alpha + g1, beta + g2)
    ]


def dilated_bracket_lhs(v: FockVector, N: int, caps: "tuple[int, int, int, int]") -> dict:
    """Commutator of two dilated normal-ordered pairs applied to v, as
    the flat cell table {(e1, e2, a1, a2, a3, a4): FockVector} of the
    integer blocks of _dilated_lhs_blocks, zero entries dropped."""
    return _block_vectors(_dilated_lhs_blocks(v, N, caps), caps)


def _dilated_rhs(v: FockVector, N: int, caps: "tuple[int, int, int, int]") -> dict:
    """Operator sector of the closed bracket form applied to v, in the
    flat format of dilated_bracket_lhs.  At (e1, e2) = (-n1, -n2) it sums
    the pairs h(jp) h(kp), jp + kp = n1 + n2; a pair index beyond
    wt(v) + |n1 + n2| acts as zero: the pair's larger index then
    annihilates a part above wt(v).

    The pair carries the dilation weight -P (P^a1 Q^a2 + Q^a1 P^a2)(A^a3 B^a4 + B^a3 A^a4)
    with P = jp - n1, Q = -jp, A = -P and B = -kp: the four factor sets
    (P, Q, A, B), (Q, P, A, B), (P, Q, B, A), (Q, P, B, A), scaled by -P."""
    blocks, wbound = _empty_blocks(v, N, caps)
    for (e1, e2), block in blocks.items():
        n1, n2 = -e1, -e2
        jb = wbound + abs(n1 + n2)
        for jp in range(-jb, jb + 1):
            kp = n1 + n2 - jp
            if jp == 0 or kp == 0 or jp == n1:
                continue
            P, Q, B = jp - n1, -jp, -kp
            factor_sets = ((P, Q, -P, B), (Q, P, -P, B), (P, Q, B, -P), (Q, P, B, -P))
            _add_weighted(block, caps, factor_sets, -P, _pair_terms(jp, kp, v._num))
    return _block_vectors(blocks, caps)


def theorem1_diffs(params: dict, mismatches: list) -> None:
    """Commutator of two dilated quadratic fields vs its closed bracket form.

    Verifies, for every partition basis state of weight <= weight-cap,
    every coefficient with x1 and x2 exponents in [-x-window, x-window]
    and dilation-variable orders up to y-orders.  The zero-order
    dilation slice is additionally cross-checked against the shifted
    Virasoro bracket computed by quad_apply, so a transcription error in
    either engine cannot hide; a cell failing both comparisons is listed
    twice, the second time against the mode-level bracket.

    The left side is dilated_bracket_lhs, the vector form of the
    integer blocks that SPECIALIZE reads (_dilated_lhs_blocks).
    Both sides bound their pair indices by wt(v), which drops only pair
    terms that act as zero: an index beyond wt(v) + |n1| + |n2| makes one
    of the two pair modes annihilate more weight than any state it meets
    has.  The right side is the operator sector (_dilated_rhs) plus the
    scalar sector v.scaled(c) on the diagonal cells e1 + e2 = 0.  One
    cell_diffs walk compares them, e1 and e2 descending (n1 and n2
    ascending) and the dilation orders row-major.  Each (e1, e2) cell of
    either side is homogeneous of weight wt(v) + e1 + e2, so note_diff
    lists a cell's partitions in (weight, parts) order, which is plain
    parts order."""
    caps = tuple(params["y-orders"])
    N, W = params["x-window"], params["weight-cap"]
    scalar_cache = {e1: _scalar_sector(e1, caps) for e1 in range(-N, N + 1)}
    ranges = [range(N, -N - 1, -1)] * 2 + [range(c + 1) for c in caps]

    for v in basis_up_to(W):
        lhs = dilated_bracket_lhs(v, N, caps)
        rhs = _dilated_rhs(v, N, caps)
        for e1, scal in scalar_cache.items():
            for mono, c in scal.items():
                cell = (e1, -e1) + mono
                rhs[cell] = rhs.get(cell, FockVector.zero()) + v.scaled(c)
        for cell, va, vb in cell_diffs(lhs, rhs, ranges):
            note_diff(mismatches, cell, va, vb, v)
        # ---- zero-order slice against the mode-level bracket engine
        for n1 in range(-N, N + 1):
            for n2 in range(-N, N + 1):
                slice_vec = lhs.get((-n1, -n2, 0, 0, 0, 0))
                expect = lbar_mode(n1 + n2, v).scaled(n1 - n2)
                if n1 + n2 == 0:
                    expect = expect + v.scaled(F(n1**3, 12))
                note_diff(mismatches, [-n1, -n2, 0, 0, 0, 0], slice_vec, expect, v)

"""Rank-one free-boson vertex operators on the oscillator Fock space.

The field attached to a basis monomial is the normal-ordered product of
derivative fields of the single generating current; vertex_mode extracts
its modes exactly.  The mode kernel _mode_on_basis is the product of two
halves from fock: for each split of the monomial's factors into
annihilators and creators, the states the annihilators reach from the
target (built per miss) joined with the parts the creators make (cached
per creator multiset and weight).  On top of that sit the weight-shifted
fields (x_mode), the exponential-coordinate bracket Y[u, y]v =
Y(e^(y L(0)) u, e^y - 1)v (y_bracket_apply), the defining axioms, the
classical three-delta identity (jacobi_diffs) and the
exponential-substitution identities reached from it.  The bracket field
and the right sides that read it are finite sums of mode images.

Every check compares finitely many coefficients of an identity applied
to a target vector, exactly over Fraction.  The *_diffs functions are
check bodies: they append mismatch entries, and catalog.run_check turns
them into reports.

Each right side is Y(W, x2) applied to the target, with W built from u
and v alone.  So the right sides are built once per (u, v, window),
before any target, as small tables of target-independent vectors
(_jacobi_inner, _newjacobi_rhs, _comm_rhs, _fourterm_table), and each
cell is read off with one or a few modes of those vectors on the
target.  FOURTERM's table sums nested bracket images (images of images
from _bracket_images) with scalar weights, Laurent polynomials in the
two bracket variables on plain Fraction dicts.  The left sides are
built per target, as the inner field acts on the target first; tabling
it before the target would need the identity being checked.  The
three-delta left sides are closed-form sums of mode images weighted by
the binomial kernel (_delta_cells).  Those builders, the right-side
tables and the bracket slices sum their weighted images with
fock._weighted_sum (fock._fraction_sum for Fraction weights), which
adds numerators over a common denominator and reduces once.

Every compared side is a cell table: a dict from exponent tuples, in
sorted variable order, to FockVector, where an absent cell is zero, and
_cell_diffs walks the box row-major to find the cells that differ.  No
side goes through the Series ring: y_bracket_apply returns its y-slices
as a plain dict too.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from .fock import (
    _PARTS,
    FockVector,
    _annihilated,
    _created,
    _fraction_sum,
    _weighted_sum,
    basis_up_to,
    weight,
    weight_components,
)
from .quadratic import dilated_bracket_lhs, gen_quadratic_coeff
from .reports import note_diff
from .scalars import binom, em1_unit, u_mul, u_pow

F = Fraction


def generator() -> FockVector:
    """The weight-one state whose field is the current itself."""
    return FockVector.basis((1,))


def _omega() -> FockVector:
    return FockVector.basis((1, 1)).scaled(F(1, 2))


def _wt_max(v: FockVector) -> int:
    return max(map(weight, v._num), default=0)


# ----------------------------------------------------------------------
# Modes of the free fields


@lru_cache(maxsize=None)
def _mode_on_basis(
    u_parts: "tuple[int, ...]", n: int, v_parts: "tuple[int, ...]"
) -> FockVector:
    """Mode n of the field of one basis monomial, applied to another,
    both descending partitions.

    The field of h(-n1)...h(-nk)|0> is the normal-ordered product of the
    (ni-1)-th derivative fields of the current scaled by 1/(ni-1)!, so
    the x^(-n-1) coefficient is the sum over current-mode tuples (m_i)
    with sum(m_i) = total = n + 1 - sum(n_i) of
    prod C(-m_i-1, n_i-1) :h(m_1)...h(m_k): v, where normal order
    applies every h(m) with m > 0 first.  h(0) kills every state, so no
    m_i is zero.  The sum is the product of two halves:

    - Split.  Let I be the factors of a tuple with m_i > 0 and J the
      rest, with p_i = -m_i > 0.  Annihilators commute, as do creators,
      so the term is the creators h(-p_i), i in J, applied to the image
      of v under the annihilators h(m_i), i in I.  Its weight is
      prod over I of C(-m_i-1, k_i) = (-1)^k_i C(m_i+k_i, k_i), k_i =
      n_i - 1, times prod over J of C(p_i-1, k_i).  With a = sum over I
      of m_i and c = sum over J of p_i, the tuple sums to total exactly
      when c = a - total.  So the sum over tuples is the sum over I and
      a of A_I(v, a) joined with K_J(a - total): A_I(v, a) sums the
      annihilators' images over positive (m_i), i in I, of weight a,
      each times its weight, and K_J(c) sums the created parts over
      (p_i), i in J, of weight c, each times its weight.  A creator
      appends its part with coefficient one, so a state r with
      coefficient x joined with created parts q with coefficient y is
      the partition r + q with coefficient x y.
    - Split multiplicities.  A_I and K_J depend on I only through the
      multisets S = {n_i : i in I} and C = {n_i : i in J}: swapping two
      factors with equal n_i maps the tuples of either sum one to one
      onto themselves, with equal weights and operators.  The sets I of
      one multiset S choose, for each part x of u, which mult_S(x) of
      its mult_u(x) factors annihilate, so there are
      prod over x of C(mult_u(x), mult_S(x)) of them, and summing over
      the multisets S with that split weight counts every I once.
    - A_S(v, a) is built one factor of S at a time (fock._annihilate),
      from the states {(rest, a): coefficient} with (v, 0) at 1.  h(m)
      removes one of the count copies of a part m of rest, times
      m * count, so a step adds (-1)^k C(m+k, k) * m * count for the
      factor's k.  It does not depend on n, so it is built per miss and
      dropped (fock._annihilated).
    - K_C(c) is built one factor of C at a time over p_i >= n_i only,
      since C(p-1, n_i-1) vanishes for 1 <= p < n_i; so c >= sum(C).  It
      depends on neither v nor n and is cached (fock._created).

    Every step is exact integer arithmetic, so the image is the sum over
    tuples term for term.  The created weight a - total is >= 0 and
    a <= wt(v), so the image is zero when total > wt(v)."""
    if not u_parts:
        return FockVector.basis(v_parts) if n == -1 else FockVector.zero()
    total = n + 1 - sum(u_parts)
    out: "dict[tuple[int, ...], int]" = {}
    if total <= sum(v_parts):
        for c_parts, split, states in _annihilated(u_parts, v_parts):
            floor = total + sum(c_parts)
            for (rest, a), x in states.items():
                if a < floor:
                    continue
                for q, y in _created(c_parts, a - total):
                    key = tuple(sorted(rest + q, reverse=True))
                    out[key] = out.get(key, 0) + split * x * y
    intern = _PARTS.setdefault
    return FockVector.from_ints({intern(p, p): c for p, c in out.items() if c})


def _mode_sum(u: FockVector, v: FockVector, mode_of) -> FockVector:
    """Sum of the basis images _mode_on_basis(up, mode_of(up), vp) over
    the terms of u and v.  The images are integral, so the numerators
    are summed over u's denominator times v's and reduced once."""
    acc: "dict[tuple[int, ...], int]" = {}
    v_items = v._num.items()
    for up, cu in u._num.items():
        n = mode_of(up)
        for vp, cv in v_items:
            w = _mode_on_basis(up, n, vp)
            if w:
                c = cu * cv
                for p, x in w._num.items():
                    acc[p] = acc.get(p, 0) + c * x
    return FockVector.from_ints({p: x for p, x in acc.items() if x}, u._den * v._den)


def vertex_mode(u: FockVector, n: int, v: FockVector) -> FockVector:
    """Coefficient of x^(-n-1) in the field of u, applied to v."""
    return _mode_sum(u, v, lambda up: n)


def x_mode(u: FockVector, n: int, v: FockVector) -> FockVector:
    """Coefficient of x^(-n) in the weight-shifted field of u.

    Shifting by the weight of each homogeneous component makes the mode
    lower weights by exactly n."""
    return _mode_sum(u, v, lambda up: n - 1 + weight(up))


def _commutator_cells(u, v, target, w) -> "dict[tuple[int, int], FockVector]":
    """The commutator of the weight-shifted fields of u and v on target,
    keyed (b, c) on the square [-w, w]^2: x_mode(u, -b, x_mode(v, -c, t))
    - x_mode(v, -c, x_mode(u, -b, t)), nonzero cells only.  The inner
    images of target are computed once per b and once per c."""
    u_on = {b: x_mode(u, -b, target) for b in range(-w, w + 1)}
    v_on = {c: x_mode(v, -c, target) for c in range(-w, w + 1)}
    cells = {}
    for b in range(-w, w + 1):
        for c in range(-w, w + 1):
            vec = x_mode(u, -b, v_on[c]) - x_mode(v, -c, u_on[b])
            if vec:
                cells[(b, c)] = vec
    return cells


# ----------------------------------------------------------------------
# Bracket coordinates


@lru_cache(maxsize=None)
def _em1_power(e: int, order: int) -> "dict[int, Fraction]":
    """Coefficients of ((e^y - 1)/y)^e, complete to y^order."""
    return u_pow(em1_unit(order), e, order)


def _kappa(e: int, w: int, order: int) -> "dict[int, Fraction]":
    """Coefficients of kappa_(e,w)(y) = ((e^y - 1)/y)^e e^(w y), complete
    to y^order (none for a negative order)."""
    if order < 0:
        return {}
    ew = {j: F(w**j, math.factorial(j)) for j in range(order + 1)}
    return u_mul(_em1_power(e, order), ew, order)


def _bracket_images(u: FockVector, v: FockVector, e_hi: int) -> list:
    """(w, e, I^w_e) for the nonzero x^e coefficients I^w_e =
    vertex_mode(u_w, -e - 1, v), e <= e_hi, of the weight-w components
    u_w of u.  I^w_e has weight w + wt(v) + e, so none is dropped below
    e = -(w + wt(v))."""
    wt_v = _wt_max(v)
    out = []
    for w, comp in weight_components(u):
        for e in range(-(w + wt_v), e_hi + 1):
            img = vertex_mode(comp, -e - 1, v)
            if img:
                out.append((w, e, img))
    return out


def y_bracket_apply(u: FockVector, v: FockVector, y_order: int) -> "dict[int, FockVector]":
    """The bracket field Y[u, y]v = Y(e^(y L(0)) u, e^y - 1)v up to
    y_order: its nonzero y^q slices, q <= y_order, in ascending q.  The
    pole depth is at most wt(u) + wt(v).

    The image I^w_e (see _bracket_images) carries (e^y - 1)^e e^(w y) =
    y^e kappa_(e,w)(y) (see _kappa), so the y^q slice is the sum over w
    and e <= q of the y^(q-e) coefficient of kappa_(e,w) times I^w_e.
    Every image with e <= y_order is summed, so each slice is exact; a
    slice is one _fraction_sum of its kappa weights."""
    if y_order < 0:
        raise ValueError("bracket order must be >= 0")
    cells: "dict[int, list]" = {}
    for w, e, img in _bracket_images(u, v, y_order):
        for j, c in _kappa(e, w, y_order - e).items():
            cells.setdefault(e + j, []).append((c, img))
    slices = ((q, _fraction_sum(cells[q])) for q in sorted(cells))
    return {q: vec for q, vec in slices if vec}


# ----------------------------------------------------------------------
# Axioms


_AXIOMS = (
    "lower-truncation",
    "vacuum",
    "creation",
    "L(-1)-derivative",
    "L(0)-grading",
)


def axioms_diffs(params: dict, mismatches: list) -> None:
    """Each listed axiom on the basis of weight <= weight-cap, over mode
    windows of width x-window."""
    window = params["x-window"]
    states = basis_up_to(params["weight-cap"])
    vac = FockVector.vacuum()
    omega = _omega()
    zero = FockVector.zero()
    for axiom in params["axioms"]:
        if axiom == "lower-truncation":
            for u in states:
                for v in states:
                    bound = _wt_max(u) + _wt_max(v) - 1
                    for n in range(bound + 1, bound + window + 1):
                        note_diff(mismatches, [n], vertex_mode(u, n, v), zero, v)
        elif axiom == "vacuum":
            for v in states:
                for n in range(-window - 1, window + 1):
                    want = v if n == -1 else zero
                    note_diff(mismatches, [n], vertex_mode(vac, n, v), want, v)
        elif axiom == "creation":
            for v in states:
                for n in range(0, window + 1):
                    note_diff(mismatches, [n], vertex_mode(v, n, vac), zero, v)
                note_diff(mismatches, [-1], vertex_mode(v, -1, vac), v, v)
        elif axiom == "L(-1)-derivative":
            for v in states:
                lv = vertex_mode(omega, 0, v)
                for t in states:
                    for n in range(-window, window + 1):
                        lhs = vertex_mode(lv, n, t)
                        rhs = vertex_mode(v, n - 1, t).scaled(-n)
                        note_diff(mismatches, [n], lhs, rhs, t)
        elif axiom == "L(0)-grading":
            for v in states:
                note_diff(mismatches, [], vertex_mode(omega, 1, v), v.scaled(_wt_max(v)), v)
        else:
            raise ValueError(f"unknown axiom {axiom!r}")


# ----------------------------------------------------------------------
# Cell tables: a compared side maps exponent tuples, in sorted variable
# order, to FockVector; an absent cell is the zero vector


def _cell_diffs(lhs, rhs, box):
    """(cell, lhs cell, rhs cell) at every cell of box where two tables
    differ, walking the box row-major over its sorted variables, the
    order of series' box comparison.  Cells off the box are never read."""
    zero = FockVector.zero()
    ranges = [range(lo, hi + 1) for _, (lo, hi) in sorted(box.items())]
    for cell in itertools.product(*ranges):
        va, vb = lhs.get(cell, zero), rhs.get(cell, zero)
        if va != vb:
            yield cell, va, vb


# ----------------------------------------------------------------------
# Classical three-delta identity


def jacobi_diffs(mismatches, prefix, u, v, targets, w) -> None:
    """Mismatches of the three-delta identity applied to each target on
    the cube [-w, w]^3 of x0/x1/x2 exponents, monomial prefix + (target
    index, x0, x1, x2).  The left side is built per target; the right
    side's inner field is built once (see _jacobi_inner)."""
    cube = {"x0": (-w, w), "x1": (-w, w), "x2": (-w, w)}
    inner = _jacobi_inner(u, v, w)
    for ti, target in enumerate(targets):
        lhs, rhs = _jacobi_sides(u, v, target, w, inner)
        for cell, va, vb in _cell_diffs(lhs, rhs, cube):
            note_diff(mismatches, [*prefix, ti, *cell], va, vb, target)


def _jacobi_sides(u, v, target, w, inner):
    """Both sides of the three-delta identity applied to target, as
    (lhs, rhs) cell tables over x0, x1, x2 on the cube [-w, w]^3.  The
    left side takes plain modes, and an inner image vertex_mode(x, -e - 1,
    target) has weight wt(x) + wt(target) + e, so it vanishes below
    e = -(wt(x) + wt(target)); the right side is read off inner, which
    _jacobi_inner(u, v, w) built once for every target."""
    wt_t = _wt_max(target)
    lhs = _delta_lhs(
        u, v, target, w, lambda x, e, vec: vertex_mode(x, -e - 1, vec),
        -(_wt_max(v) + wt_t), -(_wt_max(u) + wt_t),
    )
    return lhs, _jacobi_rhs_cells(inner, target, w)


def _jacobi_inner(u: FockVector, v: FockVector, w: int) -> "dict[int, FockVector]":
    """The x0-slices I_e = vertex_mode(u, -e - 1, v), e <= w, of the inner
    field on the three-delta right side; they do not involve the target.

    The right side is x2^-1 delta((x1 - x0)/x2) Y(Y(u, x0)v, x2) target.
    Its kernel term C(n, k) (-1)^k x2^(-n-1) x1^(n-k) x0^k meets I_e x0^e
    and the x2^f coefficient vertex_mode(I_e, -f - 1, target) at the cell
    x0^a x1^b x2^c exactly when n = b + k, e = a - k and f = b + c + k + 1,
    so (see _jacobi_rhs_cells)

        rhs(a, b, c) = sum over k >= 0 of
                       C(b + k, k) (-1)^k vertex_mode(I_(a-k), -(b+c+k+2), target).

    The sum drops no nonzero term: I_e vanishes below e = -wt(u) - wt(v)
    by lower truncation, and a cell on the cube reads only e = a - k <=
    a <= w, so the slices stored for e in [-wt(u) - wt(v), w] are every
    slice the sum meets.  _jacobi_rhs_cells takes every k >= 0 with a
    stored slice at a - k, each as one mode of that slice on the target,
    so no window is read from the target."""
    wt_uv = _wt_max(u) + _wt_max(v)
    slices = {e: vertex_mode(u, -e - 1, v) for e in range(-wt_uv, w + 1)}
    return {e: vec for e, vec in slices.items() if vec}


def _jacobi_rhs_cells(inner, target, w) -> "dict[tuple[int, int, int], FockVector]":
    """The three-delta right side on the cube [-w, w]^3 (see _jacobi_inner),
    one mode of one inner slice per term, with the integer kernel
    C(b + k, k) (-1)^k built once per (a, b).  Terms with a zero kernel
    entry or a zero mode are skipped, and so is a cell with no term."""
    modes: "dict[tuple[int, int], FockVector]" = {}
    data = {}
    for a in range(-w, w + 1):
        for b in range(-w, w + 1):
            kernel = [
                (a - e, kw, e, ie)
                for e, ie in inner.items()
                if e <= a and (kw := int(binom(b + a - e, a - e)) * (-1) ** (a - e))
            ]
            for c in range(-w, w + 1):
                terms = []
                for k, kw, e, ie in kernel:
                    m = -(b + c + k + 2)
                    img = modes.get((e, m))
                    if img is None:
                        img = modes[(e, m)] = vertex_mode(ie, m, target)
                    if img:
                        terms.append((kw, img))
                if not terms:
                    continue
                vec = _weighted_sum(terms)
                if vec:
                    data[(a, b, c)] = vec
    return data


def _delta_cells(outer, inner, target, w, mode, floor, n_sign):
    """One left-side term: Y(outer, xo) Y(inner, xi) target times
    x0^-1 delta(n_sign (xo - xi)/x0), as a table keyed (a, p, q) for the
    cell x0^a xo^p xi^q of the cube [-w, w]^3.

    mode(x, e, vec) is the x^e coefficient of the field of x applied to
    vec, and the inner images I_e = mode(inner, e, target) vanish below
    e = floor.  The kernel term C(n, k) (-1)^k n_sign^n x0^(-n-1)
    xo^(n-k) xi^k, k >= 0, meets the pair coefficient
    mode(outer, e, I_f) xo^e xi^f at the cell exactly when n = -a - 1,
    e = p - n + k and f = q - k, so

        cell(a, p, q) = sum over 0 <= k <= q - floor of
                        n_sign^n C(n, k) (-1)^k mode(outer, p - n + k, I_(q-k)).

    The sum is exact: a larger k reads an inner image below the floor.
    For n >= 0 C(n, k) vanishes when k > n, so those terms are skipped.
    The kernel coefficients are integers, built once per a, and each cell
    is one _weighted_sum of its nonzero images, skipped when it has none;
    n_sign^n is taken from the parity of n, since a negative power of an
    int is a float."""
    images = {e: mode(inner, e, target) for e in range(floor, w + 1)}
    outer_on: "dict[tuple[int, int], FockVector]" = {}
    cells = {}
    for a in range(-w, w + 1):
        n = -a - 1
        sign = n_sign if n % 2 else 1
        kernel = [int(sign * (-1) ** k * binom(n, k)) for k in range(w - floor + 1)]
        for p in range(-w, w + 1):
            for q in range(-w, w + 1):
                terms = []
                for k in range(q - floor + 1):
                    ivec = images[q - k]
                    if not (kernel[k] and ivec):
                        continue
                    key = (p - n + k, q - k)
                    img = outer_on.get(key)
                    if img is None:
                        img = outer_on[key] = mode(outer, key[0], ivec)
                    if img:
                        terms.append((kernel[k], img))
                if not terms:
                    continue
                vec = _weighted_sum(terms)
                if vec:
                    cells[(a, p, q)] = vec
    return cells


def _delta_lhs(u, v, target, w, mode, floor_v, floor_u):
    """The three-delta left side, keyed (a, b, c) for x0^a x1^b x2^c on
    the cube [-w, w]^3, with u's field in x1 and v's in x2: the
    _delta_cells term of (u, v) minus that of (v, u) under kernel sign
    -1, whose outer field sits in x2, so lhs(a, b, c) =
    first(a, b, c) - second(a, c, b).  floor_v and floor_u are the floors
    of the inner images of v and of u."""
    lhs = _delta_cells(u, v, target, w, mode, floor_v, 1)
    for (a, c, b), vec in _delta_cells(v, u, target, w, mode, floor_u, -1).items():
        lhs[(a, b, c)] = lhs.get((a, b, c), FockVector.zero()) - vec
    return {cell: vec for cell, vec in lhs.items() if vec}


# ----------------------------------------------------------------------
# Exponential-substitution identities


def _newjacobi_rhs(u, v, win) -> "dict[tuple[int, int], FockVector]":
    """Right side of the exponential-delta identity before the target:
    the vectors H(a, n) whose x-mode -(n + c + 1) on a target is the
    x0^a x1^(n-a) x2^c cell, for a <= win and n = a + b, b in
    [-win, win].

    With W(s) the bracket field after y = -log(1 - s), the right side
    is the sum over n of (1 - s)^n x1^n x2^(-n-1) times Y_x(W(s), x2)
    target, then s = x0/x1, so its x0^a x1^b x2^c cell is
    x_mode(H(a, a+b), -(a+b+c+1), target) with H(a, n) = [s^a] (1 - s)^n
    W(s).  At y = -log(1 - s), e^y - 1 = s/(1 - s) and e^(w y) =
    (1 - s)^(-w), so the image I^w_e of Y[u, y]v (see _bracket_images)
    enters W as I^w_e s^e (1 - s)^(-e-w), and the binomial theorem gives

        H(a, n) = sum over w and e <= a of
                  (-1)^(a-e) C(n - e - w, a - e) I^w_e,

    exact for every integer n.  H(a, n) drops no nonzero term: the
    images below e = -(w + wt(v)) vanish, and a cell reads only e <= a
    <= win, so _bracket_images(u, v, win) holds every image the sum
    meets.  a below the lowest image gives H = 0, and each x2 exponent
    is one mode of H on the target, so no window is read from the
    target."""
    images = _bracket_images(u, v, win)
    lowest = min((e for _, e, _ in images), default=win + 1)
    table = {}
    for a in range(max(-win, lowest), win + 1):
        for n in range(a - win, a + win + 1):
            h = _weighted_sum(
                (int(binom(n - e - w, a - e)) * (-1) ** (a - e), img)
                for w, e, img in images
                if e <= a
            )
            if h:
                table[(a, n)] = h
    return table


def _newjacobi_sides(u, v, target, win, table):
    """Both sides of the exponential-delta identity applied to target.

    Returns (lhs, rhs) cell tables over x0, x1, x2 on the cube of side
    2*win.  The left side takes weight-shifted modes, and an inner image
    x_mode(x, -e, target) has weight wt(target) + e, so it vanishes
    below e = -wt(target); the right side is read off table, which
    _newjacobi_rhs(u, v, win) built once for every target."""
    w = win
    wt_t = _wt_max(target)
    lhs = _delta_lhs(
        u, v, target, w, lambda x, e, vec: x_mode(x, -e, vec), -wt_t, -wt_t
    )
    data = {}
    for (a, n), h in table.items():
        for c in range(-w, w + 1):
            img = x_mode(h, -(n + c + 1), target)
            if img:
                data[(a, n - a, c)] = img
    return lhs, data


def _comm_rhs(u, v, win) -> "dict[int, FockVector]":
    """Right side of the commutator identity before the target: the
    vectors R_b whose x-mode -(b + c) on a target is the x1^b x2^c cell,
    for b in [-win, win].

    The right side is the y-residue of the sum over n of x1^n x2^(-n)
    e^(-n y) times Y_x(Y[u, y]v, x2) target, whose x1^b x2^c cell has
    n = b and reads the x2^(b+c) coefficient, so it is
    x_mode(R_b, -(b+c), target) with R_b = Res_y e^(-b y) Y[u, y]v.
    The change of variable t = e^y - 1, dy = dt/(1 + t), leaves the
    formal residue unchanged, and the image I^w_e of Y[u, y]v (see
    _bracket_images) enters as t^e (1 + t)^(w - b - 1), so

        R_b = sum over w and e <= -1 of C(w - b - 1, -e - 1) I^w_e.

    R_b drops no nonzero term: only e <= -1 meets t^(-1), and the images
    below e = -(w + wt(v)) vanish, so _bracket_images(u, v, -1) holds
    every image the sum meets.  Each x2 exponent is one mode of R_b on
    the target, so no window is read from the target."""
    images = _bracket_images(u, v, -1)
    table = {}
    for b in range(-win, win + 1):
        table[b] = _weighted_sum(
            (int(binom(w - b - 1, -e - 1)), img) for w, e, img in images
        )
    return table


def _comm_sides(u, v, target, win, table):
    """Commutator of the weight-shifted fields vs the residue form, as
    (lhs, rhs) cell tables on the square [-win, win]^2 of x1/x2 exponents.
    The left side is _commutator_cells; the right side is read off
    table, which _comm_rhs(u, v, win) built once for every target."""
    rhs = {}
    for b in range(-win, win + 1):
        for c in range(-win, win + 1):
            img = x_mode(table[b], -(b + c), target)
            if img:
                rhs[(b, c)] = img
    return _commutator_cells(u, v, target, win), rhs


def residue_link_diffs(params: dict, mismatches: list) -> None:
    """Residue in x0 of the exponential-delta identity vs the commutator
    identity: the x0^(-1) slice of the exponential-delta right side must
    equal the residue-kernel right side (comparison 1), the x0^(-1) slice
    of the left side the commutator (comparison 2), and the x0^(-1)
    slices of the exponential-delta left and right sides each other
    (comparison 3, the one that sets a left side against a right side).

    The change of variable x0 = x1*(1 - e^y) carries the x0^a slice with
    weight Res e^y dy/(e^y - 1)^(-a) = delta(a, -1), so the residue is the
    x0^(-1) slice itself; calculus tests pin that closed form.

    Not a catalog entry (registering it would change verify all); the
    acceptance gate runs it on params u, v, targets and x-window."""
    u, v, win = params["u"], params["v"], params["x-window"]
    if win < 1:
        raise ValueError(f"x-window must be at least 1, got {win}")
    nj_table = _newjacobi_rhs(u, v, win)
    c_table = _comm_rhs(u, v, win)
    for target in params["targets"]:
        nj_lhs, nj_rhs = _newjacobi_sides(u, v, target, win, nj_table)
        c_lhs, c_rhs = _comm_sides(u, v, target, win, c_table)
        for b in range(-win, win + 1):
            for c in range(-win, win + 1):
                direct = nj_rhs.get((-1, b, c))
                comm = c_rhs.get((b, c))
                left_slice = nj_lhs.get((-1, b, c))
                left_comm = c_lhs.get((b, c))
                note_diff(mismatches, [b, c, 1], direct, comm, target)
                note_diff(mismatches, [b, c, 2], left_slice, left_comm, target)
                note_diff(mismatches, [b, c, 3], left_slice, direct, target)


# ----------------------------------------------------------------------
# Named identity bodies, registered in the catalog


def _pair_diffs(params, mismatches, sides, names, pairs, orders=((),)) -> None:
    """The target loop of NEWJACOBI, COMM, GENJACOBI and GENCOMM: the
    mismatches of the cell tables (lhs, rhs) = sides(u, v, target, w,
    table) on the box [-w, w] of each variable in names, for every basis
    target of weight <= weight-cap and every (prefix, u, v, table) of
    pairs, with monomial prefix + g + cell.

    Each g of orders is a tuple of dilation orders (g1, g2) that
    transports both sides by b^g1/g1! c^g2/g2!, (b, c) the cell's x1
    and x2 exponents, so a bare mismatch is listed once per g with a
    nonzero factor; the empty g, the only one by default, has factor 1."""
    w = params["x-window"]
    box = dict.fromkeys(names, (-w, w))
    for target in basis_up_to(params["weight-cap"]):
        for prefix, u, v, table in pairs:
            for cell, va, vb in _cell_diffs(*sides(u, v, target, w, table), box):
                for g in orders:
                    fac = math.prod(F(x**k, math.factorial(k)) for x, k in zip(cell[-2:], g))
                    if fac:
                        mono = [*prefix, *g, *cell]
                        note_diff(mismatches, mono, va.scaled(fac), vb.scaled(fac), target)


def _slice_pairs(params, build) -> list:
    """([alpha, beta], ua, vb, build(ua, vb, w)) for the bracket slices ua
    of (u1, v1) up to o1 and vb of (u2, v2) up to o2, (o1, o2) = y-orders
    and w = x-window, in sorted (alpha, beta) order: each right-side
    table is built once, before any target."""
    o1, o2 = params["y-orders"]
    w = params["x-window"]
    uslices = y_bracket_apply(params["u1"], params["v1"], o1)
    vslices = y_bracket_apply(params["u2"], params["v2"], o2)
    return [
        ([alpha, beta], ua, vb, build(ua, vb, w))
        for alpha, ua in uslices.items()
        for beta, vb in vslices.items()
    ]


def _dilation_orders(params) -> list:
    g1, g2 = params["w-orders"]
    return list(itertools.product(range(g1 + 1), range(g2 + 1)))


def newjacobi_diffs(params: dict, mismatches: list) -> None:
    u, v = params["u"], params["v"]
    pairs = [([], u, v, _newjacobi_rhs(u, v, params["x-window"]))]
    _pair_diffs(params, mismatches, _newjacobi_sides, ("x0", "x1", "x2"), pairs)


def comm_diffs(params: dict, mismatches: list) -> None:
    u, v = params["u"], params["v"]
    pairs = [([], u, v, _comm_rhs(u, v, params["x-window"]))]
    _pair_diffs(params, mismatches, _comm_sides, ("x1", "x2"), pairs)


def genjacobi_diffs(params: dict, mismatches: list) -> None:
    pairs = _slice_pairs(params, _newjacobi_rhs)
    _pair_diffs(
        params, mismatches, _newjacobi_sides, ("x0", "x1", "x2"), pairs, _dilation_orders(params)
    )


def gencomm_diffs(params: dict, mismatches: list) -> None:
    pairs = _slice_pairs(params, _comm_rhs)
    _pair_diffs(params, mismatches, _comm_sides, ("x1", "x2"), pairs, _dilation_orders(params))


def _fourterm_table(u1, v1, u2, v2, box, win) -> "dict[int, dict[tuple[int, int], FockVector]]":
    """Right side of the four-term identity before the target: for each
    kernel exponent b in [-win, win], the vectors R_b(p, q) on box whose
    x-mode -(b + c) on a target is the y1^p y2^q cell at (b, c).

    With B(x, y; z) = Y[x, y]z = sum over w, e of y^e kappa_(e,w)(y)
    I^w_e(x, z) (_kappa, _bracket_images), the right side is a + b - c - d,
    read for y1 <= o1 and y2 <= o2:

        a = Res_t e^(-b t) B(u2, y2; B(u1, y1 + t; B(v1, t; v2))),
        b = Res_t e^(b (y1 - t)) B(u2, y2; B(v1, t - y1; B(u1, t; v2))),
        c = Res_t e^(-b (y2 - t)) B(B(u1, y1; B(u2, t; v1)), y2 - t; v2),
        d = Res_t e^(-b (y2 - y1 - t)) B(B(B(u2, t; u1), y1; v1), y2 - y1 - t; v2),

    each shifted argument expanded in nonnegative powers of t and y1.  B
    is linear in x and z, so a term is a sum over nested images I3
    (innermost bracket, in t), I2 and I1 (outer) of I1 times the
    t-residue of f3 f2 f1, f(z) = z^e kappa_(e,w)(z) at each bracket's
    argument.  The exponential is e^(-b z) for the argument z of one
    bracket (t in a, t - y1 in b, the outer one in c and d), and
    e^(-b z) kappa_(e,w)(z) = kappa_(e,w-b)(z): it lowers that w by b.

    Weights (_fourterm_weight).  The s^k coefficient of f(y + s) is the
    sum over i of kappa_i C(e + i, k) y^(e+i-k) (_taylor).  f3(t) is the
    sum over j of g_j t^(e3+j) and the other factors bring t^k, k >= 0,
    so the residue takes j = top - k, top = -1 - e3: only images with
    e3 <= -1 meet it, with 0 <= k <= top, and I1 weighs the sum over k of
    g_(top-k) times ([t^k] is the t^k coefficient)

        a: [t^k] f2(y1 + t) f1(y2),         c: f2(y1) [t^k] f1(y2 - t),
        b: [t^k] f2(Y + t) at Y = -y1, times f1(y2),
        d: sum over l >= 0 of C(k + l, k) y1^l f2(y1) [s^(k+l)] f1(y2 - s),

    the last as (y1 + t)^K = sum over k of C(K, k) t^k y1^(K-k).

    Nothing nonzero is dropped.  The lower end of each level is exact
    (_bracket_images), and the upper ends follow from p <= o1, q <= o2:
    [t^k] f(y + t) has y-exponents >= e - top, so e2 <= o1 + top in a and
    b and e1 <= o2 + top in c; an unshifted f has exponents >= e, so
    e1 <= o2 in a and b and e2 <= o1 in c and d; in d, y1^l f2(y1) has
    exponents >= e2 + l, so l <= o1 - e2 and e1 <= o2 + top + o1 - e2.
    Each kappa reaches exponent o1 or o2 (i <= o1 + k - e2 for the
    shifted f2 of a and b, and so on), so every cell on box is exact, and
    cells below box are never read.  A cell sums its images over the
    common denominator of their weights and is reduced once."""
    kappa = lru_cache(maxsize=None)(_kappa)
    cells: "dict[tuple[int, int, int], list]" = {}
    for key, sign in (("a", 1), ("b", 1), ("c", -1), ("d", -1)):
        for levels, img in _fourterm_images(key, u1, v1, u2, v2, box["y1"][1], box["y2"][1]):
            for b in range(-win, win + 1):
                for (p, q), c in _fourterm_weight(key, b, levels, box, kappa).items():
                    if c:
                        cells.setdefault((b, p, q), []).append((sign * c, img))
    table: "dict[int, dict[tuple[int, int], FockVector]]" = {b: {} for b in range(-win, win + 1)}
    for (b, p, q), terms in cells.items():
        vec = _fraction_sum(terms)
        if vec:
            table[b][(p, q)] = vec
    return table


def _fourterm_images(key, u1, v1, u2, v2, o1, o2):
    """(levels, I1) for each nested image I1 of the right-side term key
    that can meet a cell with p <= o1 and q <= o2, levels = ((e3, w3),
    (e2, w2), (e1, w1)) from the innermost bracket out; each level is one
    _bracket_images call per image of the level inside it."""
    inner = {"a": (v1, v2), "b": (u1, v2), "c": (u2, v1), "d": (u2, u1)}[key]
    for w3, e3, i3 in _bracket_images(*inner, -1):
        top = -1 - e3
        mid = {"a": (u1, i3, o1 + top), "b": (v1, i3, o1 + top), "c": (u1, i3, o1), "d": (i3, v1, o1)}
        for w2, e2, i2 in _bracket_images(*mid[key]):
            if key in "ab":
                outer = _bracket_images(u2, i2, o2)
            else:
                outer = _bracket_images(i2, v2, o2 + top + (o1 - e2 if key == "d" else 0))
            for w1, e1, i1 in outer:
                yield ((e3, w3), (e2, w2), (e1, w1)), i1


def _taylor(e, kap, k, sign) -> "dict[int, Fraction]":
    """The s^k coefficient of f(y + sign s), f(y) = y^e kap(y), as a dict
    of y-exponents: each y^m gives C(m, k) sign^k y^(m-k)."""
    out = {}
    for i, c in kap.items():
        x = binom(e + i, k) * c
        if x:
            out[e + i - k] = x if sign > 0 or k % 2 == 0 else -x
    return out


def _fourterm_weight(key, b, levels, box, kappa) -> "dict[tuple[int, int], Fraction]":
    """The weight of one nested image of term key at kernel exponent b on
    each cell (p, q) of box (see _fourterm_table); kappa is _kappa."""
    (lo1, o1), (lo2, o2) = box["y1"], box["y2"]
    (e3, w3), (e2, w2), (e1, w1) = levels
    w3, w2, w1 = {"a": (w3 - b, w2, w1), "b": (w3, w2 - b, w1)}.get(key, (w3, w2, w1 - b))
    top = -1 - e3
    g = kappa(e3, w3, top)
    pieces = []  # (scalar, y1 part, y2 part)
    for k in range(top + 1):
        r = g.get(top - k)
        if not r:
            continue
        if key in "ab":
            ps = _taylor(e2, kappa(e2, w2, o1 + top - e2), k, 1)
            if key == "b":
                ps = {p: x if p % 2 == 0 else -x for p, x in ps.items()}
            pieces.append((r, ps, _taylor(e1, kappa(e1, w1, o2 - e1), 0, 1)))
            continue
        ps = _taylor(e2, kappa(e2, w2, o1 - e2), 0, 1)
        if key == "c":
            pieces.append((r, ps, _taylor(e1, kappa(e1, w1, o2 + top - e1), k, -1)))
            continue
        kap1 = kappa(e1, w1, o2 + top + o1 - e2 - e1)
        for l in range(o1 - e2 + 1):
            shifted = {p + l: x for p, x in ps.items()}
            pieces.append((r * binom(k + l, k), shifted, _taylor(e1, kap1, k + l, -1)))
    out: "dict[tuple[int, int], Fraction]" = {}
    for r, ps, qs in pieces:
        for p, x in ps.items():
            if lo1 <= p <= o1:
                for q, y in qs.items():
                    if lo2 <= q <= o2:
                        out[(p, q)] = out.get((p, q), 0) + r * x * y
    return out


def fourterm_diffs(params: dict, mismatches: list) -> None:
    """Commutator of two bracket fields against the four-term right side
    on every (target, b, c) cell.  The left side is one _commutator_cells
    table per pair of bracket slices and target.  The right side depends
    on the target and on c only through the mode x_mode(., -b - c,
    target), so its table is built once, before any target (see
    _fourterm_table), and mapped per cell."""
    u1, v1, u2, v2 = params["u1"], params["v1"], params["u2"], params["v2"]
    o1, o2 = params["y-orders"]
    w = params["x-window"]
    d1 = _wt_max(u1) + _wt_max(v1)
    d2 = _wt_max(u2) + _wt_max(v2)
    uslices = y_bracket_apply(u1, v1, o1)
    vslices = y_bracket_apply(u2, v2, o2)
    box = {"y1": (-d1, o1), "y2": (-d2, o2)}
    table = _fourterm_table(u1, v1, u2, v2, box, w)
    for target in basis_up_to(params["weight-cap"]):
        comms = {
            (alpha, beta): _commutator_cells(ua, vb, target, w)
            for alpha, ua in uslices.items()
            for beta, vb in vslices.items()
        }
        for b in range(-w, w + 1):
            for c in range(-w, w + 1):
                data = {ab: cells[(b, c)] for ab, cells in comms.items() if (b, c) in cells}
                rhs = {}
                for cell, vec in table[b].items():
                    img = x_mode(vec, -b - c, target)
                    if img:
                        rhs[cell] = img
                for cell, va, vb in _cell_diffs(data, rhs, box):
                    note_diff(mismatches, [b, c, *cell], va, vb, target)


def bridge_diffs(params: dict, mismatches: list) -> None:
    """Doubly dilated regularized pair field vs the weight-shifted field
    of the bracket of the generator with itself."""
    y_cap = params["y-order"]
    w_cap = params["w-order"]
    n_rng = params["mode-range"]
    g = generator()
    slices = y_bracket_apply(g, g, y_cap + w_cap)
    for target in basis_up_to(params["weight-cap"]):
        for n in range(-n_rng, n_rng + 1):
            xw = {q: x_mode(vec, n, target) for q, vec in slices.items()}
            for a in range(-2, y_cap + 1):
                for bb in range(w_cap + 1):
                    if a >= 0:
                        lhs = gen_quadratic_coeff(a, bb, n, target, regularized=True)
                        lhs = lhs.scaled(2)
                    else:
                        # the pole part of minus the derivative of the kernel
                        # 1/(1 - e^(-y)) = 1/y + 1/2 + O(y) is y^-2
                        lhs = target.scaled(int(a == -2 and n == 0 and bb == 0))
                    rhs = _fraction_sum(
                        (
                            binom(a + k, k) * (-1) ** k
                            * F((-n) ** (bb - k), math.factorial(bb - k)),
                            xw.get(a + k),
                        )
                        for k in range(bb + 1)
                    )
                    note_diff(mismatches, [a, bb, n], lhs, rhs, target)


def specialize_diffs(params: dict, mismatches: list) -> None:
    """The general commutator identity at four copies of the generator,
    dilations restored, against the dilated-pair bracket engine."""
    oy1, ow1, oy2, ow2 = params["y-orders"]
    w = params["x-window"]
    caps = (oy1 + ow1, ow1, oy2 + ow2, ow2)
    g = generator()
    # GENCOMM's slice pairs with the generator in all four slots
    gencomm = {"u1": g, "v1": g, "u2": g, "v2": g, "x-window": w, "y-orders": (oy1, oy2)}
    pairs = _slice_pairs(gencomm, _comm_rhs)
    box = {"x1": (-w, w), "x2": (-w, w)}
    for target in basis_up_to(params["weight-cap"]):
        table = dilated_bracket_lhs(target, w, caps)
        for (alpha, beta), ua, vb, rhs_table in pairs:
            lhs, rhs = _comm_sides(ua, vb, target, w, rhs_table)
            for cell, va, vv in _cell_diffs(lhs, rhs, box):
                note_diff(mismatches, [alpha, beta, *cell], va, vv, target)
            if alpha < 0 or beta < 0:
                # scalar slices commute; the bracket engine has no
                # monomials there, so both sides must vanish
                for b in range(-w, w + 1):
                    for c in range(-w, w + 1):
                        note_diff(mismatches, [alpha, beta, b, c], lhs.get((b, c)), None, target)
                continue
            for b in range(-w, w + 1):
                for c in range(-w, w + 1):
                    mono_table = table.get((b, c), {})
                    lv = lhs.get((b, c), FockVector.zero())
                    for g1 in range(ow1 + 1):
                        for g2 in range(ow2 + 1):
                            # a1 >= alpha >= 0 and a3 >= beta >= 0: integer weights
                            pred = _weighted_sum(
                                (math.comb(a1, alpha) * math.comb(a3, beta), vec)
                                for a1 in range(alpha, alpha + g1 + 1)
                                for a3 in range(beta, beta + g2 + 1)
                                if (vec := mono_table.get((a1, g1 - (a1 - alpha), a3, g2 - (a3 - beta))))
                            )
                            # the binomial resummation of the table
                            # already carries one transport factor
                            # b^g1/g1! c^g2/g2!, so only the cell is
                            # scaled before comparing
                            fac = F(b**g1, math.factorial(g1))
                            fac *= F(c**g2, math.factorial(g2))
                            note_diff(
                                mismatches,
                                [alpha, g1, beta, g2, b, c],
                                lv.scaled(fac),
                                pred.scaled(4),
                                target,
                            )

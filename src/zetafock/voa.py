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

The layer is integer from the kernel to the comparison.  The kernel
caches each image as its integer coefficients {partition: int}, and
_mode_sum is the one mode sum: it takes vectors as numerator dicts and
returns the image over the product of their denominators.  vertex_mode
and x_mode make that sum a FockVector for the public interface and for
AXIOMS, which compares single vectors; the checks built on cell tables
never call them.  Every builder below takes numerator dicts and
builds a cell table {cell: {partition: int}} whose one denominator is
fixed by its inputs, the product of the input vectors' denominators,
never reduced; so both sides of a vertex identity share a denominator
(_sides) and reports.cell_diffs compares them by dict equality,
building vectors only for a differing cell.

Each right side is Y(W, x2) applied to the target, with W built from u
and v alone.  So the right sides are built once per (u, v, window),
before any target, as small tables of target-independent numerators
(_jacobi_inner, _newjacobi_rhs, _comm_rhs, _fourterm_table), and each
cell is read off with one or a few modes of those on the target.
FOURTERM's table sums nested bracket images (images of images from
_bracket_images) with scalar weights, Laurent polynomials in the two
bracket variables on plain Fraction dicts, into FockVector cells, which
reports.over_lcm brings to one denominator per table.  The left sides
are built per target, as the inner field acts on the target first;
tabling it before the target would need the identity being checked.
The three-delta left sides are closed-form sums of mode images weighted
by the binomial kernel (_delta_cells).  Integer weights are summed with
fock._weighted_sum and Fraction weights with fock._fraction_sum.  No
side goes through the Series ring: y_bracket_apply returns its y-slices
as a plain dict too.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cache, lru_cache

from .fock import (
    _PARTS,
    FockVector,
    _annihilated,
    _components,
    _created,
    _fraction_sum,
    _weighted_sum,
    basis_up_to,
    weight,
)
from .quadratic import _dilated_lhs_blocks, _resummation, gen_quadratic_coeff
from .reports import cell_diffs, note_diff, over_lcm
from .scalars import binom, em1_unit, u_mul, u_pow

F = Fraction


def generator() -> FockVector:
    """The weight-one state whose field is the current itself."""
    return FockVector.basis((1,))


def _omega() -> FockVector:
    return FockVector.basis((1, 1)).scaled(F(1, 2))


def _wt_max(v) -> int:
    return max(map(weight, v), default=0)


def _window(w: int) -> range:
    """The exponents -w, ..., w of a window of half-width w."""
    return range(-w, w + 1)


# ----------------------------------------------------------------------
# Modes of the free fields


@lru_cache(maxsize=None)
def _mode_on_basis(
    u_parts: "tuple[int, ...]", n: int, v_parts: "tuple[int, ...]"
) -> "dict[tuple[int, ...], int]":
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
    a <= wt(v), so the image is zero when total > wt(v).  It is cached
    as its integer coefficients {partition: int}, zeros dropped, and
    callers never mutate it."""
    if not u_parts:
        return {v_parts: 1} if n == -1 else {}
    total = n + 1 - sum(u_parts)
    out = {}
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
    return {intern(p, p): c for p, c in out.items() if c}


def _mode_sum(u, n, v, shifted=False):
    """Mode n of the field of u applied to v, in numerators: u and v are
    numerator dicts {partition: int} and the image, zeros dropped, is
    over u's denominator times v's.  It sums the basis images
    _mode_on_basis(up, m, vp), m = n, or m = n - 1 + wt(up) for the
    weight-shifted field (shifted, see x_mode)."""
    acc = {}
    v_items = v.items()
    for up, cu in u.items():
        m = n - 1 + sum(up) if shifted else n
        for vp, cv in v_items:
            w = _mode_on_basis(up, m, vp)
            if w:
                c = cu * cv
                for p, x in w.items():
                    acc[p] = acc.get(p, 0) + c * x
    return {p: x for p, x in acc.items() if x}


def vertex_mode(u: FockVector, n: int, v: FockVector) -> FockVector:
    """Coefficient of x^(-n-1) in the field of u, applied to v."""
    return FockVector.from_ints(_mode_sum(u._num, n, v._num), u._den * v._den)


def x_mode(u: FockVector, n: int, v: FockVector) -> FockVector:
    """Coefficient of x^(-n) in the weight-shifted field of u.

    Shifting by the weight of each homogeneous component makes the mode
    lower weights by exactly n."""
    return FockVector.from_ints(_mode_sum(u._num, n, v._num, True), u._den * v._den)


def _commutator_cells(u, v, target, w):
    """The commutator of the weight-shifted fields of u and v on target,
    numerator dicts all three, keyed (b, c) on the square [-w, w]^2:
    x_mode(u, -b, x_mode(v, -c, t)) - x_mode(v, -c, x_mode(u, -b, t)),
    nonzero cells only, over the product of the three denominators.  The
    inner images of target are computed once per b and once per c."""
    rng = _window(w)
    u_on = {b: _mode_sum(u, -b, target, True) for b in rng}
    v_on = {c: _mode_sum(v, -c, target, True) for c in rng}
    cells = {}
    for b, c in itertools.product(rng, rng):
        x, y = _mode_sum(u, -b, v_on[c], True), _mode_sum(v, -c, u_on[b], True)
        if (x or y) and (num := _weighted_sum(((1, x), (-1, y)))):
            cells[(b, c)] = num
    return cells


# ----------------------------------------------------------------------
# Bracket coordinates


@lru_cache(maxsize=None)
def _em1_power(e: int, order: int) -> "dict[int, Fraction]":
    """Coefficients of ((e^y - 1)/y)^e, complete to y^order."""
    return u_pow(em1_unit(order), e, order)


@lru_cache(maxsize=None)
def _kappa(e: int, w: int, order: int) -> "dict[int, Fraction]":
    """Coefficients of kappa_(e,w)(y) = ((e^y - 1)/y)^e e^(w y), complete
    to y^order (none for a negative order); one cache serves
    y_bracket_apply and FOURTERM's weights, so callers never mutate it."""
    if order < 0:
        return {}
    ew = {j: F(w**j, math.factorial(j)) for j in range(order + 1)}
    return u_mul(_em1_power(e, order), ew, order)


def _bracket_images(u, v, e_hi: int) -> list:
    """(w, e, I^w_e) for the nonzero x^e coefficients I^w_e =
    vertex_mode(u_w, -e - 1, v), e <= e_hi, of the weight-w components
    u_w of u, in numerators: u and v are numerator dicts, and u_w keeps
    u's numerators unreduced, so every image is over u's denominator
    times v's.  I^w_e has weight w + wt(v) + e, so none is dropped below
    e = -(w + wt(v))."""
    wt_v = _wt_max(v)
    return [
        (w, e, img)
        for w, comp in _components(u)
        for e in range(-(w + wt_v), e_hi + 1)
        if (img := _mode_sum(comp, -e - 1, v))
    ]


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
    cells = {}
    for w, e, img in _bracket_images(u._num, v._num, y_order):
        for j, c in _kappa(e, w, y_order - e).items():
            cells.setdefault(e + j, []).append((c, img))
    return {q: vec for q in sorted(cells) if (vec := _fraction_sum(cells[q], u._den * v._den))}


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
                    bound = _wt_max(u._num) + _wt_max(v._num) - 1
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
                note_diff(mismatches, [], vertex_mode(omega, 1, v), v.scaled(_wt_max(v._num)), v)
        else:
            raise ValueError(f"unknown axiom {axiom!r}")


# ----------------------------------------------------------------------
# Classical three-delta identity


def _sides(build, u, v, target, *args):
    """The first four arguments of cell_diffs for the tables (lhs, rhs) =
    build(u, v, target, *args) of the numerators of the vectors u, v and
    target: both sides are over the product of their denominators."""
    den = u._den * v._den * target._den
    lhs, rhs = build(u._num, v._num, target._num, *args)
    return lhs, den, rhs, den


def jacobi_diffs(mismatches, prefix, u, v, targets, w) -> None:
    """Mismatches of the three-delta identity applied to each target on
    the cube [-w, w]^3 of x0/x1/x2 exponents, monomial prefix + (target
    index, x0, x1, x2).  The left side is built per target; the right
    side's inner field is built once (see _jacobi_inner)."""
    inner = _jacobi_inner(u._num, v._num, w)
    for ti, target in enumerate(targets):
        sides = _sides(_jacobi_sides, u, v, target, w, inner)
        for cell, va, vb in cell_diffs(*sides, [_window(w)] * 3):
            note_diff(mismatches, [*prefix, ti, *cell], va, vb, target)


def _jacobi_sides(u, v, target, w, inner):
    """Both sides of the three-delta identity applied to target, as
    (lhs, rhs) cell tables over x0, x1, x2 on the cube [-w, w]^3, u, v
    and target numerator dicts.  The
    left side takes plain modes, and an inner image vertex_mode(x, -e - 1,
    target) has weight wt(x) + wt(target) + e, so it vanishes below
    e = -(wt(x) + wt(target)); the right side is read off inner, which
    _jacobi_inner(u, v, w) built once for every target."""
    wt_t = _wt_max(target)
    lhs = _delta_lhs(
        u, v, target, w, lambda x, e, vec: _mode_sum(x, -e - 1, vec),
        -(_wt_max(v) + wt_t), -(_wt_max(u) + wt_t),
    )
    return lhs, _jacobi_rhs_cells(inner, target, w)


def _jacobi_inner(u, v, w: int):
    """The x0-slices I_e = vertex_mode(u, -e - 1, v), e <= w, of the inner
    field on the three-delta right side, in numerators over u's
    denominator times v's; they do not involve the target.

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
    return {e: num for e in range(-wt_uv, w + 1) if (num := _mode_sum(u, -e - 1, v))}


def _jacobi_rhs_cells(inner, target, w):
    """The three-delta right side on the cube [-w, w]^3 (see _jacobi_inner),
    one mode of one inner slice per term, with the integer kernel
    C(b + k, k) (-1)^k built once per (a, b) and each mode computed
    once; a cell is one _weighted_sum of its nonzero terms, over the
    denominator of the slices times the target's, skipped when it has
    none (an absent cell is zero)."""
    mode = cache(lambda e, m: _mode_sum(inner[e], m, target))
    rng = _window(w)
    data = {}
    for a, b in itertools.product(rng, rng):
        kernel = [
            (a - e, kw, e)
            for e in inner
            if e <= a and (kw := int(binom(b + a - e, a - e)) * (-1) ** (a - e))
        ]
        for c in rng:
            terms = [(kw, img) for k, kw, e in kernel if (img := mode(e, -(b + c + k + 2)))]
            if terms:
                data[(a, b, c)] = _weighted_sum(terms)
    return data


def _delta_cells(outer, inner, target, w, mode, floor, n_sign):
    """One left-side term: Y(outer, xo) Y(inner, xi) target times
    x0^-1 delta(n_sign (xo - xi)/x0), as a table keyed (a, p, q) for the
    cell x0^a xo^p xi^q of the cube [-w, w]^3.

    outer, inner and target are numerator dicts, and mode(x, e, vec) is
    the x^e coefficient of the field of x applied to vec, in numerators
    (see _mode_sum), so every cell is over the product of the three
    denominators.  The inner images I_e = mode(inner, e, target) vanish below
    e = floor.  The kernel term C(n, k) (-1)^k n_sign^n x0^(-n-1)
    xo^(n-k) xi^k, k >= 0, meets the pair coefficient
    mode(outer, e, I_f) xo^e xi^f at the cell exactly when n = -a - 1,
    e = p - n + k and f = q - k, so

        cell(a, p, q) = sum over 0 <= k <= q - floor of
                        n_sign^n C(n, k) (-1)^k mode(outer, p - n + k, I_(q-k)).

    The sum is exact: a larger k reads an inner image below the floor.
    For n >= 0 C(n, k) vanishes when k > n, so those terms are skipped.
    The kernel coefficients are integers, built once per a, each pair
    coefficient is computed once, and each cell is one _weighted_sum of
    its nonzero images, skipped when it has none; n_sign^n is taken from
    the parity of n, since a negative power of an int is a float."""
    images = {e: mode(inner, e, target) for e in range(floor, w + 1)}
    outer_on = cache(lambda e, f: mode(outer, e, images[f]))
    rng = _window(w)
    cells = {}
    for a in rng:
        n = -a - 1
        sign = n_sign if n % 2 else 1
        kernel = [int(sign * (-1) ** k * binom(n, k)) for k in range(w - floor + 1)]
        for p, q in itertools.product(rng, rng):
            terms = [
                (kernel[k], img)
                for k in range(q - floor + 1)
                if kernel[k] and images[q - k] and (img := outer_on(p - n + k, q - k))
            ]
            if terms:
                cells[(a, p, q)] = _weighted_sum(terms)
    return cells


def _delta_lhs(u, v, target, w, mode, floor_v, floor_u):
    """The three-delta left side, keyed (a, b, c) for x0^a x1^b x2^c on
    the cube [-w, w]^3, with u's field in x1 and v's in x2: the
    _delta_cells term of (u, v) minus that of (v, u) under kernel sign
    -1, whose outer field sits in x2, so lhs(a, b, c) =
    first(a, b, c) - second(a, c, b).  floor_v and floor_u are the floors
    of the inner images of v and of u."""
    lhs = _delta_cells(u, v, target, w, mode, floor_v, 1)
    for (a, c, b), num in _delta_cells(v, u, target, w, mode, floor_u, -1).items():
        lhs[(a, b, c)] = _weighted_sum(((1, lhs.get((a, b, c), {})), (-1, num)))
    return {cell: num for cell, num in lhs.items() if num}


# ----------------------------------------------------------------------
# Exponential-substitution identities


def _newjacobi_rhs(u, v, win):
    """Right side of the exponential-delta identity before the target:
    the vectors H(a, n) whose x-mode -(n + c + 1) on a target is the
    x0^a x1^(n-a) x2^c cell, for a <= win and n = a + b, b in
    [-win, win], in numerators over u's denominator times v's (u and v
    numerator dicts).

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
    return {
        (a, n): h
        for a in range(max(-win, lowest), win + 1)
        for n in range(a - win, a + win + 1)
        if (h := _weighted_sum(
            (int(binom(n - e - w, a - e)) * (-1) ** (a - e), img) for w, e, img in images if e <= a
        ))
    }


def _newjacobi_sides(u, v, target, win, table):
    """Both sides of the exponential-delta identity applied to target.

    Returns (lhs, rhs) cell tables over x0, x1, x2 on the cube of side
    2*win, u, v and target numerator dicts.  The left side takes
    weight-shifted modes, and an inner image
    x_mode(x, -e, target) has weight wt(target) + e, so it vanishes
    below e = -wt(target); the right side is read off table, which
    _newjacobi_rhs(u, v, win) built once for every target."""
    w = win
    wt_t = _wt_max(target)
    lhs = _delta_lhs(
        u, v, target, w, lambda x, e, vec: _mode_sum(x, -e, vec, True), -wt_t, -wt_t
    )
    data = {
        (a, n - a, c): img
        for (a, n), h in table.items()
        for c in _window(w)
        if (img := _mode_sum(h, -(n + c + 1), target, True))
    }
    return lhs, data


def _comm_rhs(u, v, win):
    """Right side of the commutator identity before the target: the
    vectors R_b whose x-mode -(b + c) on a target is the x1^b x2^c cell,
    for b in [-win, win], in numerators over u's denominator times v's
    (u and v numerator dicts).

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
    return {
        b: _weighted_sum((int(binom(w - b - 1, -e - 1)), img) for w, e, img in images)
        for b in _window(win)
    }


def _comm_sides(u, v, target, win, table):
    """Commutator of the weight-shifted fields vs the residue form, as
    (lhs, rhs) cell tables on the square [-win, win]^2 of x1/x2 exponents,
    u, v and target numerator dicts.  The left side is
    _commutator_cells; the right side is read off table, which
    _comm_rhs(u, v, win) built once for every target."""
    rng = _window(win)
    rhs = {
        (b, c): img for b in rng for c in rng if (img := _mode_sum(table[b], -b - c, target, True))
    }
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
    acceptance gate runs it on params u, v, targets and x-window.  The
    three comparisons are one walk over cells (b, c, comparison)."""
    u, v, win = params["u"], params["v"], params["x-window"]
    if win < 1:
        raise ValueError(f"x-window must be at least 1, got {win}")
    nj_table = _newjacobi_rhs(u._num, v._num, win)
    c_table = _comm_rhs(u._num, v._num, win)
    square = [_window(win)] * 2
    for target in params["targets"]:
        nj_lhs, den, nj_rhs, _ = _sides(_newjacobi_sides, u, v, target, win, nj_table)
        c_lhs, _, c_rhs, _ = _sides(_comm_sides, u, v, target, win, c_table)
        direct, left = (
            {(b, c): x for (a, b, c), x in t.items() if a == -1} for t in (nj_rhs, nj_lhs)
        )
        pairs = ((direct, c_rhs), (left, c_lhs), (left, direct))
        lhs, rhs = (
            {(*bc, i): x for i, pair in enumerate(pairs, 1) for bc, x in pair[j].items()}
            for j in (0, 1)
        )
        for cell, va, vb in cell_diffs(lhs, den, rhs, den, square + [range(1, 4)]):
            note_diff(mismatches, cell, va, vb, target)


# ----------------------------------------------------------------------
# Named identity bodies, registered in the catalog


def _pair_diffs(params, mismatches, sides, nvars, pairs, orders=((),)) -> None:
    """The target loop of NEWJACOBI, COMM, GENJACOBI and GENCOMM: the
    mismatches of the cell tables (lhs, rhs) = sides(u, v, target, w,
    table) on the cube [-w, w]^nvars, for every basis target of weight
    <= weight-cap and every (prefix, u, v, table) of pairs, with
    monomial prefix + g + cell.

    Each g of orders is a tuple of dilation orders (g1, g2) that
    transports both sides by b^g1/g1! c^g2/g2!, (b, c) the cell's x1
    and x2 exponents, so a bare mismatch is listed once per g with a
    nonzero factor; the empty g, the only one by default, has factor 1."""
    w = params["x-window"]
    cube = [_window(w)] * nvars
    for target in basis_up_to(params["weight-cap"]):
        for prefix, u, v, table in pairs:
            for cell, va, vb in cell_diffs(*_sides(sides, u, v, target, w, table), cube):
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
        ([alpha, beta], ua, vb, build(ua._num, vb._num, w))
        for alpha, ua in uslices.items()
        for beta, vb in vslices.items()
    ]


def _dilation_orders(params) -> list:
    g1, g2 = params["w-orders"]
    return list(itertools.product(range(g1 + 1), range(g2 + 1)))


def newjacobi_diffs(params: dict, mismatches: list) -> None:
    u, v = params["u"], params["v"]
    pairs = [([], u, v, _newjacobi_rhs(u._num, v._num, params["x-window"]))]
    _pair_diffs(params, mismatches, _newjacobi_sides, 3, pairs)


def comm_diffs(params: dict, mismatches: list) -> None:
    u, v = params["u"], params["v"]
    pairs = [([], u, v, _comm_rhs(u._num, v._num, params["x-window"]))]
    _pair_diffs(params, mismatches, _comm_sides, 2, pairs)


def genjacobi_diffs(params: dict, mismatches: list) -> None:
    pairs = _slice_pairs(params, _newjacobi_rhs)
    _pair_diffs(params, mismatches, _newjacobi_sides, 3, pairs, _dilation_orders(params))


def gencomm_diffs(params: dict, mismatches: list) -> None:
    pairs = _slice_pairs(params, _comm_rhs)
    _pair_diffs(params, mismatches, _comm_sides, 2, pairs, _dilation_orders(params))


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
    cells below box are never read.  Each input enters every nested image
    once, so the images are numerators over the product of the four
    inputs' denominators, and a cell is one _fraction_sum of its images
    with their weights, reduced once."""
    den = u1._den * v1._den * u2._den * v2._den
    nums = u1._num, v1._num, u2._num, v2._num
    cells = {}
    for key, sign in (("a", 1), ("b", 1), ("c", -1), ("d", -1)):
        for levels, img in _fourterm_images(key, *nums, box["y1"][1], box["y2"][1]):
            for b in _window(win):
                for (p, q), c in _fourterm_weight(key, b, levels, box).items():
                    if c:
                        cells.setdefault((b, p, q), []).append((sign * c, img))
    table = {b: {} for b in _window(win)}
    for (b, p, q), terms in cells.items():
        vec = _fraction_sum(terms, den)
        if vec:
            table[b][(p, q)] = vec
    return table


def _fourterm_images(key, u1, v1, u2, v2, o1, o2):
    """(levels, I1) for each nested image I1 of the right-side term key
    that can meet a cell with p <= o1 and q <= o2, levels = ((e3, w3),
    (e2, w2), (e1, w1)) from the innermost bracket out; each level is one
    _bracket_images call per image of the level inside it, on numerator
    dicts."""
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


def _fourterm_weight(key, b, levels, box) -> "dict[tuple[int, int], Fraction]":
    """The weight of one nested image of term key at kernel exponent b on
    each cell (p, q) of box (see _fourterm_table)."""
    (lo1, o1), (lo2, o2) = box["y1"], box["y2"]
    (e3, w3), (e2, w2), (e1, w1) = levels
    w3, w2, w1 = {"a": (w3 - b, w2, w1), "b": (w3, w2 - b, w1)}.get(key, (w3, w2, w1 - b))
    top = -1 - e3
    g = _kappa(e3, w3, top)
    pieces = []  # (scalar, y1 part, y2 part)
    for k in range(top + 1):
        r = g.get(top - k)
        if not r:
            continue
        if key in "ab":
            ps = _taylor(e2, _kappa(e2, w2, o1 + top - e2), k, 1)
            if key == "b":
                ps = {p: x if p % 2 == 0 else -x for p, x in ps.items()}
            pieces.append((r, ps, _taylor(e1, _kappa(e1, w1, o2 - e1), 0, 1)))
            continue
        ps = _taylor(e2, _kappa(e2, w2, o1 - e2), 0, 1)
        if key == "c":
            pieces.append((r, ps, _taylor(e1, _kappa(e1, w1, o2 + top - e1), k, -1)))
            continue
        kap1 = _kappa(e1, w1, o2 + top + o1 - e2 - e1)
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
    table per pair of bracket slices and target; the slices of each
    bracket are brought to the lcm of their denominators first
    (reports.over_lcm), so every left-side cell is over one
    denominator.  The right side depends on the target and on c only
    through the mode x_mode(., -b - c, target), so its table is built
    once, before any target (see _fourterm_table), brought to one
    denominator per b, and mapped per cell."""
    u1, v1, u2, v2 = params["u1"], params["v1"], params["u2"], params["v2"]
    o1, o2 = params["y-orders"]
    w = params["x-window"]
    d1 = _wt_max(u1._num) + _wt_max(v1._num)
    d2 = _wt_max(u2._num) + _wt_max(v2._num)
    uslices, du = over_lcm(y_bracket_apply(u1, v1, o1))
    vslices, dv = over_lcm(y_bracket_apply(u2, v2, o2))
    box = {"y1": (-d1, o1), "y2": (-d2, o2)}
    table = {b: over_lcm(cells) for b, cells in _fourterm_table(u1, v1, u2, v2, box, w).items()}
    ranges = [range(-d1, o1 + 1), range(-d2, o2 + 1)]
    for target in basis_up_to(params["weight-cap"]):
        comms = {
            (alpha, beta): _commutator_cells(ua, vb, target._num, w)
            for alpha, ua in uslices.items()
            for beta, vb in vslices.items()
        }
        for b in _window(w):
            nums, den = table[b]
            for c in _window(w):
                data = {ab: cells.get((b, c), {}) for ab, cells in comms.items()}
                rhs = {
                    cell: _mode_sum(num, -b - c, target._num, True) for cell, num in nums.items()
                }
                lden = du * dv * target._den
                for cell, va, vb in cell_diffs(data, lden, rhs, den * target._den, ranges):
                    note_diff(mismatches, [b, c, *cell], va, vb, target)


def bridge_diffs(params: dict, mismatches: list) -> None:
    """Doubly dilated regularized pair field vs the weight-shifted field
    of the bracket of the generator with itself."""
    y_cap = params["y-order"]
    w_cap = params["w-order"]
    n_rng = params["mode-range"]
    g = generator()
    slices, den = over_lcm(y_bracket_apply(g, g, y_cap + w_cap))
    for target in basis_up_to(params["weight-cap"]):
        for n in range(-n_rng, n_rng + 1):
            xw = {q: _mode_sum(num, n, target._num, True) for q, num in slices.items()}
            for a in range(-2, y_cap + 1):
                for bb in range(w_cap + 1):
                    if a >= 0:
                        lhs = gen_quadratic_coeff(a, bb, n, target, regularized=True)
                        lhs = lhs.scaled(2)
                    else:
                        # the pole part of minus the derivative of the kernel
                        # 1/(1 - e^(-y)) = 1/y + 1/2 + O(y) is y^-2
                        lhs = target.scaled(int(a == -2 and n == 0 and bb == 0))
                    terms = (
                        (binom(a + k, k) * (-1) ** k * F((-n) ** (bb - k), math.factorial(bb - k)),
                         xw.get(a + k, {}))
                        for k in range(bb + 1)
                    )
                    rhs = _fraction_sum(terms, den * target._den)
                    note_diff(mismatches, [a, bb, n], lhs, rhs, target)


def specialize_diffs(params: dict, mismatches: list) -> None:
    """The general commutator identity at four copies of the generator,
    dilations restored, against the dilated-pair bracket engine.

    Each commutator cell lv at (b, c) is compared with its residue form.
    For slices alpha, beta >= 0 and dilation orders g1, g2, lv times the
    transport factor b^g1 c^g2 / (g1! g2!) must also equal 4 times the
    sum over a1, a3 of C(a1, alpha) C(a3, beta) T(b, c, a), a = (a1,
    alpha + g1 - a1, a3, beta + g2 - a3), which carries the other
    transport factor.  The table cell T is the block entry N_a of
    _dilated_lhs_blocks over 4 a!, a! = a1! a2! a3! a4!, so with D the
    lcm of the a! that side is acc / D, acc = sum of C C (D / a!) N_a
    (quadratic._resummation).

    Both comparisons are cell_diffs walks over integer tables.  The
    commutator side lv = N / l is over l, the product of the slices' and
    the target's denominators.  The transport walk runs over cells (b,
    c, g1, g2), so a cell's entries keep their (b, c)-major order, and
    both its sides are over L, the lcm of l G, G = ow1! ow2!, and of the
    D of every (g1, g2): the transported side is N b^g1 c^g2 (L / l) /
    (g1! g2!), an integer since g1! g2! divides G, and the predicted
    side is acc L / D."""
    oy1, ow1, oy2, ow2 = params["y-orders"]
    w = params["x-window"]
    caps = (oy1 + ow1, ow1, oy2 + ow2, ow2)
    g = generator()
    # GENCOMM's slice pairs with the generator in all four slots
    gencomm = {"u1": g, "v1": g, "u2": g, "v2": g, "x-window": w, "y-orders": (oy1, oy2)}
    pairs = _slice_pairs(gencomm, _comm_rhs)
    square = [_window(w)] * 2
    ranges = square + [range(ow1 + 1), range(ow2 + 1)]
    G = math.factorial(ow1) * math.factorial(ow2)
    for target in basis_up_to(params["weight-cap"]):
        blocks = _dilated_lhs_blocks(target, w, caps)
        for (alpha, beta), ua, vb, rhs_table in pairs:
            lhs, den, rhs, _ = _sides(_comm_sides, ua, vb, target, w, rhs_table)
            for cell, va, vv in cell_diffs(lhs, den, rhs, den, square):
                note_diff(mismatches, [alpha, beta, *cell], va, vv, target)
            if alpha < 0 or beta < 0:
                # scalar slices commute; the bracket engine has no
                # monomials there, so both sides must vanish
                for cell, va, vv in cell_diffs(lhs, den, {}, 1, square):
                    note_diff(mismatches, [alpha, beta, *cell], va, vv, target)
                continue
            sums = {g: _resummation(caps, alpha, beta, *g) for g in itertools.product(*ranges[2:])}
            L = math.lcm(den * G, *[D for D, _ in sums.values()])
            moved, pred = {}, {}
            for b, c, g1, g2 in itertools.product(*ranges):
                D, terms = sums[(g1, g2)]
                top = b**g1 * c**g2 * (L // den // (math.factorial(g1) * math.factorial(g2)))
                moved[(b, c, g1, g2)] = {p: x * top for p, x in lhs.get((b, c), {}).items() if top}
                block = blocks[(b, c)]
                if parts := [(wgt * (L // D), block[i]) for i, wgt in terms if block[i]]:
                    pred[(b, c, g1, g2)] = _weighted_sum(parts)
            for (b, c, g1, g2), va, vv in cell_diffs(moved, L, pred, L, ranges):
                note_diff(mismatches, [alpha, g1, beta, g2, b, c], va, vv, target)

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
(_jacobi_inner, _newjacobi_rhs, _comm_rhs, _fourterm_rhs), and each
cell is read off with one or a few modes of those vectors on the
target.  The left sides are built per target, as the inner field acts
on the target first; tabling it before the target would need the
identity being checked.  The three-delta left sides are closed-form
sums of mode images weighted by the binomial kernel (_delta_cells).
Those builders and the right-side tables sum their integer-weighted
images with _weighted_sum, which adds numerators over a common
denominator and reduces once.

Every compared side is a cell table: a dict from exponent tuples, in
sorted variable order, to FockVector, where an absent cell is zero.
FOURTERM's right side is built as a Series and becomes a table through
_series_table, which checks that it is known on the whole box, and
_cell_diffs walks the box row-major to find the cells that differ.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from . import calculus as ca
from .fock import (
    _PARTS,
    FockVector,
    _annihilated,
    _created,
    basis_up_to,
    weight,
    weight_components,
)
from .quadratic import dilated_bracket_lhs, gen_quadratic_coeff
from .reports import note_diff
from .series import (
    NEG_INF,
    POS_INF,
    Series,
    VariableMismatchError,
    VarWindow,
    WindowInsufficientError,
    mul,
)

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


def _weighted_sum(terms) -> FockVector:
    """The sum of c * vec over (c, vec) pairs with int c.  The numerators
    are summed over the lcm of the denominators and reduced once, as in
    _mode_sum, with no vector built per term."""
    terms = [(c, vec) for c, vec in terms if c and vec]
    den = math.lcm(*(vec._den for _, vec in terms))
    acc: "dict[tuple[int, ...], int]" = {}
    for c, vec in terms:
        c *= den // vec._den
        for p, x in vec._num.items():
            acc[p] = acc.get(p, 0) + c * x
    return FockVector.from_ints({p: x for p, x in acc.items() if x}, den)


def vertex_mode(u: FockVector, n: int, v: FockVector) -> FockVector:
    """Coefficient of x^(-n-1) in the field of u, applied to v."""
    return _mode_sum(u, v, lambda up: n)


def x_mode(u: FockVector, n: int, v: FockVector) -> FockVector:
    """Coefficient of x^(-n) in the weight-shifted field of u.

    Shifting by the weight of each homogeneous component makes the mode
    lower weights by exactly n."""
    return _mode_sum(u, v, lambda up: n - 1 + weight(up))


# ----------------------------------------------------------------------
# Bracket coordinates


@lru_cache(maxsize=None)
def _em1_power(e: int, order: int) -> "dict[int, Fraction]":
    """Coefficients of ((e^y - 1)/y)^e, complete to y^order."""
    return ca.u_pow(ca.em1_unit(order), e, order)


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


def y_bracket_apply(u: FockVector, v: FockVector, y_order: int) -> Series:
    """The bracket field Y[u, y]v = Y(e^(y L(0)) u, e^y - 1)v, a Laurent
    series in y complete up to y_order, of pole depth <= wt(u) + wt(v).

    The image I^w_e (see _bracket_images) carries (e^y - 1)^e e^(w y) =
    y^e kappa, with the power series kappa = _em1_power(e) e^(w y), so
    the y^q slice is the sum over w and e <= q of kappa_(q-e) I^w_e.
    Every image with e <= y_order is summed: each slice is exact."""
    if y_order < 0:
        raise ValueError("bracket order must be >= 0")
    zero = FockVector.zero()
    data: "dict[tuple[int], FockVector]" = {}
    for w, e, img in _bracket_images(u, v, y_order):
        n = y_order - e
        ew = {j: F(w**j, math.factorial(j)) for j in range(n + 1)}
        for j, c in ca.u_mul(_em1_power(e, n), ew, n).items():
            data[(e + j,)] = data.get((e + j,), zero) + img.scaled(c)
    return Series([VarWindow("y", NEG_INF, y_order, NEG_INF, POS_INF)], data)


def _bracket_slices(u: FockVector, v: FockVector, order: int) -> "dict[int, FockVector]":
    """y-coefficients of y_bracket_apply as a plain dict."""
    return {q: vec for (q,), vec in y_bracket_apply(u, v, order).terms()}


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


def _series_table(side: Series, box, name: str) -> "dict[tuple[int, ...], FockVector]":
    """The cells of a series side as a table.  The side must be known on
    the whole box, with the check and message of series' box comparison
    (name "lhs" or "rhs"), and its variables must be the box's."""
    if not side.known_on(box):
        raise WindowInsufficientError(f"{name} not known on the whole box {box}")
    if side.variables != tuple(sorted(box)):
        raise VariableMismatchError(f"{name} has variables {side.variables}")
    return dict(side.terms())


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
    C(b + k, k) (-1)^k built once per (a, b)."""
    modes: "dict[tuple[int, int], FockVector]" = {}
    data = {}
    for a in range(-w, w + 1):
        for b in range(-w, w + 1):
            kernel = [
                (a - e, int(ca.binom(b + a - e, a - e)) * (-1) ** (a - e), e, ie)
                for e, ie in inner.items()
                if e <= a
            ]
            for c in range(-w, w + 1):
                terms = []
                for k, kw, e, ie in kernel:
                    m = -(b + c + k + 2)
                    img = modes.get((e, m))
                    if img is None:
                        img = modes[(e, m)] = vertex_mode(ie, m, target)
                    terms.append((kw, img))
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
    is one _weighted_sum of its images; n_sign^n is taken from the parity
    of n, since a negative power of an int is a float."""
    images = {e: mode(inner, e, target) for e in range(floor, w + 1)}
    outer_on: "dict[tuple[int, int], FockVector]" = {}
    cells = {}
    for a in range(-w, w + 1):
        n = -a - 1
        sign = n_sign if n % 2 else 1
        kernel = [int(sign * (-1) ** k * ca.binom(n, k)) for k in range(w - floor + 1)]
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
                    terms.append((kernel[k], img))
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
                (int(ca.binom(n - e - w, a - e)) * (-1) ** (a - e), img)
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
            (int(ca.binom(w - b - 1, -e - 1)), img) for w, e, img in images
        )
    return table


def _comm_sides(u, v, target, win, table):
    """Commutator of the weight-shifted fields vs the residue form, as
    (lhs, rhs) cell tables on the square [-win, win]^2 of x1/x2 exponents.
    The right side is read off table, which _comm_rhs(u, v, win) built
    once for every target."""
    w = win
    u_on = {b: x_mode(u, -b, target) for b in range(-w, w + 1)}
    v_on = {c: x_mode(v, -c, target) for c in range(-w, w + 1)}
    lhs, rhs = {}, {}
    for b in range(-w, w + 1):
        for c in range(-w, w + 1):
            vec = x_mode(u, -b, v_on[c]) - x_mode(v, -c, u_on[b])
            if vec:
                lhs[(b, c)] = vec
            img = x_mode(table[b], -(b + c), target)
            if img:
                rhs[(b, c)] = img
    return lhs, rhs


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
        raise WindowInsufficientError("coefficient at x0^-1 outside known box of 'x0'")
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


def newjacobi_diffs(params: dict, mismatches: list) -> None:
    u, v, w = params["u"], params["v"], params["x-window"]
    cube = {"x0": (-w, w), "x1": (-w, w), "x2": (-w, w)}
    table = _newjacobi_rhs(u, v, w)
    for target in basis_up_to(params["weight-cap"]):
        lhs, rhs = _newjacobi_sides(u, v, target, w, table)
        for cell, va, vb in _cell_diffs(lhs, rhs, cube):
            note_diff(mismatches, list(cell), va, vb, target)


def comm_diffs(params: dict, mismatches: list) -> None:
    u, v, w = params["u"], params["v"], params["x-window"]
    box = {"x1": (-w, w), "x2": (-w, w)}
    table = _comm_rhs(u, v, w)
    for target in basis_up_to(params["weight-cap"]):
        lhs, rhs = _comm_sides(u, v, target, w, table)
        for cell, va, vb in _cell_diffs(lhs, rhs, box):
            note_diff(mismatches, list(cell), va, vb, target)


def _slice_pairs(params: dict, build) -> list:
    """(alpha, beta, ua, vb, build(ua, vb)) for the bracket slices
    ua of (u1, v1) and vb of (u2, v2), in sorted (alpha, beta) order:
    each right-side table is built once, before any target."""
    o1, o2 = params["y-orders"]
    uslices = _bracket_slices(params["u1"], params["v1"], o1)
    vslices = _bracket_slices(params["u2"], params["v2"], o2)
    return [
        (alpha, beta, ua, vb, build(ua, vb))
        for alpha, ua in sorted(uslices.items())
        for beta, vb in sorted(vslices.items())
    ]


def _transported_mismatches(mismatches, sides, box, w_orders, target, prefix):
    """Record mismatches of a dilation-transported comparison of the
    tables sides = (lhs, rhs) on box, whose last two variables are x1
    and x2: the exponent pair (b, c) scales both sides by
    b^g1/g1! * c^g2/g2! at each requested dilation order, so a bare
    mismatch is reported once per order with a nonzero transport
    factor."""
    g1_cap, g2_cap = w_orders
    for cell, va, vb in _cell_diffs(*sides, box):
        b, c = cell[-2:]
        for g1 in range(g1_cap + 1):
            for g2 in range(g2_cap + 1):
                fac = F(b**g1, math.factorial(g1)) * F(c**g2, math.factorial(g2))
                if fac:
                    mono = [*prefix, g1, g2, *cell]
                    note_diff(mismatches, mono, va.scaled(fac), vb.scaled(fac), target)


def genjacobi_diffs(params: dict, mismatches: list) -> None:
    w = params["x-window"]
    cube = {"x0": (-w, w), "x1": (-w, w), "x2": (-w, w)}
    pairs = _slice_pairs(params, lambda ua, vb: _newjacobi_rhs(ua, vb, w))
    for target in basis_up_to(params["weight-cap"]):
        for alpha, beta, ua, vb, table in pairs:
            sides = _newjacobi_sides(ua, vb, target, w, table)
            _transported_mismatches(
                mismatches, sides, cube, params["w-orders"], target, [alpha, beta]
            )


def gencomm_diffs(params: dict, mismatches: list) -> None:
    w = params["x-window"]
    box = {"x1": (-w, w), "x2": (-w, w)}
    pairs = _slice_pairs(params, lambda ua, vb: _comm_rhs(ua, vb, w))
    for target in basis_up_to(params["weight-cap"]):
        for alpha, beta, ua, vb, table in pairs:
            sides = _comm_sides(ua, vb, target, w, table)
            _transported_mismatches(
                mismatches, sides, box, params["w-orders"], target, [alpha, beta]
            )


def _bracket_on_series(g: Series, yvar: str, order: int, u=None, v=None) -> Series:
    """Bracket field y_bracket_apply(u, v) in a fresh variable, applied
    coefficientwise: each coefficient of g fills the slot left None."""
    pieces = []
    for exps, vec in g.terms():
        br = y_bracket_apply(vec if u is None else u, vec if v is None else v, order)
        br = br.rename({"y": yvar})
        pieces.append(mul(br, ca.monomial(dict(zip(g.variables, exps)))))
    if not pieces:
        wins = list(g.windows()) + [VarWindow(yvar, NEG_INF, order, 0, POS_INF)]
        return Series(wins, {})
    out = ca.aligned_sum(pieces)
    out = _inherit_claims(out, g)
    return out.restrict({yvar: (NEG_INF, order)})


def _inherit_claims(out: Series, g: Series) -> Series:
    """Clamp completeness claims of a coefficientwise expansion to the
    box of the series it came from, and widen bands to match."""
    out = out.restrict({v: (g.window(v).low, g.window(v).high) for v in g.variables})
    for v in g.variables:
        gw = g.window(v)
        out = ca.widen_band(out, v, gw.support_low, gw.support_high)
    return out


def _negate_var(f: Series, var: str, new_name: str) -> Series:
    """Substitute var = -new_name: exponents survive, odd ones flip sign."""
    g = f.rename({var: new_name})
    idx = g.variables.index(new_name)
    data = {}
    for exps, val in g.terms():
        data[exps] = val if exps[idx] % 2 == 0 else -val
    return Series(g.windows(), data)


def _pole_depth(f: Series, var: str) -> int:
    lo = f.window(var).support_low
    return -int(min(0, lo)) if lo != NEG_INF else 0


def _mul_exp(f: Series, var: str, scale, hi_needed: int) -> Series:
    """Multiply by exp(scale*var), keeping completeness up to var^hi_needed."""
    cap = hi_needed + (_pole_depth(f, var) if var in f.variables else 0)
    return mul(f, ca.exp_series(var, max(cap, 0), scale))


def _shift_merge_residue(f: Series, var: str, res: str, sign: int) -> Series:
    """Residue in res of f with var replaced by var + sign*res.

    Only the res^(-1) cell is read afterwards, so shift slices beyond
    the pole depth of res are dropped: merged into res they land at
    res^0 and above, never at the residue cell."""
    depth = _pole_depth(f, res)
    t_cap = max(depth - 1, 0)
    sh = ca.taylor_shift(f, var, "__sh", sign, t_cap)
    merged = ca.subst_monomial(sh, "__sh", res, t_cap - depth)
    return merged.residue(res)


def _fourterm_chains(u1, v1, u2, v2, orders, levels):
    """Target-independent bracket chains of the four right-side terms."""
    o1, o2 = orders
    l1, l2, l3 = levels
    dv = _wt_max(v1) + _wt_max(v2)
    du = _wt_max(u1) + _wt_max(v2)
    dt4 = _wt_max(u2) + _wt_max(u1)

    r1 = y_bracket_apply(v1, v2, l1).rename({"y": "t1"})
    r3 = _bracket_on_series(
        _bracket_on_series(r1, "y1", o1 + max(dv - 1, 0), u=u1), "y2", o2, u=u2
    )

    q1 = y_bracket_apply(u1, v2, l1).rename({"y": "t2"})
    q2 = _negate_var(_bracket_on_series(q1, "__z", o1 + max(du - 1, 0), u=v1), "__z", "y1")
    q3 = _bracket_on_series(q2, "y2", o2, u=u2)

    s1 = y_bracket_apply(u2, v1, l2).rename({"y": "t3"})
    s2 = _bracket_on_series(s1, "y1", o1, u=u1)
    s3 = _bracket_on_series(s2, "y2", o2 + max(_wt_max(u2) + _wt_max(v1) - 1, 0), v=v2)

    p1 = y_bracket_apply(u2, u1, l3).rename({"y": "t4"})
    p2 = _bracket_on_series(p1, "y1", o1, v=v1)
    cap_a = o1 + _pole_depth(p2, "y1")
    cap_b = max(dt4 - 1, 0)
    z_hi = o2 + cap_a + cap_b
    p3 = _bracket_on_series(p2, "__z", z_hi, v=v2)

    return {
        "a": r3,
        "b": (q3, o1 + max(du - 1, 0)),
        "c": (s3, o2 + _pole_depth(s1, "t3")),
        "d": (p3, cap_a, cap_b, z_hi),
        "orders": (o1, o2),
    }


def _fourterm_rhs(chains, b):
    """Right side of the four-term identity at kernel exponent b, before
    the mode map: a series in y1, y2 with vector coefficients.

    Every step after the chains (products with scalar exponentials,
    Taylor shifts, monomial substitutions, residues, restrictions) is
    linear with scalar coefficients, so it commutes with the
    coefficientwise map x_mode(., m, target), which is linear in its
    first slot; fourterm_diffs applies that map last, per cell.
    The truncation orders below grow with pole depths read off the
    bands (_mul_exp, _shift_merge_residue).  The map keeps every window
    and only drops coefficients, and bands shrink to the surviving
    data, so the pole depths of the unmapped chains bound those of the
    chain mapped to any target: each order read here reaches every
    slice that can meet a cell of any target.  The t4 substitution
    offsets its cap by the depth, so it reaches those slices too."""
    o1, o2 = chains["orders"]
    ybox = {"y1": (NEG_INF, o1), "y2": (NEG_INF, o2)}

    # first term: innermost bracket in t1, y1 shifted upward by t1
    core = _mul_exp(chains["a"], "t1", -b, 0)
    term_a = _shift_merge_residue(core, "y1", "t1", 1).restrict(ybox)

    # second term: innermost bracket in t2, reversed middle bracket in -y1
    q3, y1_hi = chains["b"]
    core = _mul_exp(q3, "y1", b, y1_hi)
    term_b = _shift_merge_residue(core, "y1", "t2", -1).restrict(ybox)

    # third term: nested first slot, outer bracket in y2 shifted by -t3
    s3, y2_hi = chains["c"]
    core = _mul_exp(s3, "y2", -b, y2_hi)
    term_c = _shift_merge_residue(core, "y2", "t3", -1).restrict(ybox)

    # fourth term: doubly nested first slot, outer bracket evaluated at
    # y2 - y1 - t4 (the residue shift moves the whole kernel, so the
    # substituted variable absorbs it; the kernel factor
    # exp(b*(y1 - y2 + t4)) is exp(-b*z) on the nose, multiplied in
    # before the substitution)
    p3, cap_a, cap_b, z_hi = chains["d"]
    core = _mul_exp(p3, "__z", -b, z_hi)
    g = ca.subst_taylor_linear(
        core, "__z", "y2", [(-1, "__a"), (-1, "__b")],
        {"__a": cap_a, "__b": cap_b},
    )
    g = ca.subst_monomial(g, "__a", "y1", o1)
    g = ca.subst_monomial(g, "__b", "t4", cap_b - _pole_depth(g, "t4"))
    term_d = g.residue("t4").restrict(ybox)

    out = term_a + term_b - term_c - term_d
    return out.restrict(ybox)


def _map_mode(g: Series, m: int, target: FockVector) -> Series:
    """One fixed x-mode of every coefficient, applied to target."""
    data = {}
    for exps, vec in g.terms():
        img = x_mode(vec, m, target)
        if img:
            data[exps] = img
    return Series(g.windows(), data)


def fourterm_diffs(params: dict, mismatches: list) -> None:
    """Commutator of two bracket fields against the four-term right side
    on every (target, b, c) cell.  The right side depends on the target
    and on c only through the final mode map x_mode(., -b - c, target),
    so it is built once per b (see _fourterm_rhs) and mapped per cell."""
    u1, v1, u2, v2 = params["u1"], params["v1"], params["u2"], params["v2"]
    o1, o2 = params["y-orders"]
    w = params["x-window"]
    d1 = _wt_max(u1) + _wt_max(v1)
    d2 = _wt_max(u2) + _wt_max(v2)
    uslices = _bracket_slices(u1, v1, o1)
    vslices = _bracket_slices(u2, v2, o2)
    chains = _fourterm_chains(u1, v1, u2, v2, (o1, o2), tuple(params["inner-orders"]))
    rhs_by_b = {b: _fourterm_rhs(chains, b) for b in range(-w, w + 1)}
    box = {"y1": (-d1, o1), "y2": (-d2, o2)}
    for target in basis_up_to(params["weight-cap"]):
        for b in range(-w, w + 1):
            for c in range(-w, w + 1):
                data = {}
                for alpha, ua in uslices.items():
                    for beta, vbv in vslices.items():
                        vec = x_mode(ua, -b, x_mode(vbv, -c, target)) - x_mode(
                            vbv, -c, x_mode(ua, -b, target)
                        )
                        if vec:
                            data[(alpha, beta)] = vec
                rhs = _series_table(_map_mode(rhs_by_b[b], -b - c, target), box, "rhs")
                for cell, va, vb in _cell_diffs(data, rhs, box):
                    note_diff(mismatches, [b, c, *cell], va, vb, target)


def bridge_diffs(params: dict, mismatches: list) -> None:
    """Doubly dilated regularized pair field vs the weight-shifted field
    of the bracket of the generator with itself."""
    y_cap = params["y-order"]
    w_cap = params["w-order"]
    n_rng = params["mode-range"]
    g = generator()
    slices = _bracket_slices(g, g, y_cap + w_cap)
    gprime = _pole_scalar_coeffs()
    for target in basis_up_to(params["weight-cap"]):
        for n in range(-n_rng, n_rng + 1):
            xw = {q: x_mode(vec, n, target) for q, vec in slices.items()}
            for a in range(-2, y_cap + 1):
                for bb in range(w_cap + 1):
                    if a >= 0:
                        lhs = gen_quadratic_coeff(a, bb, n, target, regularized=True)
                        lhs = lhs.scaled(2)
                    else:
                        scal = gprime.get(a, F(0)) if (n == 0 and bb == 0) else F(0)
                        lhs = target.scaled(scal)
                    rhs = FockVector.zero()
                    for k in range(bb + 1):
                        vec = xw.get(a + k)
                        if vec is None:
                            continue
                        fac = ca.binom(a + k, k) * F(-1) ** k
                        fac *= F((-n) ** (bb - k), math.factorial(bb - k))
                        if fac:
                            rhs = rhs + vec.scaled(fac)
                    note_diff(mismatches, [a, bb, n], lhs, rhs, target)


def _pole_scalar_coeffs() -> "dict[int, Fraction]":
    """Pole part of the reordering scalar: coefficients of minus the
    derivative of the regularized geometric kernel at negative orders."""
    G = ca.todd_coeffs(3)
    return {-2: -(-1) * G[0], -1: F(0)}


def specialize_diffs(params: dict, mismatches: list) -> None:
    """The general commutator identity at four copies of the generator,
    dilations restored, against the dilated-pair bracket engine."""
    oy1, ow1, oy2, ow2 = params["y-orders"]
    w = params["x-window"]
    caps = (oy1 + ow1, ow1, oy2 + ow2, ow2)
    g = generator()
    uslices = _bracket_slices(g, g, oy1)
    vslices = _bracket_slices(g, g, oy2)
    rhs_tables = {
        (alpha, beta): _comm_rhs(ua, vb, w)
        for alpha, ua in uslices.items()
        for beta, vb in vslices.items()
    }
    box = {"x1": (-w, w), "x2": (-w, w)}
    for target in basis_up_to(params["weight-cap"]):
        table = dilated_bracket_lhs(target, w, caps)
        for alpha in sorted(uslices):
            ua = uslices[alpha]
            for beta in sorted(vslices):
                vb = vslices[beta]
                lhs, rhs = _comm_sides(ua, vb, target, w, rhs_tables[(alpha, beta)])
                for cell, va, vv in _cell_diffs(lhs, rhs, box):
                    note_diff(mismatches, [alpha, beta, *cell], va, vv, target)
                if alpha < 0 or beta < 0:
                    # scalar slices commute; the bracket engine has no
                    # monomials there, so both sides must vanish
                    for b in range(-w, w + 1):
                        for c in range(-w, w + 1):
                            note_diff(
                                mismatches,
                                [alpha, beta, b, c],
                                lhs.get((b, c)),
                                None,
                                target,
                            )
                    continue
                for b in range(-w, w + 1):
                    for c in range(-w, w + 1):
                        mono_table = table.get((b, c), {})
                        lv = lhs.get((b, c), FockVector.zero())
                        for g1 in range(ow1 + 1):
                            for g2 in range(ow2 + 1):
                                pred = FockVector.zero()
                                for a1 in range(alpha, alpha + g1 + 1):
                                    a2 = g1 - (a1 - alpha)
                                    for a3 in range(beta, beta + g2 + 1):
                                        a4 = g2 - (a3 - beta)
                                        vec = mono_table.get((a1, a2, a3, a4))
                                        if vec is None:
                                            continue
                                        fac = ca.binom(a1, alpha) * ca.binom(a3, beta)
                                        if fac:
                                            pred = pred + vec.scaled(fac)
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

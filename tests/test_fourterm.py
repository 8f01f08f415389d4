"""FOURTERM's right side against the series route it replaced.

voa._fourterm_table builds the right side of the four-term identity as
finite sums of nested bracket images with scalar weights.  The code
below is the earlier route, kept unchanged as the oracle: each bracket
chain is a Series in the bracket variables, built from the slices of
y_bracket_apply, multiplied by exponentials, Taylor-shifted, substituted
and reduced to its residue in the series ring, and _series_table turns
the mapped result into a cell table after checking that it is known on
the whole box.  The differential test compares the two tables, windows
and coefficients, on a seeded sample of inputs.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from zetafock import calculus as ca
from zetafock import catalog, voa
from zetafock.fock import FockVector, basis_up_to
from zetafock.series import (
    NEG_INF,
    POS_INF,
    Series,
    VariableMismatchError,
    VarWindow,
    WindowInsufficientError,
    diff_on_box,
    mul,
)
from zetafock.voa import _wt_max, x_mode, y_bracket_apply

F = Fraction

GEN = voa.generator()
OMEGA = voa._omega()
VAC = FockVector.vacuum()
# weights 0, 1 and 2, with Fraction coefficients
MIXED = GEN - FockVector.basis((2,)).scaled(F(3, 2)) + VAC.scaled(F(1, 3))

# ----------------------------------------------------------------------
# The series route


def _series_table(side: Series, box, name: str) -> "dict[tuple[int, ...], FockVector]":
    """The cells of a series side as a table.  The side must be known on
    the whole box, with the check and message of series' box comparison
    (name "lhs" or "rhs"), and its variables must be the box's."""
    if not side.known_on(box):
        raise WindowInsufficientError(f"{name} not known on the whole box {box}")
    if side.variables != tuple(sorted(box)):
        raise VariableMismatchError(f"{name} has variables {side.variables}")
    return dict(side.terms())


def _bracket_series(u, v, order: int) -> Series:
    """The slices of y_bracket_apply(u, v, order) as a Series in y, known
    up to y^order."""
    slices = {(q,): vec for q, vec in y_bracket_apply(u, v, order).items()}
    return Series([VarWindow("y", NEG_INF, order, NEG_INF, POS_INF)], slices)


def _bracket_on_series(g: Series, yvar: str, order: int, u=None, v=None) -> Series:
    """Bracket field y_bracket_apply(u, v) in a fresh variable, applied
    coefficientwise: each coefficient of g fills the slot left None."""
    pieces = []
    for exps, vec in g.terms():
        br = _bracket_series(vec if u is None else u, vec if v is None else v, order)
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

    r1 = _bracket_series(v1, v2, l1).rename({"y": "t1"})
    r3 = _bracket_on_series(
        _bracket_on_series(r1, "y1", o1 + max(dv - 1, 0), u=u1), "y2", o2, u=u2
    )

    q1 = _bracket_series(u1, v2, l1).rename({"y": "t2"})
    q2 = _negate_var(_bracket_on_series(q1, "__z", o1 + max(du - 1, 0), u=v1), "__z", "y1")
    q3 = _bracket_on_series(q2, "y2", o2, u=u2)

    s1 = _bracket_series(u2, v1, l2).rename({"y": "t3"})
    s2 = _bracket_on_series(s1, "y1", o1, u=u1)
    s3 = _bracket_on_series(s2, "y2", o2 + max(_wt_max(u2) + _wt_max(v1) - 1, 0), v=v2)

    p1 = _bracket_series(u2, u1, l3).rename({"y": "t4"})
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


# ----------------------------------------------------------------------
# The closed form against it


def _closed_and_series(u1, v1, u2, v2, orders, w):
    """(box, closed-form table, series right side per b) of one input."""
    o1, o2 = orders
    box = {"y1": (-(_wt_max(u1) + _wt_max(v1)), o1), "y2": (-(_wt_max(u2) + _wt_max(v2)), o2)}
    chains = _fourterm_chains(u1, v1, u2, v2, orders, (2, 2, 2))
    series = {b: _fourterm_rhs(chains, b) for b in range(-w, w + 1)}
    return box, voa._fourterm_table(u1, v1, u2, v2, box, w), series


def test_fourterm_table_matches_series_route_seeded():
    # windows and coefficients: every series side is known on the box,
    # has no nonzero cell off it, and equals the closed form cell for
    # cell, before the mode map and after it on every target
    rng = random.Random(1711)
    pool = [("GEN", GEN), ("OMEGA", OMEGA), ("MIXED", MIXED), ("VAC", VAC)]
    rng.shuffle(pool)
    seen_orders, seen_w = set(), set()
    cells = nonzero = 0
    targets = basis_up_to(2)
    for trial in range(8):
        # rotations of the pool: each slot holds each vector twice
        names, (u1, v1, u2, v2) = zip(*(pool[(trial + slot) % 4] for slot in range(4)))
        orders = (rng.randrange(3), rng.randrange(3))
        w = rng.randrange(1, 3)
        seen_orders.update(orders)
        seen_w.add(w)
        box, table, series = _closed_and_series(u1, v1, u2, v2, orders, w)
        n_box = len(list(itertools.product(*(range(lo, hi + 1) for lo, hi in box.values()))))
        assert sorted(table) == list(range(-w, w + 1))
        for b, rhs in series.items():
            assert table[b] == {cell: vec for cell, vec in rhs.terms() if vec}, (trial, names, b)
            for target in targets:
                for c in range(-w, w + 1):
                    want = _series_table(_map_mode(rhs, -b - c, target), box, "rhs")
                    got = {}
                    for cell, vec in table[b].items():
                        img = x_mode(vec, -b - c, target)
                        if img:
                            got[cell] = img
                    assert got == want, (trial, names, orders, w, b, c, target)
                    cells += n_box
                    nonzero += len(got)
    assert seen_orders == {0, 1, 2} and seen_w == {1, 2}, (seen_orders, seen_w)
    assert nonzero >= 100 and cells > nonzero, (nonzero, cells)


def test_inner_orders_is_an_unknown_parameter():
    # the right side reads every innermost image the residue needs, so
    # FOURTERM has no order for its innermost brackets and refuses one
    base = {"u1": OMEGA, "v2": MIXED, "weight-cap": 1, "x-window": 1}
    assert catalog.run_check("FOURTERM", base).passed
    for orders in ([2, 2, 2], [-1, 2, 2]):
        with pytest.raises(ValueError, match=r"unknown parameter\(s\) inner-orders for FOURTERM"):
            catalog.run_check("FOURTERM", {**base, "inner-orders": orders})


# ----------------------------------------------------------------------
# cell tables from series sides


def test_series_table_refuses_a_side_not_known_on_the_box():
    box = {"x1": (-1, 1), "x2": (-1, 1)}
    known = Series([VarWindow("x1", -1, 1), VarWindow("x2", -1, 1)], {(0, 0): GEN})
    short = Series(
        [VarWindow("x1", -1, 1), VarWindow("x2", -1, 0, NEG_INF, POS_INF)], {(0, 0): GEN}
    )
    for name, args in (("lhs", (short, known)), ("rhs", (known, short))):
        with pytest.raises(WindowInsufficientError) as want:
            diff_on_box(*args, box)
        with pytest.raises(WindowInsufficientError) as got:
            _series_table(short, box, name)
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith(f"{name} not known on the whole box")
    assert _series_table(known, box, "lhs") == {(0, 0): GEN}

"""Vertex-operator tests.

Modes of the current and of the conformal vector are checked against
the bare oscillator action and the quadratic-operator engine, and the
two-half mode kernel against the current-mode tuple sum and against
the factor-by-factor kernel it replaced; the
exponential-coordinate bracket against the Todd-number vacuum oracle,
and it and the right sides that read it against the series route;
each named identity check runs at small windows, together with the
degenerations that tie the checks to one another.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from zetafock import calculus as ca
from zetafock import catalog
from zetafock import quadratic as q
from zetafock import voa
from zetafock.fock import (
    FockVector,
    basis_up_to,
    h_apply,
    make_partition,
    partitions_of,
    weight,
    weight_components,
)
from zetafock.reports import cell_diffs, note_diff

from test_fourterm import _series_table
from zetafock.series import (
    NEG_INF,
    POS_INF,
    Series,
    VarWindow,
    diff_on_box,
    mul,
)

F = Fraction

VAC = FockVector.vacuum()
GEN = voa.generator()
OMEGA = FockVector.basis((1, 1)).scaled(F(1, 2))


def rand_vec(rng: random.Random, wcap: int) -> FockVector:
    out = FockVector.zero()
    for s in rng.sample(basis_up_to(wcap), k=3):
        c = rng.randrange(-3, 4)
        if c:
            out = out + s.scaled(F(c))
    return out


# ----------------------------------------------------------------------
# modes of concrete states


def test_generator_modes_are_oscillators():
    for v in basis_up_to(6):
        for n in range(-6, 7):
            assert voa.vertex_mode(GEN, n, v) == h_apply(n, v), (n, v)


def test_vacuum_field_is_identity():
    for v in basis_up_to(4):
        assert voa.vertex_mode(VAC, -1, v) == v
        for n in (-3, -2, 0, 1, 2):
            assert not voa.vertex_mode(VAC, n, v)


def test_omega_modes_match_virasoro():
    # omega_(n+1) = L(n), with L from the independent quadratic engine
    for v in basis_up_to(8):
        for n in range(-4, 5):
            assert voa.vertex_mode(OMEGA, n + 1, v) == q.l_mode(n, v), (n, v)


def test_derivative_state_modes():
    # the state h(-2)*vacuum generates the derivative of the current:
    # its mode n acts as -n h(n-1)
    u = FockVector.basis((2,))
    for v in basis_up_to(5):
        for n in range(-5, 6):
            assert voa.vertex_mode(u, n, v) == h_apply(n - 1, v).scaled(-n)


def test_modes_match_mode_tuple_sum():
    # oracle: the x^(-n-1) coefficient of the normal-ordered product,
    # summed over every current-mode tuple (m_i) in a box wide enough to
    # hold all nonzero terms, annihilators applied first; u of weight 4
    # gives (2, 2), (2, 1, 1) and (1, 1, 1, 1), whose annihilating
    # sub-multisets take more than one copy of a part, on targets with
    # repeated parts
    for u in basis_up_to(4)[1:]:
        (u_parts, _), = u.terms()
        for v in basis_up_to(4):
            wv = weight(next(iter(v.terms()))[0])
            for n in range(-weight(u_parts) - 2, weight(u_parts) + wv + 1):
                total = n + 1 - weight(u_parts)
                span = range(total - wv, wv + 1)
                # h(0) kills, and C(-m-1, ni-1) vanishes for -ni < m < 0
                heads = [[m for m in span if m > 0 or -m >= ni] for ni in u_parts[:-1]]
                want = FockVector.zero()
                for head in itertools.product(*heads):
                    ms = head + (total - sum(head),)
                    if ms[-1] not in span or 0 in ms:
                        continue
                    vec = v
                    for m in sorted(ms, reverse=True):
                        vec = h_apply(m, vec)
                        if not vec:
                            break
                    else:
                        c = F(1)
                        for m, ni in zip(ms, u_parts):
                            c *= ca.binom(-m - 1, ni - 1)
                        want = want + vec.scaled(c)
                assert voa.vertex_mode(u, n, v) == want, (u, n, v)


def _factor_state_mode(u_parts, n, v_parts):
    """The mode kernel before its split into an annihilating and a
    creating half, kept as the oracle: (rest, made, sum) states built
    one factor of u at a time, each factor either annihilating a part m
    of the target, with weight (-1)^k C(m+k, k) * m * multiplicity, or
    creating a part p >= n_i, with weight C(p-1, k), k = n_i - 1."""
    if not u_parts:
        return FockVector.basis(v_parts) if n == -1 else FockVector.zero()
    total = n + 1 - sum(u_parts)
    # created weight = annihilated weight - total <= weight(v) - total
    room = sum(v_parts) - total
    states = {(make_partition(v_parts), (), 0): 1}
    for ni in u_parts:
        k = ni - 1
        sign = -1 if k % 2 else 1
        step = {}
        for (rest, made, s), c in states.items():
            for m in set(rest):
                left = list(rest)
                left.remove(m)
                key = (tuple(left), made, s + m)
                gain = sign * math.comb(m + k, k) * m * rest.count(m)
                step[key] = step.get(key, 0) + c * gain
            for p in range(ni, room - sum(made) + 1):
                key = (rest, make_partition(made + (p,)), s - p)
                step[key] = step.get(key, 0) + c * math.comb(p - 1, k)
        states = step
    out = {}
    for (rest, made, s), c in states.items():
        if s == total:
            key = make_partition(rest + made)
            out[key] = out.get(key, 0) + c
    return FockVector.from_ints({key: c for key, c in out.items() if c})


def test_mode_kernel_matches_factor_state_oracle_seeded():
    # the two-half kernel against the factor-by-factor states it
    # replaced, on u and v with repeated parts and n on both sides of
    # the lower-truncation bound wt(u) + wt(v) - 1, above which every
    # image vanishes
    rng = random.Random(16021)
    us = [p for w in range(1, 6) for p in partitions_of(w)]
    vs = [p for w in range(7) for p in partitions_of(w)]
    repeated = [(2, 2), (2, 1, 1), (1, 1, 1, 1)]
    pairs = [(u, v) for u in repeated for v in repeated + [(3, 2, 2), (2, 2, 1, 1)]]
    pairs += [(rng.choice(us), rng.choice(vs)) for _ in range(250)]
    zero = nonzero = 0
    for u, v in pairs:
        bound = sum(u) + sum(v) - 1
        for n in sorted({bound - 2, bound, bound + 1, bound + 2, rng.randrange(-8, 9)}):
            got = voa._mode_on_basis(u, n, v)
            assert got == _factor_state_mode(u, n, v), (u, n, v)
            assert not (n > bound and got), (u, n, v)
            zero += not got
            nonzero += bool(got)
    assert zero and nonzero


def test_mode_weight_law_and_linearity_seeded():
    rng = random.Random(7411)
    states = basis_up_to(4)
    for trial in range(25):
        u = rng.choice(states)
        v = rng.choice(states)
        wu = weight(next(iter(u.terms()))[0])
        wv = weight(next(iter(v.terms()))[0])
        n = rng.randrange(-4, 5)
        img = voa.vertex_mode(u, n, v)
        for parts, _ in img.terms():
            assert weight(parts) == wu + wv - n - 1, (trial, u, v, n)
        a, b = rng.randrange(-3, 4), rng.randrange(-3, 4)
        u2 = rng.choice(states)
        mixed = voa.vertex_mode(u.scaled(F(a)) + u2.scaled(F(b)), n, v)
        assert mixed == img.scaled(F(a)) + voa.vertex_mode(u2, n, v).scaled(F(b))
        t2 = rand_vec(rng, 3)
        assert voa.vertex_mode(u, n, v + t2) == img + voa.vertex_mode(u, n, t2)


def test_x_mode_is_weight_shifted():
    for u in (GEN, OMEGA, FockVector.basis((2,))):
        wu = weight(next(iter(u.terms()))[0])
        for v in basis_up_to(3):
            for n in range(-3, 4):
                assert voa.x_mode(u, n, v) == voa.vertex_mode(u, n - 1 + wu, v)
    # weight-shifted modes annihilate above the target weight
    t = FockVector.basis((2, 1))
    for m in range(4, 8):
        assert not voa.x_mode(OMEGA, m, t)
        assert not voa.x_mode(GEN, m, t)


# ----------------------------------------------------------------------
# axioms


def test_axiom_checks_pass():
    for axiom in voa._AXIOMS:
        mismatches = []
        voa.axioms_diffs({"axioms": [axiom], "weight-cap": 2, "x-window": 2}, mismatches)
        assert mismatches == [], axiom
    combined = catalog.run_check("AXIOMS", {"weight-cap": 2, "x-window": 2})
    assert combined.check_id == "AXIOMS"
    assert combined.passed
    assert combined.params["axioms"] == list(voa._AXIOMS)


def test_axiom_check_rejects_unknown_name():
    with pytest.raises(ValueError):
        voa.axioms_diffs({"axioms": ["associativity"], "weight-cap": 3, "x-window": 3}, [])


def test_mismatch_recording_shape():
    mm = []
    note_diff(mm, [1, 2], VAC, VAC.scaled(F(2)), VAC)
    assert mm[0]["monomial"] == [1, 2]
    assert mm[0]["lhs"] == "1"
    assert mm[0]["rhs"] == "2"


# ----------------------------------------------------------------------
# the exponential-coordinate bracket


def test_bracket_on_vacuum_is_creation():
    for u in basis_up_to(3):
        slices = voa.y_bracket_apply(u, VAC, 2)
        assert slices[0] == u
        assert not any(qq < 0 for qq in slices)


def test_bracket_of_vacuum_is_identity():
    for v in basis_up_to(3):
        assert voa.y_bracket_apply(VAC, v, 3) == {0: v}


def test_bracket_vacuum_scalars_match_todd_numbers():
    # the scalar component of slice q of the current bracketed with
    # itself is -(q+1) times the Todd coefficient of degree q+2
    todd = ca.todd_coeffs(8)
    slices = voa.y_bracket_apply(GEN, GEN, 5)
    assert slices[-2].coeff(()) == 1
    assert -1 not in slices
    for qq in range(0, 5):
        assert slices[qq].coeff(()) == -(qq + 1) * todd[qq + 2], qq


# ----------------------------------------------------------------------
# identity checks at small windows


def test_jacobi_small_grid():
    small = basis_up_to(2)
    for u in small:
        for v in small:
            mismatches = []
            voa.jacobi_diffs(mismatches, [], u, v, small, 2)
            assert mismatches == [], (u, v)


def test_jacobi_spot_window_three():
    mismatches = []
    voa.jacobi_diffs(mismatches, [], GEN, GEN, [VAC], 3)
    assert mismatches == []


def test_comm_heisenberg_oracle():
    # independent of the engine: [x-mode -b of the current, x-mode -c]
    # on any vector is -b delta_(b+c,0) times that vector
    for t in (VAC, FockVector.basis((2, 1))):
        for b in range(-3, 4):
            for c in range(-3, 4):
                got = voa.x_mode(GEN, -b, voa.x_mode(GEN, -c, t)) - voa.x_mode(
                    GEN, -c, voa.x_mode(GEN, -b, t)
                )
                want = t.scaled(-b) if b + c == 0 else FockVector.zero()
                assert got == want, (b, c)


def test_newjacobi_and_comm_pass():
    assert catalog.run_check("NEWJACOBI", {"x-window": 1, "weight-cap": 2}).passed
    assert catalog.run_check("COMM", {"x-window": 2, "weight-cap": 2}).passed


def test_gen_identities_pass_small():
    small = {"x-window": 1, "weight-cap": 1}
    assert catalog.run_check("GENJACOBI", small).passed
    assert catalog.run_check("GENCOMM", small).passed
    assert catalog.run_check("FOURTERM", small).passed


@pytest.mark.parametrize("key", ["a", "b", "c", "d"])
def test_fourterm_fails_with_a_doubled_rhs_chain(monkeypatch, key):
    # the right side is built once, before any target, and mapped onto
    # each target last; doubling the weights of any one of its four
    # terms must still be seen on some (target, b, c) cell
    real = voa._fourterm_weight

    def doubled(term, *args):
        weights = real(term, *args)
        return {cell: 2 * x for cell, x in weights.items()} if term == key else weights

    monkeypatch.setattr(voa, "_fourterm_weight", doubled)
    rep = catalog.run_check("FOURTERM", {"weight-cap": 1, "x-window": 1})
    assert rep.status == "fail"
    assert rep.mismatches


@pytest.mark.parametrize("slot", ["u1", "v2"])
def test_fourterm_passes_with_conformal_vector(slot):
    params = {slot: voa._omega(), "weight-cap": 1, "x-window": 1}
    assert catalog.run_check("FOURTERM", params).passed


def test_genjacobi_degenerates_to_newjacobi():
    # at bracket order zero against the vacuum the slice tables collapse
    # to the plain inputs, so the general identity IS the plain one
    assert voa.y_bracket_apply(GEN, VAC, 0) == {0: GEN}
    rep = catalog.run_check(
        "GENJACOBI",
        {"v1": VAC, "v2": VAC, "y-orders": [0, 0], "w-orders": [0, 0],
         "x-window": 2, "weight-cap": 2},
    )
    assert rep.passed
    assert catalog.run_check("NEWJACOBI", {"x-window": 2, "weight-cap": 2}).passed


def test_bridge_passes_and_vacuum_scalar():
    assert catalog.run_check("BRIDGE", {"weight-cap": 2}).passed
    # order y^1 w^1 at mode zero on the vacuum: the regularized pair
    # side is -1/120, and the bracket side reduces to the scalar part
    # of slice 2, namely -2 * 1/240
    lhs = q.gen_quadratic_coeff(1, 1, 0, VAC, regularized=True).scaled(2)
    assert lhs == VAC.scaled(F(-1, 120))
    w2 = voa.y_bracket_apply(GEN, GEN, 2)[2]
    rhs = voa.x_mode(w2, 0, VAC).scaled(-2)
    assert rhs == VAC.scaled(F(-1, 120))


def test_specialize_passes_small():
    assert catalog.run_check("SPECIALIZE", {"weight-cap": 2}).passed


def _specialize_oracle(params):
    # SPECIALIZE's entries from FockVectors: the commutator cells against
    # their residue form, then each transported cell lv * b^g1 c^g2 /
    # (g1! g2!) against 4 times the binomial resummation of the
    # dilated_bracket_lhs cells
    oy1, ow1, oy2, ow2 = params["y-orders"]
    w = params["x-window"]
    caps = (oy1 + ow1, ow1, oy2 + ow2, ow2)
    gencomm = {"u1": GEN, "v1": GEN, "u2": GEN, "v2": GEN, "x-window": w, "y-orders": (oy1, oy2)}
    pairs = voa._slice_pairs(gencomm, voa._comm_rhs)
    square = [range(-w, w + 1)] * 2
    zero = FockVector.zero()
    want = []
    for target in basis_up_to(params["weight-cap"]):
        table = q.dilated_bracket_lhs(target, w, caps)
        for (alpha, beta), ua, vb, rhs_table in pairs:
            lhs, rhs = voa._comm_sides(ua, vb, target, w, rhs_table)
            for cell, va, vv in cell_diffs(lhs, rhs, square):
                note_diff(want, [alpha, beta, *cell], va, vv, target)
            for b, c in itertools.product(*square):
                lv = lhs.get((b, c), zero)
                if alpha < 0 or beta < 0:
                    note_diff(want, [alpha, beta, b, c], lv, zero, target)
                    continue
                for g1, g2 in itertools.product(range(ow1 + 1), range(ow2 + 1)):
                    pred = zero
                    for a1 in range(alpha, alpha + g1 + 1):
                        for a3 in range(beta, beta + g2 + 1):
                            vec = table.get((b, c, a1, alpha + g1 - a1, a3, beta + g2 - a3), zero)
                            pred = pred + vec.scaled(math.comb(a1, alpha) * math.comb(a3, beta))
                    fac = F(b**g1 * c**g2, math.factorial(g1) * math.factorial(g2))
                    note_diff(want, [alpha, g1, beta, g2, b, c], lv.scaled(fac), pred.scaled(4), target)
    return want


def test_specialize_sees_one_wrong_block_coefficient(monkeypatch):
    # one integer coefficient of the dilated-pair blocks off by one: the
    # integer transport comparison must fail, and list what the vector
    # oracle lists from the same blocks
    real = q._dilated_lhs_blocks

    def bumped(v, N, caps):
        blocks = real(v, N, caps)
        if v == FockVector.basis((1,)):
            # entry 24 of caps (2, 1, 2, 1) is the monomial (2, 0, 0, 0),
            # read with weight C(2, 1) D / 2! at alpha = g1 = 1
            d = blocks[(1, -1)][24]
            p = next(iter(d))
            d[p] += 1
        return blocks

    monkeypatch.setattr(q, "_dilated_lhs_blocks", bumped)
    monkeypatch.setattr(voa, "_dilated_lhs_blocks", bumped)
    params = {"weight-cap": 2, "x-window": 1, "y-orders": [1, 1, 1, 1]}
    got = []
    voa.specialize_diffs(params, got)
    want = _specialize_oracle(params)
    assert want
    assert got == want


def test_residue_link_small():
    mismatches = []
    params = {"u": GEN, "v": GEN, "targets": [FockVector.basis((1, 1))], "x-window": 2}
    voa.residue_link_diffs(params, mismatches)
    assert mismatches == []


def test_residue_link_refuses_a_window_below_one():
    # the x0^-1 slice it compares lies outside the cube of a window 0
    params = {"u": GEN, "v": GEN, "targets": [VAC], "x-window": 0}
    with pytest.raises(ValueError, match="x-window must be at least 1, got 0"):
        voa.residue_link_diffs(params, [])


def test_residue_link_fails_on_a_doubled_bracket(monkeypatch):
    # comparisons 1 and 2 set right side against right side or left
    # against left, so a wrong bracket, doubled in both right-side
    # tables that read it, is seen only where the x0^-1 slices of the
    # exponential-delta left and right sides are compared
    for name in ("_newjacobi_rhs", "_comm_rhs"):
        real = getattr(voa, name)
        monkeypatch.setattr(
            voa, name, lambda *a, real=real: {k: vec.scaled(2) for k, vec in real(*a).items()}
        )
    mismatches = []
    params = {"u": GEN, "v": GEN, "targets": [VAC, GEN], "x-window": 1}
    voa.residue_link_diffs(params, mismatches)
    assert mismatches
    assert {m["monomial"][2] for m in mismatches} == {3}


MIXED = (
    FockVector.basis((2,)).scaled(F(1, 3))
    - FockVector.basis((1, 1)).scaled(F(5, 2))
    + FockVector.basis((3,)).scaled(F(7, 4))
)


@pytest.mark.parametrize("u", [GEN, OMEGA], ids=["current", "conformal"])
def test_identities_on_a_mixed_weight_target(u):
    # the right sides are built before any target is seen, so a target
    # mixing weights 2 and 3 must be matched cell by cell as well
    w = 2
    mismatches = []
    voa.jacobi_diffs(mismatches, [], u, GEN, [MIXED], w)
    assert mismatches == []
    table = voa._newjacobi_rhs(u, GEN, w)
    lhs, rhs = voa._newjacobi_sides(u, GEN, MIXED, w, table)
    assert len(rhs) > 0
    assert lhs == rhs
    lhs, rhs = voa._comm_sides(u, GEN, MIXED, w, voa._comm_rhs(u, GEN, w))
    assert len(rhs) > 0
    assert lhs == rhs


# ----------------------------------------------------------------------
# three-delta left sides against the pair-series pipeline they replace


def _pair_series(outer, ovar, inner, ivar, target, w, plain):
    """Y(outer, ovar) Y(inner, ivar) target as a windowed Series, with the
    windows the three-delta left sides used before they became cell
    tables: plain modes vertex_mode(x, -e - 1, .) (JACOBI) or weight-shifted
    modes x_mode(x, -e, .) (NEWJACOBI, GENJACOBI, RES-LINK)."""
    wt_i, wt_o, wt_t = voa._wt_max(inner), voa._wt_max(outer), voa._wt_max(target)
    if plain:
        mode = lambda x, e, vec: voa.vertex_mode(x, -e - 1, vec)
        depth, i_floor, o_floor = wt_o + wt_i + wt_t, wt_i + wt_t, wt_o + wt_i + wt_t
    else:
        mode = lambda x, e, vec: voa.x_mode(x, -e, vec)
        depth, i_floor, o_floor = wt_t, wt_t, wt_t
    olo, ohi = -(depth + w), 3 * w + 1 + depth
    coeffs = {}
    for ei in range(max(-depth, -i_floor), w + 1):
        ivec = mode(inner, ei, target)
        if not ivec:
            continue
        for eo in range(max(olo, -(o_floor + ei)), ohi + 1):
            img = mode(outer, eo, ivec)
            if img:
                coeffs[(eo, ei)] = img
    wins = [
        VarWindow(ovar, olo, ohi, -(o_floor + w), POS_INF),
        VarWindow(ivar, -depth, w, -i_floor, w),
    ]
    return Series(wins, coeffs)


def _pipeline_lhs(u, v, target, w, plain):
    cube = {"x0": (-w, w), "x1": (-w, w), "x2": (-w, w)}
    g1 = _pair_series(u, "x1", v, "x2", target, w, plain)
    g2 = _pair_series(v, "x2", u, "x1", target, w, plain)
    t1 = ca.delta_product(g1, "x0", "x1", "x2", cube)
    t2 = ca.delta_product(g2, "x0", "x2", "x1", cube, n_sign=-1)
    return _series_table(t1 - t2, cube, "lhs")


def test_delta_lhs_equals_pair_series_pipeline_seeded():
    # the closed-form left sides of JACOBI and of the exponential-delta
    # identities must equal the old pair series through delta_product,
    # cell for cell, including vanishing cells
    mixed_uv = GEN - FockVector.basis((2,)).scaled(F(3, 2))
    fields = [GEN, OMEGA, mixed_uv]
    targets = basis_up_to(3) + [MIXED]
    rng = random.Random(2913)
    for w, plain in itertools.product([1, 2], [True, False]):
        inputs = list(itertools.product(fields, fields, targets))
        for u, v, target in rng.sample(inputs, k=18) + [(mixed_uv, OMEGA, MIXED)]:
            want = _pipeline_lhs(u, v, target, w, plain)
            if plain:
                got = voa._jacobi_sides(u, v, target, w, {})[0]
            else:
                got = voa._newjacobi_sides(u, v, target, w, {})[0]
            assert want
            assert got == want, (u, v, target, w, plain)


# ----------------------------------------------------------------------
# the closed-form bracket field and right sides against the series route


def _series_bracket(u, v, y_order):
    """Y[u, y]v through the series ring: per weight component, x = e^y - 1
    by substitute_valuation, then the factor e^(y wt), summed with the
    variables aligned."""
    wt_v = voa._wt_max(v)
    terms = []
    for wu, comp in weight_components(u):
        lo = -(wu + wt_v)
        coeffs = {}
        for e in range(lo, y_order + 1):
            img = voa.vertex_mode(comp, -e - 1, v)
            if img:
                coeffs[(e,)] = img
        g = Series([VarWindow("x", lo, y_order, lo, POS_INF)], coeffs)
        g = ca.substitute_valuation(g, "x", "y", ca.em1_unit, y_order)
        if wu:
            g = mul(g, ca.exp_series("y", y_order + wu + wt_v, wu))
        terms.append(g.restrict({"y": (NEG_INF, y_order)}))
    if not terms:
        return Series([VarWindow("y", NEG_INF, y_order, 0, POS_INF)], {})
    return ca.aligned_sum(terms)


def _series_newjacobi_rhs(u, v, win):
    """H(a, n) from the series bracket after y = -log(1 - s)."""
    s_cap = win + voa._wt_max(u) + voa._wt_max(v)
    unit = lambda order: {j: F(1, j + 1) for j in range(order + 1)}
    wser = ca.substitute_valuation(_series_bracket(u, v, s_cap), "y", "s", unit, s_cap)
    slices = {i: vec for (i,), vec in wser.terms()}
    table = {}
    for a in range(max(-win, min(slices, default=win + 1)), win + 1):
        for n in range(a - win, a + win + 1):
            h = FockVector.zero()
            for i, vec in slices.items():
                if i <= a:
                    h = h + vec.scaled(ca.binom(n, a - i) * (-1) ** (a - i))
            if h:
                table[(a, n)] = h
    return table


def _series_comm_rhs(u, v, win, y_order):
    """R_b = sum over k <= -1 of (-b)^(-1-k)/(-1-k)! B_k."""
    slices = {k: vec for (k,), vec in _series_bracket(u, v, y_order).terms()}
    table = {}
    for b in range(-win, win + 1):
        r = FockVector.zero()
        for k, vec in slices.items():
            if k < 0:
                r = r + vec.scaled(F((-b) ** (-1 - k), math.factorial(-1 - k)))
        table[b] = r
    return table


def test_bracket_and_right_sides_equal_series_route_seeded():
    # windows and coefficients of the bracket field, and both right-side
    # tables, equal the substitutions they replace, on homogeneous and
    # mixed-weight inputs
    mixed_uv = GEN - FockVector.basis((2,)).scaled(F(3, 2))
    vectors = basis_up_to(3) + [MIXED, mixed_uv, FockVector.zero()]
    rng = random.Random(5107)
    seen_rhs = 0
    for trial in range(40):
        u, v = rng.choice(vectors), rng.choice(vectors)
        if trial < 3:
            u, v = (MIXED, mixed_uv, MIXED)[trial], (mixed_uv, MIXED, OMEGA)[trial]
        y_order, win = rng.randrange(0, 5), rng.randrange(1, 4)
        got, want = voa.y_bracket_apply(u, v, y_order), _series_bracket(u, v, y_order)
        # the series' slices, all nonzero and ascending, up to y_order
        assert list(got.items()) == [(qq, vec) for (qq,), vec in want.terms()], (
            trial, u, v, y_order,
        )
        assert (want.window("y").low, want.window("y").high) == (NEG_INF, y_order)
        table = voa._newjacobi_rhs(u, v, win)
        assert table == _series_newjacobi_rhs(u, v, win), (trial, u, v, win)
        comm = voa._comm_rhs(u, v, win)
        assert comm == _series_comm_rhs(u, v, win, y_order), (trial, u, v, win)
        seen_rhs += bool(table) and any(comm.values())
    assert seen_rhs >= 20


def test_bracket_refuses_a_negative_order():
    for u, v in ((VAC, VAC), (GEN, GEN), (OMEGA, MIXED), (FockVector.zero(), GEN)):
        with pytest.raises(ValueError):
            voa.y_bracket_apply(u, v, -1)


# ----------------------------------------------------------------------
# cell tables against the Series comparison they replace


def _random_table(rng, spans, other):
    """Cells on the box of spans widened by one in every variable: random
    vectors, zero vectors, and copies of the cells of other."""
    out = {}
    for cell in itertools.product(*(range(lo - 1, hi + 2) for lo, hi in spans)):
        roll = rng.random()
        if roll < 0.3:
            continue
        if roll < 0.4:
            out[cell] = FockVector.zero()
        elif roll < 0.7 and cell in other:
            out[cell] = other[cell]
        else:
            out[cell] = rand_vec(rng, 2).scaled(F(1, rng.randrange(1, 4)))
    return out


def test_cell_diffs_match_diff_on_box_seeded():
    # the walk over cell tables reports the cells, values and order that
    # diff_on_box gives on the same data built as Series
    rng = random.Random(1107)
    seen = {"differ": 0, "zero": 0, "absent": 0, "off box": 0}
    for trial in range(60):
        names = ["x0", "x1", "x2"][: rng.randrange(1, 4)]
        rng.shuffle(names)
        box = {nm: (-rng.randrange(0, 2), rng.randrange(0, 3)) for nm in names}
        # tables are keyed in sorted variable order, whatever the box's
        spans = [box[nm] for nm in sorted(box)]
        lt = _random_table(rng, spans, {})
        rt = _random_table(rng, spans, lt)
        wins = [
            VarWindow(nm, lo - 1, hi + 1, NEG_INF, POS_INF)
            for nm, (lo, hi) in zip(sorted(box), spans)
        ]
        oracle = diff_on_box(Series(wins, lt), Series(wins, rt), box)
        got = list(cell_diffs(lt, rt, [range(lo, hi + 1) for lo, hi in spans]))
        assert [c for c, _, _ in got] == [tuple(exps.values()) for exps, _, _ in oracle]
        zero = FockVector.zero()
        assert [(va, vb) for _, va, vb in got] == [
            (va or zero, vb or zero) for _, va, vb in oracle
        ]
        want_notes, got_notes = [], []
        for exps, va, vb in oracle:
            note_diff(want_notes, [trial, *exps.values()], va, vb, GEN)
        for cell, va, vb in got:
            note_diff(got_notes, [trial, *cell], va, vb, GEN)
        assert got_notes == want_notes
        inside = set(itertools.product(*(range(lo, hi + 1) for lo, hi in spans)))
        seen["differ"] += bool(got)
        seen["zero"] += any(not v for v in lt.values())
        seen["absent"] += bool(inside - set(lt))
        seen["off box"] += bool(set(lt) - inside)
    assert min(seen.values()) >= 10, seen


def test_theorem_check_rejects_bad_input():
    with pytest.raises(ValueError):
        catalog.run_check("NOSUCH")
    with pytest.raises(ValueError):
        catalog.run_check("COMM", {"z-window": 2})


def test_theorem_report_serializes_vectors():
    rep = catalog.run_check("NEWJACOBI", {"x-window": 1, "weight-cap": 1})
    assert rep.params["identity"] == "NEWJACOBI"
    assert rep.params["u"] == [{"parts": [1], "coeff": "1"}]
    assert rep.params["x-window"] == 1

"""Quadratic-operator tests.

Scalar inputs (Bernoulli, zeta values, regularizing constants) are
checked against an independent double-sum oracle; operator actions
against hand-expanded mode algebra; the bracket checks against frozen
central values and against deliberately wrong targets that must fail.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

import pytest

from zetafock import calculus as ca
from zetafock import catalog, fock
from zetafock import quadratic as q
from zetafock.fock import FockVector, basis_up_to, h_apply, weight_components
from zetafock.reports import format_scalar, mismatch_entry, note_diff
from zetafock.series import NEG_INF, POS_INF, Series, VarWindow, diff_on_box

F = Fraction


def bernoulli_double_sum(n: int) -> Fraction:
    # B_n = sum_k 1/(k+1) sum_j (-1)^j C(k,j) j^n, the classical
    # Worpitzky-style formula; independent of series inversion
    total = F(0)
    for k in range(n + 1):
        inner = F(0)
        for j in range(k + 1):
            inner += F((-1) ** j * math.comb(k, j) * j**n)
        total += inner / (k + 1)
    return total


# ----------------------------------------------------------------------
# scalar inputs


def test_bernoulli_against_double_sum():
    for n in range(13):
        assert q.bernoulli(n) == bernoulli_double_sum(n)
    with pytest.raises(ValueError):
        q.bernoulli(-1)


def test_zeta_neg_values():
    assert q.zeta_neg(2) == F(-1, 12)
    for k in (2, 4, 6, 8):
        assert q.zeta_neg(k) == -bernoulli_double_sum(k) / k
    # odd k > 1 give zero through vanishing Bernoulli numbers
    assert q.zeta_neg(3) == 0
    for bad in (1, 0, -2):
        with pytest.raises(ValueError):
            q.zeta_neg(bad)


def test_reg_constants():
    assert q.reg_constant(0) == F(-1, 24)
    assert q.reg_constant(1) == F(-1, 240)
    assert q.reg_constant(2) == F(-1, 504)
    for r in range(4):
        assert q.reg_constant(r) == F((-1) ** r, 2) * q.zeta_neg(2 * r + 2)


def test_mixed_reg_constant_against_series_kernel():
    # same numbers out of the generic series machinery: coefficient of
    # y1^a y2^b in -(1/2) d/dy1 of the expanded contraction kernel
    K = ca.inv_one_minus_exp("y1", "y2", 8)
    dK = K.derivative("y1")
    for a in range(4):
        for b in range(4):
            want = -F(1, 2) * dK.coefficient({"y1": a, "y2": b})
            assert q.mixed_reg_constant(a, b) == want
    # diagonal entries reproduce the mode-zero constants after the
    # factorial bookkeeping
    for r in range(3):
        assert q.mixed_reg_constant(r, r) * math.factorial(r) ** 2 == q.reg_constant(r)


# ----------------------------------------------------------------------
# operator action


def test_quad_apply_hand_values():
    vac = FockVector.vacuum()
    one = FockVector.basis((1,))
    assert q.l_mode(0, one) == one
    assert q.l_mode(-1, vac) == FockVector.zero()
    assert q.l_mode(1, vac) == FockVector.zero()
    assert q.lbar_mode(0, vac) == vac.scaled(F(-1, 24))
    # conformal vector: L(-2) vacuum = (1/2) |1,1>
    assert q.l_mode(-2, vac) == FockVector.basis((1, 1)).scaled(F(1, 2))
    # L(0) is the weight grading
    for v in basis_up_to(6):
        ((parts, _),) = v.terms()
        assert q.l_mode(0, v) == v.scaled(sum(parts))
    # L(2) on |1,1>: j in {1}: h(1)h(1) -> 2*1 applied twice = 2, halved
    assert q.l_mode(2, FockVector.basis((1, 1))) == vac


def test_quad_apply_weight_grading():
    rng = random.Random(7302)
    vecs = basis_up_to(5)
    for _ in range(25):
        v = FockVector.zero()
        for _ in range(3):
            v = v + rng.choice(vecs).scaled(rng.randint(-4, 4))
        n = rng.randint(-3, 3)
        r = rng.randint(0, 2)
        img = q.quad_apply(r, r, n, v, True)
        for w, comp in weight_components(v):
            img_comp = q.quad_apply(r, r, n, comp, True)
            for w2, _ in weight_components(img_comp):
                assert w2 == w - n
        # linearity across the components
        total = FockVector.zero()
        for _, comp in weight_components(v):
            total = total + q.quad_apply(r, r, n, comp, True)
        assert total == img


def test_regularized_flag_only_touches_mode_zero_diagonal():
    v = FockVector.basis((2, 1))
    for n in (-2, -1, 1, 2):
        assert q.quad_apply(1, 1, n, v, True) == q.quad_apply(1, 1, n, v, False)
    # mixed weights at mode zero: no constant is added either
    assert q.quad_apply(1, 2, 0, v, True) == q.quad_apply(1, 2, 0, v, False)
    # the diagonal case does shift
    d = q.quad_apply(1, 1, 0, v, True) - q.quad_apply(1, 1, 0, v, False)
    assert d == v.scaled(q.reg_constant(1))


def test_quad_apply_against_the_full_mode_window():
    # oracle: the whole window |j| <= weight + |n| through pair_apply,
    # which runs on h_apply and not on the candidate set of quad_apply
    orders = [(r1, r2) for r1 in range(3) for r2 in range(3)]
    for v in basis_up_to(6):
        ((parts, _),) = v.terms()
        wt = sum(parts)
        for n in range(-5, 6):
            bound = wt + abs(n)
            want = {rr: FockVector.zero() for rr in orders}
            for j in range(-bound, bound + 1):
                k = n - j
                if j == 0 or k == 0:
                    continue
                pv = q.pair_apply(j, k, v)
                if pv:
                    for r1, r2 in orders:
                        want[(r1, r2)] += pv.scaled(F(j**r1 * k**r2, 2))
            for r1, r2 in orders:
                got = q.quad_apply(r1, r2, n, v, False)
                assert got == want[(r1, r2)], (v, n, r1, r2)


def test_quad_on_basis_images_hold_interned_partitions():
    # each image partition is the tuple fock._PARTS holds, so cache
    # entries share one object per partition
    seen = 0
    for v in basis_up_to(5):
        ((parts, _),) = v.terms()
        for n in range(-3, 4):
            for r1, r2 in ((0, 0), (1, 2)):
                for p, _ in q._quad_on_basis(r1, r2, n, parts):
                    assert fock._PARTS.get(p) is p, (parts, n, p)
                    seen += 1
    assert seen


def test_quad_apply_on_mixed_denominators_is_linear():
    v = FockVector({(2, 1): F(1, 3), (3,): F(-5, 2), (1, 1, 1): F(7, 4)})
    for n in (-2, 0, 3):
        for r1, r2 in ((0, 0), (1, 1), (2, 2), (0, 2)):
            for reg in (False, True):
                want = FockVector.zero()
                for parts, c in v.terms():
                    want += q.quad_apply(r1, r2, n, FockVector.basis(parts), reg).scaled(c)
                got = q.quad_apply(r1, r2, n, v, reg)
                assert got, (n, r1, r2, reg)
                assert got == want, (n, r1, r2, reg)


def test_pair_apply_matches_composition():
    rng = random.Random(515)
    for _ in range(30):
        parts = tuple(sorted((rng.randint(1, 4) for _ in range(rng.randint(0, 3))), reverse=True))
        v = FockVector.basis(parts)
        j = rng.choice([-3, -2, -1, 1, 2, 3])
        k = rng.choice([-3, -2, -1, 1, 2, 3])
        lo, hi = min(j, k), max(j, k)
        assert q.pair_apply(j, k, v) == h_apply(lo, h_apply(hi, v))


# ----------------------------------------------------------------------
# bracket checks


def test_virasoro_check_grid():
    rep = catalog.run_check("VIRASORO", {"mode-range": 2, "weight-cap": 6})
    assert rep.status == "pass", rep.mismatches[:2]


def test_modified_virasoro_check_grid():
    rep = catalog.run_check("MODVIR", {"mode-range": 2, "weight-cap": 6})
    assert rep.status == "pass", rep.mismatches[:2]


def test_wrong_central_term_fails():
    # negative control: the shifted modes do not satisfy the unshifted
    # central term, and the grid must say so on the m + n = 0 diagonal
    mismatches = []
    q.mode_bracket_diffs(mismatches, 2, 4, q.lbar_mode, q.virasoro_central)
    assert mismatches
    assert all(e["monomial"][0] + e["monomial"][1] == 0 for e in mismatches)
    entry = mismatches[0]
    assert set(entry) == {"monomial", "lhs", "rhs", "target"}


def _bracket_pair_oracle(mismatches, prefix, m, n, W, mode, central):
    # the per-pair loop the grid replaced: five fresh images per state
    for v in basis_up_to(W):
        lhs = mode(m, mode(n, v)) - mode(n, mode(m, v))
        rhs = mode(m + n, v).scaled(m - n)
        if m + n == 0:
            rhs = rhs + v.scaled(central)
        note_diff(mismatches, prefix, lhs, rhs, v)


def test_mode_bracket_grid_matches_the_per_pair_loop():
    # the shared per-state images give the entries, values and order of
    # one per-pair loop per (m, n), on a passing grid and two failing ones
    def doubled_at_2(n, v):
        img = q.l_mode(n, v)
        return img.scaled(2) if n == 2 else img

    cases = (
        (q.lbar_mode, q.modvir_central, 6, 0),
        (q.l_mode, q.modvir_central, 4, 72),
        (doubled_at_2, q.virasoro_central, 5, 164),
    )
    R = 3
    for mode, central, W, count in cases:
        want = []
        for m in range(-R, R + 1):
            for n in range(-R, R + 1):
                _bracket_pair_oracle(want, [m, n], m, n, W, mode, central(m))
        got = []
        q.mode_bracket_diffs(got, R, W, mode, central)
        assert len(want) == count
        assert got == want, (mode, central, W)


def test_central_term_frozen_and_monomial():
    assert q.central_term(0, 0, 1) == F(1, 12)
    assert q.central_term(0, 0, 2) == F(8, 12)
    ok, values = q.pure_monomial_check(0, 0, [1, 2, 3])
    assert ok
    assert [lam for _, lam in values] == [F(m**3, 12) for m in (1, 2, 3)]
    ok, values = q.pure_monomial_check(1, 1, [1, 2])
    assert ok
    ratio = values[0][1]
    assert values[1][1] == ratio * 2**7
    with pytest.raises(ValueError):
        q.central_term(0, 0, 0)


def test_central_term_closed_form():
    # measured, not yet derived: the constant depends on T = r + s only
    # and equals m^(2T+3) (T+1)! (T+2)! / (2T+4)!
    fact = math.factorial
    for r in range(3):
        for s in range(3):
            T = r + s
            for m in (1, 2):
                want = F(m ** (2 * T + 3) * fact(T + 1) * fact(T + 2), fact(2 * T + 4))
                assert q.central_term(r, s, m) == want, (r, s, m)


def test_central_term_failures_keep_their_messages(monkeypatch):
    # the fitting rows and their elimination are cached per (r + s, W);
    # a rank-deficient system and an inconsistent one must still raise
    # the messages of the uncached solve
    with pytest.raises(ValueError, match="no equations"):
        q.central_term(1, 0, 1, 0)
    with pytest.raises(ValueError, match="underdetermined"):
        q.central_term(1, 1, 2, 2)
    real = q._diag_eigenvalue
    wrong = lambda t, parts: real(t, parts) + (len(parts) ** 2 if t == 0 else 0)
    monkeypatch.setattr(q, "_diag_eigenvalue", wrong)
    for cached in (q._eigen_rows, q._fit_inverse):
        monkeypatch.setattr(q, cached.__name__, functools.lru_cache(cached.__wrapped__))
    with pytest.raises(ValueError, match="inconsistent"):
        q.central_term(0, 0, 1, 2)


def test_central_term_reports_an_off_diagonal_bracket(monkeypatch):
    # a stray state of weight 9 makes the bracket off-diagonal on every
    # state of weight <= 4 while its diagonal coefficients still fit, so
    # the consistency check passes and the diagonality check must fail
    real = q.lbar_r
    stray = FockVector.basis((9,))
    monkeypatch.setattr(q, "lbar_r", lambda r, n, v: real(r, n, v) + stray)
    with pytest.raises(ValueError, match="bracket is not a diagonal combination"):
        q.central_term(0, 0, 1, 4)


def test_solve_exact():
    rows = [[F(1), F(1)], [F(1), F(-1)], [F(2), F(0)]]
    assert q._solve_exact(rows, [F(3), F(1), F(4)]) == [F(2), F(1)]
    assert q._solve_exact(rows, [F(3), F(1), F(5)]) is None
    with pytest.raises(ValueError):
        q._solve_exact([[F(1), F(1)]], [F(2)])


def test_gen_quadratic_coeff_consistency():
    # scaling by the factorials recovers the direct quadratic operator
    for v in basis_up_to(4):
        for n in (-2, 0, 1):
            for r in range(3):
                got = q.gen_quadratic_coeff(r, r, n, v, regularized=True)
                want = q.quad_apply(r, r, n, v, True)
                assert got.scaled(math.factorial(r) ** 2) == want
            assert q.gen_quadratic_coeff(0, 0, n, v) == q.l_mode(n, v)


def test_gen_quadratic_coeff_against_mode_sum():
    # gen_quadratic_coeff is computed through quad_apply; this oracle sums
    # (1/2) (-j)^a (-k)^b / (a! b!) :h(j)h(k): over j + k = n directly
    for v in basis_up_to(3):
        for n in range(-3, 4):
            bound = 3 + abs(n)
            for a in range(3):
                for b in range(3):
                    want = FockVector.zero()
                    for j in range(-bound, bound + 1):
                        k = n - j
                        if j and k:
                            c = F((-j) ** a * (-k) ** b, 2 * math.factorial(a) * math.factorial(b))
                            want = want + q.pair_apply(j, k, v).scaled(c)
                    assert q.gen_quadratic_coeff(a, b, n, v) == want, (v, n, a, b)
                    if n == 0:
                        want = want + v.scaled(q.mixed_reg_constant(a, b))
                    got = q.gen_quadratic_coeff(a, b, n, v, regularized=True)
                    assert got == want, (v, n, a, b)


def test_gen_quadratic_coeff_mixed_example():
    # order (1,0) at mode zero on the vacuum: operator part annihilates,
    # only the regularizing constant survives
    vac = FockVector.vacuum()
    got = q.gen_quadratic_coeff(1, 0, 0, vac, regularized=True)
    assert got == vac.scaled(q.mixed_reg_constant(1, 0))
    assert q.gen_quadratic_coeff(1, 0, 0, vac) == FockVector.zero()


def test_wick_check():
    rep = catalog.run_check("WICK", {"x-window": 2, "weight-cap": 3})
    assert rep.status == "pass", rep.mismatches[:3]
    assert rep.params["x-window"] == 2


def test_kernel_mismatches_match_diff_on_box_seeded():
    # WICK's kernel identity on plain dicts reports the entries, values
    # and order that diff_on_box gives on the same kernel built as a
    # Series, with the windows WICK used; perturbed kernels must fail
    rng = random.Random(1712)
    vac = FockVector.vacuum()
    failing = 0
    for trial in range(40):
        N, y_order = rng.randrange(3), rng.randrange(3)
        geo = q._dilated_geometric(N, y_order)
        box = [range(-N, 1), range(N + 1), range(y_order + 1), range(y_order + 1)]
        cells = list(itertools.product(*box))
        for cell in rng.sample(cells, k=min(len(cells), rng.randrange(1, 4))):
            geo[cell] = F(rng.randrange(-3, 4), rng.randrange(1, 4))
            if not geo[cell] or rng.random() < 0.3:
                del geo[cell]
        wins = (
            VarWindow("x1", -N, 0, NEG_INF, 0),
            VarWindow("x2", 0, N, 0, POS_INF),
            VarWindow("y1", 0, y_order, 0, POS_INF),
            VarWindow("y2", 0, y_order, 0, POS_INF),
        )
        kernel = Series(wins, geo)
        kernel_box = {"x1": (-N, 0), "x2": (0, N), "y1": (0, y_order - 1), "y2": (0, y_order)}
        oracle = diff_on_box(kernel.euler_derivative("x2"), kernel.derivative("y1").scale(-1), kernel_box)
        want = [
            mismatch_entry([exps[nm] for nm in ("x1", "x2", "y1", "y2")], va, vb, vac)
            for exps, va, vb in oracle
        ]
        got = [mismatch_entry(list(c), va, vb, vac) for c, va, vb in q._kernel_mismatches(geo, N, y_order)]
        assert got == want, (trial, N, y_order)
        failing += bool(want)
    assert failing >= 10, failing
    for N, y_order in ((0, 0), (2, 0), (3, 3)):
        assert q._kernel_mismatches(q._dilated_geometric(N, y_order), N, y_order) == []


def test_theorem1_small_windows():
    for orders, cap in (([1, 1, 1, 1], 3), ([0, 0, 0, 0], 4), ([2, 1, 0, 2], 3)):
        params = {"y-orders": orders, "x-window": 2, "weight-cap": cap}
        rep = catalog.run_check("THEOREM1", params)
        assert rep.status == "pass", (orders, rep.mismatches[:3])


def test_theorem1_compares_cells_that_only_the_scalar_sector_fills(monkeypatch):
    # on the vacuum the operator sector vanishes on the diagonal, so with
    # an empty left side the cells at (e1, e2) = (2, -2) hold only the
    # scalar sector, and each of them must still be compared
    monkeypatch.setattr(q, "dilated_bracket_lhs", lambda *a: {})
    mismatches = []
    params = {"y-orders": [1, 0, 1, 0], "x-window": 2, "weight-cap": 0}
    q.theorem1_diffs(params, mismatches)
    cells = [(m["monomial"][2:], m["rhs"]) for m in mismatches if m["monomial"][:2] == [2, -2]]
    scalar = q._scalar_sector(2, (1, 0, 1, 0))
    want = [(list(mono), format_scalar(c)) for mono, c in scalar.items()]
    assert len(want) == 4
    assert cells[:4] == sorted(want)


def test_dilated_bracket_lhs_zero_slice_is_shifted_bracket():
    # the (0,0,0,0) dilation slice of the dilated-pair commutator is the
    # shifted Virasoro bracket, central term n^3/12
    for v in (FockVector.basis((1,)), FockVector.basis((2, 1))):
        table = q.dilated_bracket_lhs(v, 2, (1, 0, 1, 0))
        for n1 in range(-2, 3):
            for n2 in range(-2, 3):
                want = q.lbar_mode(n1 + n2, v).scaled(n1 - n2)
                if n1 + n2 == 0:
                    want = want + v.scaled(F(n1**3, 12))
                got = table.get((-n1, -n2), {}).get((0, 0, 0, 0), FockVector.zero())
                assert got == want, (n1, n2)


def test_dilated_bracket_lhs_drops_zero_entries():
    table = q.dilated_bracket_lhs(FockVector.vacuum(), 1, (1, 1, 0, 0))
    for key, monos in table.items():
        assert monos, key
        for mono, vec in monos.items():
            assert vec, (key, mono)


def test_phi_kernel_is_entire():
    # the scalar-sector kernel must shed its poles for every mode
    for n in range(-4, 5):
        coeffs = q._phi_coeffs(n, 6)
        assert len(coeffs) == 7
    # zero mode kills the whole kernel
    assert all(c == 0 for c in q._phi_coeffs(0, 6))


def _phi_oracle(n, order):
    # Phi_n as a hand-rolled convolution of the Laurent series g'', g'
    # with e^(nu) - 1 and n(1 + e^(nu))
    G = ca.todd_coeffs(order + 6)
    g1 = {k - 2: (k - 1) * gk for k, gk in enumerate(G) if (k - 1) * gk}
    g2 = {k - 3: (k - 1) * (k - 2) * gk for k, gk in enumerate(G) if (k - 1) * (k - 2) * gk}
    expn = {p: F(n**p, math.factorial(p)) for p in range(order + 4)}
    em1 = dict(expn)
    em1[0] -= 1
    ep1 = {p: n * c for p, c in expn.items()}
    ep1[0] += n
    phi = {}
    for src, mult in ((g2, em1), (g1, ep1)):
        for e1, c1 in src.items():
            for e2, c2 in mult.items():
                if e1 + e2 <= order:
                    phi[e1 + e2] = phi.get(e1 + e2, F(0)) + c1 * c2
    assert all(c == 0 for e, c in phi.items() if e < 0)
    return [phi.get(e, F(0)) for e in range(order + 1)]


def _scalar_sector_oracle(n, caps):
    # generating-series form: sum over p of phi_p (u.y)^p e^(e.y) in a
    # truncated four-variable power series ring, 1/4 of the sum over the
    # two (u, e) pairs
    monos = list(itertools.product(*(range(c + 1) for c in caps)))

    def exp4(cvec):
        out = {}
        for a in monos:
            num = math.prod(x**k for x, k in zip(cvec, a))
            if num:
                out[a] = F(num, math.prod(math.factorial(k) for k in a))
        return out

    def mul4(A, B):
        out = {}
        for ka, va in A.items():
            for kb, vb in B.items():
                k = tuple(x + y for x, y in zip(ka, kb))
                if all(x <= c for x, c in zip(k, caps)):
                    out[k] = out.get(k, F(0)) + va * vb
        return {k: v for k, v in out.items() if v}

    phi = _phi_oracle(n, sum(caps))
    acc = {}
    for u_coeffs, e_coeffs in (((-1, 1, 1, -1), (n, 0, -n, 0)), ((-1, 1, -1, 1), (n, 0, 0, -n))):
        units = [tuple(int(i == j) for j in range(4)) for i in range(4)]
        u_lin = {key: F(c) for c, key in zip(u_coeffs, units) if c and key in monos}
        env = exp4(e_coeffs)
        upow = {(0, 0, 0, 0): F(1)}
        for p, ph in enumerate(phi):
            if p:
                upow = mul4(upow, u_lin)
            for k, val in mul4(upow, env).items():
                acc[k] = acc.get(k, F(0)) + ph * val
    return {k: v / 4 for k, v in acc.items() if v}


def test_scalar_sector_matches_generating_series_seeded():
    # the closed multinomial form against the series-ring product, caps
    # with zero entries included
    rng = random.Random(14)
    cases = [(n, tuple(rng.randint(0, 2) for _ in range(4))) for n in range(-3, 4) for _ in range(6)]
    cases += [(2, (0, 0, 0, 0)), (-1, (2, 2, 2, 2)), (3, (2, 0, 2, 0)), (1, (0, 2, 0, 2))]
    for n, caps in cases:
        assert q._scalar_sector(n, caps) == _scalar_sector_oracle(n, caps), (n, caps)
    assert any(q._scalar_sector(n, caps) for n, caps in cases)


def test_dilated_bracket_lhs_is_the_commutator_of_quad_fields():
    # the pair engine (pair_apply) against the quad engine
    # (gen_quadratic_coeff through quad_apply), at every dilation order:
    # [G(a1, a2, n1), G(a3, a4, n2)] v with zero entries dropped
    G = q.gen_quadratic_coeff
    for N in (1, 2):
        for caps in ((1, 1, 1, 1), (2, 1, 2, 1), (0, 2, 1, 0)):
            monos = list(itertools.product(*(range(c + 1) for c in caps)))
            for v in basis_up_to(3):
                want = {}
                for n1 in range(-N, N + 1):
                    for n2 in range(-N, N + 1):
                        cells = {}
                        for a1, a2, a3, a4 in monos:
                            com = G(a1, a2, n1, G(a3, a4, n2, v)) - G(a3, a4, n2, G(a1, a2, n1, v))
                            if com:
                                cells[(a1, a2, a3, a4)] = com
                        if cells:
                            want[(-n1, -n2)] = cells
                assert q.dilated_bracket_lhs(v, N, caps) == want, (N, caps, v)

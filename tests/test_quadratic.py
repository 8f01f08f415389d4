"""Quadratic-operator tests.

Scalar inputs (Bernoulli, zeta values, regularizing constants) are
checked against an independent double-sum oracle; operator actions
against hand-expanded mode algebra; the bracket checks against frozen
central values and against deliberately wrong targets that must fail.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from operator import mul

import pytest

from zetafock import calculus as ca
from zetafock import catalog, fock
from zetafock import quadratic as q
from zetafock.fock import FockVector, basis_up_to, h_apply, partitions_of, weight_components
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
    # not the case split of quad_apply's kernel (_quad_on_basis), which
    # takes no pair step: pair_apply's step is the separate pair kernel
    # that test_pair_apply_matches_composition checks against h_apply
    orders = list(itertools.product(range(3), repeat=2))
    for v in basis_up_to(8):
        (parts,) = v._num
        wt = sum(parts)
        for n in range(-8, 9):
            bound = wt + abs(n)
            want = {rr: {} for rr in orders}
            for j in range(-bound, bound + 1):
                k = n - j
                if j == 0 or k == 0:
                    continue
                for p, x in q.pair_apply(j, k, v)._num.items():
                    for (r1, r2), acc in want.items():
                        acc[p] = acc.get(p, 0) + j**r1 * k**r2 * x
            for (r1, r2), acc in want.items():
                got = q.quad_apply(r1, r2, n, v, False)
                assert got == FockVector.from_ints({p: x for p, x in acc.items() if x}, 2), (v, n, r1, r2)


def test_quad_apply_case_split_hand_values():
    # two annihilators with k = j: h(1)h(1)|1,1,1> = 1*3 * 1*2 |1>, halved,
    # whatever the orders, since j^r1 k^r2 = 1
    for r1, r2 in itertools.product(range(3), repeat=2):
        assert q.quad_apply(r1, r2, 2, FockVector.basis((1, 1, 1))) == FockVector.basis((1,)).scaled(3)
    # one of each, r1 != r2: at n = 1 on |2>, j = 2, k = -1 and the other
    # ordering give 2 * (2 * 1 + (-1) * 4) |1> = -4 |1>, halved
    assert q.quad_apply(1, 2, 1, FockVector.basis((2,))) == FockVector.basis((1,)).scaled(-2)
    # at n = -1 on |3,1>: j = 3 inserts 4 in front, 3 * (9 * -4 + 16 * 3)
    # = 36, and j = 1 inserts 2 in the middle, 1 * (1 * -2 + 4 * 1) = 2
    want = FockVector.basis((4, 1)).scaled(18) + FockVector.basis((3, 2))
    assert q.quad_apply(2, 1, -1, FockVector.basis((3, 1))) == want


def test_negative_orders_are_refused_before_any_cache_entry():
    # a negative order would make the kernel's weights fractions: every
    # reader refuses it, with gen_quadratic_coeff's message, and neither
    # the kernel nor central_term's fit caches anything for it
    v = FockVector.basis((2, 1))
    calls = [
        lambda: q.quad_apply(-1, 0, 1, v),
        lambda: q.quad_apply(0, -2, -3, v),
        lambda: q.lbar_r(-1, 0, v),
        lambda: q.lbar_r(-1, -2, v),
        lambda: q.central_term(-1, 0, 1),
        lambda: q.central_term(0, -1, 1),
        lambda: q.gen_quadratic_coeff(-1, 0, 1, v),
    ]
    sizes = q._quad_on_basis.cache_info().currsize, q._central_fit.cache_info().currsize
    for call in calls:
        with pytest.raises(ValueError, match="orders must be nonnegative"):
            call()
    assert (q._quad_on_basis.cache_info().currsize, q._central_fit.cache_info().currsize) == sizes


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
    # h_apply is the independent reference for the pair step that
    # pair_apply and quad_apply share: every (j, k) in [-4, 4]^2, zero
    # modes and j = k included, on every basis state of weight <= 5 and
    # on one vector mixing weights and denominators
    mixed = (
        FockVector.basis((2, 1)).scaled(F(1, 3))
        - FockVector.basis((3,)).scaled(F(5, 2))
        + FockVector.basis((1, 1, 1)).scaled(F(7, 4))
    )
    for v in basis_up_to(5) + [mixed]:
        for j in range(-4, 5):
            for k in range(-4, 5):
                lo, hi = min(j, k), max(j, k)
                assert q.pair_apply(j, k, v) == h_apply(lo, h_apply(hi, v)), (v, j, k)


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
    q.mode_bracket_diffs(mismatches, 2, 4, True, q.virasoro_central)
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


def _grid_and_oracle(R, W, regularized, central):
    # the integer grid's entries and those of the FockVector per-pair
    # loop over l_mode or lbar_mode, both reading the current
    # _quad_on_basis
    mode = q.lbar_mode if regularized else q.l_mode
    want = []
    for m in range(-R, R + 1):
        for n in range(-R, R + 1):
            _bracket_pair_oracle(want, [m, n], m, n, W, mode, central(m))
    got = []
    q.mode_bracket_diffs(got, R, W, regularized, central)
    return got, want


def _patched_quad(monkeypatch, change):
    # _quad_on_basis with change(n, parts, image) applied to each image
    real = q._quad_on_basis

    def patched(r_left, r_right, n, parts):
        return change(n, parts, real(r_left, r_right, n, parts))

    monkeypatch.setattr(q, "_quad_on_basis", patched)


def test_mode_bracket_grid_matches_the_per_pair_loop(monkeypatch):
    # the integer grid gives the entries, values and order of one
    # per-pair loop per (m, n), on a passing grid and two failing ones;
    # the last doubles L(2) in both engines
    R = 3
    got, want = _grid_and_oracle(R, 6, True, q.modvir_central)
    assert len(want) == 0 and got == want
    got, want = _grid_and_oracle(R, 4, False, q.modvir_central)
    assert len(want) == 72 and got == want
    _patched_quad(
        monkeypatch, lambda n, parts, img: tuple((p, 2 * x) for p, x in img) if n == 2 else img
    )
    got, want = _grid_and_oracle(R, 5, False, q.virasoro_central)
    assert len(want) == 164 and got == want


@pytest.mark.parametrize("regularized", [False, True])
def test_mode_bracket_grid_sees_one_wrong_coefficient(monkeypatch, regularized):
    # one integer coefficient of one cached image off by one: the
    # numerator comparison must fail, and list what the vector loop lists
    def bumped(n, parts, img):
        if (n, parts) == (1, (2, 1)):
            (p, x), *rest = img
            return ((p, x + 1), *rest)
        return img

    _patched_quad(monkeypatch, bumped)
    central = q.modvir_central if regularized else q.virasoro_central
    got, want = _grid_and_oracle(2, 4, regularized, central)
    assert want
    assert got == want


def test_central_term_frozen_and_monomial():
    assert q.central_term(0, 0, 1) == F(1, 12)
    assert q.central_term(0, 0, 2) == F(8, 12)
    values = [q.central_term(0, 0, m) for m in (1, 2, 3)]
    assert values == [F(m**3, 12) for m in (1, 2, 3)]
    assert {lam / F(m) ** 3 for m, lam in zip((1, 2, 3), values)} == {F(1, 12)}
    ratio = q.central_term(1, 1, 1)
    assert q.central_term(1, 1, 2) == ratio * 2**7
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
    # a bracket whose diagonal value on (1, 1) is off by one no longer
    # matches the fit the one-part states determine
    real = q._bracket

    def off_at_11(r, s, m, parts):
        kv = real(r, s, m, parts)
        return kv + FockVector.basis(parts) if parts == (1, 1) else kv

    monkeypatch.setattr(q, "_bracket", off_at_11)
    with pytest.raises(ValueError, match="inconsistent"):
        q.central_term(0, 0, 1)


def test_central_term_reports_an_off_diagonal_bracket(monkeypatch):
    # a stray state of weight 9 makes the bracket off-diagonal on every
    # state of weight <= 4 while its diagonal coefficients still fit, so
    # the consistency check passes and the diagonality check must fail
    real = q._bracket
    stray = FockVector.basis((9,))
    monkeypatch.setattr(q, "_bracket", lambda r, s, m, parts: real(r, s, m, parts) + stray)
    with pytest.raises(ValueError, match="bracket is not a diagonal combination"):
        q.central_term(0, 0, 1)


def test_central_term_checks_the_vacuum(monkeypatch):
    # the vacuum is where the zeta-regularized constants act: a bracket
    # that differs only in its vacuum eigenvalue fits every other state,
    # so only the vacuum comparison can reject it
    real = q._bracket

    def vacuum_shifted(r, s, m, parts):
        kv = real(r, s, m, parts)
        return kv if parts else kv + FockVector.vacuum(F(1, 7))

    monkeypatch.setattr(q, "_bracket", vacuum_shifted)
    for r, s in ((0, 0), (1, 2)):
        with pytest.raises(ValueError, match="bracket is not a diagonal combination"):
            q.central_term(r, s, 2)


def test_bracket_matches_the_vector_composition():
    # the integer chain of _quad_on_basis images against the two
    # orderings of lbar_r on FockVectors
    for v in basis_up_to(8):
        (parts,) = v._num
        for r in range(3):
            for s in range(3):
                for m in (-4, -3, -2, -1, 1, 2, 3, 4):
                    want = q.lbar_r(r, m, q.lbar_r(s, -m, v)) - q.lbar_r(s, -m, q.lbar_r(r, m, v))
                    assert q._bracket(r, s, m, parts) == want, (r, s, m, parts)


def test_central_fit_inverts_its_block():
    # the one-part block is nonsingular for every T (Descartes' rule of
    # signs); its cached inverse is exact
    for T in range(9):
        states, inverse = q._central_fit(T)
        rows = dict(states)
        n = T + 2
        assert len(rows) == sum(len(partitions_of(w)) for w in range(2 * T + 5))
        block = [rows[(k,)] for k in range(1, n + 1)]
        product = [[sum(map(mul, row, col)) for col in zip(*inverse)] for row in block]
        assert product == [[int(i == j) for j in range(n)] for i in range(n)], T


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
    monkeypatch.setattr(q, "_dilated_lhs_blocks", lambda v, N, caps: q._empty_blocks(v, N, caps)[0])
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
                got = table.get((-n1, -n2, 0, 0, 0, 0), FockVector.zero())
                assert got == want, (n1, n2)


def test_dilated_bracket_lhs_refuses_a_fractional_target():
    # the blocks are integer numerators of basis-state images; a target
    # with a denominator is refused at entry
    v = FockVector.basis((1,)).scaled(F(1, 2))
    with pytest.raises(ArithmeticError):
        q.dilated_bracket_lhs(v, 2, (1, 0, 1, 0))


def test_dilated_bracket_lhs_drops_zero_entries():
    # at N = 2 the vacuum's table has 23 cells in 7 (e1, e2) blocks
    table = q.dilated_bracket_lhs(FockVector.vacuum(), 2, (1, 1, 0, 0))
    assert len(table) == 23
    assert len({cell[:2] for cell in table}) == 7
    for cell, vec in table.items():
        assert vec, cell


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
                        for a1, a2, a3, a4 in monos:
                            com = G(a1, a2, n1, G(a3, a4, n2, v)) - G(a3, a4, n2, G(a1, a2, n1, v))
                            if com:
                                want[(-n1, -n2, a1, a2, a3, a4)] = com
                assert q.dilated_bracket_lhs(v, N, caps) == want, (N, caps, v)

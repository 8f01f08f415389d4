"""Series toolbox tests: coefficient kernels against frozen constants,
substitutions against independent dict-composition oracles, and the
pinned delta-kernel products against brute-force truncated expansions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from zetafock import calculus as ca
from zetafock.fock import FockVector
from zetafock.series import (
    NEG_INF,
    POS_INF,
    IllDefinedProductError,
    Series,
    VariableMismatchError,
    VarWindow,
    WindowInsufficientError,
    diff_on_box,
    mul,
)

F = Fraction


def fk(var: str, data: "dict[int, int | Fraction]") -> Series:
    """Fully known univariate series (complete everywhere)."""
    return Series([VarWindow(var, NEG_INF, POS_INF)], {(e,): v for e, v in data.items()})


# ----------------------------------------------------------------------
# univariate dict kernels


def test_u_inv_roundtrip_seeded():
    rng = random.Random(4401)
    for _ in range(40):
        order = rng.randrange(1, 9)
        a = {0: F(rng.choice([1, -1, 2, 3, -5]))}
        for j in range(1, order + 1):
            if rng.random() < 0.7:
                a[j] = F(rng.randrange(-4, 5))
        prod = ca.u_mul(a, ca.u_inv(a, order), order)
        assert prod == {0: F(1)}


def test_u_pow_matches_repeated_mul():
    rng = random.Random(4402)
    for _ in range(25):
        order = rng.randrange(1, 8)
        a = {j: F(rng.randrange(-3, 4)) for j in range(order + 1)}
        a[0] = F(rng.choice([1, 2, -1]))
        n = rng.randrange(0, 5)
        direct = {0: F(1)}
        for _ in range(n):
            direct = ca.u_mul(direct, a, order)
        assert ca.u_pow(a, n, order) == direct
        inv2 = ca.u_mul(ca.u_inv(a, order), ca.u_inv(a, order), order)
        assert ca.u_pow(a, -2, order) == inv2


def test_bernoulli_frozen_and_double_sum():
    # classic table, B_1 = -1/2 convention
    want = [
        F(1),
        F(-1, 2),
        F(1, 6),
        F(0),
        F(-1, 30),
        F(0),
        F(1, 42),
        F(0),
        F(-1, 30),
        F(0),
        F(5, 66),
        F(0),
        F(-691, 2730),
    ]
    got = ca.bernoulli_list(12)
    assert got == want
    # independent double-sum formula (0^0 taken as 1)
    for n in range(13):
        acc = F(0)
        for k in range(n + 1):
            inner = F(0)
            for j in range(k + 1):
                term = F(1) if (j == 0 and n == 0) else F(j**n)
                inner += F((-1) ** j) * ca.binom(k, j) * term
            acc += inner / (k + 1)
        assert acc == want[n], n


def test_todd_coeffs_frozen():
    g = ca.todd_coeffs(6)
    assert g[:6] == [F(1), F(1, 2), F(1, 12), F(0), F(-1, 720), F(0)]
    b = ca.bernoulli_list(6)
    import math

    for k in range(7):
        assert g[k] == b[k] * F((-1) ** k, math.factorial(k))


def test_binom_generalized():
    assert ca.binom(-1, 3) == F(-1)
    assert ca.binom(-2, 2) == F(3)
    assert ca.binom(4, 2) == F(6)
    assert ca.binom(3, 5) == F(0)
    assert ca.binom(5, -1) == F(0)


# ----------------------------------------------------------------------
# builders


def test_exp_series_coefficients_and_window():
    e = ca.exp_series("y", 4, 2)
    for j in range(5):
        assert e.coefficient({"y": j}) == F(2**j, [1, 1, 2, 6, 24][j])
    w = e.window("y")
    assert (w.low, w.high) == (NEG_INF, 4)
    assert (w.support_low, w.support_high) == (0, POS_INF)
    one = ca.exp_series("y", 4, 0)
    assert one.coefficient({"y": 0}) == 1
    assert one.coefficient({"y": 3}) == 0


def test_binomial_difference_square():
    d = ca.binomial_difference("a", "b", 2)
    assert d.coefficient({"a": 2}) == 1
    assert d.coefficient({"a": 1, "b": 1}) == -2
    assert d.coefficient({"b": 2}) == 1
    assert d.known_on({"a": (-5, 5), "b": (-5, 5)})


def test_binomial_difference_inverse_cancels():
    inv = ca.binomial_difference("a", "b", -1, 6)
    for k in range(7):
        assert inv.coefficient({"a": -1 - k, "b": k}) == 1
    lin = fk("a", {1: 1}).with_variables(["b"]) - fk("b", {1: 1}).with_variables(["a"])
    prod = mul(lin, inv)
    assert prod.coefficient({"a": 0, "b": 0}) == 1
    for exps in ({"a": -1, "b": 1}, {"a": -2, "b": 2}, {"a": -3, "b": 4}):
        assert prod.coefficient(exps) == 0


# ----------------------------------------------------------------------
# regularized geometric kernel


def test_inv_one_minus_exp_diagonal_slice():
    k = ca.inv_one_minus_exp("y1", "y2", 4)
    sl = k.slice_at("y2", 0)
    assert sl.coefficient({"y1": -1}) == 1
    assert sl.coefficient({"y1": 0}) == F(1, 2)
    assert sl.coefficient({"y1": 1}) == F(1, 12)
    assert sl.coefficient({"y1": 2}) == 0
    assert sl.coefficient({"y1": 3}) == F(-1, 720)


def test_inv_one_minus_exp_telescopes():
    order = 3
    k = ca.inv_one_minus_exp("y1", "y2", order)
    lin = ca.binomial_difference("y1", "y2", 1)
    prod = mul(lin, k)
    g = ca.todd_coeffs(2 * order + 1)
    want = ca.aligned_sum(
        [
            ca.binomial_difference("y1", "y2", j).scale(g[j])
            for j in range(2 * order + 2)
        ]
    )
    box = {"y1": (-order + 1, order), "y2": (0, order)}
    assert diff_on_box(prod, want, box) == []


def test_inv_one_minus_exp_counterterm_values():
    # (r!)^2 [y1^r y2^r] of -(d/dy1) equals the frozen alternating
    # odd zeta values -1/12, -1/120, -1/252
    k = ca.inv_one_minus_exp("y1", "y2", 3)
    d = -k.derivative("y1")
    assert d.coefficient({"y1": 0, "y2": 0}) == F(-1, 12)
    assert d.coefficient({"y1": 1, "y2": 1}) * 1 == F(-1, 120)
    assert d.coefficient({"y1": 2, "y2": 2}) * 4 == F(-1, 252)


# ----------------------------------------------------------------------
# substitutions


def test_substitute_valuation_exp_minus_one_inverse_block():
    f = ca.monomial({"x": -1})
    g = ca.substitute_valuation(f, "x", "t", ca.em1_unit, 3)
    assert g.coefficient({"t": -1}) == 1
    assert g.coefficient({"t": 0}) == F(-1, 2)
    assert g.coefficient({"t": 1}) == F(1, 12)
    assert g.coefficient({"t": 2}) == 0
    assert g.coefficient({"t": 3}) == F(-1, 720)


def test_substitute_valuation_vs_dict_oracle_seeded():
    rng = random.Random(4403)
    for trial in range(30):
        cap = rng.randrange(2, 7)
        a_min = rng.randrange(-3, 1)
        data = {}
        for e in range(a_min, rng.randrange(1, 5)):
            if rng.random() < 0.8:
                data[e] = F(rng.randrange(-5, 6))
        if not data:
            data = {0: F(1)}
        f = fk("s", data)
        g = ca.substitute_valuation(f, "s", "t", ca.em1_unit, cap)
        floor = min(data)
        for e in range(floor, cap + 1):
            want = F(0)
            for a, c in data.items():
                if e - a >= 0:
                    p = ca.u_pow(ca.em1_unit(e - a), a, e - a)
                    want += c * p.get(e - a, F(0))
            assert g.coefficient({"t": e}) == want, (trial, e)


def test_substitute_valuation_requires_known_slices():
    w = VarWindow("s", 0, 1, 0, POS_INF)
    f = Series([w], {(0,): F(1), (1,): F(2)})
    with pytest.raises(WindowInsufficientError):
        ca.substitute_valuation(f, "s", "t", ca.em1_unit, 4)


def test_substitute_valuation_rejects_unbounded_laurent():
    w = VarWindow("s", -3, 3, NEG_INF, 3)
    f = Series([w], {(1,): F(1)})
    with pytest.raises(IllDefinedProductError):
        ca.substitute_valuation(f, "s", "t", ca.em1_unit, 4)


def test_subst_monomial_ratio():
    f = fk("s", {0: 1, 1: 1, 2: 1})
    g = ca.subst_monomial(f, "s", "x0", 2)
    assert g.coefficient({"x0": 0}) == 1
    assert g.coefficient({"x0": 1}) == 1
    assert g.coefficient({"x0": 2}) == 1
    w0 = g.window("x0")
    assert (w0.support_low, w0.support_high) == (0, 2)


def test_subst_monomial_widens_band_on_omitted_slices():
    f = Series([VarWindow("s", NEG_INF, 5, 0, POS_INF)], {(k,): F(1) for k in range(6)})
    g = ca.subst_monomial(f, "s", "x0", 3)
    assert g.window("x0").support_high == POS_INF
    assert g.window("x0").high == 3
    assert g.coefficient({"x0": 2}) == 1


def test_subst_taylor_linear_inverse_slice():
    f = ca.monomial({"s": -1})
    g = ca.subst_taylor_linear(f, "s", "b", [(1, "u")], {"u": 3})
    assert g.coefficient({"b": -1, "u": 0}) == 1
    assert g.coefficient({"b": -2, "u": 1}) == -1
    assert g.coefficient({"b": -3, "u": 2}) == 1
    assert g.coefficient({"b": -4, "u": 3}) == -1
    h = ca.subst_taylor_linear(f, "s", "b", [(-1, "u")], {"u": 2})
    assert h.coefficient({"b": -2, "u": 1}) == 1


def test_subst_taylor_linear_caps_base_for_unknown_slices():
    f = Series([VarWindow("s", NEG_INF, 2, -1, POS_INF)], {(-1,): F(1), (2,): F(3)})
    g = ca.subst_taylor_linear(f, "s", "b", [(1, "u")], {"u": 2})
    assert g.window("b").high == 0  # 2 - j_cap
    assert g.window("b").support_high == POS_INF
    assert g.coefficient({"b": 0, "u": 2}) == 3 * ca.binom(2, 2)


def _gen_binom(k: int, n: int) -> Fraction:
    """k(k-1)...(k-n+1)/n! for any integer k, built factor by factor."""
    out = F(1)
    for t in range(n):
        out = out * (k - t) / (t + 1)
    return out


def test_subst_taylor_linear_two_parts_vs_binomial_oracle_seeded():
    # s = base - a - b with unequal caps, so compositions pruned at one
    # part's cap still feed the other; every cell of the capped box is
    # compared with (base + P)^k = sum_n C(k, n) base^(k-n) P^n and
    # P^n = sum_i C(n, i) (-a)^i (-b)^(n-i), slice by slice
    rng = random.Random(4410)
    caps = {"a": 1, "b": 3}
    j_cap = caps["a"] + caps["b"]
    for trial in range(12):
        data = {}
        for k in range(rng.randrange(-3, 1), rng.randrange(1, 4)):
            for e in range(2):
                if rng.random() < 0.7:
                    data[(k, e)] = F(rng.randrange(-4, 5))
        data = {key: c for key, c in data.items() if c} or {(-2, 1): F(3)}
        f = Series([VarWindow("s", NEG_INF, POS_INF), VarWindow("x", NEG_INF, POS_INF)], data)
        g = ca.subst_taylor_linear(f, "s", "base", [(-1, "a"), (-1, "b")], caps)
        assert (g.window("a").high, g.window("b").high) == (1, 3)
        ks = [k for k, _ in data]
        box = {
            "a": (0, 1),
            "b": (0, 3),
            "base": (min(ks) - j_cap, max(ks)),
            "x": (0, 1),
        }
        assert g.known_on(box), trial
        want: "dict[tuple[int, ...], Fraction]" = {}
        for (k, e), c in data.items():
            for n in range(j_cap + 1):
                for i in range(n + 1):
                    key = (i, n - i, k - n, e)
                    term = c * _gen_binom(k, n) * _gen_binom(n, i) * (-1) ** n
                    want[key] = want.get(key, F(0)) + term
        for ea in range(2):
            for eb in range(4):
                for eb0 in range(box["base"][0], box["base"][1] + 1):
                    for ex in range(2):
                        got = g.coefficient({"a": ea, "b": eb, "base": eb0, "x": ex})
                        assert got == want.get((ea, eb, eb0, ex), 0), (
                            trial, ea, eb, eb0, ex
                        )


def test_taylor_shift_matches_binomial_formula_seeded():
    rng = random.Random(4405)
    for trial in range(20):
        data = {e: F(rng.randrange(-4, 5)) for e in range(0, rng.randrange(2, 6))}
        data = {e: c for e, c in data.items() if c}
        if not data:
            data = {1: F(2)}
        f = fk("y", data)
        sign = rng.choice([1, -1])
        g = ca.taylor_shift(f, "y", "t", sign, 5)
        for ye in range(0, 6):
            for te in range(0, 6):
                want = F(0)
                for a, c in data.items():
                    if ye + te == a:
                        want += c * ca.binom(a, te) * F(sign) ** te
                if ye <= g.window("y").high and te <= 5:
                    assert g.coefficient({"y": ye, "t": te}) == want, (trial, ye, te)


def test_taylor_shift_laurent_pole():
    # (y + t)^(-2) = y^(-2) - 2 y^(-3) t + 3 y^(-4) t^2 - ...
    f = fk("y", {-2: 1})
    g = ca.taylor_shift(f, "y", "t", 1, 3)
    for te in range(0, 4):
        want = F((-1) ** te * (te + 1))
        assert g.coefficient({"y": -2 - te, "t": te}) == want
    h = ca.taylor_shift(f, "y", "t", -1, 2)
    assert h.coefficient({"y": -3, "t": 1}) == 2
    assert h.coefficient({"y": -4, "t": 2}) == 3


# ----------------------------------------------------------------------
# pinned delta kernels


def test_delta_product_unit_input_handvalues():
    box = {"x0": (-2, 0), "x1": (-2, 2), "x2": (-2, 2)}
    g = ca.delta_product(Series.constant(1), "x0", "x1", "x2", box)
    assert g.coefficient({"x0": -1, "x1": 0, "x2": 0}) == 1
    assert g.coefficient({"x0": -2, "x1": 1, "x2": 0}) == 1
    assert g.coefficient({"x0": -2, "x1": 0, "x2": 1}) == -1
    assert g.coefficient({"x0": 0, "x1": -1, "x2": 0}) == 1
    assert g.coefficient({"x0": 0, "x1": -2, "x2": 1}) == 1
    assert g.coefficient({"x0": 0, "x1": -1, "x2": 1}) == 0
    assert g.coefficient({"x0": -1, "x1": 2, "x2": 2}) == 0


def _delta_oracle(fdata, box, n_sign):
    """Plain dict brute force for the kernel times a finite f(x1, x2)."""
    out = {}
    (olo, ohi), (plo, phi), (qlo, qhi) = box["x0"], box["x1"], box["x2"]
    for n in range(-40, 41):
        for k in range(0, 41):
            c = ca.binom(n, k) * F(-1) ** k * F(n_sign) ** n
            if not c:
                continue
            for (e1, e2), fv in fdata.items():
                o, p, q = -n - 1, n - k + e1, k + e2
                if not (olo <= o <= ohi and plo <= p <= phi and qlo <= q <= qhi):
                    continue
                key = (o, p, q)
                out[key] = out.get(key, F(0)) + c * fv
    return {k: v for k, v in out.items() if v}


def test_delta_product_vs_bruteforce_seeded():
    rng = random.Random(4406)
    for trial in range(20):
        fdata = {}
        for e1 in range(-2, 3):
            for e2 in range(-2, 3):
                if rng.random() < 0.3:
                    fdata[(e1, e2)] = F(rng.randrange(-3, 4))
        if not fdata:
            fdata = {(0, 0): F(1)}
        f = Series(
            [VarWindow("x1", NEG_INF, POS_INF), VarWindow("x2", NEG_INF, POS_INF)],
            dict(fdata),
        )
        n_sign = rng.choice([1, -1])
        box = {"x0": (-3, 1), "x1": (-3, 3), "x2": (-3, 3)}
        g = ca.delta_product(f, "x0", "x1", "x2", box, n_sign=n_sign)
        want = _delta_oracle(fdata, box, n_sign)
        for o in range(-3, 2):
            for p in range(-3, 4):
                for q in range(-3, 4):
                    assert g.coefficient({"x0": o, "x1": p, "x2": q}) == want.get(
                        (o, p, q), F(0)
                    ), (trial, o, p, q)


def test_delta_product_pins_by_positive_var():
    # f holds the residue variable; the positive variable pins n
    f = ca.monomial({"x2": 1, "x0": 0})
    box = {"x0": (-3, 3), "x1": (-2, 2), "x2": (-2, 2)}
    g = ca.delta_product(f, "x0", "x1", "x2", box)
    # piece (n, k) lands at x0 = -n-1, x1 = n-k, x2 = k+1
    assert g.coefficient({"x0": -1, "x1": 0, "x2": 1}) == 1
    assert g.coefficient({"x0": -2, "x1": 1, "x2": 1}) == 1
    assert g.coefficient({"x0": -2, "x1": 0, "x2": 2}) == -1
    assert g.coefficient({"x0": 1, "x1": -2, "x2": 1}) == 1


def test_delta_product_requires_pinning_and_boxes():
    f = ca.monomial({"x0": 1, "x1": 1})
    box = {"x0": (-2, 2), "x1": (-2, 2), "x2": (-2, 2)}
    with pytest.raises(ValueError):
        ca.delta_product(f, "x0", "x1", "x2", box)
    with pytest.raises(ValueError):
        ca.delta_product(Series.constant(1), "x0", "x1", "x2", {"x0": (-1, 1)})


def test_delta_product_insufficient_input_box():
    f = Series([VarWindow("x1", NEG_INF, 1, 0, POS_INF)], {(0,): F(1), (1,): F(1)})
    box = {"x0": (-3, 1), "x1": (-2, 2), "x2": (0, 2)}
    with pytest.raises(WindowInsufficientError):
        ca.delta_product(f, "x0", "x1", "x2", box)


def _delta_composition(f, out_var, pos_var, neg_var, box, n_sign=1):
    """The per-monomial composition that delta_product replaces: one
    clipped Series product per kernel monomial, summed, then widened to
    full bands in the three kernel variables.  Monomials and widened
    series go through the validating Series constructor."""
    for nm in (out_var, pos_var, neg_var):
        if nm not in box:
            raise ValueError(f"kernel variable {nm!r} needs a box entry")
    fvars = set(f.variables)
    pos_lo, pos_hi = box[pos_var]
    neg_hi = box[neg_var][1]

    def floor(nm):
        return f.window(nm).support_low if nm in fvars else 0

    if floor(neg_var) == NEG_INF or floor(pos_var) == NEG_INF:
        raise IllDefinedProductError("unbounded below")
    k_cap = neg_hi - int(min(floor(neg_var), neg_hi))
    if out_var not in fvars:
        n_lo, n_hi = -box[out_var][1] - 1, -box[out_var][0] - 1
    elif pos_var not in fvars:
        n_lo, n_hi = pos_lo, pos_hi + k_cap
    else:
        raise ValueError("kernel index not pinned")
    terms = []
    for n in range(n_lo, n_hi + 1):
        k_hi_n = min(k_cap, n) if n >= 0 else k_cap
        k_lo_n = max(0, n - (pos_hi - int(min(floor(pos_var), pos_hi))))
        for k in range(k_lo_n, k_hi_n + 1):
            c = ca.binom(n, k) * (-1) ** k * F(n_sign) ** n
            if not c:
                continue
            exps = {out_var: -n - 1, pos_var: n - k, neg_var: k}
            names = sorted(exps)
            piece = Series(
                [VarWindow(nm, NEG_INF, POS_INF, exps[nm], exps[nm]) for nm in names],
                {tuple(exps[nm] for nm in names): c},
            )
            terms.append(mul(piece, f, clip=dict(box)))
    if not terms:
        raise ValueError("empty kernel range")
    out = ca.aligned_sum(terms)
    for nm in (out_var, pos_var, neg_var):
        wins = [
            VarWindow(w.name, w.low, w.high, NEG_INF, POS_INF) if w.name == nm else w
            for w in out.windows()
        ]
        out = Series(wins, dict(out.terms()))
    return out


def _outcome(fn, *args, **kwargs):
    """The result of fn, or the type of the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def _random_delta_input(rng, names, vectors):
    """A seeded f in the given variables: random exponents in [-2, 2],
    bands from a floor in [-2, 0], boxes full or known up to a cap."""
    wins = []
    for nm in names:
        high = POS_INF if rng.random() < 0.5 else rng.randrange(1, 5)
        wins.append(VarWindow(nm, NEG_INF, high, rng.randrange(-2, 1), POS_INF))
    data = {}
    for _ in range(rng.randrange(0, 7)):
        exps = tuple(
            rng.randrange(int(max(-2, w.support_low)), int(min(2, w.high)) + 1)
            for w in wins
        )
        c = F(rng.randrange(-3, 4), rng.choice([1, 2, 3]))
        if vectors:
            parts = rng.choice([(), (1,), (2,), (1, 1)])
            data[exps] = FockVector.basis(parts).scaled(c) if c else FockVector.zero()
        else:
            data[exps] = c
    return Series(wins, data)


def test_delta_product_equals_per_monomial_composition_seeded():
    rng = random.Random(4412)
    results = {}
    for trial in range(240):
        family = ("x1x2", "x0x2", "const")[trial % 3]
        n_sign = (1, -1)[(trial // 3) % 2]
        vectors = trial % 4 == 0
        box = {
            nm: (lo, lo + rng.randrange(0, 4))
            for nm, lo in (
                ("x0", rng.randrange(-4, 1)),
                ("x1", rng.randrange(-3, 1)),
                ("x2", rng.randrange(-3, 1)),
            )
        }
        if family == "const":
            value = FockVector.vacuum(F(3, 2)) if vectors else F(rng.randrange(1, 4))
            f = Series.constant(value)
        else:
            names = ["x1", "x2"] if family == "x1x2" else ["x0", "x2"]
            f = _random_delta_input(rng, names, vectors)
        got = _outcome(ca.delta_product, f, "x0", "x1", "x2", box, n_sign=n_sign)
        want = _outcome(_delta_composition, f, "x0", "x1", "x2", box, n_sign=n_sign)
        if isinstance(want, Series):
            assert isinstance(got, Series), (trial, got)
            assert got == want and got.windows() == want.windows(), trial
            results.setdefault((family, n_sign), []).append(len(got))
        else:
            assert got is want, (trial, got, want)
    # every family and sign produced results, with nonzero data
    assert len(results) == 6
    assert all(max(sizes) > 0 for sizes in results.values()), results


def test_delta_product_edge_inputs_match_composition():
    box = {"x0": (-3, 1), "x1": (-2, 2), "x2": (-1, 2)}
    # no stored terms, but a band escaping the box: not provably zero
    empty = Series([VarWindow("x2", NEG_INF, 4, 0, POS_INF)], {})
    assert not empty.provably_zero()
    # an empty band: every completion vanishes
    vanishing = Series([VarWindow("x1", 0, 3, POS_INF, NEG_INF)], {})
    for f in (empty, vanishing):
        for n_sign in (1, -1):
            got = ca.delta_product(f, "x0", "x1", "x2", box, n_sign=n_sign)
            want = _delta_composition(f, "x0", "x1", "x2", box, n_sign=n_sign)
            assert got == want and got.windows() == want.windows()
            assert got.is_zero()
    assert ca.delta_product(vanishing, "x0", "x1", "x2", box) == Series.zero(["x0", "x1", "x2"])
    # the same exception type as the composition for every failure
    short = Series([VarWindow("x1", NEG_INF, 1, 0, POS_INF)], {(0,): F(1), (1,): F(1)})
    unpinned = ca.monomial({"x0": 1, "x1": 1})
    empty_range = {"x0": (-10, -10), "x1": (-1, 1), "x2": (0, 0)}
    cases = [
        (short, {"x0": (-3, 1), "x1": (-2, 2), "x2": (0, 2)}, WindowInsufficientError),
        # the first piece (x1^-2) passes its check, the second (x1^-3) fails
        (short, {"x0": (-3, 1), "x1": (-2, -1), "x2": (0, 2)}, WindowInsufficientError),
        (Series.constant(1), empty_range, ValueError),
        (unpinned, box, ValueError),
        (vanishing, empty_range, ValueError),
    ]
    for f, b, exc in cases:
        assert _outcome(_delta_composition, f, "x0", "x1", "x2", b) is exc
        with pytest.raises(exc):
            ca.delta_product(f, "x0", "x1", "x2", b)


def test_delta_product_refuses_a_fourth_variable_and_open_boxes():
    f = ca.monomial({"x1": 0, "x2": 0, "y": 1})
    box = {"x0": (-2, 2), "x1": (-2, 2), "x2": (-2, 2)}
    with pytest.raises(VariableMismatchError):
        ca.delta_product(f, "x0", "x1", "x2", box)
    # the result's full bands rest on finite boxes
    g = ca.monomial({"x0": 0, "x2": 0})
    with pytest.raises(ValueError, match="integer ends"):
        ca.delta_product(g, "x0", "x1", "x2", {**box, "x0": (NEG_INF, 2)})


# ----------------------------------------------------------------------
# residue invariance


def test_residue_change_seeded():
    rng = random.Random(4409)
    hits = 0
    for _ in range(50):
        laurent = {}
        for e in range(-4, 4):
            if rng.random() < 0.6:
                laurent[e] = F(rng.randrange(-5, 6))
        unit = {0: F(rng.choice([1, -1, 2]))}
        for j in range(1, 5):
            if rng.random() < 0.7:
                unit[j] = F(rng.randrange(-3, 4))
        assert ca.residue_change_check(laurent, unit)
        # the derivative factor genuinely matters: recompute without it
        total = F(0)
        for a, c in laurent.items():
            if not c or a >= 0:
                continue
            need = -1 - a
            comp = ca.u_pow(unit, a, need)
            total += c * comp.get(need, F(0))
        if total != laurent.get(-1, F(0)):
            hits += 1
    assert hits > 10


def test_residue_change_frozen_instance():
    # x = y + y^2: residue of x^-2 stays 0, of x^-1 stays 1
    unit = {0: F(1), 1: F(1)}
    assert ca.residue_change_check({-1: F(1)}, unit)
    assert ca.residue_change_check({-2: F(1)}, unit)
    assert ca.residue_change_check({-2: F(5), -1: F(7), 3: F(2)}, unit)


# ----------------------------------------------------------------------
# plumbing


def test_widen_band_union_semantics():
    # widening sticks only where the box cannot already prove absence
    s = Series([VarWindow("x", NEG_INF, 2, 0, 1)], {(1,): F(1)})
    w = ca.widen_band(s, "x", 0, 4).window("x")
    assert (w.support_low, w.support_high) == (1, 4)
    # empty request adds nothing
    w2 = ca.widen_band(s, "x", POS_INF, POS_INF).window("x")
    assert (w2.support_low, w2.support_high) == (1, 1)
    z = Series([VarWindow("x", 0, 3, POS_INF, NEG_INF)], {})
    w3 = ca.widen_band(z, "x", 2, 5).window("x")
    assert (w3.support_low, w3.support_high) == (4, 5)
    assert ca.widen_band(z, "x", POS_INF, POS_INF).window("x").band_empty


def test_widen_band_and_monomial_equal_validated_builds_seeded():
    # both build through Series._raw; the validating constructor on the
    # same windows and data must give the same series
    rng = random.Random(4416)
    shrunk = 0
    for trial in range(300):
        wins = []
        for nm in ("x", "y"):
            lo = rng.choice([NEG_INF, -3, -1, 0])
            hi = rng.choice([POS_INF, 3, 1, 0])
            slo = rng.choice([NEG_INF, -2, 0, 1, POS_INF])
            shi = rng.choice([POS_INF, 2, 0, NEG_INF])
            wins.append(VarWindow(nm, lo, hi, slo, shi))
        data = {}
        for _ in range(rng.randrange(0, 5)):
            key = []
            for w in wins:
                elo = max(w.low, w.support_low, -3)
                ehi = min(w.high, w.support_high, 3)
                if elo > ehi:
                    break
                key.append(rng.randint(int(elo), int(ehi)))
            else:
                # a repeated key adds up; a zero sum is dropped
                data[tuple(key)] = data.get(tuple(key), 0) + F(rng.randint(-2, 2))
        s = Series(wins, data)
        nm = rng.choice(["x", "y"])
        lo = rng.choice([NEG_INF, -4, 0, 2, POS_INF])
        hi = rng.choice([NEG_INF, -1, 1, 5, POS_INF])
        got = ca.widen_band(s, nm, lo, hi)
        w = s.window(nm)
        if lo > hi or lo == POS_INF or hi == NEG_INF:
            band = (w.support_low, w.support_high)
        elif w.band_empty:
            band = (lo, hi)
        else:
            band = (min(w.support_low, lo), max(w.support_high, hi))
        want = Series(
            [VarWindow(nm, w.low, w.high, *band) if ww.name == nm else ww for ww in s.windows()],
            dict(s.terms()),
        )
        assert got == want and got.windows() == want.windows(), trial
        if (got.window(nm).support_low, got.window(nm).support_high) != band:
            shrunk += 1
    assert shrunk > 10  # the widened band is normalized again
    for trial in range(100):
        exps = {nm: rng.randint(-4, 4) for nm in rng.sample(["x0", "x1", "x2", "y"], rng.randint(0, 4))}
        value = F(rng.randint(-3, 3), rng.randint(1, 3))
        names = sorted(exps)
        want = Series(
            [VarWindow(nm, NEG_INF, POS_INF, exps[nm], exps[nm]) for nm in names],
            {tuple(exps[nm] for nm in names): value},
        )
        got = ca.monomial(exps, value)
        assert got == want and got.windows() == want.windows()
    with pytest.raises(ValueError):
        ca.monomial({"x": F(1, 2)})


def test_aligned_sum_adjoins_constants():
    a = fk("x", {1: 1})
    b = fk("y", {2: 3})
    s = ca.aligned_sum([a, b])
    assert s.coefficient({"x": 1, "y": 0}) == 1
    assert s.coefficient({"x": 0, "y": 2}) == 3
    assert s.coefficient({"x": 1, "y": 2}) == 0


# ----------------------------------------------------------------------
# named builders


def test_exp_of_log_recovers_one_minus_t():
    # exp(log(1-t)) recovers 1 - t: compose with the exponential as dicts
    order = 8
    ell = {k: F(-1, k) for k in range(1, order + 1)}
    acc = {0: F(1)}
    term = {0: F(1)}
    for k in range(1, order + 1):
        term = ca.u_mul(term, ell, order)
        for e, c in term.items():
            acc[e] = acc.get(e, F(0)) + c / ca.math.factorial(k)
    assert ca.u_trim(acc, order) == {0: F(1), 1: F(-1)}


def test_residue_of_truncated_delta():
    assert fk("x", {-1: 1}).residue("x").coefficient({}) == 1
    delta = Series(
        [VarWindow("x", -3, 3, NEG_INF, POS_INF)], {(n,): F(1) for n in range(-3, 4)}
    )
    assert delta.residue("x").coefficient({}) == 1
    assert fk("x", {2: 1}).residue("x").coefficient({}) == 0


def test_residue_of_exp_over_em1_power_is_delta():
    # Res e^y dy/(e^y - 1)^n = delta(n, 1): with e^y - 1 = y*E(y) it is
    # [y^(n-1)] of E^(-n) e^y, and for n >= 2 the integrand is the
    # derivative of (e^y - 1)^(1-n)/(1-n).  This is why the change of
    # variable in RES-LINK carries the x0^-1 slice alone, with weight 1.
    for n in range(1, 7):
        order = n - 1
        ey = {k: F(1, ca.math.factorial(k)) for k in range(order + 1)}
        comp = ca.u_mul(ca.u_pow(ca.em1_unit(order), -n, order), ey, order)
        assert comp.get(order, 0) == (1 if n == 1 else 0), n

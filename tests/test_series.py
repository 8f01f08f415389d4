"""Window calculus and ring operations of the series core."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from zetafock.series import (
    NEG_INF,
    POS_INF,
    IllDefinedProductError,
    Series,
    VariableMismatchError,
    VarWindow,
    WindowInsufficientError,
    WindowUnderflowError,
    diff_on_box,
    mul,
)


def poly(var: str, coeffs: dict) -> Series:
    # Laurent polynomial: full box; the band tightens to the stored hull.
    return Series([VarWindow.full(var)], {(e,): Fraction(c) for e, c in coeffs.items()})


def geom(var: str, order: int) -> Series:
    # 1/(1-x) truncated: known through `order`, supported at >= 0.
    return Series(
        [VarWindow.power_series(var, order)],
        {(k,): Fraction(1) for k in range(order + 1)},
    )


def delta(var: str, n: int) -> Series:
    # sum of x^k over all integers, known only on [-n, n]
    return Series([VarWindow.box(var, n)], {(k,): Fraction(1) for k in range(-n, n + 1)})


def win(s: Series, var: str) -> tuple:
    w = s.window(var)
    return (w.low, w.high, w.support_low, w.support_high)


def test_window_validation():
    with pytest.raises(ValueError):
        VarWindow("x", 3, 1)
    with pytest.raises(ValueError):
        VarWindow("x", 0.5, 2)
    w = VarWindow("x", NEG_INF, 4)
    assert w.contains(-100) and w.contains(4) and not w.contains(5)
    # an inverted band is canonical empty
    assert VarWindow("x", 0, 1, 5, -5).band_empty


def test_stored_terms_must_fit_box_and_band():
    with pytest.raises(ValueError):
        Series([VarWindow("x", 0, 3)], {(5,): Fraction(1)})
    with pytest.raises(ValueError):
        Series([VarWindow("x", 0, 3, 2, 3)], {(1,): Fraction(1)})


def test_zero_coefficients_dropped():
    s = Series([VarWindow.full("x")], {(1,): Fraction(0), (2,): Fraction(3)})
    assert len(s) == 1
    assert s.coefficient({"x": 1}) == 0
    assert s.coefficient({"x": 2}) == 3


def test_band_normalization():
    # fully known: band shrinks to the stored hull
    p = poly("x", {-2: 1, 5: 3})
    assert win(p, "x") == (NEG_INF, POS_INF, -2, 5)
    # power series: stored hull joins the unknown tail
    g = geom("x", 4)
    assert win(g, "x") == (NEG_INF, 4, 0, POS_INF)
    s = Series([VarWindow.power_series("x", 4)], {(2,): Fraction(1)})
    assert win(s, "x") == (NEG_INF, 4, 2, POS_INF)
    # fully known and empty: provably zero
    z = Series([VarWindow.full("x")], {})
    assert z.provably_zero() and z.window("x").band_empty
    # unknown tails and empty storage: not provably zero
    d = Series([VarWindow.box("x", 3)], {})
    assert not d.provably_zero()


def test_variables_sorted_canonically():
    s = Series([VarWindow.full("y"), VarWindow.full("x")], {(2, 3): Fraction(1)})
    assert s.variables == ("x", "y")
    assert s.coefficient({"x": 3, "y": 2}) == 1


def test_coefficient_access():
    g = geom("x", 5)
    assert g.coefficient({"x": 5}) == 1
    assert g.coefficient({"x": -7}) == 0  # below the band: known zero
    with pytest.raises(WindowInsufficientError):
        g.coefficient({"x": 6})
    assert g.coefficient({"x": 2, "z": 0}) == 1
    assert g.coefficient({"x": 2, "z": 5}) == 0  # absent variable


def test_add_intersects_boxes():
    s = geom("x", 5) + geom("x", 3)
    assert win(s, "x") == (NEG_INF, 3, 0, POS_INF)
    assert s.coefficient({"x": 2}) == 2
    with pytest.raises(WindowInsufficientError):
        s.coefficient({"x": 4})


def test_add_requires_same_variables():
    with pytest.raises(VariableMismatchError):
        geom("x", 3) + geom("y", 3)
    f = geom("x", 3).with_variables(["y"]) + geom("y", 3).with_variables(["x"])
    assert f.coefficient({"x": 1, "y": 0}) == 1
    assert f.coefficient({"x": 1, "y": 1}) == 0


def test_add_empty_intersection_raises():
    a = Series([VarWindow("x", 0, 2)], {(1,): Fraction(1)})
    b = Series([VarWindow("x", 5, 9)], {(6,): Fraction(1)})
    with pytest.raises(WindowUnderflowError):
        a + b


def test_polynomial_product_full_window():
    p = poly("x", {0: 1, 1: 1}) * poly("x", {0: 1, 1: -1})
    assert p == poly("x", {0: 1, 2: -1})
    assert win(p, "x") == (NEG_INF, POS_INF, 0, 2)


def test_geometric_times_one_minus_x():
    # all partial knowledge of the tail collapses to an exact identity
    n = 6
    p = mul(geom("x", n), poly("x", {0: 1, 1: -1}))
    assert win(p, "x") == (NEG_INF, n, 0, POS_INF)
    assert list(p.terms()) == [((0,), Fraction(1))]


def test_delta_kills_one_minus_x():
    n = 5
    p = mul(delta("x", n), poly("x", {0: 1, 1: -1}))
    assert win(p, "x") == (-n + 1, n, NEG_INF, POS_INF)
    assert p.is_zero()


def test_delta_squared_ill_defined():
    with pytest.raises(IllDefinedProductError):
        mul(delta("x", 4), delta("x", 4))


def test_delta_times_power_series_ill_defined():
    # the delta's lower tail meets the power series' unknown top
    with pytest.raises(IllDefinedProductError):
        mul(delta("x", 4), geom("x", 4))


def test_product_in_disjoint_variables():
    p = mul(geom("x", 3), geom("y", 2))
    assert p.variables == ("x", "y")
    assert win(p, "x") == (NEG_INF, 3, 0, POS_INF)
    assert win(p, "y") == (NEG_INF, 2, 0, POS_INF)
    assert p.coefficient({"x": 2, "y": 1}) == 1


def test_monomial_shifts_power_series_window():
    p = mul(poly("x", {5: 1}), geom("x", 3))
    assert win(p, "x") == (NEG_INF, 8, 5, POS_INF)
    assert p.coefficient({"x": 8}) == 1
    assert p.coefficient({"x": 4}) == 0


def test_provably_zero_factor_kills_product():
    z = Series([VarWindow.full("x")], {})
    p = mul(z, delta("x", 3))
    assert p.provably_zero()


def test_scalar_series_multiplication():
    c = Series.constant(Fraction(5))
    p = mul(c, geom("x", 2))
    assert p.coefficient({"x": 1}) == 5
    assert 3 * geom("x", 2) == geom("x", 2).scale(3)


def test_clip_inside_window():
    p = mul(geom("x", 8), geom("x", 8), clip={"x": (0, 4)})
    assert win(p, "x") == (0, 4, 0, POS_INF)
    assert p.coefficient({"x": 3}) == 4


def test_clip_above_mode_floor():
    # known above a floor times a polynomial; the clip box must stay
    # inside the provably complete region
    a = Series([VarWindow("x", -1, POS_INF)], {(0,): Fraction(1), (1,): Fraction(1)})
    assert win(a, "x") == (-1, POS_INF, NEG_INF, 1)
    b = poly("x", {0: 1, 2: 1})
    p = mul(a, b, clip={"x": (1, 9)})
    assert win(p, "x") == (1, 9, NEG_INF, 3)
    assert p.coefficient({"x": 3}) == 1
    assert p.coefficient({"x": 7}) == 0  # above the band: known zero
    with pytest.raises(WindowInsufficientError):
        mul(a, b, clip={"x": (0, 9)})


def test_underflow_when_nothing_complete():
    # an unbounded unknown region on both sides leaves no complete cell
    a = Series([VarWindow("x", 5, 6, NEG_INF, POS_INF)], {(5,): Fraction(1)})
    with pytest.raises(WindowUnderflowError):
        mul(a, poly("x", {0: 1, 3: 2}))


def test_zero_component_outside_support():
    # a's unknown patch [0,4] spreads over b's whole band, so no complete
    # cell exists inside the support; below it the product is provably
    # zero and the window keeps that region
    a = Series([VarWindow("x", 5, 9, 0, POS_INF)], {(5,): Fraction(1)})
    g = mul(a, geom("x", 3))
    assert win(g, "x") == (NEG_INF, -1, 0, POS_INF)
    assert g.coefficient({"x": -1}) == 0
    with pytest.raises(WindowInsufficientError):
        g.coefficient({"x": 0})


def test_derivative():
    f = poly("x", {-2: 3, 0: 5, 4: 1})
    assert f.derivative("x") == poly("x", {-3: -6, 3: 4})
    g = geom("x", 4).derivative("x")
    assert win(g, "x") == (NEG_INF, 3, 0, POS_INF)
    assert g.coefficient({"x": 2}) == 3
    # derivative of a constant is provably zero
    assert poly("x", {0: 7}).derivative("x").provably_zero()


def test_shift_and_euler():
    s = geom("x", 4).shift("x", 2)
    assert win(s, "x") == (NEG_INF, 6, 2, POS_INF)
    assert s.coefficient({"x": 2}) == 1
    f = poly("x", {-2: 3, 0: 5, 4: 1})
    assert f.euler_derivative("x") == poly("x", {-2: -6, 4: 4})


def test_residue_extraction():
    f = poly("x", {-1: 7, 0: 2, 3: 1})
    r = f.residue("x")
    assert r.variables == ()
    assert r.coefficient({}) == 7
    # residue of a power series is a known zero
    assert geom("x", 3).residue("x").provably_zero()
    # but not of a delta restricted away from -1
    with pytest.raises(WindowInsufficientError):
        delta("x", 3).restrict({"x": (0, 3)}).residue("x")


def test_slice_at_and_slices():
    f = mul(geom("x", 3), poly("y", {-1: 2, 1: 5}))
    s = f.slice_at("y", -1)
    assert s.coefficient({"x": 2}) == 2
    pieces = f.slices("y")
    assert sorted(pieces) == [-1, 1]
    assert pieces[1].coefficient({"x": 0}) == 5
    # slicing outside the band is a provable zero
    assert f.slice_at("y", 3).provably_zero()


def test_rename_and_drop():
    g = geom("x", 3).rename({"x": "t"})
    assert g.variables == ("t",)
    assert win(g, "t") == (NEG_INF, 3, 0, POS_INF)


def test_with_variables_adjoins_constants():
    f = geom("x", 2).with_variables(["y"])
    assert f.variables == ("x", "y")
    assert win(f, "y") == (NEG_INF, POS_INF, 0, 0)
    assert f.coefficient({"x": 1, "y": 0}) == 1
    assert f.coefficient({"x": 1, "y": 3}) == 0
    with pytest.raises(VariableMismatchError):
        f.with_variables(["x"])


def test_restrict():
    g = geom("x", 9).restrict({"x": (0, 4)})
    assert win(g, "x") == (0, 4, 0, POS_INF)
    assert len(g) == 5
    with pytest.raises(WindowUnderflowError):
        geom("x", 9).restrict({"x": (10, 20)})


def test_known_on():
    g = geom("x", 5)
    assert g.known_on({"x": (0, 5)})
    assert g.known_on({"x": (-9, -1)})  # below the band
    assert not g.known_on({"x": (0, 6)})
    assert g.known_on({"z": (-2, 2)})  # absent variable


def test_diff_on_box_reports_mismatches():
    a = poly("x", {0: 1, 1: 2})
    b = poly("x", {0: 1, 1: 3, 5: 1})
    bad = diff_on_box(a, b, {"x": (0, 3)})
    assert bad == [({"x": 1}, Fraction(2), Fraction(3))]
    with pytest.raises(WindowInsufficientError):
        diff_on_box(geom("x", 2), poly("x", {0: 1}), {"x": (0, 3)})


# ----------------------------------------------------------------------
# Soundness property: whatever the window calculus claims to know about
# a sum or product must hold in every completion of the unknown
# regions, where a completion may place arbitrary junk inside the
# support bands but outside the known box.

RANGE = 3  # stored exponents live in [-RANGE, RANGE]
JUNK = 6  # completions may add terms out to [-JUNK, JUNK]


def _random_factor(rng: random.Random, names: list) -> Series:
    wins = []
    for nm in names:
        lo = rng.choice([NEG_INF, NEG_INF, -3, -2, -1, 0])
        hi = rng.choice([POS_INF, 3, 2, 1, 0])
        slo = rng.choice([NEG_INF, NEG_INF, -2, 0, 1])
        shi = rng.choice([POS_INF, POS_INF, 2, 0])
        wins.append(VarWindow(nm, lo, hi, slo, shi))
    data = {}
    for _ in range(rng.randint(0, 6)):
        key = []
        for w in wins:
            if w.band_empty:
                break
            elo = int(max(w.low, w.support_low, -RANGE))
            ehi = int(min(w.high, w.support_high, RANGE))
            if elo > ehi:
                break
            key.append(rng.randint(elo, ehi))
        else:
            data[tuple(key)] = Fraction(rng.randint(-4, 4))
    return Series(wins, data)


def _completion(rng: random.Random, s: Series) -> dict:
    # extend the unknown region with random junk; returns a plain
    # exponent->value dict of a finite Laurent polynomial
    out = {k: v for k, v in s._coeffs.items() if v}
    names = s.variables
    for _ in range(8):
        key = tuple(rng.randint(-JUNK, JUNK) for _ in names)
        if not all(s.window(nm).in_band(e) for nm, e in zip(names, key)):
            continue  # outside a band nothing may be added
        if all(s.window(nm).contains(e) for nm, e in zip(names, key)):
            continue  # inside the known box nothing may be added
        out[key] = out.get(key, 0) + Fraction(rng.randint(-3, 3))
    return {k: v for k, v in out.items() if v}


def _dict_mul(a: dict, b: dict, arity: int) -> dict:
    out: dict = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(ka[i] + kb[i] for i in range(arity))
            out[k] = out.get(k, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def test_product_window_soundness_seeded():
    rng = random.Random(20240817)
    names = ["x"]
    checked = nonzero = ill = 0
    for trial in range(700):
        if trial == 350:
            names = ["x", "y"]
        a = _random_factor(rng, names)
        b = _random_factor(rng, names)
        try:
            p = mul(a, b)
        except IllDefinedProductError:
            ill += 1
            continue
        except WindowUnderflowError:
            continue
        arity = len(names)
        products = []
        for _ in range(3):
            products.append(_dict_mul(_completion(rng, a), _completion(rng, b), arity))
        boxes = []
        for nm in names:
            w = p.window(nm)
            lo = int(max(w.low, -2 * JUNK))
            hi = int(min(w.high, 2 * JUNK))
            boxes.append(range(lo, hi + 1))
        for key in itertools.product(*boxes):
            claimed = p.coefficient(dict(zip(names, key)))
            vals = {q.get(key, 0) for q in products}
            assert vals == {claimed}, (
                f"coefficient {key} claimed known={claimed} but completions "
                f"disagree: {vals} (a={a!r}, b={b!r})"
            )
            checked += 1
            if claimed:
                nonzero += 1
    assert checked > 2000
    assert nonzero > 50
    assert ill > 0  # the generator must exercise the rejection path


def test_sum_window_soundness_seeded():
    rng = random.Random(99)
    for _ in range(400):
        a = _random_factor(rng, ["x"])
        b = _random_factor(rng, ["x"])
        try:
            s = a + b
        except WindowUnderflowError:
            continue
        ca, cb = _completion(rng, a), _completion(rng, b)
        w = s.window("x")
        lo, hi = int(max(w.low, -2 * JUNK)), int(min(w.high, 2 * JUNK))
        for e in range(lo, hi + 1):
            want = ca.get((e,), 0) + cb.get((e,), 0)
            assert s.coefficient({"x": e}) == want


def _validated_sum(a: Series, b: Series) -> Series:
    # the sum rebuilt through the validating constructor: boxes intersect,
    # bands join, terms outside the common box drop, zeros cancel
    wins = []
    for wa, wb in zip(a.windows(), b.windows()):
        if wa.band_empty:
            band = (wb.support_low, wb.support_high)
        elif wb.band_empty:
            band = (wa.support_low, wa.support_high)
        else:
            band = (min(wa.support_low, wb.support_low), max(wa.support_high, wb.support_high))
        wins.append(VarWindow(wa.name, max(wa.low, wb.low), min(wa.high, wb.high), *band))
    data: dict = {}
    for s in (a, b):
        for exps, val in s.terms():
            if all(w.contains(e) for w, e in zip(wins, exps)):
                data[exps] = data.get(exps, 0) + val
    return Series(wins, data)


def test_add_equals_validated_sum_seeded():
    # the sum skips its per-term box test for an operand whose boxes are
    # the sum's boxes; both shapes must give the constructor's result
    rng = random.Random(4415)
    shapes = {"equal": 0, "different": 0, "cancelled": 0}
    for trial in range(300):
        a = _random_factor(rng, ["x", "y"])
        if trial % 2:
            b = _random_factor(rng, ["x", "y"])
        else:
            # same boxes, other bands and data, some terms of -a
            b = Series(
                [
                    VarWindow(w.name, w.low, w.high, NEG_INF, POS_INF)
                    for w in a.windows()
                ],
                {
                    **{k: -v for k, v in a.terms() if rng.random() < 0.7},
                    **_random_factor(rng, ["x", "y"]).restrict(
                        {w.name: (w.low, w.high) for w in a.windows()}
                    )._coeffs,
                },
            )
        try:
            got = a + b
        except WindowUnderflowError:
            continue
        want = _validated_sum(a, b)
        assert got == want and got.windows() == want.windows(), trial
        same = all(
            (wa.low, wa.high) == (wb.low, wb.high)
            for wa, wb in zip(a.windows(), b.windows())
        )
        shapes["equal" if same else "different"] += 1
        if any(
            not a.coefficient(dict(zip(a.variables, k))) + v
            for k, v in b.terms()
            if k in a._coeffs and all(w.contains(e) for w, e in zip(got.windows(), k))
        ):
            shapes["cancelled"] += 1
    assert min(shapes.values()) > 10, shapes
    # full cancellation on equal boxes leaves the zero data, bands joined
    s = Series(
        [VarWindow("x", -2, 3, -2, POS_INF), VarWindow("y", NEG_INF, 1)],
        {(0, 1): Fraction(2), (3, -4): Fraction(-1, 3)},
    )
    assert (s + (-s)) == _validated_sum(s, -s)
    assert (s + (-s)).is_zero() and not s.is_zero()

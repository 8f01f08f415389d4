"""Fock-space basics: partition states, mode action, graded dimensions."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from zetafock import calculus as ca
from zetafock import fock as fo
from zetafock import quadratic as q
from zetafock import voa

F = Fraction


def test_make_partition_canonicalizes():
    assert fo.make_partition([1, 3, 2]) == (3, 2, 1)
    assert fo.make_partition([]) == ()
    assert fo.make_partition((2, 2)) == (2, 2)


def test_make_partition_rejects_nonpositive():
    for bad in ([0], [3, -1], [1, 0, 2]):
        try:
            fo.make_partition(bad)
        except ValueError:
            pass
        else:
            raise AssertionError(f"expected rejection of {bad}")


def test_vector_algebra():
    a = fo.FockVector.basis([2, 1])
    b = fo.FockVector.basis([3])
    v = a.scaled(F(1, 2)) + b.scaled(-2)
    assert v.coeff([1, 2]) == F(1, 2)
    assert v.coeff([3]) == -2
    assert v.coeff([1, 1, 1]) == 0
    assert (v - v) == 0
    assert not (v - v)
    assert v + (-v) == fo.FockVector.zero()
    # zero coefficients are dropped, not stored
    w = a + a.scaled(-1)
    assert len(w) == 0


def test_vector_terms_sorted_by_weight():
    v = fo.FockVector.basis([4]) + fo.FockVector.basis([1]) + fo.FockVector.basis([2, 1])
    got = [p for p, _ in v.terms()]
    assert got == [(1,), (2, 1), (4,)]


def test_h_apply_hand_values():
    vac = fo.FockVector.vacuum()
    assert fo.h_apply(-2, vac) == fo.FockVector.basis([2])
    assert fo.h_apply(2, fo.FockVector.basis([2])) == vac.scaled(2)
    assert fo.h_apply(1, fo.FockVector.basis([1, 1, 1])) == fo.FockVector.basis([1, 1]).scaled(3)
    assert fo.h_apply(3, fo.FockVector.basis([2, 1])) == 0
    assert fo.h_apply(0, fo.FockVector.basis([2, 1])) == 0
    assert fo.h_apply(-1, fo.FockVector.basis([2])) == fo.FockVector.basis([2, 1])


def test_h_apply_annihilates_above_weight():
    for w in range(7):
        for part in fo.partitions_of(w):
            b = fo.FockVector.basis(part)
            for n in range(w + 1, w + 4):
                assert fo.h_apply(n, b) == 0


def test_h_apply_linear():
    rng = random.Random(4501)
    pool = [p for w in range(6) for p in fo.partitions_of(w)]
    for _ in range(40):
        v = fo.FockVector({rng.choice(pool): F(rng.randint(-4, 4), rng.randint(1, 3))})
        w = fo.FockVector({rng.choice(pool): F(rng.randint(-4, 4), rng.randint(1, 3))})
        a, b = F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
        n = rng.choice([m for m in range(-5, 6) if m])
        lhs = fo.h_apply(n, v.scaled(a) + w.scaled(b))
        rhs = fo.h_apply(n, v).scaled(a) + fo.h_apply(n, w).scaled(b)
        assert lhs == rhs


def test_heisenberg_commutators():
    # [h(m), h(n)] = m * delta(m+n, 0) * id on every state of weight <= 8
    states = fo.basis_up_to(8)
    for m in range(-5, 6):
        for n in range(-5, 6):
            expected_scale = m if m + n == 0 else 0
            for v in states:
                lhs = fo.h_apply(m, fo.h_apply(n, v)) - fo.h_apply(n, fo.h_apply(m, v))
                assert lhs == v.scaled(expected_scale), (m, n, v)


def test_weight_components():
    v = (
        fo.FockVector.basis([3, 1]).scaled(2)
        + fo.FockVector.basis([4])
        + fo.FockVector.vacuum().scaled(F(-1, 3))
    )
    comps = fo.weight_components(v)
    assert [w for w, _ in comps] == [0, 4]
    assert comps[0][1] == fo.FockVector.vacuum().scaled(F(-1, 3))
    assert comps[1][1] == fo.FockVector.basis([3, 1]).scaled(2) + fo.FockVector.basis([4])


def test_partitions_of_bounds():
    assert fo.partitions_of(0) == ((),)
    assert fo.partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    assert fo.partitions_of(5, 2) == ((2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1))


def test_graded_dim_matches_enumeration():
    for n in range(31):
        assert fo.graded_dim(n) == len(fo.partitions_of(n))


def test_graded_dim_matches_product_formula():
    # coefficients of prod over k of (1 - q^k)^(-1), truncated at order 30
    order = 30
    prod = {0: F(1)}
    for k in range(1, order + 1):
        prod = ca.u_mul(prod, {0: F(1), k: F(-1)}, order)
    inv = ca.u_inv(prod, order)
    for n in range(order + 1):
        assert fo.graded_dim(n) == inv.get(n, F(0))


def test_graded_dim_known_values():
    assert [fo.graded_dim(n) for n in range(10)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30]
    assert fo.graded_dim(30) == 5604


def test_character_offset():
    assert fo.character_offset() == F(-1, 24)


def test_vectors_refuse_floats():
    v = fo.FockVector.basis([2, 1])
    for bad in (0.1, 0.5, 1.0, True):
        with pytest.raises(TypeError):
            fo.FockVector({(1,): bad})
        with pytest.raises(TypeError):
            v.scaled(bad)
        with pytest.raises(TypeError):
            fo.FockVector.vacuum(bad)
    assert v.scaled(F(1, 2)) == fo.FockVector({(2, 1): F(1, 2)})
    assert fo.FockVector({(2, 1): "1/2"}) == v.scaled(F(1, 2))


# ----------------------------------------------------------------------
# integer numerators over one denominator, against {partition: Fraction}


def _canonical(v: "fo.FockVector") -> None:
    num, den = v._num, v._den
    assert den > 0
    assert math.gcd(den, *num.values()) == 1
    assert all(num.values())
    if not num:
        assert den == 1


def _ref(v: "fo.FockVector") -> "dict[tuple[int, ...], Fraction]":
    return dict(v.terms())


def _ref_clean(d: dict) -> dict:
    return {p: c for p, c in d.items() if c}


def _ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for p, c in b.items():
        out[p] = out.get(p, F(0)) + sign * c
    return _ref_clean(out)


def _ref_h(n: int, a: dict) -> dict:
    out: dict = {}
    for p, c in a.items():
        if n < 0:
            key = tuple(sorted(p + (-n,), reverse=True))
            out[key] = out.get(key, F(0)) + c
        elif n > 0 and n in p:
            rest = list(p)
            rest.remove(n)
            key = tuple(rest)
            out[key] = out.get(key, F(0)) + c * n * p.count(n)
    return _ref_clean(out)


def _ref_quad(r1: int, r2: int, n: int, regularized: bool, a: dict) -> dict:
    # the whole window |j| <= weight + |n|, larger index acting first
    bound = max((sum(p) for p in a), default=0) + abs(n)
    out: dict = {}
    for j in range(-bound, bound + 1):
        k = n - j
        if j == 0 or k == 0:
            continue
        hi, lo = max(j, k), min(j, k)
        for p, c in _ref_h(lo, _ref_h(hi, a)).items():
            out[p] = out.get(p, F(0)) + c * F(j**r1 * k**r2, 2)
    if regularized and n == 0 and r1 == r2:
        out = _ref_add(out, {p: c * q.reg_constant(r1) for p, c in a.items()})
    return _ref_clean(out)


def _ref_mode(a: dict, n: int, b: dict, shifted: bool) -> dict:
    out: dict = {}
    for up, cu in a.items():
        m = n - 1 + sum(up) if shifted else n
        for vp, cv in b.items():
            for p, c in voa._mode_on_basis(up, m, vp).terms():
                out[p] = out.get(p, F(0)) + cu * cv * c
    return _ref_clean(out)


def test_numerator_storage_against_fraction_dicts_seeded():
    rng = random.Random(80113)
    pool = [p for w in range(5) for p in fo.partitions_of(w)]
    dens = (1, 2, 3, 4, 6, 9, 10, 12)

    def rand_coeff() -> Fraction:
        return F(rng.randint(-9, 9), rng.choice(dens))

    def rand_vec() -> "fo.FockVector":
        return fo.FockVector({rng.choice(pool): rand_coeff() for _ in range(rng.randint(0, 4))})

    def same(v: "fo.FockVector", want: dict) -> None:
        _canonical(v)
        assert _ref(v) == want, (v, want)

    vecs = [rand_vec() for _ in range(300)]
    for v in vecs:
        _canonical(v)
    # scaling to zero and cancelling must leave the canonical zero
    same(vecs[0].scaled(0), {})
    same(vecs[0] - vecs[0], {})
    for i, v in enumerate(vecs):
        w = vecs[(7 * i + 3) % len(vecs)]
        a, b = _ref(v), _ref(w)
        c = rand_coeff()
        same(v + w, _ref_add(a, b))
        same(v - w, _ref_add(a, b, -1))
        same(v.scaled(c), _ref_clean({p: x * c for p, x in a.items()}))
        same(v.scaled(c.numerator), {p: x * c.numerator for p, x in a.items() if c.numerator})
        n = rng.randint(-4, 4)
        same(fo.h_apply(n, v), _ref_h(n, a))
        r1, r2, reg = rng.randint(0, 2), rng.randint(0, 2), rng.random() < 0.5
        same(q.quad_apply(r1, r2, n, v, reg), _ref_quad(r1, r2, n, reg, a))
        if i % 3 == 0:
            u = fo.FockVector({rng.choice(pool[1:8]): rand_coeff() for _ in range(2)})
            same(voa.vertex_mode(u, n, w), _ref_mode(_ref(u), n, b, False))
            same(voa.x_mode(u, n, w), _ref_mode(_ref(u), n, b, True))
        for wt, comp in fo.weight_components(v):
            _canonical(comp)
            assert _ref(comp) == {p: x for p, x in a.items() if sum(p) == wt}

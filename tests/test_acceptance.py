"""Acceptance gate.

Ten criteria, each exercised by one test below at its stated scale,
all in exact rational arithmetic with zero tolerance.  Every test
prints a single pass/fail line so a plain ``pytest -s`` run yields a
readable scorecard.  Criteria 1 and 5 also carry wall-clock bounds.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction as F

from zetafock import catalog
from zetafock import quadratic as q
from zetafock import voa
from zetafock.fock import FockVector, basis_up_to, character_offset, graded_dim, h_apply

GEN = voa.generator()
OMEGA = FockVector.basis((1, 1)).scaled(F(1, 2))


def _line(num: int, ok: bool, label: str) -> bool:
    print(f"criterion {num:2d}: {'pass' if ok else 'FAIL'}  {label}")
    return ok


def test_criterion_01_virasoro_realization():
    t0 = time.monotonic()
    ok = catalog.run_check("VIRASORO", {"mode-range": 3, "weight-cap": 10}).passed
    # on the vacuum the weight term drops out and the bracket is the
    # central scalar alone
    for m in range(1, 4):
        vac = FockVector.vacuum()
        br = q.l_mode(m, q.l_mode(-m, vac)) - q.l_mode(-m, q.l_mode(m, vac))
        ok = ok and br == vac.scaled(F(m**3 - m, 12))
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 60.0
    assert _line(1, ok, f"Virasoro bracket grid, weight cap 10 ({elapsed:.1f}s)")


def test_criterion_02_regularized_brackets():
    ok = catalog.run_check("MODVIR", {"mode-range": 3, "weight-cap": 10}).passed
    vac = FockVector.vacuum()
    ok = ok and q.lbar_mode(0, vac) == vac.scaled(F(-1, 24))
    for m in range(1, 4):
        br = q.lbar_mode(m, q.lbar_mode(-m, vac)) - q.lbar_mode(-m, q.lbar_mode(m, vac))
        want = q.lbar_mode(0, vac).scaled(2 * m) + vac.scaled(F(m**3, 12))
        ok = ok and br == want
    assert _line(2, ok, "regularized bracket grid, central term m^3/12")


def test_criterion_03_pure_monomial_law():
    ok = True
    recorded = []
    for r in range(3):
        for s in range(3):
            ratios = [
                q.central_term(r, s, m) / F(m) ** (2 * r + 2 * s + 3)
                for m in range(1, 5)
            ]
            ok = ok and all(c == ratios[0] for c in ratios)
            if r == 0 and s == 0:
                ok = ok and ratios[0] == F(1, 12)
            else:
                recorded.append(f"c[{r},{s}]={ratios[0]}")
    assert _line(3, ok, "central monomial ratios; " + " ".join(recorded))


def _bernoulli_akiyama_tanigawa(kmax: int) -> "list[F]":
    # Akiyama-Tanigawa: repeated differences of the row 1/(m+1) leave
    # B_m in front; unrelated to the series inversion behind
    # calculus.bernoulli_list.  It gives B_1 = +1/2, so only even k are used.
    out = []
    a = [F(0)] * (kmax + 1)
    for m in range(kmax + 1):
        a[m] = F(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    return out


def test_criterion_04_zeta_values():
    ok = q.zeta_neg(2) == F(-1, 12)
    oracle = _bernoulli_akiyama_tanigawa(8)
    for k in (2, 4, 6, 8):
        ok = ok and q.zeta_neg(k) == -oracle[k] / k
    for r in range(4):
        zeta = -oracle[2 * r + 2] / (2 * r + 2)
        ok = ok and q.reg_constant(r) == F((-1) ** r, 2) * zeta
    assert _line(4, ok, "zeta values against Akiyama-Tanigawa Bernoulli oracle")


def test_criterion_05_dilated_bracket_identity():
    t0 = time.monotonic()
    rep = catalog.run_check(
        "THEOREM1", {"y-orders": [2, 2, 2, 2], "x-window": 3, "weight-cap": 6}
    )
    ok = rep.passed
    # the undilated coefficient slice is the regularized bracket itself
    for v in (FockVector.vacuum(), FockVector.basis((1,))):
        table = q.dilated_bracket_lhs(v, 2, (0, 0, 0, 0))
        for n1 in range(-2, 3):
            for n2 in range(-2, 3):
                got = table.get((-n1, -n2, 0, 0, 0, 0), FockVector.zero())
                want = q.lbar_mode(n1 + n2, v).scaled(n1 - n2)
                if n1 + n2 == 0:
                    want = want + v.scaled(F(n1**3, 12))
                ok = ok and got == want
    elapsed = time.monotonic() - t0
    ok = ok and elapsed < 120.0
    assert _line(5, ok, f"dilated bracket identity, orders (2,2,2,2), weight cap 6 ({elapsed:.1f}s)")


def test_criterion_06_axioms_and_jacobi():
    ok = catalog.run_check("AXIOMS", {"weight-cap": 3, "x-window": 3}).passed
    vectors = (GEN, OMEGA, FockVector.basis((1, 1)), FockVector.basis((2,)))
    mismatches = []
    for u in vectors:
        for v in vectors:
            voa.jacobi_diffs(mismatches, [], u, v, basis_up_to(4), 3)
    ok = ok and not mismatches
    assert _line(6, ok, "axioms on weight <= 3 basis; Jacobi grid, windows 3")


def test_criterion_07_bracket_identities():
    runs = [
        ("NEWJACOBI", {"x-window": 3, "weight-cap": 4}),
        ("NEWJACOBI", {"u": OMEGA, "x-window": 3, "weight-cap": 4}),
        ("COMM", {"x-window": 3, "weight-cap": 4}),
        ("COMM", {"u": OMEGA, "x-window": 3, "weight-cap": 4}),
        ("GENJACOBI", {"y-orders": [2, 2], "w-orders": [2, 2], "x-window": 2, "weight-cap": 4}),
        ("GENJACOBI", {"u1": OMEGA, "y-orders": [1, 1], "w-orders": [1, 1], "x-window": 1, "weight-cap": 4}),
        ("GENCOMM", {"y-orders": [2, 2], "x-window": 2, "weight-cap": 4}),
        ("GENCOMM", {"u1": OMEGA, "y-orders": [2, 2], "x-window": 2, "weight-cap": 4}),
    ]
    ok = True
    for cid, params in runs:
        ok = ok and catalog.run_check(cid, params).passed
    mismatches = []
    for u in (GEN, OMEGA):
        params = {"u": u, "v": GEN, "targets": basis_up_to(4), "x-window": 3}
        voa.residue_link_diffs(params, mismatches)
    ok = ok and not mismatches
    assert _line(7, ok, "bracket identities with both generator and conformal inputs")


def test_criterion_08_specialization():
    rep = catalog.run_check("SPECIALIZE", {})
    assert _line(8, rep.passed, "commutator formula specialized to the dilated bracket")


def test_criterion_09_graded_dimension():
    N = 30
    coeffs = [1] + [0] * N
    for k in range(1, N + 1):
        for i in range(k, N + 1):
            coeffs[i] += coeffs[i - k]
    ok = all(graded_dim(n) == coeffs[n] for n in range(N + 1))
    ok = ok and character_offset() == F(-1, 24)
    assert _line(9, ok, "graded dimensions vs product formula, n <= 30")


def test_criterion_10_property_suite():
    rep = catalog.run_check("RES-CHANGE", {})
    ok = rep.passed and rep.params["instances"] == 50
    for v in basis_up_to(8):
        for m in range(-5, 6):
            for n in range(-5, 6):
                br = h_apply(m, h_apply(n, v)) - h_apply(n, h_apply(m, v))
                want = v.scaled(m) if m + n == 0 else FockVector.zero()
                ok = ok and br == want
    for v in basis_up_to(3):
        for n in (-1, 0, 2):
            for r in range(3):
                got = q.gen_quadratic_coeff(r, r, n, v, regularized=True)
                want = q.quad_apply(r, r, n, v, True)
                ok = ok and got.scaled(math.factorial(r) ** 2) == want
    assert _line(10, ok, "seeded residue changes; Heisenberg grid; extraction consistency")

"""The check registry and the suite runner behind the command line.

Each catalog id is declared once in REGISTRY: the body that compares
its identity, its parameters with their defaults, and the parameters
that --y-order values fill.  Every default is one its body reads, so no
flag or override is accepted and then ignored.  run_check resolves the
parameters, runs the body under reports.timed_check and returns one
CheckReport, pass or fail.
Grid-style entries fold a family of single checks into one report,
prefixing every mismatch monomial with the grid point it came from.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Any, Callable, Mapping, NamedTuple

from . import voa
from .fock import FockVector, basis_up_to, character_offset, graded_dim, h_apply
from .quadratic import (
    bernoulli,
    l_mode,
    lbar_mode,
    mode_bracket_diffs,
    modvir_central,
    pure_monomial_check,
    theorem1_diffs,
    virasoro_central,
    wick_diffs,
    zeta_neg,
)
from .reports import CheckReport, format_scalar, mismatch_entry, note_diff, timed_check
from .scalars import em1_unit, residue_change_check

F = Fraction

# verify flags that set the check parameter of the same name, each with
# the least integer it accepts (None: any integer)
FLAGS = {"weight-cap": 1, "x-window": 1, "mode-range": 1, "seed": None}


class SelectionError(ValueError):
    """An unknown check, suite or parameter, or a flag no selected check
    takes; raised before any check body runs."""


class Check(NamedTuple):
    """One catalog entry.

    body(params, mismatches) appends mismatch entries and may add derived
    report fields to params.  A report's params are head (by default the
    identity name) followed by defaults, overridden in place.  y_slots
    names the parameters that --y-order values fill, in order; a list
    parameter takes one value per entry."""

    body: Callable[[dict, list], None]
    defaults: Mapping[str, Any]
    y_slots: "tuple[str, ...]" = ()
    head: "Mapping[str, Any] | None" = None


# ----------------------------------------------------------------------
# grid checks over the mode algebra


def _heisenberg(params, mismatches):
    R = params["mode-range"]
    for v in basis_up_to(params["weight-cap"]):
        for m in range(-R, R + 1):
            for n in range(-R, R + 1):
                lhs = h_apply(m, h_apply(n, v)) - h_apply(n, h_apply(m, v))
                rhs = v.scaled(m) if m + n == 0 else FockVector.zero()
                note_diff(mismatches, [m, n], lhs, rhs, v)


def _bracket_grid(params, mismatches, mode, central):
    mode_bracket_diffs(mismatches, params["mode-range"], params["weight-cap"], mode, central)


def _virasoro(params, mismatches):
    _bracket_grid(params, mismatches, l_mode, virasoro_central)


def _modvir(params, mismatches):
    _bracket_grid(params, mismatches, lbar_mode, modvir_central)
    # the shifted zero mode has vacuum eigenvalue -1/24
    vac = FockVector.vacuum()
    note_diff(mismatches, [0], lbar_mode(0, vac), vac.scaled(F(-1, 24)), vac)


# ----------------------------------------------------------------------
# scalar tables


# standard values, frozen; the test suite re-derives them by series
# inversion, this table guards the shipped binary against regressions
_BERNOULLI_ANCHORS = {
    1: F(-1, 2),
    2: F(1, 6),
    4: F(-1, 30),
    6: F(1, 42),
    8: F(-1, 30),
    10: F(5, 66),
    12: F(-691, 2730),
}
_ZETA_ANCHORS = {
    2: F(-1, 12),
    4: F(1, 120),
    6: F(-1, 252),
    8: F(1, 240),
    10: F(-1, 132),
    12: F(691, 32760),
}


def _zeta_table(params, mismatches):
    K = params["mode-range"] = max(2, params["mode-range"])
    vac = FockVector.vacuum()
    rows = params["rows"] = []
    for k in range(2, K + 1):
        b = bernoulli(k)
        z = zeta_neg(k)
        rows.append({"k": k, "bernoulli": format_scalar(b), "zeta": format_scalar(z)})
        if k in _BERNOULLI_ANCHORS and b != _BERNOULLI_ANCHORS[k]:
            mismatches.append(mismatch_entry([k, 0], b, _BERNOULLI_ANCHORS[k], vac))
        if k in _ZETA_ANCHORS and z != _ZETA_ANCHORS[k]:
            mismatches.append(mismatch_entry([k, 1], z, _ZETA_ANCHORS[k], vac))
        if k % 2 == 1 and k > 1 and (b != 0 or z != 0):
            mismatches.append(mismatch_entry([k, 2], b if b else z, F(0), vac))


def _bloch_value(T: int, m: int) -> Fraction:
    """central_term(r, s, m) for r + s = T: m^(2T+3) B(T+2, T+3), that is
    m^(2T+3) (T+1)! (T+2)! / (2T+4)!, with B the Beta integral.

    Bloch, "Zeta values and differential operators on the circle"
    (J. Algebra 182, 1996), and this paper give the shape: zeta-regularized
    mode-zero constants turn the bracket's central polynomial in m into
    one monomial.  Only the leading power is derived here.  Unregularized,
    the identity part of [Q_r(m), Q_s(-m)] for m > 0 is the double
    contraction (1/2) sum_{j=1}^{m-1} (j(m-j))^(T+1), whose m^(2T+3) term
    is (1/2) m^(2T+3) B(T+2, T+2) = m^(2T+3) B(T+2, T+3); the operator
    part's coefficients are homogeneous of degree 2T+1 in (j, m), so the
    regularized constants it brings in reach no power above m^(2T+1).
    That they cancel every lower power of m is measured, not derived:
    central_term equals this value exactly for r, s <= 2 and m <= 4."""
    f = math.factorial
    return F(m ** (2 * T + 3) * f(T + 1) * f(T + 2), f(2 * T + 4))


def _bloch_monomial(params, mismatches):
    # the report lists the modes the mode-range selects
    modes = params["modes"] = list(range(1, max(2, params.pop("mode-range")) + 1))
    values = params["values"] = []
    vac = FockVector.vacuum()
    for r in range(3):
        for s in range(3):
            try:
                ok, vals = pure_monomial_check(r, s, modes)
            except ValueError:
                mismatches.append(mismatch_entry([r, s, 0], 0, 1, vac))
                continue
            ratios = [(m, lam / F(m) ** (2 * r + 2 * s + 3)) for m, lam in vals]
            for m, lam in vals:
                values.append(
                    {"orders": [r, s], "mode": m, "value": format_scalar(lam)}
                )
            first = ratios[0][1]
            if not ok:
                for m, ratio in ratios[1:]:
                    if ratio != first:
                        mismatches.append(mismatch_entry([r, s, m], ratio, first, vac))
            # index [r, s, m, 1]: the value itself against the closed form
            for m, lam in vals:
                want = _bloch_value(r + s, m)
                if lam != want:
                    mismatches.append(mismatch_entry([r, s, m, 1], lam, want, vac))


def _graded_dim(params, mismatches):
    N = params["weight-cap"]
    vac = FockVector.vacuum()
    # coefficients of prod_k (1 - q^k)^(-1) by repeated geometric division
    coeffs = [1] + [0] * N
    for k in range(1, N + 1):
        for i in range(k, N + 1):
            coeffs[i] += coeffs[i - k]
    for n in range(N + 1):
        got = graded_dim(n)
        if got != coeffs[n]:
            mismatches.append(mismatch_entry([n], got, coeffs[n], vac))
    # the offset is the vacuum eigenvalue of the shifted zero mode, whose
    # constant reg_constant(0) builds from the Bernoulli numbers
    want = lbar_mode(0, vac).coeff(())
    if character_offset() != want:
        mismatches.append(mismatch_entry([-1], character_offset(), want, vac))


# ----------------------------------------------------------------------
# operator identity entries


def _jacobi(params, mismatches):
    omega = FockVector.basis((1, 1)).scaled(F(1, 2))
    vectors = [voa.generator(), omega]
    targets = basis_up_to(params["weight-cap"])
    for ui, u in enumerate(vectors):
        for vi, v in enumerate(vectors):
            voa.jacobi_diffs(mismatches, [ui, vi], u, v, targets, params["x-window"])


def _res_change(params, mismatches):
    vac = FockVector.vacuum()
    rng = random.Random(params["seed"])
    for i in range(params["instances"]):
        depth = rng.randrange(1, 6)
        laurent = {}
        for a in range(-depth, rng.randrange(0, 4)):
            c = rng.randrange(-9, 10)
            if c:
                laurent[a] = F(c)
        laurent[-depth] = F(rng.randrange(1, 9))
        # substitution x = y * s * (1 - e^y)/(-y): unit leading term -s
        s = F(rng.choice([1, 2, 3, -1, -2]), rng.choice([1, 2, 3]))
        unit = {k: -s * c for k, c in em1_unit(depth + 1).items()}
        if not residue_change_check(laurent, unit):
            # boolean outcome: got False (0) where True (1) is required
            mismatches.append(mismatch_entry([i], 0, 1, vac))


# The exponential-substitution entries keep their parameters in sorted
# key order, which is the order of their report params.
_G = voa.generator()
_PAIRS = {"u1": _G, "u2": _G, "v1": _G, "v2": _G}

REGISTRY: "dict[str, Check]" = {
    "HEISENBERG": Check(_heisenberg, {"mode-range": 3, "weight-cap": 6}),
    "VIRASORO": Check(_virasoro, {"mode-range": 3, "weight-cap": 8}),
    "MODVIR": Check(_modvir, {"mode-range": 3, "weight-cap": 8}),
    "BLOCH-MONOMIAL": Check(_bloch_monomial, {"mode-range": 4}),
    "ZETA-TABLE": Check(_zeta_table, {"mode-range": 12}),
    "GRADED-DIM": Check(_graded_dim, {"weight-cap": 30}),
    "WICK": Check(
        wick_diffs, {"x-window": 2, "weight-cap": 3, "y-order": 2}, ("y-order",)
    ),
    "THEOREM1": Check(
        theorem1_diffs,
        {"y-orders": [1, 1, 1, 1], "x-window": 2, "weight-cap": 3},
        ("y-orders",),
    ),
    "AXIOMS": Check(
        voa.axioms_diffs,
        {"weight-cap": 3, "x-window": 3},
        head={"axioms": list(voa._AXIOMS)},
    ),
    "JACOBI": Check(
        _jacobi,
        {"x-window": 2, "weight-cap": 2},
        head={"identity": "JACOBI", "vectors": ["current", "conformal"]},
    ),
    "NEWJACOBI": Check(
        voa.newjacobi_diffs, {"u": _G, "v": _G, "weight-cap": 3, "x-window": 2}
    ),
    "COMM": Check(
        voa.comm_diffs,
        {"u": _G, "v": _G, "weight-cap": 3, "x-window": 3},
    ),
    "GENJACOBI": Check(
        voa.genjacobi_diffs,
        {
            **_PAIRS,
            "w-orders": [1, 1],
            "weight-cap": 2,
            "x-window": 2,
            "y-orders": [1, 1],
        },
        ("y-orders",),
    ),
    "GENCOMM": Check(
        voa.gencomm_diffs,
        {
            **_PAIRS,
            "w-orders": [1, 1],
            "weight-cap": 2,
            "x-window": 2,
            "y-orders": [1, 1],
        },
        ("y-orders",),
    ),
    "FOURTERM": Check(
        voa.fourterm_diffs,
        {
            **_PAIRS,
            "weight-cap": 2,
            "x-window": 2,
            "y-orders": [1, 1],
        },
        ("y-orders",),
    ),
    "SPECIALIZE": Check(
        voa.specialize_diffs,
        {"weight-cap": 4, "x-window": 2, "y-orders": [1, 1, 1, 1]},
        ("y-orders",),
    ),
    "BRIDGE": Check(
        voa.bridge_diffs,
        {"mode-range": 2, "w-order": 2, "weight-cap": 3, "y-order": 2},
        ("y-order", "w-order"),
    ),
    "RES-CHANGE": Check(_res_change, {"instances": 50, "seed": 20406}),
}

CATALOG_IDS = tuple(REGISTRY)

SUITES = {
    "core": ("HEISENBERG", "VIRASORO", "MODVIR", "GRADED-DIM"),
    "zeta": ("ZETA-TABLE", "BLOCH-MONOMIAL"),
    "all": CATALOG_IDS,
}


def run_check(check_id: str, params: "Mapping[str, Any] | None" = None) -> CheckReport:
    """One catalog check, with parameters overridden by name."""
    entry = REGISTRY.get(check_id)
    if entry is None:
        raise SelectionError(f"unknown check id {check_id!r}")
    params = dict(params or {})
    unknown = sorted(set(params) - set(entry.defaults))
    if unknown:
        raise SelectionError(f"unknown parameter(s) {', '.join(unknown)} for {check_id}")
    head = {"identity": check_id} if entry.head is None else entry.head
    return timed_check(check_id, {**head, **entry.defaults, **params}, entry.body)


def _y_room(entry: Check) -> int:
    return sum(
        len(entry.defaults[k]) if isinstance(entry.defaults[k], list) else 1
        for k in entry.y_slots
    )


def _flag_params(check_id: str, flags: "Mapping[str, Any]") -> dict:
    """The parameters of one check set by verify flags.

    A flag in FLAGS sets the parameter of its name when the check has
    one.  k --y-order values fill the first k y slots of the check."""
    entry = REGISTRY[check_id]
    params = {k: v for k, v in flags.items() if k in FLAGS and k in entry.defaults}
    values = list(flags.get("y-order") or ())
    for key in entry.y_slots:
        default = entry.defaults[key]
        if isinstance(default, list):
            taken, values = values[: len(default)], values[len(default) :]
            if taken:
                params[key] = taken + default[len(taken) :]
        elif values:
            params[key] = values.pop(0)
    return params


def _require_accepted(ids: "tuple[str, ...]", flags: "Mapping[str, Any]") -> None:
    """Reject a flag, or a --y-order value, that no selected check takes."""
    names = ", ".join(ids) or "an empty selection"
    problems = []
    for flag, value in flags.items():
        if flag == "y-order":
            room = max((_y_room(REGISTRY[c]) for c in ids), default=0)
            if room == 0:
                problems.append(f"--y-order is not accepted by {names}")
            elif len(value) > room:
                problems.append(
                    f"--y-order takes at most {room} value(s) for {names}, got {len(value)}"
                )
        elif flag not in FLAGS or not any(flag in REGISTRY[c].defaults for c in ids):
            problems.append(f"--{flag} is not accepted by {names}")
    if problems:
        raise SelectionError("; ".join(problems))


def run_suite(
    selection: "str | None", flags: "Mapping[str, Any] | None" = None
) -> "list[CheckReport]":
    """Reports for a suite name or a single check id, in catalog order.

    flags maps verify flag names to their values ("y-order" to a list of
    values).  SelectionError is raised before any check runs when the
    selection is unknown or a flag is taken by none of the selected
    checks; an exception from a check body propagates unchanged."""
    if not selection:
        ids: "tuple[str, ...]" = ()
    elif selection in SUITES:
        ids = SUITES[selection]
    elif selection in REGISTRY:
        ids = (selection,)
    else:
        raise SelectionError(f"unknown suite or check id {selection!r}")
    flags = flags or {}
    _require_accepted(ids, flags)
    return [run_check(cid, _flag_params(cid, flags)) for cid in ids]

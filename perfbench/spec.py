"""Workload commands and the per-layer expectations behind them.

BENCHMARK.json holds the workload names, their one-line reasons and the
metric names with units and bounds.  This module holds what does not fit
there: the verify commands each workload runs, and for each layer which
end-to-end metric it is expected to move, on which workloads.
"""

from __future__ import annotations

# Commands run in order in one child process, so the lru_caches start cold
# and are shared between the commands of one pass.  Each selection is a
# single check id, so its report must hold exactly that id.
WORKLOADS = {
    # Acceptance criteria 1-2 scale.  All time goes to fock and quadratic
    # (quad_apply and the _pair_on_basis cache); no voa, series or calculus
    # work.  MODVIR reuses VIRASORO's pair cache.  A Fock/quadratic kernel
    # change shows here; a series or vertex change should show nothing.
    "mode-grid": (
        ("VIRASORO", "--weight-cap", "10"),
        ("MODVIR", "--weight-cap", "10"),
        ("BLOCH-MONOMIAL",),
    ),
    # voa._mode_on_basis plus fock.h_apply take about 60% of self time;
    # later commands partly reuse _mode_on_basis entries.  An integer,
    # output-sensitive mode kernel with graded-block caches shows here.
    "vertex-jacobi": (
        ("JACOBI",),
        ("SPECIALIZE",),
        ("GENJACOBI",),
    ),
    # The series ring is the largest self-time module (Series.__init__,
    # _normalize_bands, __add__, mul), plus calculus substitutions and
    # aligned_sum.  _mode_on_basis hits its cache about 99% of the time, so
    # the Fock kernel is light.  Hoisting and a k-way sum show here.
    "series-fourterm": (
        ("FOURTERM",),
        ("RES-CHANGE", "--seed", "{seed}"),
    ),
}

# Layer prefix of a per-layer metric -> (end-to-end metric, workloads where
# it should move most).  Every per-layer metric in BENCHMARK.json starts with
# one of these prefixes.
EXPECTED_MOVES = {
    "fock.": (("wall_s", ("vertex-jacobi", "mode-grid")),),
    "quadratic.": (("wall_s", ("mode-grid",)),),
    "voa.": (
        ("wall_s", ("vertex-jacobi",)),
        ("peak_rss_mb", ("mode-grid", "vertex-jacobi", "series-fourterm")),
    ),
    "series.": (("wall_s", ("series-fourterm", "vertex-jacobi")),),
    "calculus.": (("wall_s", ("series-fourterm",)),),
    "catalog.": (("wall_s", ("mode-grid", "vertex-jacobi", "series-fourterm")),),
    "reports.": (("wall_s", ("mode-grid", "vertex-jacobi", "series-fourterm")),),
    "cli.": (("wall_s", ("mode-grid", "vertex-jacobi", "series-fourterm")),),
    "trace.": (),
}


def commands(workload: str, seed: int) -> "list[list[str]]":
    """The verify argument lists of one workload, with the seed filled in."""
    return [
        ["verify"] + [arg.format(seed=seed) for arg in cmd]
        for cmd in WORKLOADS[workload]
    ]


def expected_moves(metric: str) -> "tuple":
    """The (end-to-end metric, workloads) pairs a per-layer metric should move."""
    for prefix, moves in EXPECTED_MOVES.items():
        if metric.startswith(prefix):
            return moves
    raise KeyError(f"no layer prefix for per-layer metric {metric!r}")

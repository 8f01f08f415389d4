"""Failing runs of the vertex identity checks, pinned byte for byte.

Each vertex check runs at its catalog test flags with the results of
one or two functions of the voa module doubled: the left-side term
tables of JACOBI or its right-side inner field; the right-side table
of NEWJACOBI (_newjacobi_rhs) or of COMM (_comm_rhs); or, for the
checks that bracket their inputs first (GENJACOBI, GENCOMM,
SPECIALIZE), the exponential-coordinate bracket y_bracket_apply
together with the right-side table that check reads.  Every such run
fails, and its json-lines record, mismatch entries and their order
included, must equal the line stored in vertex_failing_golden.jsonl.

That file was written by the per-target implementation that preceded
the target-independent right sides, when JACOBI's left side was two
pair series through calculus.delta_product and every other vertex
check doubled the bracket series that both its bracket slices and its
right sides were built from.  The right sides are now closed forms in
the mode images and no longer read y_bracket_apply, so doubling the
right-side table as well reproduces that fault, and doubling both term
tables doubles the same two terms as doubling both pair series did.
So a passing run here shows that the restructured code reports the
same mismatches, not just the same passing bytes.

The runs in vertex_delta_sign_golden.jsonl flip the kernel sign of
every left-side term (voa._delta_cells) instead, so JACOBI, GENJACOBI
and NEWJACOBI fail through the left-side delta kernel.  Its first two
lines were written by the per-monomial calculus.delta_product that
multiplied one clipped Series product per kernel term, and its third
by the one-pass delta_product, each flipping that kernel's n_sign; so
a passing run shows that the closed-form term tables report the same
mismatches.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from zetafock import cli, voa
from zetafock.fock import FockVector

from test_catalog import RUNS

GOLDEN = Path(__file__).with_name("vertex_failing_golden.jsonl")
SIGN_GOLDEN = Path(__file__).with_name("vertex_delta_sign_golden.jsonl")

# (check id, voa functions whose results are doubled)
FAULTS = [
    ("JACOBI", ("_delta_cells",)),
    ("JACOBI", ("_jacobi_inner",)),
    ("NEWJACOBI", ("_newjacobi_rhs",)),
    ("COMM", ("_comm_rhs",)),
    ("GENJACOBI", ("y_bracket_apply", "_newjacobi_rhs")),
    ("GENCOMM", ("y_bracket_apply", "_comm_rhs")),
    ("SPECIALIZE", ("y_bracket_apply", "_comm_rhs")),
]

# check ids run with the left-side kernel's n_sign flipped
SIGN_FAULTS = ["JACOBI", "GENJACOBI", "NEWJACOBI"]

ARGV = {argv[0]: argv for argv in RUNS}


def faulty_run(check_id: str, names, monkeypatch, capsys) -> str:
    """The json-lines record of check_id at its test flags, with the
    series or cell table returned by voa.<name> doubled for each name."""
    for name in names:
        real = getattr(voa, name)
        monkeypatch.setattr(voa, name, lambda *a, real=real, **k: doubled(real(*a, **k)))
    return failing_output(check_id, capsys)


def doubled(value):
    # y_bracket_apply returns FockVector slices; every other doubled
    # function an integer cell table {key: {partition: int}}, whose
    # denominator its callers fix from its inputs
    if isinstance(value, dict):
        return {
            key: vec.scaled(2) if isinstance(vec, FockVector) else {p: 2 * x for p, x in vec.items()}
            for key, vec in value.items()
        }
    return value.scale(2)


def failing_output(check_id: str, capsys) -> str:
    code = cli.main(["verify"] + ARGV[check_id])
    out = capsys.readouterr().out
    assert code == 1
    return out


@pytest.mark.parametrize(
    "index", range(len(FAULTS)), ids=[f"{c}-{'+'.join(n)}" for c, n in FAULTS]
)
def test_failing_run_matches_golden(index, monkeypatch, capsys):
    check_id, names = FAULTS[index]
    line = GOLDEN.read_text().splitlines(keepends=True)[index]
    out = faulty_run(check_id, names, monkeypatch, capsys)
    record = json.loads(out)
    assert record["check-id"] == check_id
    assert record["status"] == "fail"
    assert record["mismatches"]
    assert out == line


def flipped_sign_run(check_id: str, monkeypatch, capsys) -> str:
    """The json-lines record of check_id at its test flags, with every
    left-side term built under the opposite kernel sign n_sign."""
    real = voa._delta_cells

    def flipped(outer, inner, target, w, mode, floor, n_sign):
        return real(outer, inner, target, w, mode, floor, -n_sign)

    monkeypatch.setattr(voa, "_delta_cells", flipped)
    return failing_output(check_id, capsys)


@pytest.mark.parametrize("index", range(len(SIGN_FAULTS)), ids=SIGN_FAULTS)
def test_flipped_delta_sign_matches_golden(index, monkeypatch, capsys):
    check_id = SIGN_FAULTS[index]
    line = SIGN_GOLDEN.read_text().splitlines(keepends=True)[index]
    out = flipped_sign_run(check_id, monkeypatch, capsys)
    record = json.loads(out)
    assert record["check-id"] == check_id
    assert record["status"] == "fail"
    assert record["mismatches"]
    assert out == line

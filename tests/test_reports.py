"""Report formatting: exact scalar strings, fixed key order, rerun
determinism of the machine format."""

from __future__ import annotations

from fractions import Fraction

import pytest

from zetafock import catalog
from zetafock import reports as rp
from zetafock.fock import FockVector

F = Fraction


def test_format_scalar():
    assert rp.format_scalar(F(0)) == "0"
    assert rp.format_scalar(F(-1, 24)) == "-1/24"
    assert rp.format_scalar(F(8, 12)) == "2/3"
    assert rp.format_scalar(5) == "5"
    assert rp.format_scalar(F(7, -3)) == "-7/3"


def test_serialize_vector_sorted_by_weight():
    v = FockVector({(3, 1): F(1, 2), (1,): F(-2), (2,): F(3)})
    rows = rp.serialize_vector(v)
    assert rows == [
        {"parts": [1], "coeff": "-2"},
        {"parts": [2], "coeff": "3"},
        {"parts": [3, 1], "coeff": "1/2"},
    ]


def test_status_rules():
    ok = rp.timed_check("X", {}, lambda params, mm: None)
    assert ok.status == "pass" and ok.passed
    entry = rp.mismatch_entry([0], 1, 2, FockVector.vacuum())
    bad = rp.timed_check("X", {}, lambda params, mm: mm.append(entry))
    assert bad.status == "fail" and not bad.passed


def test_json_lines_deterministic_across_reruns():
    params = {"mode-range": 2, "weight-cap": 4}
    a = rp.render_json_lines([catalog.run_check("VIRASORO", params)])
    b = rp.render_json_lines([catalog.run_check("VIRASORO", params)])
    assert a == b
    assert a.endswith("\n")
    line = a.strip()
    assert line.startswith('{"check-id":"VIRASORO","params":')
    assert '"status":"pass"' in line
    assert "elapsed" not in line


def test_table_format():
    params = {"mode-range": 1, "weight-cap": 3}
    reps = [catalog.run_check("VIRASORO", params), catalog.run_check("MODVIR", params)]
    text = rp.render_table(reps)
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("VIRASORO")
    assert "pass" in lines[0] and "ms" in lines[0]
    assert rp.render_table([]) == "(no checks selected)\n"
    with pytest.raises(ValueError):
        rp.render_reports(reps, "yaml")


def test_table_counts_mismatches_beyond_the_cap():
    entries = [rp.mismatch_entry([n], F(1), F(0), FockVector.vacuum()) for n in range(207)]
    rep = rp.timed_check("CAPPED", {}, lambda params, mismatches: mismatches.extend(entries))
    assert len(rep.mismatches) == rp.MISMATCH_CAP
    lines = rp.render_table([rep]).splitlines()
    assert lines[-1] == "  ... 202 more mismatches"
    short = rp.timed_check("SHORT", {}, lambda params, mismatches: mismatches.extend(entries[:7]))
    assert short.params == {}
    assert rp.render_table([short]).splitlines()[-1] == "  ... 2 more mismatches"


def test_failure_rows_are_rendered(monkeypatch):
    # a zero central term breaks the shifted bracket at m + n = 0
    monkeypatch.setattr(catalog, "modvir_central", lambda m: F(0))
    rep = catalog.run_check("MODVIR", {"mode-range": 1, "weight-cap": 3})
    assert rep.status == "fail"
    text = rp.render_table([rep])
    assert "lhs=" in text and "rhs=" in text


# ----------------------------------------------------------------------
# the integer cell walk


class _RecordingTable(dict):
    """A cell table that records every cell the walk reads."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = []

    def get(self, key, default=None):
        self.read.append(key)
        return super().get(key, default)


def test_cell_walk_equal_rationals_over_different_denominators():
    # 1/2 |1> - 3/4 |2,1> over 4 and over 12, and a cell that is zero
    # in both; no cell differs, whichever side has the larger denominator
    lhs = {(0,): {(1,): 2, (2, 1): -3}, (1,): {}}
    rhs = {(0,): {(1,): 6, (2, 1): -9}}
    assert list(rp.cell_diffs(lhs, 4, rhs, 12, [range(-1, 2)])) == []
    assert list(rp.cell_diffs(rhs, 12, lhs, 4, [range(-1, 2)])) == []


def test_cell_walk_lists_exactly_the_cell_off_by_one():
    lhs = {(0, 0): {(1,): 2}, (0, 1): {(2,): 5, (1, 1): 1}, (1, 0): {(): 7}}
    for den in (3, 6):
        k = den // 3
        rhs = {cell: {p: x * k for p, x in num.items()} for cell, num in lhs.items()}
        rhs[(0, 1)] = {(2,): 5 * k, (1, 1): k + 1}
        got = list(rp.cell_diffs(lhs, 3, rhs, den, [range(2), range(2)]))
        assert [cell for cell, _, _ in got] == [(0, 1)]
        _, va, vb = got[0]
        assert va == FockVector.from_ints({(2,): 5, (1, 1): 1}, 3)
        assert vb == FockVector.from_ints({(2,): 5 * k, (1, 1): k + 1}, den)
        assert va == FockVector({(2,): F(5, 3), (1, 1): F(1, 3)})
        assert vb - va == FockVector({(1, 1): F(1, den)})


def test_cell_walk_absent_cell_equals_an_empty_one():
    ranges = [range(3)]
    for den in (1, 5):
        assert list(rp.cell_diffs({(1,): {}}, 1, {}, den, ranges)) == []
        assert list(rp.cell_diffs({}, den, {(2,): {}}, 1, ranges)) == []
    got = list(rp.cell_diffs({}, 2, {(1,): {(3,): 1}}, 5, ranges))
    assert got == [((1,), FockVector.zero(), FockVector({(3,): F(1, 5)}))]


def test_cell_walk_never_reads_cells_off_the_ranges():
    # cells just off the box differ wildly; the walk reads every cell of
    # the box once, in row-major order, and nothing else
    ranges = [range(-1, 1), range(0, 2)]
    box = [(-1, 0), (-1, 1), (0, 0), (0, 1)]
    lhs = _RecordingTable({(1, 0): {(1,): 1}, (-2, 1): {(2,): 3}, (0, 1): {(1,): 4}})
    rhs = _RecordingTable({(0, -1): {(1,): 9}, (0, 2): {(): 1}, (0, 1): {(1,): 8}})
    assert [c for c, _, _ in rp.cell_diffs(lhs, 1, rhs, 2, ranges)] == []
    assert lhs.read == box
    assert rhs.read == box


def test_over_lcm_keeps_every_vector():
    table = {
        (0,): FockVector({(1,): F(1, 4), (2,): F(3, 2)}),
        (1,): FockVector({(): F(5, 6)}),
        (2,): FockVector.zero(),
    }
    cells, den = rp.over_lcm(table)
    assert den == 12
    assert cells == {(0,): {(1,): 3, (2,): 18}, (1,): {(): 10}, (2,): {}}
    assert {key: FockVector.from_ints(dict(num), den) for key, num in cells.items()} == table

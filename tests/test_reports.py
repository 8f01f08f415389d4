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

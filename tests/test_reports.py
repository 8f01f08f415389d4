"""Report formatting: exact scalar strings, fixed key order, rerun
determinism of the machine format."""

from __future__ import annotations

from fractions import Fraction

import pytest

from zetafock import quadratic as q
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
    ok = rp.make_report("X", {}, [])
    assert ok.status == "pass" and ok.passed
    bad = rp.make_report("X", {}, [rp.mismatch_entry([0], 1, 2, FockVector.vacuum())])
    assert bad.status == "fail"
    win = rp.make_report("X", {"n": 1}, [], window_error="box too small")
    assert win.status == "window-insufficient"
    assert win.params["window-error"] == "box too small"


def test_json_lines_deterministic_across_reruns():
    a = rp.render_json_lines([q.virasoro_check(2, -2, 4)])
    b = rp.render_json_lines([q.virasoro_check(2, -2, 4)])
    assert a == b
    assert a.endswith("\n")
    line = a.strip()
    assert line.startswith('{"check-id":"VIRASORO","params":')
    assert '"status":"pass"' in line
    assert "elapsed" not in line


def test_table_format():
    reps = [q.virasoro_check(1, -1, 3), q.modified_virasoro_check(1, 1, 3)]
    text = rp.render_table(reps)
    lines = text.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("VIRASORO")
    assert "pass" in lines[0] and "ms" in lines[0]
    assert rp.render_table([]) == "(no checks selected)\n"
    with pytest.raises(ValueError):
        rp.render_reports(reps, "yaml")


def test_failure_rows_are_rendered():
    rep = q._mode_bracket_report("X", 1, -1, 3, q.lbar_mode, F(0))
    text = rp.render_table([rep])
    assert "lhs=" in text and "rhs=" in text

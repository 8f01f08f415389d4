"""Command-line contract tests.

Covers selection handling, flag and config-file precedence, the exit
code contract (0 all pass, 1 any failure, 2 usage), deterministic
json-lines output, and the scalar table subcommand.
"""

from __future__ import annotations

import json

import pytest

from zetafock import catalog, cli
from zetafock.catalog import SUITES
from zetafock.reports import CheckReport


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_core_suite_passes_in_catalog_order(tmp_path, capsys):
    out = tmp_path / "core.jsonl"
    code, _, _ = run(
        ["verify", "core", "--weight-cap", "3", "--mode-range", "1", "--out", str(out)],
        capsys,
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert [json.loads(ln)["check-id"] for ln in lines] == list(SUITES["core"])
    for ln in lines:
        rec = json.loads(ln)
        assert rec["status"] == "pass"
        assert rec["mismatches"] == []


def test_rerun_is_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    args = ["verify", "zeta", "--mode-range", "4"]
    assert run(args + ["--out", str(a)], capsys)[0] == 0
    assert run(args + ["--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_single_check_selection(capsys):
    code, out, _ = run(["verify", "GRADED-DIM", "--weight-cap", "12"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["check-id"] == "GRADED-DIM"
    assert rec["params"]["weight-cap"] == 12


def test_empty_selection_exits_zero(capsys):
    code, out, _ = run(["verify"], capsys)
    assert code == 0
    assert out == ""
    code, out, _ = run(["verify", "--format", "table"], capsys)
    assert code == 0
    assert out == "(no checks selected)\n"


def test_unknown_selection_is_usage_error(capsys):
    code, _, err = run(["verify", "NOPE"], capsys)
    assert code == 2
    assert "NOPE" in err


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment\nsuite=zeta\nmode-range=4\n")
    out = tmp_path / "r.jsonl"
    code, _, _ = run(
        ["verify", "--config", str(cfg), "--mode-range", "2", "--out", str(out)],
        capsys,
    )
    assert code == 0
    recs = [json.loads(ln) for ln in out.read_text().splitlines()]
    assert [r["check-id"] for r in recs] == list(SUITES["zeta"])
    # the flag wins over the file value 4
    assert recs[0]["params"]["mode-range"] == 2
    assert recs[1]["params"]["modes"] == [1, 2]


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("bogus-key=3\n")
    code, _, err = run(["verify", "core", "--config", str(cfg)], capsys)
    assert code == 2
    assert "bogus-key" in err


def test_config_rejects_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("weight-cap 4\n")
    assert run(["verify", "core", "--config", str(cfg)], capsys)[0] == 2


def test_nonpositive_bounds_rejected(capsys):
    assert run(["verify", "core", "--weight-cap", "0"], capsys)[0] == 2
    assert run(["verify", "COMM", "--x-window", "-1"], capsys)[0] == 2
    assert run(["verify", "BRIDGE", "--y-order", "-1"], capsys)[0] == 2


@pytest.mark.parametrize("value", ["0", "-2", "x", "2.5", ""])
def test_flag_and_config_values_give_the_same_error(value, tmp_path, capsys):
    code, out, err = run(["verify", "core", "--weight-cap", value], capsys)
    assert code == 2
    assert out == ""
    assert "weight-cap" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"weight-cap={value}\n")
    assert run(["verify", "core", "--config", str(cfg)], capsys) == (2, "", err)


@pytest.mark.parametrize(
    "text, key, line",
    [
        ("suite=core\nweight-cap=3\n# note\nweight-cap=4\n", "weight-cap", 4),
        ("suite=COMM\ny-order=1\ny-order=2\n", "y-order", 3),
    ],
)
def test_config_rejects_a_repeated_key(text, key, line, tmp_path, capsys):
    # the first value sits on line 2; naming both lines shows what clashed
    cfg = tmp_path / "run.cfg"
    cfg.write_text(text)
    code, out, err = run(["verify", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert f"{cfg}:{line}:" in err
    assert repr(key) in err
    assert "line 2" in err


@pytest.mark.parametrize("value", ["1,,2", "", "1,", " , 2"])
def test_config_rejects_an_empty_y_order_entry(value, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"suite=THEOREM1\ny-order={value}\n")
    code, out, err = run(["verify", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert f"{cfg}:2:" in err
    assert "y-order" in err


def test_y_order_flag_reaches_check(capsys):
    code, out, _ = run(
        ["verify", "BRIDGE", "--y-order", "1", "--weight-cap", "2", "--mode-range", "1"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["params"]["y-order"] == 1


def test_y_order_values_fill_the_first_slots(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("suite=THEOREM1\ny-order=1,2\n")
    for argv in (
        ["verify", "THEOREM1", "--y-order", "1", "--y-order", "2"],
        ["verify", "--config", str(cfg)],
    ):
        code, out, _ = run(argv, capsys)
        assert code == 0
        assert json.loads(out)["params"]["y-orders"] == [1, 2, 1, 1]


@pytest.mark.parametrize(
    "flags, config, named",
    [
        (
            ["VIRASORO", "--x-window", "9", "--y-order", "5"],
            "suite=VIRASORO\nx-window=9\ny-order=5\n",
            ["--x-window", "--y-order", "VIRASORO"],
        ),
        (
            ["core", "--x-window", "3"],
            "suite=core\nx-window=3\n",
            ["--x-window", "HEISENBERG", "GRADED-DIM"],
        ),
        (
            ["COMM", "--y-order", "1", "--y-order", "2"],
            "suite=COMM\ny-order=1,2\n",
            ["--y-order", "COMM"],
        ),
        (
            ["COMM", "--y-order", "1"],
            "suite=COMM\ny-order=1\n",
            ["--y-order is not accepted by COMM"],
        ),
        (
            ["BRIDGE", "--y-order", "1", "--y-order", "2", "--y-order", "3"],
            "suite=BRIDGE\ny-order=1,2,3\n",
            ["--y-order takes at most 2 value(s) for BRIDGE, got 3"],
        ),
    ],
)
def test_inapplicable_flags_are_usage_errors(flags, config, named, tmp_path, capsys):
    code, out, err = run(["verify"] + flags, capsys)
    assert code == 2
    assert out == ""
    for word in named:
        assert word in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    assert run(["verify", "--config", str(cfg)], capsys) == (2, "", err)


def test_exit_one_on_failure(capsys, monkeypatch):
    entry = {"monomial": [0], "lhs": "0", "rhs": "1", "target": []}
    monkeypatch.setattr(cli, "run_suite", lambda sel, ov: [CheckReport("X", {}, "fail", [entry], 1)])
    code, out, _ = run(["verify", "core"], capsys)
    assert code == 1
    assert json.loads(out)["mismatches"] == [entry]


def test_table_bernoulli(capsys):
    code, out, _ = run(["table", "bernoulli", "--max", "4"], capsys)
    assert code == 0
    assert out.splitlines() == ["0\t1", "1\t-1/2", "2\t1/6", "3\t0", "4\t-1/30"]


def test_table_zeta_contains_anchor(capsys):
    code, out, _ = run(["table", "zeta", "--max", "6"], capsys)
    assert code == 0
    rows = out.splitlines()
    assert rows[0] == "2\t1/6\t-1/12"
    assert rows[-1] == "6\t1/42\t-1/252"


def test_table_partitions(tmp_path, capsys):
    out = tmp_path / "p.txt"
    code, _, _ = run(["table", "partitions", "--max", "6", "--out", str(out)], capsys)
    assert code == 0
    assert out.read_text().splitlines()[-1] == "6\t11"


def test_table_partitions_at_weight_600(capsys):
    # the counts come from an iterative recurrence: no recursion depth
    # limit is reached, and p(600) equals the product-formula count
    code, out, _ = run(["table", "partitions", "--max", "600"], capsys)
    assert code == 0
    counts = [1] + [0] * 600
    for k in range(1, 601):
        for i in range(k, 601):
            counts[i] += counts[i - k]
    assert out.splitlines()[-1] == f"600\t{counts[600]}"


def test_table_usage_errors(capsys):
    assert run(["table", "bernoulli"], capsys)[0] == 2
    assert run(["table", "nope", "--max", "3"], capsys)[0] == 2
    assert run(["table", "zeta", "--max", "-1"], capsys)[0] == 2


def test_missing_config_file(capsys):
    assert run(["verify", "core", "--config", "/nonexistent/x.cfg"], capsys)[0] == 2


def test_a_check_body_error_is_not_a_usage_error(capsys, monkeypatch):
    # exit 2 is for the selection and the flags, checked before any check
    # runs; a ValueError raised inside a check body is a fault and propagates
    def boom(n, v):
        raise ValueError("boom inside body")

    monkeypatch.setattr(catalog, "lbar_mode", boom)
    with pytest.raises(ValueError, match="boom inside body"):
        cli.main(["verify", "MODVIR", "--weight-cap", "2", "--mode-range", "1"])
    assert "zetafock: error" not in capsys.readouterr().err
    # an unknown selection is still a usage error
    assert run(["verify", "NOPE"], capsys)[0] == 2


def _no_checks(sel, flags):
    raise AssertionError("a check ran before the output path was checked")


@pytest.mark.parametrize("command", [["verify", "core"], ["table", "bernoulli", "--max", "3"]])
def test_bad_out_path_is_a_usage_error_before_any_work(command, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", _no_checks)
    missing = tmp_path / "missing" / "r.jsonl"
    for path in (str(missing), str(tmp_path), ""):
        code, out, err = run(command + ["--out", path], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("zetafock: error: ")
        assert repr(path) in err
    assert not missing.parent.exists()


@pytest.mark.parametrize("value", ["{missing}", ""])
def test_bad_out_in_config_is_a_usage_error_before_any_work(value, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_suite", _no_checks)
    path = value.format(missing=tmp_path / "missing" / "r.jsonl")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"suite=core\nout={path}\n")
    code, out, err = run(["verify", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    assert repr(path) in err


def test_existing_out_file_is_kept_until_the_report_is_ready(tmp_path, capsys, monkeypatch):
    target = tmp_path / "r.jsonl"
    target.write_text("old\n")
    seen = []

    def suite(sel, flags):
        seen.append(target.read_text())
        return [CheckReport("X", {}, "pass", [], 1)]

    monkeypatch.setattr(cli, "run_suite", suite)
    assert run(["verify", "core", "--out", str(target)], capsys)[0] == 0
    assert seen == ["old\n"]
    assert json.loads(target.read_text())["check-id"] == "X"


def test_write_failure_after_the_checks_is_a_usage_error(tmp_path, capsys, monkeypatch):
    folder = tmp_path / "gone"
    folder.mkdir()
    target = folder / "r.jsonl"

    def suite(sel, flags):
        folder.rmdir()
        return [CheckReport("X", {}, "pass", [], 1)]

    monkeypatch.setattr(cli, "run_suite", suite)
    code, out, err = run(["verify", "core", "--out", str(target)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("zetafock: error: ")
    assert repr(str(target)) in err
    assert "Traceback" not in err

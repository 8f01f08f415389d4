"""Catalog registry tests.

Every catalog id runs once through the command line at small flags and
must reproduce, byte for byte, the json-lines record stored in
catalog_golden.jsonl.  That file was written by the implementation that
preceded the registry, with the renamed parameter keys (AXIOMS window,
JACOBI windows, ZETA-TABLE max, GRADED-DIM max-weight) mapped to the
flag names that set them; regenerate it only for an intended change of
report content.  The mismatch cap is checked on a deliberately broken
oscillator action.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

from zetafock import catalog, cli, reports
from zetafock.fock import h_apply

GOLDEN = {
    json.loads(line)["check-id"]: line
    for line in Path(__file__).with_name("catalog_golden.jsonl")
    .read_text()
    .splitlines(keepends=True)
}

RUNS = [
    ["HEISENBERG", "--weight-cap", "3", "--mode-range", "2"],
    ["VIRASORO", "--weight-cap", "4", "--mode-range", "2"],
    ["MODVIR", "--weight-cap", "4", "--mode-range", "2"],
    ["BLOCH-MONOMIAL", "--mode-range", "2"],
    ["ZETA-TABLE", "--mode-range", "6"],
    ["GRADED-DIM", "--weight-cap", "10"],
    ["WICK", "--x-window", "1", "--weight-cap", "2", "--y-order", "1"],
    ["THEOREM1", "--x-window", "1", "--weight-cap", "2"]
    + ["--y-order", "1", "--y-order", "0", "--y-order", "1", "--y-order", "0"],
    ["AXIOMS", "--weight-cap", "2", "--x-window", "2"],
    ["JACOBI", "--weight-cap", "1", "--x-window", "1"],
    ["NEWJACOBI", "--weight-cap", "1", "--x-window", "1"],
    ["COMM", "--weight-cap", "2", "--x-window", "2"],
    ["GENJACOBI", "--weight-cap", "1", "--x-window", "1", "--y-order", "1", "--y-order", "0"],
    ["GENCOMM", "--weight-cap", "1", "--x-window", "1", "--y-order", "1", "--y-order", "1"],
    ["FOURTERM", "--weight-cap", "1", "--x-window", "1", "--y-order", "1", "--y-order", "1"],
    ["SPECIALIZE", "--weight-cap", "2", "--x-window", "1", "--y-order", "1", "--y-order", "0"],
    ["BRIDGE", "--weight-cap", "2", "--mode-range", "1", "--y-order", "1", "--y-order", "1"],
    ["RES-CHANGE", "--seed", "7"],
]


def test_runs_cover_the_catalog():
    assert [argv[0] for argv in RUNS] == list(catalog.CATALOG_IDS)
    assert list(GOLDEN) == list(catalog.CATALOG_IDS)


@pytest.mark.parametrize("argv", RUNS, ids=lambda argv: argv[0])
def test_report_matches_golden(argv, capsys):
    code = cli.main(["verify"] + argv)
    out = capsys.readouterr().out
    assert code == 0
    assert out == GOLDEN[argv[0]]


# sha256 of the stdout of `zetafock verify all`
VERIFY_ALL_SHA256 = "b956217644fae66646d4029e9346d4786e7a7d2ccd5b44847f2ee5fa80a433ab"


def test_verify_all_bytes_are_pinned(capsys):
    """The json-lines output of every catalog check at its default flags.

    Only a change that declares a change of report content (new report
    keys, a new default scale, a new catalog id) may update the hash,
    and it says so in CHANGES.md."""
    code = cli.main(["verify", "all"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SHA256


# sha256 of the --out file of each mode-grid benchmark command
MODE_GRID_SHA256 = {
    "VIRASORO": "db63ac9bad2f4ecfc9f15238487054b991a4b042be61476c7978512bf1fd0826",
    "MODVIR": "a8e8c2ccbd666176a36498228f5737927e79494eebe47138ab866598d21260d7",
    "BLOCH-MONOMIAL": "88adfa5f643d2ffe2779c1af9ac72217cf96b17a3f7801da3b139231e0dcf66e",
}


@pytest.mark.parametrize(
    "argv",
    [["VIRASORO", "--weight-cap", "10"], ["MODVIR", "--weight-cap", "10"], ["BLOCH-MONOMIAL"]],
    ids=lambda argv: argv[0],
)
def test_mode_grid_bytes_are_pinned(argv, tmp_path):
    # the golden file holds these ids at small flags only; these are the
    # benchmark's scales, above the weight cap 8 of the defaults
    out = tmp_path / "report.jsonl"
    assert cli.main(["verify"] + argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == MODE_GRID_SHA256[argv[0]]


# sha256 of the stdout of vertex checks beyond their default and golden
# flags, written by the FockVector cell tables that preceded the integer
# ones; the integer walk must report the same bytes at these scales
VERTEX_BEYOND_SHA256 = [
    (["JACOBI", "--weight-cap", "3", "--x-window", "3"],
     "aea3ab84aaf82234c4f4856b9173a2d6f10b65951271abe9607b49348051b3db"),
    (["GENJACOBI", "--weight-cap", "4"],
     "9c89832c602ac031565d8151274444ff75f6efb70854d8fc6e247d09fc600f50"),
    (["NEWJACOBI", "--weight-cap", "4", "--x-window", "3"],
     "fe53f608b47d6dd6a6d3a87bb87256ee0b3ee7f0d531e4a3aa307dc521d900ab"),
    (["GENCOMM", "--weight-cap", "4"],
     "5dacc97c20fd4258ce0a1f31ab7311f9e0a8f354d9dfd77ce560fc07dffe93e2"),
    (["FOURTERM", "--y-order", "2", "--y-order", "2"],
     "12b3e5321c0bd48f23236df51ef604c66c26aa7b7fb859af0437e4ed89b9ba22"),
]


@pytest.mark.parametrize(
    "argv, sha", VERTEX_BEYOND_SHA256, ids=[" ".join(argv) for argv, _ in VERTEX_BEYOND_SHA256]
)
def test_vertex_bytes_beyond_golden_flags_are_pinned(argv, sha, capsys):
    assert cli.main(["verify"] + argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == sha


def test_bloch_monomial_passes_at_mode_range_12():
    # the law m^(2T+3) B(T+2, T+3) for r, s <= 2 at every m <= 12
    rep = catalog.run_check("BLOCH-MONOMIAL", {"mode-range": 12})
    assert rep.status == "pass", rep.mismatches[:3]
    assert rep.params["modes"] == list(range(1, 13))
    assert len(rep.params["values"]) == 9 * 12


class _ReadRecorder(dict):
    """A parameter block that records every key a check body reads."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def pop(self, key, *default):
        self.read.add(key)
        return super().pop(key, *default)


def test_every_default_is_read(monkeypatch):
    # a default its body never reads would take a flag or an override and
    # echo it in the report without using it
    blocks = []

    def recording(check_id, params, body):
        blocks.append(_ReadRecorder(params))
        return real(check_id, blocks[-1], body)

    real = catalog.timed_check
    monkeypatch.setattr(catalog, "timed_check", recording)
    unread = {}
    for cid in catalog.CATALOG_IDS:
        assert catalog.run_check(cid).passed
        missed = sorted(set(catalog.REGISTRY[cid].defaults) - blocks[-1].read)
        if missed:
            unread[cid] = missed
    assert unread == {}


def test_mismatch_cap_keeps_the_total(monkeypatch):
    # a doubled oscillator action breaks every bracket with m + n = 0
    monkeypatch.setattr(catalog, "h_apply", lambda n, v: h_apply(n, v).scaled(2))
    rep = catalog.run_check("HEISENBERG", {"weight-cap": 8})
    assert rep.status == "fail"
    assert len(rep.mismatches) == reports.MISMATCH_CAP
    total = rep.params["mismatches-total"]
    assert total > reports.MISMATCH_CAP
    monkeypatch.setattr(reports, "MISMATCH_CAP", total)
    full = catalog.run_check("HEISENBERG", {"weight-cap": 8})
    assert len(full.mismatches) == total
    assert "mismatches-total" not in full.params
    assert full.mismatches[: len(rep.mismatches)] == rep.mismatches


def test_graded_dim_fails_on_a_wrong_character_offset(monkeypatch):
    # the offset is compared with the vacuum eigenvalue of the shifted
    # zero mode, not with a copy of the value character_offset returns
    monkeypatch.setattr(catalog, "character_offset", lambda: Fraction(-1, 12))
    rep = catalog.run_check("GRADED-DIM", {"weight-cap": 4})
    assert rep.status == "fail"
    assert [(m["monomial"], m["lhs"], m["rhs"]) for m in rep.mismatches] == [
        ([-1], "-1/12", "-1/24")
    ]


def test_bloch_monomial_compares_each_value(monkeypatch):
    # every central term is compared with m^(2T+3) B(T+2, T+3) at index
    # [r, s, m, 1]; a shift that keeps the ratios equal fails there alone
    from zetafock import quadratic

    real = quadratic.central_term
    assert catalog.run_check("BLOCH-MONOMIAL", {"mode-range": 3}).status == "pass"

    def one_shifted(r, s, m):
        lam = real(r, s, m)
        return lam + Fraction(1, 7) if (r, s, m) == (2, 1, 3) else lam

    monkeypatch.setattr(quadratic, "central_term", one_shifted)
    rep = catalog.run_check("BLOCH-MONOMIAL", {"mode-range": 3})
    assert rep.status == "fail"
    assert [m["monomial"] for m in rep.mismatches] == [[2, 1, 3], [2, 1, 3, 1]]
    shifted = rep.mismatches[1]
    assert (shifted["lhs"], shifted["rhs"]) == (
        reports.format_scalar(real(2, 1, 3) + Fraction(1, 7)),
        reports.format_scalar(Fraction(3**9 * 24 * 120, 3628800)),
    )

    def scaled(r, s, m):
        lam = real(r, s, m)
        return lam * 2 if (r, s) == (1, 0) else lam

    monkeypatch.setattr(quadratic, "central_term", scaled)
    rep = catalog.run_check("BLOCH-MONOMIAL", {"mode-range": 3})
    assert rep.status == "fail"
    assert [m["monomial"] for m in rep.mismatches] == [[1, 0, m, 1] for m in (1, 2, 3)]


# the scalar checks list their mismatches on the vacuum
VAC_TARGET = [{"parts": [], "coeff": "1"}]


def _entry(monomial, lhs, rhs):
    return {"monomial": monomial, "lhs": lhs, "rhs": rhs, "target": VAC_TARGET}


def test_zeta_table_lists_a_wrong_anchor_and_a_nonzero_odd_value(monkeypatch):
    real = catalog.bernoulli
    wrong = {4: Fraction(29, 30), 5: Fraction(1, 7)}
    monkeypatch.setattr(catalog, "bernoulli", lambda k: wrong.get(k, real(k)))
    rep = catalog.run_check("ZETA-TABLE", {"mode-range": 6})
    assert rep.status == "fail"
    assert rep.mismatches == [_entry([4, 0], "29/30", "-1/30"), _entry([5, 2], "1/7", "0")]


def test_res_change_lists_the_failing_instance(monkeypatch):
    real = catalog.residue_change_check
    calls = []

    def third_fails(laurent, unit):
        calls.append(real(laurent, unit))
        return calls[-1] and len(calls) != 3

    monkeypatch.setattr(catalog, "residue_change_check", third_fails)
    rep = catalog.run_check("RES-CHANGE", {"instances": 5})
    assert all(calls) and len(calls) == 5
    assert rep.status == "fail"
    assert rep.mismatches == [_entry([2], "0", "1")]


def test_bloch_monomial_lists_a_failed_extraction(monkeypatch):
    from zetafock import quadratic

    real = quadratic.central_term

    def raising(r, s, m):
        if (r, s) == (1, 1):
            raise ValueError("not a diagonal combination")
        return real(r, s, m)

    monkeypatch.setattr(quadratic, "central_term", raising)
    rep = catalog.run_check("BLOCH-MONOMIAL", {"mode-range": 2})
    assert rep.status == "fail"
    assert rep.mismatches == [_entry([1, 1, 0], "0", "1")]
    assert [1, 1] not in [row["orders"] for row in rep.params["values"]]


def test_graded_dim_lists_a_wrong_partition_count(monkeypatch):
    real = catalog.graded_dim
    monkeypatch.setattr(catalog, "graded_dim", lambda n: real(n) + (n == 5))
    rep = catalog.run_check("GRADED-DIM", {"weight-cap": 8})
    assert rep.status == "fail"
    assert rep.mismatches == [_entry([5], "8", "7")]


def test_wick_lists_the_kernel_cells_one_wrong_entry_breaks(monkeypatch):
    # geo(-1, 1, 1, 0) = -1 raised to 0 breaks x2 d/dx2 = -d/dy1 on the
    # cell itself and on the cell below it in y1
    from zetafock import quadratic

    real = quadratic._dilated_geometric

    def off_by_one(N, y_order):
        geo = real(N, y_order)
        geo[(-1, 1, 1, 0)] += 1
        return geo

    monkeypatch.setattr(quadratic, "_dilated_geometric", off_by_one)
    rep = catalog.run_check("WICK", {"x-window": 2, "weight-cap": 1, "y-order": 2})
    assert rep.status == "fail"
    assert rep.mismatches == [_entry([-1, 1, 0, 0], "1", "0"), _entry([-1, 1, 1, 0], "0", "-1")]

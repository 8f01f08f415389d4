"""Failing runs of FOURTERM and THEOREM1, pinned byte for byte.

Each run breaks one function that a side of the identity is built
from, and its json-lines record, mismatch entries and their order
included, must equal the line stored in identity_failing_golden.jsonl:

- FOURTERM at its catalog test flags with voa._bracket_images doubled,
  which makes the left side 4x and every three-level right-side term 8x;
- THEOREM1 at x-window 2 and weight-cap 1 with the scalar sector
  doubled, and with pair_apply doubled for j > 1 (the scalar sector
  vanishes for |n| <= 1, so at the catalog test flags a doubled
  sector still passes);
- THEOREM1 at its catalog test flags with lbar_mode tripled, which
  only the zero-order slice comparison sees.

The file was written by the implementation in which voa compared its
sides as Series through series.diff_on_box and THEOREM1 compared its
dilated blocks as Fractions per partition, so a passing run here shows
that the cell tables report the same mismatches.  The FOURTERM line was
first written with voa.y_bracket_apply doubled; when the right side
became sums of nested bracket images it no longer called that function,
and the same line, byte for byte, comes from doubling _bracket_images
in the series route and in the closed form alike.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from zetafock import cli, quadratic, voa

from test_catalog import RUNS

GOLDEN = Path(__file__).with_name("identity_failing_golden.jsonl")

ARGV = {argv[0]: argv for argv in RUNS}
THEOREM1_WIDE = ["THEOREM1", "--x-window", "2", "--weight-cap", "1"] + [
    "--y-order", "1", "--y-order", "0", "--y-order", "1", "--y-order", "0"
]


def _doubled_images(real):
    return lambda *a: [(w, e, img.scaled(2)) for w, e, img in real(*a)]


def _doubled_scalars(real):
    return lambda *a: {k: 2 * c for k, c in real(*a).items()}


def _doubled_high_pairs(real):
    return lambda j, k, v: real(j, k, v).scaled(2) if j > 1 else real(j, k, v)


def _tripled_vector(real):
    return lambda *a: real(*a).scaled(3)


# (argv, module, function name, wrapper of the real function)
FAULTS = [
    (ARGV["FOURTERM"], voa, "_bracket_images", _doubled_images),
    (THEOREM1_WIDE, quadratic, "_scalar_sector", _doubled_scalars),
    (THEOREM1_WIDE, quadratic, "pair_apply", _doubled_high_pairs),
    (ARGV["THEOREM1"], quadratic, "lbar_mode", _tripled_vector),
]
IDS = ["FOURTERM-_bracket_images", "THEOREM1-_scalar_sector", "THEOREM1-pair_apply",
       "THEOREM1-lbar_mode"]


def faulty_run(index: int, monkeypatch, capsys) -> str:
    """The json-lines record of run index with its function broken."""
    argv, module, name, wrap = FAULTS[index]
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    code = cli.main(["verify"] + argv)
    out = capsys.readouterr().out
    assert code == 1
    return out


@pytest.mark.parametrize("index", range(len(FAULTS)), ids=IDS)
def test_failing_run_matches_golden(index, monkeypatch, capsys):
    line = GOLDEN.read_text().splitlines(keepends=True)[index]
    out = faulty_run(index, monkeypatch, capsys)
    record = json.loads(out)
    assert record["check-id"] == FAULTS[index][0][0]
    assert record["status"] == "fail"
    assert record["mismatches"]
    assert out == line

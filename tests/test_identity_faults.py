"""Failing runs of FOURTERM and THEOREM1, pinned byte for byte.

Each run breaks one function that a side of the identity is built
from, and its json-lines record, mismatch entries and their order
included, must equal the line stored in identity_failing_golden.jsonl:

- FOURTERM at its catalog test flags with voa._bracket_images doubled,
  which makes the left side 4x and every three-level right-side term 8x;
- THEOREM1 at x-window 2 and weight-cap 1 with the scalar sector
  doubled, and with the pair step doubled for j > 1 (the scalar sector
  vanishes for |n| <= 1, so at the catalog test flags a doubled
  sector still passes);
- THEOREM1 at its catalog test flags with lbar_mode tripled, which
  only the zero-order slice comparison sees;
- SPECIALIZE at its catalog test flags with the pair step doubled for
  j > 1, which breaks the dilated-pair table that its transport
  comparisons read, and no bracket or commutator side.

The file was written by the implementation in which voa compared its
sides as Series through series.diff_on_box and THEOREM1 compared its
dilated blocks as Fractions per partition, so a passing run here shows
that the cell tables report the same mismatches.  The FOURTERM line was
first written with voa.y_bracket_apply doubled; when the right side
became sums of nested bracket images it no longer called that function,
and the same line, byte for byte, comes from doubling _bracket_images
in the series route and in the closed form alike.

The two pair-step lines were written by doubling pair_apply(j, k, v)
for j > 1, when the dilated-pair builders applied pairs to vectors, and
SPECIALIZE compared FockVectors in its transport loop.  The builders now
take one step per basis state, quadratic._pair_image(j, k, parts), with
(j, k) in the caller's order, and pair_apply is the sum of those steps;
doubling the step for the caller's j > 1 is the same fault, and gives
the same lines byte for byte.
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
    def step(j, k, parts):
        image = real(j, k, parts)
        return (image[0], 2 * image[1]) if image and j > 1 else image

    return step


def _tripled_vector(real):
    return lambda *a: real(*a).scaled(3)


# (argv, module, function name, wrapper of the real function)
FAULTS = [
    (ARGV["FOURTERM"], voa, "_bracket_images", _doubled_images),
    (THEOREM1_WIDE, quadratic, "_scalar_sector", _doubled_scalars),
    (THEOREM1_WIDE, quadratic, "_pair_image", _doubled_high_pairs),
    (ARGV["THEOREM1"], quadratic, "lbar_mode", _tripled_vector),
    (ARGV["SPECIALIZE"], quadratic, "_pair_image", _doubled_high_pairs),
]
IDS = ["FOURTERM-_bracket_images", "THEOREM1-_scalar_sector", "THEOREM1-pair_apply",
       "THEOREM1-lbar_mode", "SPECIALIZE-_pair_image"]


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

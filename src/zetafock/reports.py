"""Check outcome records and their deterministic serialization.

Every catalog check returns a CheckReport: the check id, the parameter
block it ran with, a status (pass or fail), and the list of
coefficient mismatches (empty on success).  Reports serialize to
json-lines for machine use and to a aligned-column table for humans.
The json-lines form is byte-identical across reruns with the same
configuration, so volatile fields (elapsed time) stay out of it.
"""

from __future__ import annotations

import json
import time
from fractions import Fraction
from typing import Any, Callable, Mapping, Sequence

from .fock import FockVector

STATUS_PASS = "pass"
STATUS_FAIL = "fail"

# most mismatch entries a report lists; the total is kept in its params
MISMATCH_CAP = 200


def format_scalar(value: Fraction | int) -> str:
    """Render an exact rational as ``p`` or ``p/q`` with q > 0 in lowest terms."""
    f = Fraction(value)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def serialize_vector(v: FockVector) -> list[dict[str, Any]]:
    """State vector as a list of {parts, coeff} rows, sorted by weight then parts."""
    return [
        {"parts": list(parts), "coeff": format_scalar(c)}
        for parts, c in v.terms()
    ]


def mismatch_entry(
    monomial: Sequence[int],
    lhs: Fraction | int,
    rhs: Fraction | int,
    target: FockVector,
) -> dict[str, Any]:
    """One offending coefficient: where it sits, both values, and the probe vector."""
    return {
        "monomial": list(monomial),
        "lhs": format_scalar(lhs),
        "rhs": format_scalar(rhs),
        "target": serialize_vector(target),
    }


def note_diff(
    mismatches: list[dict[str, Any]],
    prefix: Sequence[int],
    lhs: "FockVector | None",
    rhs: "FockVector | None",
    target: FockVector,
) -> None:
    """Append one entry per basis state where two vectors differ.

    The entry's monomial is prefix followed by the parts of that basis
    state; None stands for the zero vector (a cell absent from a table)."""
    lhs = lhs or FockVector.zero()
    rhs = rhs or FockVector.zero()
    if lhs == rhs:
        return
    for parts, _ in (lhs - rhs).terms():
        mismatches.append(
            mismatch_entry(list(prefix) + list(parts), lhs.coeff(parts), rhs.coeff(parts), target)
        )


class CheckReport:
    """One check's outcome; each report gets its own mismatch list."""

    def __init__(
        self,
        check_id: str,
        params: dict[str, Any],
        status: str,
        mismatches: "list[dict[str, Any]] | None" = None,
        elapsed_ms: int = 0,
    ) -> None:
        self.check_id = check_id
        self.params = params
        self.status = status
        self.mismatches = [] if mismatches is None else mismatches
        self.elapsed_ms = elapsed_ms

    @property
    def passed(self) -> bool:
        return self.status == STATUS_PASS

    def to_json_obj(self) -> dict[str, Any]:
        # elapsed_ms deliberately omitted: reruns must be byte-identical.
        return {
            "check-id": self.check_id,
            "params": self.params,
            "status": self.status,
            "mismatches": self.mismatches,
        }


def timed_check(
    check_id: str,
    params: dict[str, Any],
    body: Callable[[dict[str, Any], list[dict[str, Any]]], None],
) -> CheckReport:
    """Run body(params, mismatches) and report it.

    The body appends mismatch entries and may add derived fields to
    params.  The status is pass iff the body listed no mismatch.
    FockVector params are serialized; a mismatch list longer than
    MISMATCH_CAP is cut and its full length kept as mismatches-total."""
    t0 = time.monotonic()
    mismatches: list[dict[str, Any]] = []
    body(params, mismatches)
    shown = {
        k: serialize_vector(v) if isinstance(v, FockVector) else v
        for k, v in params.items()
    }
    if len(mismatches) > MISMATCH_CAP:
        shown["mismatches-total"] = len(mismatches)
        mismatches = mismatches[:MISMATCH_CAP]
    status = STATUS_FAIL if mismatches else STATUS_PASS
    elapsed = int((time.monotonic() - t0) * 1000)
    return CheckReport(check_id, shown, status, mismatches, elapsed)


def _json_default(obj: Any) -> Any:
    if isinstance(obj, Fraction):
        return format_scalar(obj)
    raise TypeError(f"not serializable: {obj!r}")


def render_json_lines(reports: Sequence[CheckReport]) -> str:
    """One compact JSON object per line, fixed key order, trailing newline."""
    lines = [
        json.dumps(r.to_json_obj(), separators=(",", ":"), default=_json_default)
        for r in reports
    ]
    return "".join(line + "\n" for line in lines)


def _params_summary(params: Mapping[str, Any]) -> str:
    parts = []
    for key, val in params.items():
        if isinstance(val, (list, tuple)):
            txt = ",".join(str(x) for x in val)
            parts.append(f"{key}=[{txt}]")
        else:
            parts.append(f"{key}={val}")
    return " ".join(parts)


def render_table(reports: Sequence[CheckReport]) -> str:
    """Aligned human-readable summary, one check per row plus mismatch details."""
    if not reports:
        return "(no checks selected)\n"
    id_w = max(len(r.check_id) for r in reports)
    st_w = max(len(r.status) for r in reports)
    out = []
    for r in reports:
        summary = _params_summary(r.params)
        out.append(
            f"{r.check_id:<{id_w}}  {r.status:<{st_w}}  {r.elapsed_ms:>6d} ms  {summary}".rstrip()
        )
        for m in r.mismatches[:5]:
            mono = ",".join(str(e) for e in m["monomial"])
            out.append(f"  at ({mono}): lhs={m['lhs']} rhs={m['rhs']}")
        # a capped list keeps its full length as mismatches-total
        extra = r.params.get("mismatches-total", len(r.mismatches)) - 5
        if extra > 0:
            out.append(f"  ... {extra} more mismatches")
    return "".join(line + "\n" for line in out)


def render_reports(reports: Sequence[CheckReport], fmt: str = "json-lines") -> str:
    if fmt == "json-lines":
        return render_json_lines(reports)
    if fmt == "table":
        return render_table(reports)
    raise ValueError(f"unknown format: {fmt!r}")

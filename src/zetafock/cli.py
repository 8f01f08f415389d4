"""Command line front end.

``zetafock verify <suite|check-id>`` runs catalog checks and emits
deterministic reports; ``zetafock table <name> --max K`` prints scalar
tables.  Exit code 0 means every selected check passed, 1 means at
least one failed, 2 means a usage or configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys

from .catalog import CATALOG_IDS, FLAGS, SUITES, SelectionError, run_suite
from .fock import graded_dim
from .quadratic import bernoulli, zeta_neg
from .reports import format_scalar, render_reports

# verify settings: the suite, the check flags, and the output options;
# each is a config key and, apart from suite, a --flag of the same name
_KEYS = ("suite", *FLAGS, "y-order", "format", "out")
_FORMATS = ("json-lines", "table")


class UsageError(Exception):
    pass


def _parse_int(key: str, text: str, least: "int | None") -> int:
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"{key} expects an integer, got {text!r}") from None
    if least is not None and value < least:
        raise UsageError(f"{key} must be at least {least}, got {value}")
    return value


def _load_config(path: str) -> dict:
    """Flat key=value file; blank lines and # comments ignored.

    y-order takes comma-separated values.  A repeated key or an empty
    y-order entry is an error, since either would drop a value."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    data: dict = {}
    line_of: dict = {}
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise UsageError(f"{path}:{ln}: unknown config key {key!r}")
        if key in line_of:
            raise UsageError(
                f"{path}:{ln}: config key {key!r} repeats line {line_of[key]}"
            )
        line_of[key] = ln
        if key == "y-order":
            value = [p.strip() for p in value.split(",")]
            if "" in value:
                raise UsageError(f"{path}:{ln}: empty y-order entry in {line!r}")
        data[key] = value
    return data


def _settings(args) -> dict:
    """The config file's values overlaid by the command line's, each
    parsed and checked once, whichever source gave it."""
    given = {k: v for k, v in vars(args).items() if k in _KEYS and v is not None}
    raw = {**(_load_config(args.config) if args.config else {}), **given}
    out = dict(raw)
    for flag, least in FLAGS.items():
        if flag in raw:
            out[flag] = _parse_int(flag, raw[flag], least)
    if "y-order" in raw:
        out["y-order"] = [_parse_int("y-order", t, 0) for t in raw["y-order"]]
    if out.setdefault("format", _FORMATS[0]) not in _FORMATS:
        raise UsageError(f"unknown format {out['format']!r}")
    _check_out(out.get("out"))
    return out


def _check_out(out: "str | None") -> None:
    """Reject an output path that cannot be written before any work runs.

    The file itself is not opened here, so an existing one keeps its
    bytes until the report is ready."""
    if out is None:
        return
    if not out:
        raise UsageError("out expects a file path, got ''")
    if os.path.isdir(out):
        raise UsageError(f"cannot write {out!r}: it is a directory")
    folder = os.path.dirname(out) or "."
    if not os.path.isdir(folder):
        raise UsageError(f"cannot write {out!r}: no directory {folder!r}")
    if not os.access(folder, os.W_OK) or (
        os.path.exists(out) and not os.access(out, os.W_OK)
    ):
        raise UsageError(f"cannot write {out!r}: permission denied")


def _emit(text: str, out: "str | None") -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {out!r}: {exc.strerror or exc}") from None


def _cmd_verify(args) -> int:
    cfg = _settings(args)
    flags = {k: cfg[k] for k in (*FLAGS, "y-order") if k in cfg}
    # only the selection is a usage error; an exception from a check body
    # is a fault of the program and propagates
    try:
        reports = run_suite(cfg.get("suite"), flags)
    except SelectionError as exc:
        raise UsageError(str(exc)) from None
    _emit(render_reports(reports, cfg["format"]), cfg.get("out"))
    return 0 if all(r.passed for r in reports) else 1


def _cmd_table(args) -> int:
    K = args.max
    if K < 0:
        raise UsageError(f"--max must be nonnegative, got {K}")
    _check_out(args.out)
    lines = []
    if args.name == "bernoulli":
        for k in range(K + 1):
            lines.append(f"{k}\t{format_scalar(bernoulli(k))}")
    elif args.name == "zeta":
        # rows pair B_k with zeta(1-k); the zeta column starts at k = 2
        for k in range(2, max(K, 1) + 1):
            lines.append(
                f"{k}\t{format_scalar(bernoulli(k))}\t{format_scalar(zeta_neg(k))}"
            )
    else:
        for n in range(K + 1):
            lines.append(f"{n}\t{graded_dim(n)}")
    _emit("".join(line + "\n" for line in lines), args.out)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zetafock",
        description="exact verification of free-boson operator identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ver = sub.add_parser("verify", help="run a suite or a single check")
    ver.add_argument(
        "suite",
        nargs="?",
        default=None,
        metavar="selection",
        help=f"suite ({', '.join(SUITES)}) or check id ({', '.join(CATALOG_IDS)})",
    )
    for flag in FLAGS:
        ver.add_argument(f"--{flag}", dest=flag, metavar="N", default=None)
    ver.add_argument(
        "--y-order",
        dest="y-order",
        metavar="N",
        action="append",
        default=None,
        help="series order per auxiliary variable; repeat for several variables",
    )
    ver.add_argument("--format", default=None, help=" or ".join(_FORMATS))
    ver.add_argument("--out", default=None, help="write the report here instead of stdout")
    ver.add_argument("--config", default=None, help="flat key=value settings file")
    ver.set_defaults(func=_cmd_verify)

    tab = sub.add_parser("table", help="print a scalar table")
    tab.add_argument("name", choices=("bernoulli", "zeta", "partitions"))
    tab.add_argument("--max", type=int, required=True)
    tab.add_argument("--out", default=None)
    tab.set_defaults(func=_cmd_table)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"zetafock: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command line front end.

``zetafock verify <suite|check-id>`` runs catalog checks and emits
deterministic reports; ``zetafock table <name> --max K`` prints scalar
tables.  Exit code 0 means every selected check passed, 1 means at
least one failed or hit an insufficient window, 2 means a usage or
configuration error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from .catalog import CATALOG_IDS, SUITES, run_suite
from .fock import graded_dim
from .quadratic import bernoulli, zeta_neg
from .reports import format_scalar, render_reports

_CONFIG_KEYS = (
    "suite",
    "weight-cap",
    "x-window",
    "y-order",
    "mode-range",
    "seed",
    "format",
    "out",
)
_FORMATS = ("json-lines", "table")


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """Resolved verify-run settings; None fields fall back to per-check defaults."""

    selection: "str | None" = None
    weight_cap: "int | None" = None
    x_window: "int | None" = None
    y_orders: "list[int]" = field(default_factory=list)
    mode_range: "int | None" = None
    seed: "int | None" = None
    fmt: str = "json-lines"
    out: "str | None" = None

    def flags(self) -> dict:
        """The check flags that were set, by flag name."""
        values = {
            "weight-cap": self.weight_cap,
            "x-window": self.x_window,
            "y-order": self.y_orders or None,
            "mode-range": self.mode_range,
            "seed": self.seed,
        }
        return {k: v for k, v in values.items() if v is not None}


def _positive(key: str, value: int) -> int:
    if value < 1:
        raise UsageError(f"{key} must be positive, got {value}")
    return value


def _parse_int(key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise UsageError(f"{key} expects an integer, got {text!r}") from None


def _load_config(path: str) -> dict:
    """Flat key=value file; blank lines and # comments ignored."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    data: dict = {}
    for ln, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{ln}: unknown config key {key!r}")
        data[key] = value
    return data


def _config_from_sources(args) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        data = _load_config(args.config)
        if "suite" in data:
            cfg.selection = data["suite"]
        if "weight-cap" in data:
            cfg.weight_cap = _positive("weight-cap", _parse_int("weight-cap", data["weight-cap"]))
        if "x-window" in data:
            cfg.x_window = _positive("x-window", _parse_int("x-window", data["x-window"]))
        if "y-order" in data:
            parts = [p for p in data["y-order"].split(",") if p.strip()]
            cfg.y_orders = [_parse_int("y-order", p) for p in parts]
        if "mode-range" in data:
            cfg.mode_range = _positive("mode-range", _parse_int("mode-range", data["mode-range"]))
        if "seed" in data:
            cfg.seed = _parse_int("seed", data["seed"])
        if "format" in data:
            if data["format"] not in _FORMATS:
                raise UsageError(f"unknown format {data['format']!r}")
            cfg.fmt = data["format"]
        if "out" in data:
            cfg.out = data["out"]
    # command-line flags override the file
    if args.selection is not None:
        cfg.selection = args.selection
    if args.weight_cap is not None:
        cfg.weight_cap = _positive("weight-cap", args.weight_cap)
    if args.x_window is not None:
        cfg.x_window = _positive("x-window", args.x_window)
    if args.y_order:
        cfg.y_orders = list(args.y_order)
    if args.mode_range is not None:
        cfg.mode_range = _positive("mode-range", args.mode_range)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.format is not None:
        cfg.fmt = args.format
    if args.out is not None:
        cfg.out = args.out
    for order in cfg.y_orders:
        if order < 0:
            raise UsageError(f"y-order must be nonnegative, got {order}")
    return cfg


def _emit(text: str, out: "str | None") -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_verify(args) -> int:
    cfg = _config_from_sources(args)
    try:
        reports = run_suite(cfg.selection, cfg.flags())
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    _emit(render_reports(reports, cfg.fmt), cfg.out)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_table(args) -> int:
    K = args.max
    if K < 0:
        raise UsageError(f"--max must be nonnegative, got {K}")
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
        "selection",
        nargs="?",
        default=None,
        help=f"suite ({', '.join(SUITES)}) or check id ({', '.join(CATALOG_IDS)})",
    )
    ver.add_argument("--weight-cap", type=int, default=None)
    ver.add_argument("--x-window", type=int, default=None)
    ver.add_argument(
        "--y-order",
        type=int,
        action="append",
        default=None,
        help="series order per auxiliary variable; repeat for several variables",
    )
    ver.add_argument("--mode-range", type=int, default=None)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--format", choices=_FORMATS, default=None)
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

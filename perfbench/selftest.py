#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

Run from the repository root:

    python3 perfbench/selftest.py

It shows that the output check can fail: a failing status, a wrong check
id and nonzero exit codes, both fabricated and from a real child running
an unknown check id, each raise fail_ratio above zero.  It also shows that
the tracer reports a missing hook target as absent and still counts the
hooks that remain.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import spans

PASS_ROW = {"check-id": "HEISENBERG", "params": {}, "status": "pass", "mismatches": []}


def report(**changes) -> bytes:
    return (json.dumps(dict(PASS_ROW, **changes)) + "\n").encode()


def require(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest failed: {message}")


def test_judge() -> None:
    ok = run.judge(0, report(), "HEISENBERG")
    require(ok is None, f"a passing report was judged failed: {ok}")
    cases = {
        "failing status": (0, report(status="fail")),
        "insufficient window": (0, report(status="window-insufficient")),
        "wrong check id": (0, report(**{"check-id": "VIRASORO"})),
        "nonzero exit code": (1, report(status="fail")),
        "missing report": (0, None),
    }
    failures = [None]
    for label, (code, data) in cases.items():
        reason = run.judge(code, data, "HEISENBERG")
        require(reason is not None, f"{label} was judged passing")
        before = run.fail_ratio(failures)
        failures.append(reason)
        require(run.fail_ratio(failures) > before, f"fail_ratio did not rise on {label}")


def test_child_exit_code() -> None:
    bench = run.Bench("mode-grid", seed=1, seconds=0)
    bench.commands = [
        ["verify", "HEISENBERG", "--weight-cap", "1", "--mode-range", "1"],
        ["verify", "NO-SUCH-CHECK"],
    ]
    bench.work.mkdir(parents=True, exist_ok=True)
    try:
        done = bench.run_pass(traced=False)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    require(done["failures"][0] is None, f"passing command failed: {done['failures'][0]}")
    require(done["failures"][1] == "exit code 2", f"usage error not caught: {done['failures'][1]}")
    require(run.fail_ratio(done["failures"]) == 0.5, "fail_ratio is not 1 of 2")
    require(done["sha256"][0] is not None, "no sha256 for the written report")


def test_absent_hook() -> None:
    sys.path.insert(0, str(run.SRC))
    import zetafock.cli

    spans.SPANS += (("voa.gone", "voa", "_no_such_kernel"),)
    spans.CACHES += (("quadratic.gone_cache", "quadratic", "_no_such_cache"),)
    tracer = spans.Tracer().install()
    require(
        {"voa.gone", "quadratic.gone_cache"} <= set(tracer.absent),
        f"missing targets not reported absent: {tracer.absent}",
    )
    run.WORK.mkdir(parents=True, exist_ok=True)
    out = run.WORK / "selftest.jsonl"
    try:
        code = zetafock.cli.main(["verify", "HEISENBERG", "--weight-cap", "1", "--out", str(out)])
    finally:
        out.unlink(missing_ok=True)
    require(code == 0, f"traced verify exited {code}")
    counts = tracer.counts()
    require(counts["fock.h_apply.calls"] > 0, "h_apply calls not counted")
    require(counts["cli.main.calls"] == 1, "cli.main not counted once")
    require("voa.gone.calls" not in counts, "an absent hook produced a count")


def main() -> int:
    test_judge()
    test_child_exit_code()
    test_absent_hook()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())

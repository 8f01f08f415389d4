#!/usr/bin/env python3
"""zetafock benchmark: cold-process verify workloads.

Run from the repository root:

    python3 perfbench/run.py --workload mode-grid --seed 1 --seconds 44 --trace 0

Closed loop, one client.  Each pass spawns one fresh child (child.py) that
imports zetafock from ``src`` and runs the workload's verify commands in
order through ``zetafock.cli.main`` with ``--out`` files, so caches start
cold as on every CLI call and are shared between the commands of a pass.
One child runs at a time.  Another pass starts only if it should end
within ``--seconds``, judged by the last pass of its kind; there is always
at least one.  Extra import-only children before each pass sample set-up
time.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json as medians
over passes.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics; ``trace.overhead_s`` is the traced minus the
untraced median wall time.

The parent checks every command: exit code 0, one report whose check id is
the selected one, status ``pass``, and json-lines bytes equal to those of
the first pass.  The last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit, ``fail_ratio``, the run metadata and each
command's output sha256.  Without ``src/zetafock`` it exits 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

SETUP_PER_PASS = 5  # import-only children before each pass, besides the pass itself
RUN_LIMIT_S = 170  # every run must end within 180 s


def git_commit(root: Path) -> "str | None":
    """HEAD's commit read from the .git directory, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def judge(code: int, report: "bytes | None", selection: str) -> "str | None":
    """Why one command failed, or None if it passed.

    A command fails on a nonzero exit code, a missing report, a check-id
    list other than the selected id, or any status other than pass."""
    if code != 0:
        return f"exit code {code}"
    if report is None:
        return "no report written"
    try:
        rows = [json.loads(line) for line in report.decode().splitlines()]
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return f"unreadable report: {exc}"
    ids = [row.get("check-id") for row in rows]
    if ids != [selection]:
        return f"check ids {ids}, expected {[selection]}"
    bad = [row.get("status") for row in rows if row.get("status") != "pass"]
    if bad:
        return f"status {bad[0]}"
    return None


def fail_ratio(failures: "list[str | None]") -> float:
    return sum(f is not None for f in failures) / len(failures)


class Bench:
    def __init__(self, workload: str, seed: int, seconds: int) -> None:
        self.commands = spec.commands(workload, seed)
        self.seconds = seconds
        self.start = time.monotonic()
        self.work = WORK / str(os.getpid())
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        # fixed string hashing, so traced counts repeat exactly across runs
        self.env["PYTHONHASHSEED"] = "0"
        self.first_sha: "list[str | None]" = []

    def _timeout(self) -> float:
        return max(5.0, RUN_LIMIT_S - (time.monotonic() - self.start))

    def setup_sample(self) -> float:
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), "--setup-only"],
            env=self.env, capture_output=True, text=True, timeout=self._timeout(),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        return json.loads(proc.stdout.splitlines()[-1])["ready"] - spawned

    def run_pass(self, traced: bool) -> dict:
        outs = [self.work / f"cmd{i}.jsonl" for i in range(len(self.commands))]
        for out in outs:
            out.unlink(missing_ok=True)
        payload = json.dumps({
            "commands": [cmd + ["--out", str(out)] for cmd, out in zip(self.commands, outs)],
            "trace": traced,
        })
        began = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py")], input=payload, env=self.env,
                capture_output=True, text=True, timeout=self._timeout(),
            )
            child = json.loads(proc.stdout.splitlines()[-1]) if proc.returncode == 0 else None
        except subprocess.TimeoutExpired:
            proc, child = None, None
        result: dict = {"traced": traced}
        if child is None:
            reason = "timed out" if proc is None else f"child exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
            result["failures"] = [reason] * len(outs)
            result["sha256"] = [None] * len(outs)
            return result
        result.update(child)
        result["setup_s"] = child["ready"] - began
        failures, shas, size = [], [], 0
        for i, (cmd, out, code) in enumerate(zip(self.commands, outs, child["codes"])):
            report = out.read_bytes() if out.is_file() else None
            sha = hashlib.sha256(report).hexdigest() if report is not None else None
            size += len(report or b"")
            reason = judge(code, report, cmd[1])
            if len(self.first_sha) <= i:
                self.first_sha.append(sha)
            elif reason is None and sha != self.first_sha[i]:
                reason = "json-lines bytes differ from the first pass"
            failures.append(reason)
            shas.append(sha)
        result["failures"], result["sha256"], result["bytes_out"] = failures, shas, size
        return result

    def run(self, trace: bool) -> "tuple[list[float], list[dict]]":
        self.work.mkdir(parents=True, exist_ok=True)
        setups: "list[float]" = []
        passes: "list[dict]" = []
        kinds = [False, True] if trace else [False]
        last_s: "dict[bool, float]" = {}  # duration of the last pass of each kind
        try:
            while True:
                traced = kinds[len(passes) % len(kinds)]
                elapsed = time.monotonic() - self.start
                # start another pass only if it should end within --seconds
                if len(passes) >= len(kinds) and elapsed + last_s[traced] > self.seconds:
                    break
                began = time.monotonic()
                # set-up samples spread over the run, not bunched at its start
                setups.extend(self.setup_sample() for _ in range(SETUP_PER_PASS))
                done = self.run_pass(traced)
                last_s[traced] = time.monotonic() - began
                passes.append(done)
                if "wall_s" not in done or any(f is not None for f in done["failures"]):
                    break
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
        return setups, passes


def metric_values(setups, passes, trace: bool) -> "tuple[dict[str, float], list[str], list[str]]":
    """Metric values, absent hooks, and inconsistencies between traced passes."""
    timed = [p for p in passes if "wall_s" in p]
    plain = [p for p in timed if not p["traced"]]
    values = {
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "setup_s": statistics.median(setups + [p["setup_s"] for p in timed]),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
    }
    if not trace:
        return values, [], []
    traced = [p for p in timed if p["traced"]]
    problems = [
        f"traced pass {i + 1} counts differ from the first"
        for i, p in enumerate(traced) if p["counts"] != traced[0]["counts"]
    ]
    layer = dict(traced[0]["counts"], **{"reports.bytes_out": traced[0]["bytes_out"]})
    for name in traced[0]["times"]:
        layer[name] = statistics.median(p["times"][name] for p in traced)
    layer["trace.overhead_s"] = statistics.median(p["wall_s"] for p in traced) - values["wall_s"]
    return layer, traced[0]["absent"], problems


def main(argv: "list[str] | None" = None) -> int:
    bench_file = ROOT / "BENCHMARK.json"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "zetafock" / "cli.py").is_file():
        print(f"error: no zetafock sources under {SRC}", file=sys.stderr)
        return 2
    try:
        bench = json.loads(bench_file.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {bench_file}: {exc}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(ROOT),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loadavg_start": os.getloadavg(),
    }

    setups, passes = Bench(args.workload, args.seed, args.seconds).run(trace)
    failures = [f for p in passes for f in p["failures"]]
    meta.update(
        loadavg_end=os.getloadavg(),
        passes=len(passes),
        traced_passes=sum(p["traced"] for p in passes),
        setup_samples=len(setups) + sum("setup_s" in p for p in passes),
        commands=spec.commands(args.workload, args.seed),
    )
    failed = sum(f is not None for f in failures)
    if {p["traced"] for p in passes if "wall_s" in p} != {False, trace}:
        print(json.dumps({"meta": meta, "failures": failures}), file=sys.stderr)
        print("error: no pass completed", file=sys.stderr)
        return 1
    values, absent, problems = metric_values(setups, passes, trace)

    metrics = {}
    for m in wanted:
        name = m["name"]
        # per-layer lines also say which end-to-end metric the layer should move
        moves = "".join(
            f"  -> {e2e} on {', '.join(workloads)}" for e2e, workloads in spec.expected_moves(name)
        ) if trace else ""
        if name in values:
            metrics[name] = {"value": values[name], "unit": m["unit"]}
            print(f"{name} = {values[name]:.6g} {m['unit']}{moves}")
        else:
            print(f"{name} absent: its hook target is missing{moves}")
    print(f"fail_ratio = {fail_ratio(failures):.6g} ratio ({failed} of {len(failures)} commands)")
    meta["absent"] = absent
    meta["problems"] = problems
    meta["passes_detail"] = [
        {k: p.get(k) for k in ("traced", "setup_s", "wall_s", "peak_rss_mb", "failures", "sha256")}
        for p in passes
    ]
    print("run " + json.dumps(meta))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": len(failures),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
